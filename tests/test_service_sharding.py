"""Shard-equivalence property tests.

The service layer's core guarantee: for every query, the sharded engine
returns *exactly* the single-index answer — same ranking ids, same
distances, same tie order — for any registered algorithm and any shard
count.  These tests assert that guarantee over randomised datasets (three
generator seeds), three registered algorithms, and shard counts {1, 2, 4},
for both range queries and k-NN, against the single-index ``FilterValidate``
baseline (range) and an exhaustive scan (k-NN).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import pytest

from repro.core.distances import footrule_topk_raw, max_footrule_distance
from repro.core.ranking import RankingSet
from repro.datasets.queries import sample_queries
from repro.datasets.synthetic import DatasetSpec, generate_clustered_rankings
from repro.algorithms.filter_validate import FilterValidate
from repro.service.sharding import ShardedIndex

#: Three registered algorithms spanning the index families: plain inverted
#: index, rank-augmented merge, and the paper's coarse hybrid.
EQUIVALENCE_ALGORITHMS = ("F&V", "ListMerge", "Coarse+Drop")

SHARD_COUNTS = (1, 2, 4)

DATASET_SEEDS = (7, 23, 91)

THETAS = (0.1, 0.3)


def random_dataset(seed: int) -> RankingSet:
    spec = DatasetSpec(
        n=120, k=8, domain_size=300, zipf_s=0.7, cluster_size=4, seed=seed
    )
    return generate_clustered_rankings(spec)


@pytest.fixture(scope="module", params=DATASET_SEEDS)
def dataset(request):
    rankings = random_dataset(request.param)
    queries = sample_queries(rankings, 6, seed=request.param + 1)
    return rankings, queries


def brute_force_knn(rankings: RankingSet, query, n_neighbours: int) -> list[tuple[float, int]]:
    maximum = max_footrule_distance(rankings.k)
    scored = sorted(
        (footrule_topk_raw(query, ranking) / maximum, ranking.rid) for ranking in rankings
    )
    return scored[:n_neighbours]


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("algorithm", EQUIVALENCE_ALGORITHMS)
def test_range_query_matches_single_index_baseline(dataset, algorithm, num_shards):
    rankings, queries = dataset
    baseline = FilterValidate.build(rankings)
    with ShardedIndex.build(rankings, num_shards=num_shards) as sharded:
        for query in queries:
            for theta in THETAS:
                expected = baseline.search(query, theta)
                merged = sharded.range_query(query, theta, algorithm)
                assert merged.rids == expected.rids
                assert merged.distances() == pytest.approx(expected.distances())
                # ordering (distance, rid) must match the single-index answer
                assert [m.rid for m in merged.matches] == [m.rid for m in expected.matches]


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("algorithm", EQUIVALENCE_ALGORITHMS)
def test_knn_matches_exhaustive_scan(dataset, algorithm, num_shards):
    rankings, queries = dataset
    with ShardedIndex.build(rankings, num_shards=num_shards) as sharded:
        for query in queries:
            for n_neighbours in (1, 5, 12):
                expected = brute_force_knn(rankings, query, n_neighbours)
                answer = sharded.knn(query, n_neighbours, algorithm)
                got = [(n.distance, n.rid) for n in answer.neighbours]
                assert [rid for _, rid in got] == [rid for _, rid in expected]
                assert [d for d, _ in got] == pytest.approx([d for d, _ in expected])


def test_knn_exact_on_disjoint_rankings():
    """Distance-1.0 rankings are unreachable by range queries; the
    brute-force fallback must still surface them."""
    rankings = RankingSet.from_lists(
        [
            [1, 2, 3, 4],
            [1, 2, 4, 3],
            [10, 11, 12, 13],
            [20, 21, 22, 23],
            [30, 31, 32, 33],
        ]
    )
    query = rankings[0]
    with ShardedIndex.build(rankings, num_shards=2) as sharded:
        answer = sharded.knn(query, 5, "F&V")
        assert [n.rid for n in answer.neighbours] == [0, 1, 2, 3, 4]
        assert answer.neighbours[-1].distance == pytest.approx(1.0)


def test_knn_larger_than_collection(paper_rankings, query_k5):
    with ShardedIndex.build(paper_rankings, num_shards=4) as sharded:
        answer = sharded.knn(query_k5, 50, "F&V")
        assert len(answer.neighbours) == len(paper_rankings)
        distances = [n.distance for n in answer.neighbours]
        assert distances == sorted(distances)


def test_round_robin_partition_is_balanced_and_ordered():
    rankings = random_dataset(5)
    sharded = ShardedIndex.build(rankings, num_shards=4)
    sizes = sharded.shard_sizes
    assert sum(sizes) == len(rankings)
    assert max(sizes) - min(sizes) <= 1
    # local-id order must preserve global-id order (tie-breaking depends on it)
    for shard_rids in sharded._current_build().global_rids:
        assert list(shard_rids) == sorted(shard_rids)
    sharded.close()


def test_shard_count_is_capped_by_collection_size():
    rankings = RankingSet.from_lists([[1, 2, 3], [4, 5, 6]])
    sharded = ShardedIndex.build(rankings, num_shards=16)
    assert sharded.num_shards == 2
    sharded.close()


def test_invalid_configurations_are_rejected():
    rankings = RankingSet.from_lists([[1, 2, 3]])
    with pytest.raises(ValueError):
        ShardedIndex.build(rankings, num_shards=0)
    with pytest.raises(ValueError):
        ShardedIndex.build(RankingSet(k=3), num_shards=1)
    sharded = ShardedIndex.build(rankings, num_shards=1)
    with pytest.raises(ValueError):
        sharded.rebuild(num_shards=-1)
    with pytest.raises(ValueError):
        sharded.knn(rankings[0], 0, "F&V")
    sharded.close()


def test_rebuild_bumps_version_and_repartitions():
    rankings = random_dataset(11)
    sharded = ShardedIndex.build(rankings, num_shards=2)
    query = rankings[0]
    before = sharded.range_query(query, 0.2, "F&V")
    assert sharded.version == 0
    sharded.rebuild(num_shards=4)
    assert sharded.version == 1
    assert sharded.num_shards == 4
    after = sharded.range_query(query, 0.2, "F&V")
    assert after.rids == before.rids
    assert after.distances() == pytest.approx(before.distances())
    sharded.close()


def test_rebuild_under_concurrent_queries_neither_deadlocks_nor_corrupts():
    """Callers racing a rebuild finish on their pinned epoch with exact answers.

    Every caller runs its own fan-out, so the index's shared state (build
    snapshot, instance table) sees as many threads as there are callers:
    four here, mixing range and k-NN.
    """
    rankings = random_dataset(3)
    baseline = FilterValidate.build(rankings)
    queries = sample_queries(rankings, 4, seed=9)
    expected_range = {query: baseline.search(query, 0.2).rids for query in queries}
    expected_knn = {
        query: [rid for _, rid in brute_force_knn(rankings, query, 5)] for query in queries
    }
    errors: list[BaseException] = []
    passes = [0, 0, 0, 0]

    with ShardedIndex.build(rankings, num_shards=2) as sharded:
        stop = threading.Event()

        def hammer_queries(caller: int) -> None:
            try:
                while not stop.is_set():
                    for index, query in enumerate(queries):
                        if (caller + index) % 2:
                            answer = sharded.knn(query, 5, "F&V")
                            assert [n.rid for n in answer.neighbours] == expected_knn[query]
                        else:
                            answer = sharded.range_query(query, 0.2, "F&V")
                            assert answer.rids == expected_range[query]
                    passes[caller] += 1
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        callers = [threading.Thread(target=hammer_queries, args=(i,)) for i in range(4)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for count in (3, 4, 1, 2, 3):
                time.sleep(0.02)  # let queries land on every epoch
                sharded.rebuild(num_shards=count)
        finally:
            stop.set()
            for caller in callers:
                caller.join(timeout=30)
            sys.setswitchinterval(switch_interval)
        assert not any(caller.is_alive() for caller in callers), "deadlocked against rebuild"
        assert not errors, errors
        assert all(passes), passes
        assert sharded.version == 5


def test_queries_start_no_threads_or_processes():
    """Shards are visited in the calling thread, so ``close()`` owns nothing."""
    rankings = random_dataset(7)
    query = sample_queries(rankings, 1, seed=2)[0]
    threads, children = threading.active_count(), multiprocessing.active_children()
    sharded = ShardedIndex.build(rankings, num_shards=4)
    before = sharded.range_query(query, 0.3, "F&V")
    sharded.knn(query, 5, "F&V")
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children
    sharded.close()
    after = sharded.range_query(query, 0.3, "F&V")
    assert [(m.rid, m.distance) for m in after] == [(m.rid, m.distance) for m in before]


def test_prepare_forwards_to_every_shard(paper_rankings, query_k5):
    """Minimal F&V works through shards once its oracle lists are prepared."""
    baseline = FilterValidate.build(paper_rankings)
    with ShardedIndex.build(paper_rankings, num_shards=3) as sharded:
        sharded.prepare(query_k5, 0.3, "MinimalF&V")
        answer = sharded.range_query(query_k5, 0.3, "MinimalF&V")
        assert answer.rids == baseline.search(query_k5, 0.3).rids


def test_prepare_rejects_algorithms_without_offline_step(paper_rankings, query_k5):
    with ShardedIndex.build(paper_rankings, num_shards=2) as sharded:
        with pytest.raises(TypeError):
            sharded.prepare(query_k5, 0.3, "F&V")


def test_merged_stats_aggregate_shard_counters(dataset):
    rankings, queries = dataset
    with ShardedIndex.build(rankings, num_shards=4) as sharded:
        result = sharded.range_query(queries[0], 0.2, "F&V")
        assert result.stats.extra["shards_queried"] == sharded.num_shards == 4
        assert result.stats.distance_calls > 0
        assert result.stats.total_seconds >= 0.0
        # the CPU sum across shards is preserved separately from wall time
        assert result.stats.extra["shard_seconds"] >= 0.0
        assert result.stats.results == len(result)
        # the paper's cost counters are the sums over the shards' own searches
        direct = [
            sharded.shard_algorithm(shard, "F&V").search(queries[0], 0.2).stats
            for shard in range(sharded.num_shards)
        ]
        for counter in ("distance_calls", "postings_scanned", "candidates"):
            assert getattr(result.stats, counter) == sum(
                getattr(stats, counter) for stats in direct
            ), counter
