"""Exhaustive small-scope checks of the Footrule block kernel.

``footrule_block`` scores a whole block of stored rankings through the gain
identity ``d = k(k+1) - sum 2 * (k - max(r, j))`` over shared items at ranks
``r`` (query) and ``j`` (stored); ``footrule_topk_raw``
is the item-at-a-time reference.  Every top-3 list over 6 items and every
top-4 list over 7 items is small enough to check against every other one,
and every raw threshold (plus every midpoint) of a top-3 collection is small
enough to check each kernel-validated algorithm against brute force.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from repro.algorithms import base
from repro.algorithms.base import RankingSearchAlgorithm
from repro.algorithms.knn import BruteForceKNN, exact_local_top
from repro.algorithms.minimal_fv import MinimalFilterValidate
from repro.algorithms.registry import make_algorithm
from repro.core import distances
from repro.core.distances import footrule_block, footrule_topk_raw, max_footrule_distance
from repro.core.errors import InvalidRankingError, RankingSizeMismatchError
from repro.core.ranking import Ranking, RankingSet
from repro.live import LiveCollection
from repro.live.memtable import scan_entries, top_entries
from repro.service.sharding import ShardedIndex

#: The algorithms whose validation phase is the kernel.
KERNEL_ALGORITHMS = ("F&V", "F&V+Drop", "AdaptSearch", "MinimalF&V")


def all_lists(k: int, domain: int) -> RankingSet:
    return RankingSet.from_lists(permutations(range(domain), k))


@pytest.fixture(scope="module")
def top3() -> RankingSet:
    return all_lists(3, 6)


@pytest.fixture(scope="module")
def queries3(top3) -> list[Ranking]:
    """Every stored list, plus lists holding items no stored list has."""
    outside = [(0, 1, 6), (6, 0, 1), (2, 6, 7), (6, 7, 8), (5, 9, 0), (-1, 3, 4), (2**63 - 1, 0, 5)]
    return [Ranking(ranking.items) for ranking in top3] + [Ranking(items) for items in outside]


def thresholds(k: int) -> list[float]:
    """Every raw threshold below the maximum and every midpoint, normalised."""
    maximum = max_footrule_distance(k)
    return [half / 2 / maximum for half in range(2 * maximum)]


def kernel_mismatches(k: int, domain: int) -> int:
    """Pairs of top-k lists over ``domain`` items where kernel and reference differ."""
    rankings = all_lists(k, domain)
    matrix = rankings.matrix()
    mismatches = 0
    for query in rankings:
        kernel = footrule_block(query, matrix).tolist()
        reference = [footrule_topk_raw(query, ranking) for ranking in rankings]
        mismatches += sum(a != b for a, b in zip(kernel, reference))
    return mismatches


class TestKernelAgainstReference:
    def test_reference_is_the_l1_distance_of_the_rank_vectors(self, top3):
        def textbook(left: Ranking, right: Ranking) -> int:
            k = left.size
            ranks = [dict(ranking.rank_map()) for ranking in (left, right)]
            union = set(left.items) | set(right.items)
            return sum(abs(ranks[0].get(item, k) - ranks[1].get(item, k)) for item in union)

        assert all(
            footrule_topk_raw(left, right) == textbook(left, right)
            for left in top3
            for right in top3
        )

    def test_every_pair_of_top3_lists_over_6_items(self):
        assert len(all_lists(3, 6)) ** 2 == 14_400
        assert kernel_mismatches(3, 6) == 0

    def test_every_pair_of_top4_lists_over_7_items(self):
        assert len(all_lists(4, 7)) ** 2 == 705_600
        assert kernel_mismatches(4, 7) == 0

    def test_halved_gain_mutant_is_caught(self, monkeypatch):
        def halved(k: int, top: np.ndarray) -> np.ndarray:
            return k * k - top.sum(axis=1, dtype=np.int64)  # k - max, not 2 * (k - max)

        monkeypatch.setattr(distances, "_gain", halved)
        assert kernel_mismatches(3, 6) > 0

    def test_returns_python_ints_through_tolist(self, top3):
        values = footrule_block(top3[0], top3.matrix()[:5]).tolist()
        assert all(type(value) is int for value in values)

    def test_query_items_outside_int64_match_nothing(self, top3):
        query = Ranking([2**70, 1, 2])
        kernel = footrule_block(query, top3.matrix()).tolist()
        assert kernel == [footrule_topk_raw(query, ranking) for ranking in top3]

    def test_empty_block(self, top3):
        assert footrule_block(top3[0], top3.matrix()[:0]).shape == (0,)

    def test_rejects_query_of_wrong_size(self, top3):
        with pytest.raises(RankingSizeMismatchError):
            footrule_block(Ranking([1, 2]), top3.matrix())


def reference_validate(self, candidate_rids, query, theta, result, stats=None):
    """The per-candidate validation loop the kernel replaced."""
    stats = stats if stats is not None else result.stats
    theta_raw = self.theta_raw(theta)
    maximum = max_footrule_distance(self.k)
    for rid in candidate_rids:
        ranking = self._rankings[rid]
        stats.distance_calls += 1
        separation = footrule_topk_raw(query, ranking)
        if separation <= theta_raw:
            result.add(rid, ranking, separation / maximum)


def answers(algorithm, queries, k):
    """``(distance, rid)`` answers and the counters, for every query and threshold."""
    out = []
    for query in queries:
        for theta in thresholds(k):
            if isinstance(algorithm, MinimalFilterValidate):
                algorithm.prepare(query, theta)
            result = algorithm.search(query, theta)
            matches = [(match.distance, match.rid) for match in result.matches]
            out.append((matches, result.stats.distance_calls, result.stats.postings_scanned))
    return out


@pytest.mark.parametrize("name", KERNEL_ALGORITHMS)
def test_algorithm_equals_brute_force_and_the_per_candidate_loop(
    name, top3, queries3, monkeypatch
):
    maximum = max_footrule_distance(3)
    kernel = answers(make_algorithm(name, top3), queries3, 3)
    expected = [
        sorted((raw / maximum, rid) for rid, raw in enumerate(raws) if raw <= theta * maximum)
        for raws in (
            [footrule_topk_raw(query, ranking) for ranking in top3] for query in queries3
        )
        for theta in thresholds(3)
    ]
    assert [matches for matches, _, _ in kernel] == expected
    # candidate sets split over several kernel calls answer the same
    monkeypatch.setattr(base, "VALIDATION_BLOCK_ROWS", 7)
    per_query = len(thresholds(3))
    assert answers(make_algorithm(name, top3), queries3[::4], 3) == [
        kernel[position * per_query + step]
        for position in range(0, len(queries3), 4)
        for step in range(per_query)
    ]
    # same answers and same counters as validating one candidate at a time
    monkeypatch.setattr(RankingSearchAlgorithm, "_validate_candidates", reference_validate)
    assert kernel == answers(make_algorithm(name, top3), queries3, 3)


def test_knn_paths_equal_the_reference_order(top3, queries3):
    maximum = max_footrule_distance(3)
    brute = BruteForceKNN(top3)
    fv = make_algorithm("F&V", top3)
    for query in queries3[::7]:
        raw = [footrule_topk_raw(query, ranking) for ranking in top3]
        by_distance = sorted((distance, rid) for rid, distance in enumerate(raw))
        for n in (1, 5, 40, len(top3)):
            top, stats = exact_local_top(fv, top3, query, n)
            assert top == [(distance / maximum, rid) for distance, rid in by_distance[:n]]
            # brute force keeps the higher rid of a tie at the cut
            kept = sorted(
                sorted(by_distance, key=lambda pair: (pair[0], -pair[1]))[:n]
            )
            result = brute.search(query, n)
            assert [(nb.distance, nb.rid) for nb in result.neighbours] == [
                (distance / maximum, rid) for distance, rid in kept
            ]
            assert result.stats.distance_calls == len(top3)


def test_memtable_scans_equal_the_reference(top3, queries3):
    maximum = max_footrule_distance(3)
    entries = [(1000 - rid, ranking) for rid, ranking in enumerate(top3)][::3]
    for query in queries3[::5]:
        scored = sorted(
            (footrule_topk_raw(query, ranking), key, ranking) for key, ranking in entries
        )
        triples = [(raw / maximum, key, ranking) for raw, key, ranking in scored]
        for theta in thresholds(3)[::3]:
            within = [triples[i] for i, entry in enumerate(scored) if entry[0] <= theta * maximum]
            assert scan_entries(entries, query, theta) == within
        assert top_entries(entries, query, 7) == triples[:7]


class TestQuerySizeGuard:
    """Static, sharded and live collections reject a wrong-size query alike."""

    @pytest.fixture()
    def rankings(self):
        return RankingSet.from_lists([[1, 2, 3], [3, 4, 5], [5, 6, 7], [7, 8, 9]])

    def test_static_sharded_and_live_raise_the_same_error(self, rankings):
        query = Ranking([1, 2])
        live = LiveCollection(rankings, memtable_threshold=2)
        live.insert([2, 4, 6])
        shapes = {
            "static range": lambda: make_algorithm("F&V", rankings).search(query, 0.2),
            "static knn": lambda: BruteForceKNN(rankings).search(query, 1),
            "sharded range": lambda: ShardedIndex.build(rankings, num_shards=2).range_query(
                query, 0.2, "F&V"
            ),
            "sharded knn": lambda: ShardedIndex.build(rankings, num_shards=2).knn(query, 1, "F&V"),
            "live range": lambda: live.range_query(query, 0.2),
            "live knn": lambda: live.knn(query, 1),
        }
        for shape, call in shapes.items():
            with pytest.raises(RankingSizeMismatchError):
                call()


class TestItemMatrix:
    def test_matrix_rows_are_rids_and_cached_until_add(self):
        rankings = RankingSet.from_lists([[4, 5, 6], [1, 2, 3]])
        matrix = rankings.matrix()
        assert matrix.dtype == np.int64 and matrix.tolist() == [[4, 5, 6], [1, 2, 3]]
        assert rankings.matrix() is matrix
        assert not matrix.flags.writeable
        rankings.add([7, 8, 9])
        assert rankings.matrix().tolist() == [[4, 5, 6], [1, 2, 3], [7, 8, 9]]

    def test_empty_typed_set_has_an_empty_matrix(self):
        assert RankingSet(k=3).matrix().shape == (0, 3)

    @pytest.mark.parametrize("item", [2**63, 2**70, -(2**63) - 1, 1.5, "3"])
    def test_item_outside_int64_is_named(self, item):
        rankings = RankingSet.from_lists([[1, 2, 3], [4, item, 6]])
        with pytest.raises(InvalidRankingError, match=repr(item).replace("(", r"\(")):
            rankings.matrix()

    def test_int64_bounds_are_accepted(self):
        rankings = RankingSet.from_lists([[-(2**63), 0, 2**63 - 1]])
        assert rankings.matrix().tolist() == [[-(2**63), 0, 2**63 - 1]]
