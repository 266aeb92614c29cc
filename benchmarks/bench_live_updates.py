"""Live-update store under churn: throughput, durability cost, restart cost.

Three benchmark groups:

* ``live-updates`` — mutation throughput and mid-churn query latency per
  (memtable threshold, segment bound) configuration, in memory;
* ``live-durability`` — sustained update throughput per WAL durability mode
  (no-sync / per-record fsync / group-commit), the figure that motivates
  group-commit: one ``fsync`` per batch instead of per record;
* ``live-restart`` — ``LiveCollection.open()`` cost after heavy churn with
  the automatic snapshot policy on vs off, plus the number of WAL records
  the restart actually replayed.

Run under pytest-benchmark as part of the suite, or standalone::

    PYTHONPATH=src python benchmarks/bench_live_updates.py
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time

import pytest

from repro.core.ranking import Ranking
from repro.live import LiveCollection

from _utils import run_once

#: (memtable threshold, max segments) configurations swept by the benchmark.
THRESHOLDS = ((32, 2), (128, 4), (512, 8))

#: WAL durability modes compared by the group-commit benchmark.
DURABILITY_MODES = (
    ("no-sync", {}),
    ("fsync", {"sync": True}),
    ("group-commit", {"commit_batch": 64}),
)

#: Mutation mix: mostly inserts, a realistic sliver of deletes and upserts.
INSERT_WEIGHT, DELETE_WEIGHT = 0.8, 0.1

MUTATIONS = 1200
DURABILITY_MUTATIONS = 400
RESTART_MUTATIONS = 1200
SNAPSHOT_BOUND = 256
PROBE_EVERY = 100
K = 10
DOMAIN = 1000
THETA = 0.2
NEIGHBOURS = 10


def _mutation_stream(rng: random.Random, count: int):
    """Yield ``(op, key_index, items)`` triples; key_index picks a live key."""
    for _ in range(count):
        roll = rng.random()
        if roll < INSERT_WEIGHT:
            yield "insert", 0, rng.sample(range(DOMAIN), K)
        elif roll < INSERT_WEIGHT + DELETE_WEIGHT:
            yield "delete", rng.random(), None
        else:
            yield "upsert", rng.random(), rng.sample(range(DOMAIN), K)


def _churn(
    live: LiveCollection, seed: int, mutations: int, probe: bool = True
) -> dict[str, float]:
    """Apply the workload with interleaved probes; return the derived figures."""
    rng = random.Random(seed)
    probe_query = Ranking(rng.sample(range(DOMAIN), K))
    applied = 0
    latencies: list[float] = []
    mutation_seconds = 0.0
    for op, pick, items in _mutation_stream(rng, mutations):
        keys = None
        if op != "insert":
            keys = live.live_keys()
            if not keys:
                op, items = "insert", rng.sample(range(DOMAIN), K)
        start = time.perf_counter()
        if op == "insert":
            live.insert(items)
        elif op == "delete":
            live.delete(keys[int(pick * len(keys))])
        else:
            live.upsert(keys[int(pick * len(keys))], items)
        mutation_seconds += time.perf_counter() - start
        applied += 1
        if probe and applied % PROBE_EVERY == 0:
            start = time.perf_counter()
            live.range_query(probe_query, THETA)
            live.knn(probe_query, NEIGHBOURS)
            latencies.append(time.perf_counter() - start)
    figures = {
        "applied": applied,
        "mutation_seconds": mutation_seconds,
        "updates_per_second": applied / mutation_seconds if mutation_seconds else float("inf"),
    }
    if latencies:
        figures["query_mean_ms"] = 1000.0 * sum(latencies) / len(latencies)
        figures["query_max_ms"] = 1000.0 * max(latencies)
    return figures


@pytest.mark.benchmark(group="live-updates")
@pytest.mark.parametrize("memtable_threshold,max_segments", THRESHOLDS)
def test_live_update_churn(benchmark, memtable_threshold, max_segments):
    """Throughput/latency of one (memtable threshold, segment bound) config."""
    with LiveCollection(
        memtable_threshold=memtable_threshold, max_segments=max_segments
    ) as live:
        figures = run_once(benchmark, _churn, live, seed=17, mutations=MUTATIONS)
        stats = live.stats()
        benchmark.extra_info["memtable_threshold"] = memtable_threshold
        benchmark.extra_info["max_segments"] = max_segments
        benchmark.extra_info["updates_per_second"] = round(figures["updates_per_second"], 1)
        benchmark.extra_info["query_mean_ms"] = round(figures["query_mean_ms"], 2)
        benchmark.extra_info["query_max_ms"] = round(figures["query_max_ms"], 2)
        benchmark.extra_info["flushes"] = stats.flushes
        benchmark.extra_info["compactions"] = stats.compactions
        benchmark.extra_info["live_rankings"] = len(live)


@pytest.mark.benchmark(group="live-durability")
@pytest.mark.parametrize("mode,wal_kwargs", DURABILITY_MODES, ids=[m for m, _ in DURABILITY_MODES])
def test_live_durability_modes(benchmark, tmp_path, mode, wal_kwargs):
    """Sustained update throughput per WAL durability guarantee."""
    with LiveCollection.open(
        tmp_path, memtable_threshold=128, max_segments=4, **wal_kwargs
    ) as live:
        figures = run_once(
            benchmark, _churn, live, seed=23, mutations=DURABILITY_MUTATIONS, probe=False
        )
        benchmark.extra_info["durability"] = live.durability
        benchmark.extra_info["updates_per_second"] = round(figures["updates_per_second"], 1)
        benchmark.extra_info["wal_commits"] = live._wal.commits


@pytest.mark.benchmark(group="live-restart")
@pytest.mark.parametrize("snapshot_every", (None, SNAPSHOT_BOUND), ids=("policy-off", "policy-on"))
def test_live_restart_cost(benchmark, tmp_path, snapshot_every):
    """Cost of ``open()`` after churn, with and without the snapshot policy."""
    with LiveCollection.open(
        tmp_path, memtable_threshold=128, max_segments=4, snapshot_every=snapshot_every
    ) as live:
        _churn(live, seed=29, mutations=RESTART_MUTATIONS, probe=False)
        expected = len(live)
        snapshots = live.stats().snapshots

    def reopen():
        reopened = LiveCollection.open(
            tmp_path, memtable_threshold=128, max_segments=4, snapshot_every=snapshot_every
        )
        reopened.close()
        return reopened

    reopened = run_once(benchmark, reopen)
    assert len(reopened) == expected
    benchmark.extra_info["snapshot_every"] = snapshot_every or 0
    benchmark.extra_info["snapshots_taken"] = snapshots
    benchmark.extra_info["replayed_records"] = reopened.stats().replayed


def main() -> None:
    """Standalone report: churn, durability-mode, and restart figures."""
    print(
        f"live-update churn: {MUTATIONS} mutations "
        f"({INSERT_WEIGHT:.0%} insert / {DELETE_WEIGHT:.0%} delete / "
        f"{1 - INSERT_WEIGHT - DELETE_WEIGHT:.0%} upsert), "
        f"probe every {PROBE_EVERY} (range theta={THETA} + {NEIGHBOURS}-NN)"
    )
    print(
        f"{'memtable':>8s}  {'segments':>8s}  {'wal':>5s}  {'updates/s':>10s}  "
        f"{'query mean':>10s}  {'query max':>9s}  {'flushes':>7s}  {'compactions':>11s}"
    )
    for memtable_threshold, max_segments in THRESHOLDS:
        for durable in (False, True):
            if durable:
                directory = tempfile.mkdtemp(prefix="repro-live-bench-")
                live = LiveCollection.open(
                    directory,
                    memtable_threshold=memtable_threshold,
                    max_segments=max_segments,
                )
            else:
                directory = None
                live = LiveCollection(
                    memtable_threshold=memtable_threshold, max_segments=max_segments
                )
            with live:
                figures = _churn(live, seed=17, mutations=MUTATIONS)
                stats = live.stats()
                print(
                    f"{memtable_threshold:>8d}  {max_segments:>8d}  "
                    f"{'on' if durable else 'off':>5s}  "
                    f"{figures['updates_per_second']:>10.0f}  "
                    f"{figures['query_mean_ms']:>8.2f}ms  {figures['query_max_ms']:>7.2f}ms  "
                    f"{stats.flushes:>7d}  {stats.compactions:>11d}"
                )
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)

    print(
        f"\ndurability modes: {DURABILITY_MUTATIONS} mutations, "
        f"memtable 128, group-commit batch 64"
    )
    print(f"{'mode':>14s}  {'updates/s':>10s}  {'fsyncs':>7s}")
    for mode, wal_kwargs in DURABILITY_MODES:
        directory = tempfile.mkdtemp(prefix="repro-live-bench-")
        with LiveCollection.open(
            directory, memtable_threshold=128, max_segments=4, **wal_kwargs
        ) as live:
            figures = _churn(live, seed=23, mutations=DURABILITY_MUTATIONS, probe=False)
            commits = live._wal.commits
            print(f"{mode:>14s}  {figures['updates_per_second']:>10.0f}  {commits:>7d}")
        shutil.rmtree(directory, ignore_errors=True)

    print(
        f"\nrestart cost after {RESTART_MUTATIONS} mutations "
        f"(snapshot policy: every {SNAPSHOT_BOUND} WAL records)"
    )
    print(f"{'policy':>10s}  {'open time':>9s}  {'replayed':>8s}  {'snapshots':>9s}")
    for label, snapshot_every in (("off", None), ("on", SNAPSHOT_BOUND)):
        directory = tempfile.mkdtemp(prefix="repro-live-bench-")
        with LiveCollection.open(
            directory, memtable_threshold=128, max_segments=4, snapshot_every=snapshot_every
        ) as live:
            _churn(live, seed=29, mutations=RESTART_MUTATIONS, probe=False)
            snapshots = live.stats().snapshots
        start = time.perf_counter()
        reopened = LiveCollection.open(
            directory, memtable_threshold=128, max_segments=4, snapshot_every=snapshot_every
        )
        elapsed = time.perf_counter() - start
        replayed = reopened.stats().replayed
        reopened.close()
        print(f"{label:>10s}  {elapsed * 1000.0:>7.1f}ms  {replayed:>8d}  {snapshots:>9d}")
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    main()
