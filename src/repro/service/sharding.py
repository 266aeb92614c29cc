"""Sharded index: partition the collection, fan out queries, merge answers.

The collection is split round-robin over ``num_shards`` disjoint
:class:`RankingSet` shards.  Round-robin keeps shard sizes within one ranking
of each other and — because shard-local ids are assigned in increasing
global-id order — keeps the local id order of every shard consistent with
the global id order, so distance ties are broken identically with and
without sharding.

Any registered algorithm can serve as the per-shard index: instances are
built lazily (per shard, per parameter set) through the algorithm registry
and kept until the next :meth:`ShardedIndex.rebuild`.  A query visits every
shard and the per-shard answers are merged:

* **range queries** concatenate the per-shard matches (shards are disjoint,
  so no deduplication is needed) and re-sort by distance;
* **k-NN queries** take each shard's exact local top-k and keep the ``k``
  globally smallest ``(distance, rid)`` pairs — a bounded merge that never
  materialises more than ``num_shards * k`` candidates.

Both merges are exact: the sharded answer equals the single-index answer for
every query, which the property tests in ``tests/test_service_sharding.py``
assert across algorithms, datasets, and shard counts.

Fan-out
-------
Every per-shard sub-query reduces to the same shape — a list of
``(local rid, distance)`` pairs plus its stats.  Locally the shards are
visited one after the other in the calling thread: distance evaluation is
pure Python and holds the GIL, so threads could not overlap it.
Concurrency comes from the callers — any number of threads may query one
index at once.

``executor=`` is the remote seam: any object with ``range_shards`` /
``knn_shards`` — notably :class:`repro.api.remote.RemoteShardExecutor`,
which fans the sub-queries out to *shard servers* speaking protocol v2 and
turns the single-process index into a scale-out (and multi-core) one.
Tuning-only keyword parameters (e.g. ``theta_c``) are not shipped — every
registered algorithm is exact, so remote answers are still identical; the
shard servers pick their own tuning.

Rebuilds are safe under concurrent queries: each partitioning epoch is an
immutable :class:`_Build` snapshot and every query pins the snapshot it
started on.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.ranking import Ranking, RankingSet
from repro.core.result import SearchResult
from repro.core.stats import SearchStats
from repro.algorithms.base import RankingSearchAlgorithm
from repro.algorithms.knn import KnnResult, Neighbour, exact_local_top
from repro.algorithms.registry import make_algorithm
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry
from repro.obs.tracing import record_span, trace_span

#: One shard's answer: ``(pairs, stats)`` — range pairs are
#: ``(local rid, distance)``, k-NN pairs are ``(distance, local rid)``.
ShardAnswer = tuple[list[tuple], SearchStats]

#: What the ``executor`` parameter accepts: ``None`` visits the shards in
#: the calling thread, anything else must be a remote shard executor.
ExecutorSpec = Optional["RemoteExecutorLike"]


class RemoteExecutorLike:
    """Duck-typed interface a remote shard executor must provide.

    Implementations answer every shard of one query and return the
    per-shard pair lists in shard order; :class:`repro.api.remote.RemoteShardExecutor`
    is the wire-backed one.  Defined here (and not in ``repro.api``) so the
    service layer never imports the API layer — the dependency points the
    other way.
    """

    def range_shards(
        self, items: tuple[int, ...], theta: float, algorithm: str, num_shards: int
    ) -> list[list[tuple[int, float]]]:
        """Per-shard ``(local rid, distance)`` pairs for one range query."""
        raise NotImplementedError

    def knn_shards(
        self, items: tuple[int, ...], n_neighbours: int, algorithm: str, num_shards: int
    ) -> list[list[tuple[float, int]]]:
        """Per-shard exact local top-k as ``(distance, local rid)`` pairs."""
        raise NotImplementedError


@dataclass(frozen=True)
class _Build:
    """One immutable partitioning epoch; queries pin the one they started on."""

    version: int
    shards: tuple[RankingSet, ...]
    global_rids: tuple[tuple[int, ...], ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def _partition_round_robin(rankings: RankingSet, num_shards: int, version: int) -> _Build:
    """Split ``rankings`` into ``num_shards`` sets plus local-to-global id maps."""
    shards = [RankingSet(k=rankings.k) for _ in range(num_shards)]
    global_rids: list[list[int]] = [[] for _ in range(num_shards)]
    for ranking in rankings:
        assert ranking.rid is not None
        shard = ranking.rid % num_shards
        shards[shard].add(ranking.items)
        global_rids[shard].append(ranking.rid)
    return _Build(
        version=version,
        shards=tuple(shards),
        global_rids=tuple(tuple(rids) for rids in global_rids),
    )


def partition_rankings(rankings: RankingSet, num_shards: int) -> list[RankingSet]:
    """The round-robin shards of ``rankings``, exactly as :class:`ShardedIndex`
    partitions them.

    This is how a remote topology is provisioned: serve ``shards[i]`` from
    shard server ``i`` and point a :class:`repro.api.remote.RemoteShardExecutor`
    at the servers — local ids inside each shard then agree between the
    coordinator and the servers, which is what makes remote answers
    identical to local ones.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if len(rankings) == 0:
        raise ValueError("cannot shard an empty collection")
    return list(
        _partition_round_robin(rankings, min(num_shards, len(rankings)), version=0).shards
    )


class ShardedIndex:
    """A ranking collection partitioned over shards, queried by fan-out.

    Parameters
    ----------
    rankings:
        The full collection; kept so merged answers carry the global
        (id-bearing) ranking objects.
    num_shards:
        Number of partitions; must be positive.  One shard degenerates to
        the single-index case.
    executor:
        ``None`` (default) visits the shards in the calling thread; a remote
        shard executor sends the sub-queries to shard servers instead — see
        the module docstring.  Remote executors are *not* owned by the
        index: :meth:`close` leaves them open for reuse.

    Examples
    --------
    >>> rankings = RankingSet.from_lists([[1, 2, 3], [1, 3, 2], [7, 8, 9], [2, 1, 3]])
    >>> sharded = ShardedIndex.build(rankings, num_shards=2)
    >>> result = sharded.range_query(Ranking([1, 2, 3]), theta=0.3, algorithm="F&V")
    >>> sorted(result.rids)
    [0, 1, 3]
    """

    def __init__(
        self,
        rankings: RankingSet,
        num_shards: int = 1,
        executor: ExecutorSpec = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if len(rankings) == 0:
            raise ValueError("cannot shard an empty collection")
        self._rankings = rankings
        self._lock = threading.Lock()
        self._registry = get_registry()
        self._m_shard_latency: dict[int, object] = {}
        self._instances: dict[tuple, RankingSearchAlgorithm] = {}
        self._build_state = _partition_round_robin(
            rankings, min(num_shards, len(rankings)), version=0
        )
        if executor is not None and not (
            hasattr(executor, "range_shards") and hasattr(executor, "knn_shards")
        ):
            raise ValueError(
                "executor must be None (local shards run in the calling thread) or an"
                f" object with range_shards/knn_shards, got {executor!r}; the 'thread'"
                " and 'process' pools were removed - for multi-core serving point a"
                " repro.api.remote.RemoteShardExecutor at shard servers"
            )
        self._remote: Optional[RemoteExecutorLike] = executor

    @classmethod
    def build(
        cls, rankings: RankingSet, num_shards: int = 1, executor: ExecutorSpec = None
    ) -> "ShardedIndex":
        """Partition ``rankings``; per-shard indices are built lazily per algorithm."""
        return cls(rankings, num_shards=num_shards, executor=executor)

    # -- lifecycle ---------------------------------------------------------------

    def rebuild(self, num_shards: Optional[int] = None) -> None:
        """Repartition the collection, dropping every per-shard index.

        Cached results referring to the previous build are stale afterwards;
        the engine invalidates its result cache whenever this is called (the
        :attr:`version` counter is what the cache keys that decision on).
        In-flight queries finish on the epoch they started with.
        """
        if num_shards is not None and num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        with self._lock:
            build = self._build_state
            count = (
                min(num_shards, len(self._rankings)) if num_shards is not None else build.num_shards
            )
            version = build.version + 1
            self._build_state = _partition_round_robin(self._rankings, count, version)
            # drop index instances of superseded epochs; in-flight queries
            # keep theirs alive through their pinned snapshot
            self._instances = {
                key: value for key, value in self._instances.items() if key[0] == version
            }

    def close(self) -> None:
        """Owns nothing to release (a remote executor is caller-owned and
        stays open); kept, with ``with``, for the engines and
        ``Database.close()`` that close every index alike.
        """

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- accessors ---------------------------------------------------------------

    def _current_build(self) -> _Build:
        with self._lock:
            return self._build_state

    @property
    def rankings(self) -> RankingSet:
        """The full (unpartitioned) collection."""
        return self._rankings

    @property
    def num_shards(self) -> int:
        """The current number of shards."""
        return self._current_build().num_shards

    @property
    def version(self) -> int:
        """Build epoch, bumped by every :meth:`rebuild`."""
        return self._current_build().version

    @property
    def executor_kind(self) -> str:
        """Where shard sub-queries run: ``"local"`` or ``"remote"``."""
        return "local" if self._remote is None else "remote"

    @property
    def shard_sizes(self) -> list[int]:
        """Number of rankings in each shard."""
        return [len(shard) for shard in self._current_build().shards]

    def shard_algorithm(self, shard: int, name: str, **kwargs) -> RankingSearchAlgorithm:
        """The (lazily built) instance of algorithm ``name`` on one shard."""
        return self._instance(self._current_build(), shard, name, kwargs)

    def _instance(
        self, build: _Build, shard: int, name: str, kwargs: dict
    ) -> RankingSearchAlgorithm:
        key = (build.version, shard, name, tuple(sorted(kwargs.items())))
        with self._lock:
            instance = self._instances.get(key)
        if instance is None:
            # build outside the lock: index construction can be expensive and
            # concurrent callers should not serialise on it
            instance = make_algorithm(name, build.shards[shard], **kwargs)
            with self._lock:
                instance = self._instances.setdefault(key, instance)
        return instance

    def prepare(self, query: Ranking, theta: float, algorithm: str, **kwargs) -> None:
        """Forward per-query materialisation (Minimal F&V) to every shard."""
        if self._remote is not None:
            raise TypeError(
                "per-query prepare() needs in-process shard instances; it is not"
                " supported with a remote shard executor (build the index with"
                " executor=None)"
            )
        build = self._current_build()
        for shard in range(build.num_shards):
            instance = self._instance(build, shard, algorithm, kwargs)
            prepare = getattr(instance, "prepare", None)
            if prepare is None:
                raise TypeError(f"algorithm {algorithm!r} has no prepare() step")
            prepare(query, theta)

    # -- fan-out bookkeeping ---------------------------------------------------------

    def _record_shard_latencies(self, shard_answers: list[ShardAnswer]) -> None:
        """Per-shard fan-out latency into the registry and the active trace.

        Local shards report their own compute time through their
        stats; remote fan-outs skip this (the remote executor records its
        own metrics and grafts the shard servers' span trees instead).
        """
        for shard, (_, stats) in enumerate(shard_answers):
            duration = stats.total_seconds
            histogram = self._m_shard_latency.get(shard)
            if histogram is None:
                histogram = self._m_shard_latency[shard] = self._registry.histogram(
                    metric_names.SHARD_FANOUT_SECONDS,
                    "Per-shard compute time of fanned-out sub-queries.",
                    shard=str(shard),
                )
            histogram.observe(duration)  # type: ignore[attr-defined]
            record_span(f"shard-{shard}", duration, shard=shard)

    @staticmethod
    def _merge_shard_stats(merged: SearchStats, shard_stats: list[SearchStats], wall: float) -> None:
        """Sum per-shard counters; report wall time, keep CPU-sum as an extra."""
        for stats in shard_stats:
            merged.merge(stats)
        merged.extra["shard_seconds"] = merged.total_seconds
        merged.extra["shards_queried"] = float(len(shard_stats))
        merged.total_seconds = wall

    # -- range queries ---------------------------------------------------------------

    def range_query(self, query: Ranking, theta: float, algorithm: str, **kwargs) -> SearchResult:
        """Answer one similarity range query through every shard.

        The merged answer is exactly the single-index answer: shards are
        disjoint and range predicates are independent per ranking.
        """
        build = self._current_build()
        start = time.perf_counter()
        with trace_span(
            "fanout", kind="range", shards=build.num_shards, executor=self.executor_kind
        ):
            if self._remote is not None:
                shard_answers: list[ShardAnswer] = [
                    (pairs, SearchStats())
                    for pairs in self._remote.range_shards(
                        query.items, theta, algorithm, build.num_shards
                    )
                ]
            else:
                shard_answers = []
                for shard in range(build.num_shards):
                    result = self._instance(build, shard, algorithm, kwargs).search(query, theta)
                    shard_answers.append(
                        ([(match.rid, match.distance) for match in result.matches], result.stats)
                    )
                self._record_shard_latencies(shard_answers)
        wall = time.perf_counter() - start

        merged = SearchResult(query=query, theta=theta, algorithm=f"sharded:{algorithm}")
        for shard, (pairs, _) in enumerate(shard_answers):
            rid_map = build.global_rids[shard]
            for local_rid, distance in pairs:
                global_rid = rid_map[local_rid]
                merged.add(global_rid, self._rankings[global_rid], distance)
        self._merge_shard_stats(merged.stats, [stats for _, stats in shard_answers], wall)
        return merged.finalize()

    # -- k-NN queries -----------------------------------------------------------------

    def knn(
        self,
        query: Ranking,
        n_neighbours: int,
        algorithm: str,
        initial_theta: float = 0.05,
        growth: float = 2.0,
        **kwargs,
    ) -> KnnResult:
        """Exact k-nearest neighbours through per-shard search + bounded merge.

        Each shard answers its local top-``n_neighbours`` by expanding range
        queries (radius doubled until enough results qualify).  Rankings at
        the maximum possible distance are unreachable by any range query with
        ``theta < 1``, so a shard that still comes up short finishes with a
        brute-force scan — this keeps the sharded answer exact even on
        collections with fully disjoint rankings.  Ties are broken by global
        ranking id, matching a ``sorted((distance, rid))`` brute-force scan.
        """
        if n_neighbours <= 0:
            raise ValueError(f"n_neighbours must be positive, got {n_neighbours}")

        build = self._current_build()
        start = time.perf_counter()
        with trace_span(
            "fanout", kind="knn", shards=build.num_shards, executor=self.executor_kind
        ):
            if self._remote is not None:
                shard_answers: list[ShardAnswer] = [
                    (pairs, SearchStats())
                    for pairs in self._remote.knn_shards(
                        query.items, n_neighbours, algorithm, build.num_shards
                    )
                ]
            else:
                shard_answers = [
                    exact_local_top(
                        self._instance(build, shard, algorithm, kwargs), build.shards[shard],
                        query, n_neighbours, initial_theta=initial_theta, growth=growth,
                    )
                    for shard in range(build.num_shards)
                ]
                self._record_shard_latencies(shard_answers)
        wall = time.perf_counter() - start

        best = heapq.nsmallest(
            n_neighbours,
            (
                (distance, build.global_rids[shard][local_rid])
                for shard, (pairs, _) in enumerate(shard_answers)
                for distance, local_rid in pairs
            ),
        )
        neighbours = [
            Neighbour(distance=distance, rid=rid, ranking=self._rankings[rid])
            for distance, rid in best
        ]
        merged_stats = SearchStats()
        self._merge_shard_stats(merged_stats, [stats for _, stats in shard_answers], wall)
        return KnnResult(query=query, neighbours=neighbours, stats=merged_stats)

    def __repr__(self) -> str:
        build = self._current_build()
        return (
            f"ShardedIndex(n={len(self._rankings)}, shards={build.num_shards}, "
            f"executor={self.executor_kind!r}, version={build.version})"
        )
