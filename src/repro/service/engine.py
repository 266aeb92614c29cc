"""The request layer: cache -> planner -> sharded fan-out, with stats.

:class:`QueryEngine` is the one object a serving deployment holds onto.  It
owns a :class:`~repro.service.sharding.ShardedIndex`, an
:class:`~repro.service.planner.AdaptivePlanner`, and an
:class:`~repro.service.cache.LRUResultCache`, and exposes three request
entry points:

``query(query, theta)``
    One similarity range query.  Cache lookup first; on a miss the planner
    picks the algorithm, every shard answers, the observation
    feeds the planner, and the answer is cached.
``batch_query(queries, theta)``
    A batch of range queries, answered through the same path (duplicate
    queries inside a batch hit the cache naturally).
``knn(query, n_neighbours)``
    One exact k-nearest-neighbour query over the sharded collection.

The cached request flow and all statistics bookkeeping live in
:mod:`repro.service.recording` and are shared with the live-update engine;
this module re-exports :class:`QueryStats` / :class:`EngineStats` /
:class:`EngineResponse` from there so existing imports keep working.

``rebuild(num_shards=...)`` repartitions the collection online and
invalidates the cache, the seam later PRs (persistence, replication,
async backends) build on.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Optional

from repro.core.ranking import Ranking, RankingSet
from repro.obs.tracing import trace_span
from repro.service.cache import LRUResultCache, knn_fingerprint, range_fingerprint
from repro.service.planner import AdaptivePlanner, PlanDecision
from repro.service.recording import (
    EngineResponse,
    EngineStats,
    QueryStats,
    RequestRecorder,
    serve_cached,
)
from repro.service.sharding import ExecutorSpec, ShardedIndex

__all__ = [
    "EngineResponse",
    "EngineStats",
    "QueryEngine",
    "QueryStats",
]

#: Nominal threshold used to bucket planner statistics for k-NN requests
#: (k-NN has no client-supplied theta; expansion starts near this radius).
_KNN_PLANNING_THETA = 0.1


class QueryEngine:
    """Sharded, planned, cached query service over a ranking collection.

    Parameters
    ----------
    rankings:
        The collection to serve.
    num_shards:
        Number of index shards (1 = single-index serving).
    algorithms:
        Candidate algorithm names the planner chooses from; defaults to the
        registry's service set.  A single-element list pins the algorithm.
    cache_capacity:
        LRU capacity; ``0`` disables result caching.
    executor:
        ``None`` (default) searches the shards in the calling thread; a
        :class:`~repro.api.remote.RemoteShardExecutor` fans sub-queries
        out to shard servers instead (see :mod:`repro.service.sharding`).
    planner / cache / sharded:
        Pre-built components, for tests and custom deployments.

    Examples
    --------
    >>> from repro.core.ranking import RankingSet
    >>> rankings = RankingSet.from_lists([[1, 2, 3], [1, 3, 2], [7, 8, 9], [2, 1, 3]])
    >>> engine = QueryEngine(rankings, num_shards=2, algorithms=["F&V"])
    >>> response = engine.query(Ranking([1, 2, 3]), theta=0.3)
    >>> sorted(response.result.rids), response.stats.cache_hit
    ([0, 1, 3], False)
    >>> engine.query(Ranking([1, 2, 3]), theta=0.3).stats.cache_hit
    True
    """

    def __init__(
        self,
        rankings: RankingSet,
        num_shards: int = 1,
        algorithms: Optional[list[str]] = None,
        cache_capacity: int = 1024,
        executor: ExecutorSpec = None,
        planner: Optional[AdaptivePlanner] = None,
        cache: Optional[LRUResultCache] = None,
        sharded: Optional[ShardedIndex] = None,
    ) -> None:
        self._sharded = (
            sharded
            if sharded is not None
            else ShardedIndex.build(rankings, num_shards, executor=executor)
        )
        self._planner = (
            planner
            if planner is not None
            else AdaptivePlanner(self._sharded.rankings, candidates=algorithms)
        )
        self._cache = cache if cache is not None else LRUResultCache(cache_capacity)
        self._recorder = RequestRecorder(self._cache.stats, lambda: self._sharded.num_shards)

    # -- component access ---------------------------------------------------------

    @property
    def rankings(self) -> RankingSet:
        """The served collection."""
        return self._sharded.rankings

    @property
    def sharded_index(self) -> ShardedIndex:
        """The partitioned index behind the engine."""
        return self._sharded

    @property
    def planner(self) -> AdaptivePlanner:
        """The per-query planner."""
        return self._planner

    @property
    def cache(self) -> LRUResultCache:
        """The result cache."""
        return self._cache

    @property
    def num_shards(self) -> int:
        """Current shard count."""
        return self._sharded.num_shards

    def stats(self) -> EngineStats:
        """The engine's running totals (live object, do not mutate)."""
        return self._recorder.stats

    # -- lifecycle ----------------------------------------------------------------

    def rebuild(self, num_shards: Optional[int] = None) -> None:
        """Repartition the shards and invalidate every cached result."""
        self._sharded.rebuild(num_shards=num_shards)
        self._cache.invalidate()
        self._recorder.count_rebuild()

    def close(self) -> None:
        """Close the sharded index (which owns nothing; kept for ``with``)."""
        self._sharded.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request entry points ------------------------------------------------------

    def query(
        self, query: Ranking, theta: float, algorithm: Optional[str] = None
    ) -> EngineResponse:
        """Answer one similarity range query (``algorithm`` pins the plan)."""

        def compute():
            with trace_span("plan", kind="range"):
                decision = self._plan(query, theta, kind="range", algorithm=algorithm)
            start = time.perf_counter()
            result = self._sharded.range_query(query, theta, decision.algorithm, **decision.params)
            latency = time.perf_counter() - start
            self._planner.observe(decision, latency, candidates=float(result.stats.candidates))
            return result, decision.algorithm, decision.source

        return serve_cached(
            kind="range",
            fingerprint=range_fingerprint(query, theta),
            cache_get=self._cache.get,
            cache_put=self._cache.put,
            compute=compute,
            recorder=self._recorder,
            theta=theta,
        )

    def batch_query(
        self, queries: Sequence[Ranking], theta: float, algorithm: Optional[str] = None
    ) -> list[EngineResponse]:
        """Answer a batch of range queries through the full serving path."""
        return [self.query(query, theta, algorithm=algorithm) for query in queries]

    def knn(
        self, query: Ranking, n_neighbours: int, algorithm: Optional[str] = None
    ) -> EngineResponse:
        """Answer one exact k-nearest-neighbour query."""

        def compute():
            with trace_span("plan", kind="knn"):
                decision = self._plan(query, _KNN_PLANNING_THETA, kind="knn", algorithm=algorithm)
            start = time.perf_counter()
            result = self._sharded.knn(query, n_neighbours, decision.algorithm, **decision.params)
            latency = time.perf_counter() - start
            self._planner.observe(decision, latency, candidates=float(result.stats.candidates))
            return result, decision.algorithm, decision.source

        return serve_cached(
            kind="knn",
            fingerprint=knn_fingerprint(query, n_neighbours),
            cache_get=self._cache.get,
            cache_put=self._cache.put,
            compute=compute,
            recorder=self._recorder,
            n_neighbours=n_neighbours,
        )

    # -- internals ------------------------------------------------------------------

    def _plan(
        self, query: Ranking, theta: float, kind: str, algorithm: Optional[str]
    ) -> PlanDecision:
        if algorithm is None:
            return self._planner.plan(query, theta, kind=kind)
        return PlanDecision(
            algorithm=algorithm,
            params=self._planner.params_for(algorithm, theta),
            source="pinned",
            kind=kind,
            theta_bucket=self._planner.bucket(theta),
        )

    def __repr__(self) -> str:
        return (
            f"QueryEngine(n={len(self.rankings)}, shards={self.num_shards}, "
            f"requests={self._recorder.stats.requests})"
        )
