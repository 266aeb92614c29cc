"""The stats/cache/record plumbing shared by every serving engine.

:class:`~repro.service.engine.QueryEngine` (frozen collections) and
:class:`~repro.live.engine.LiveQueryEngine` (mutable collections) used to
carry near-identical copies of the same request bookkeeping — measure the
latency, consult the cache, count the request, and wrap the answer in an
:class:`EngineResponse` with a per-request :class:`QueryStats`.  The copies
had already drifted: the live engine reported ``planner_source="pinned"``
even for its own configured default, and the two ``_record`` bodies
disagreed on where the algorithm label of a cache hit came from.

This module is now the single source of truth:

:class:`QueryStats` / :class:`EngineStats` / :class:`EngineResponse`
    The per-request and lifetime statistics containers (re-exported from
    ``repro.service.engine`` for compatibility).
:class:`RequestRecorder`
    Thread-safe lifetime counters plus the one ``record()`` implementation
    both engines call.
:func:`serve_cached`
    The cached request flow itself — lookup, compute on miss, store,
    record — parameterised by the engine's cache/compute hooks.

``planner_source`` semantics (uniform across engines): ``"cache"`` for a
cache hit, ``"pinned"`` when the caller named the algorithm, ``"default"``
when the engine fell back to its configured algorithm, and the planner's
own label (``"model"`` / ``"ewma"``) when a plan was computed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Union

from repro.core.result import SearchResult
from repro.algorithms.knn import KnnResult
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry
from repro.obs.tracing import record_span, trace_span
from repro.service.cache import CacheStats

#: The result object an engine answer wraps.
EngineResult = Union[SearchResult, KnnResult]


@dataclass(frozen=True)
class QueryStats:
    """What the engine did for one request."""

    kind: str
    algorithm: str
    cache_hit: bool
    latency_seconds: float
    shard_count: int
    planner_source: str
    theta: float = 0.0
    n_neighbours: int = 0
    results: int = 0
    distance_calls: int = 0
    candidates: int = 0

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary view for logs and reports."""
        return {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "cache_hit": self.cache_hit,
            "latency_seconds": self.latency_seconds,
            "shard_count": self.shard_count,
            "planner_source": self.planner_source,
            "theta": self.theta,
            "n_neighbours": self.n_neighbours,
            "results": self.results,
            "distance_calls": self.distance_calls,
            "candidates": self.candidates,
        }


@dataclass(frozen=True)
class EngineResponse:
    """One answered request: the result plus the per-request stats."""

    result: EngineResult
    stats: QueryStats


@dataclass
class EngineStats:
    """Running totals across an engine's lifetime."""

    queries: int = 0
    knn_queries: int = 0
    cache_hits: int = 0
    rebuilds: int = 0
    total_latency_seconds: float = 0.0
    algorithm_counts: dict[str, int] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def requests(self) -> int:
        """All requests served (range + knn)."""
        return self.queries + self.knn_queries

    @property
    def mean_latency_seconds(self) -> float:
        """Average request latency (0.0 before any traffic)."""
        if self.requests == 0:
            return 0.0
        return self.total_latency_seconds / self.requests

    def as_dict(self) -> dict:
        """Normalised dictionary view for dashboards and admin requests.

        The schema mirrors :meth:`repro.live.collection.LiveStats.as_dict`
        — snake_case keys grouped one level deep by category, integer
        counters, float latencies/rates — so a metrics exporter can map
        static and live stats with the same code.
        """
        return {
            "requests": {
                "total": self.requests,
                "range": self.queries,
                "knn": self.knn_queries,
                "cache_hits": self.cache_hits,
                "rebuilds": self.rebuilds,
            },
            "latency_seconds": {
                "total": self.total_latency_seconds,
                "mean": self.mean_latency_seconds,
            },
            "algorithms": dict(self.algorithm_counts),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "invalidations": self.cache.invalidations,
                "hit_rate": self.cache.hit_rate,
            },
        }


class RequestRecorder:
    """Lifetime counters plus the per-request :class:`QueryStats` factory.

    Parameters
    ----------
    cache_stats:
        The engine's cache counters, embedded in :class:`EngineStats`.
    shard_count:
        Zero-argument callable reporting the current shard count (it can
        change under rebuilds, so it is read per request).
    """

    def __init__(self, cache_stats: CacheStats, shard_count: Callable[[], int]) -> None:
        self._stats = EngineStats(cache=cache_stats)
        self._shard_count = shard_count
        self._lock = threading.Lock()
        registry = get_registry()
        self._m_latency = {
            kind: registry.histogram(
                metric_names.REQUEST_SECONDS, "End-to-end engine request latency.", kind=kind
            )
            for kind in ("range", "knn")
        }
        self._m_rebuilds = registry.counter(
            metric_names.ENGINE_REBUILDS_TOTAL, "Shard rebuilds / cache-invalidation epochs."
        )
        # label-value handles resolved on first use, then cached
        self._m_sources: dict[str, object] = {}
        self._m_algorithms: dict[str, object] = {}
        self._registry = registry

    def _source_counter(self, source: str):
        counter = self._m_sources.get(source)
        if counter is None:
            counter = self._m_sources[source] = self._registry.counter(
                metric_names.PLANNER_SOURCE_TOTAL,
                "Requests by plan provenance (cache/pinned/default/model/ewma).",
                source=source or "unknown",
            )
        return counter

    def _algorithm_counter(self, algorithm: str):
        counter = self._m_algorithms.get(algorithm)
        if counter is None:
            counter = self._m_algorithms[algorithm] = self._registry.counter(
                metric_names.ALGORITHM_TOTAL,
                "Computed (non-cache-hit) requests by chosen algorithm.",
                algorithm=algorithm or "unknown",
            )
        return counter

    @property
    def stats(self) -> EngineStats:
        """The running totals (live object, do not mutate)."""
        return self._stats

    def count_rebuild(self) -> None:
        """Count one rebuild / cache-invalidation epoch."""
        with self._lock:
            self._stats.rebuilds += 1
        self._m_rebuilds.inc()

    def record(
        self,
        *,
        kind: str,
        result: EngineResult,
        cache_hit: bool,
        latency: float,
        algorithm: str = "",
        planner_source: str = "",
        theta: float = 0.0,
        n_neighbours: int = 0,
    ) -> EngineResponse:
        """Fold one answered request into the totals and wrap it up."""
        result_count = len(result.neighbours) if kind == "knn" else len(result)  # type: ignore[union-attr]
        if cache_hit:
            algorithm = getattr(result, "algorithm", "") or "cached"
            planner_source = "cache"
        # counters are shared across concurrently served requests
        with self._lock:
            if kind == "knn":
                self._stats.knn_queries += 1
            else:
                self._stats.queries += 1
            if cache_hit:
                self._stats.cache_hits += 1
            else:
                counts = self._stats.algorithm_counts
                counts[algorithm] = counts.get(algorithm, 0) + 1
            self._stats.total_latency_seconds += latency
        self._m_latency["knn" if kind == "knn" else "range"].observe(latency)
        self._source_counter(planner_source).inc()
        if not cache_hit:
            self._algorithm_counter(algorithm).inc()
        stats = QueryStats(
            kind=kind,
            algorithm=algorithm,
            cache_hit=cache_hit,
            latency_seconds=latency,
            shard_count=self._shard_count(),
            planner_source=planner_source,
            theta=theta,
            n_neighbours=n_neighbours,
            results=result_count,
            distance_calls=result.stats.distance_calls,
            candidates=result.stats.candidates,
        )
        return EngineResponse(result=result, stats=stats)


def serve_cached(
    *,
    kind: str,
    fingerprint: Hashable,
    cache_get: Callable[[Hashable], Optional[EngineResult]],
    cache_put: Callable[[Hashable, EngineResult], None],
    compute: Callable[[], tuple[EngineResult, str, str]],
    recorder: RequestRecorder,
    theta: float = 0.0,
    n_neighbours: int = 0,
) -> EngineResponse:
    """Answer one request through the shared cached flow.

    ``compute`` runs only on a cache miss and returns
    ``(result, algorithm, planner_source)``; the stored entry is the raw
    result, so hits replay it with ``planner_source="cache"``.
    """
    start = time.perf_counter()
    cached = cache_get(fingerprint)
    if cached is not None:
        latency = time.perf_counter() - start
        record_span("cache_hit", latency, kind=kind)
        return recorder.record(
            kind=kind, result=cached, cache_hit=True,
            latency=latency, theta=theta, n_neighbours=n_neighbours,
        )
    with trace_span("compute", kind=kind):
        result, algorithm, planner_source = compute()
    cache_put(fingerprint, result)
    return recorder.record(
        kind=kind, result=result, cache_hit=False,
        latency=time.perf_counter() - start, algorithm=algorithm,
        planner_source=planner_source, theta=theta, n_neighbours=n_neighbours,
    )
