"""Query-service engine: the serving layer over the algorithm core.

The algorithm modules answer one query against one monolithic index.  This
package turns them into a *service*: the collection is partitioned over
shards whose answers merge exactly, an adaptive planner picks the
algorithm (and its parameters) per query, and answers are memoised in an LRU
result cache.  The :class:`QueryEngine` ties the three together behind a
small request API (``query`` / ``batch_query`` / ``knn``) that reports
per-request :class:`QueryStats`.

Layering (each module only depends on the ones above it)::

    cache.py     LRU result cache keyed on normalised query fingerprints
    recording.py per-request/lifetime stats + the shared cached request flow
    sharding.py  partitioned collection + fan-out / bounded merge
    planner.py   cost-model priors + runtime EWMAs -> per-query plan
    engine.py    request layer: cache -> planner -> shards

Every result produced through the sharded path is *exactly* equal to the
corresponding single-index answer; sharding changes how much work happens
where, never the semantics.
"""

from repro.service.cache import CacheStats, LRUResultCache, knn_fingerprint, range_fingerprint
from repro.service.engine import QueryEngine
from repro.service.planner import AdaptivePlanner, PlanDecision
from repro.service.recording import (
    EngineResponse,
    EngineStats,
    QueryStats,
    RequestRecorder,
    serve_cached,
)
from repro.service.sharding import (
    RemoteExecutorLike,
    ShardedIndex,
    partition_rankings,
)

__all__ = [
    "AdaptivePlanner",
    "CacheStats",
    "EngineResponse",
    "EngineStats",
    "LRUResultCache",
    "PlanDecision",
    "QueryEngine",
    "QueryStats",
    "RemoteExecutorLike",
    "RequestRecorder",
    "ShardedIndex",
    "knn_fingerprint",
    "partition_rankings",
    "range_fingerprint",
    "serve_cached",
]
