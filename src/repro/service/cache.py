"""LRU result cache keyed on normalised query fingerprints.

Real ranking workloads are heavily skewed — a small set of popular queries
accounts for most of the traffic — so memoising answers is the cheapest
throughput multiplier the service layer has.  The cache is a plain
thread-safe LRU over immutable *fingerprints*:

* a **range fingerprint** is the query's item tuple plus the threshold
  rounded to a fixed precision, so ``theta=0.2`` and ``theta=0.20000000001``
  (floating-point drift from radius arithmetic) hit the same entry;
* a **knn fingerprint** is the item tuple plus the neighbour count.

Entries are whatever result object the engine stores (``SearchResult`` or
``KnnResult``); the cache never inspects them.  Cached results are shared
between requests, so callers must treat them as read-only.

Shard rebuilds change which collection an answer refers to, so the engine
explicitly calls :meth:`LRUResultCache.invalidate` whenever the sharded
index is rebuilt; the invalidation counter makes that visible in the stats.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.core.ranking import Ranking
from repro.devtools.locktrace import make_lock
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry

#: Decimal places kept when a threshold becomes part of a fingerprint.
_THETA_PRECISION = 9

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISSING = object()


def range_fingerprint(query: Ranking, theta: float) -> tuple:
    """Canonical cache key of one similarity range query."""
    return ("range", query.items, round(theta, _THETA_PRECISION))


def knn_fingerprint(query: Ranking, n_neighbours: int) -> tuple:
    """Canonical cache key of one k-nearest-neighbour query."""
    return ("knn", query.items, n_neighbours)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class LRUResultCache:
    """Thread-safe least-recently-used cache with a hard capacity bound.

    Parameters
    ----------
    capacity:
        Maximum number of entries kept.  ``0`` disables the cache entirely:
        every lookup is a miss and nothing is ever stored, which lets the
        engine keep one code path for cache-on and cache-off configurations.

    Examples
    --------
    >>> cache = LRUResultCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)          # evicts "b" (least recently used)
    >>> cache.get("b") is None
    True
    >>> cache.stats.evictions
    1
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()  # guarded-by: _lock
        self._lock = make_lock("LRUResultCache._lock")
        self._stats = CacheStats()  # guarded-by: _lock
        registry = get_registry()
        self._m_hits = registry.counter(
            metric_names.CACHE_HITS_TOTAL, "Result-cache lookups answered from the cache."
        )
        self._m_misses = registry.counter(
            metric_names.CACHE_MISSES_TOTAL, "Result-cache lookups that missed."
        )
        self._m_evictions = registry.counter(
            metric_names.CACHE_EVICTIONS_TOTAL, "Entries evicted by the LRU capacity bound."
        )
        self._m_invalidations = registry.counter(
            metric_names.CACHE_INVALIDATIONS_TOTAL, "Whole-cache invalidations (shard rebuilds)."
        )

    @property
    def capacity(self) -> int:
        """The maximum number of entries kept."""
        return self._capacity

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self._capacity > 0

    @property
    def stats(self) -> CacheStats:
        """Live counters; read-only by convention."""
        return self._stats  # repro: noqa[guarded-by] documented live handle; reads are racy by contract

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: Optional[Any] = None) -> Any:
        """Return the cached value and mark it most recently used."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._stats.misses += 1
                self._m_misses.inc()
                return default
            self._entries.move_to_end(key)
            self._stats.hits += 1
            self._m_hits.inc()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store one entry, evicting the least recently used ones if full."""
        if self._capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
                self._m_evictions.inc()

    def invalidate(self) -> int:
        """Drop every entry (shard rebuild); returns the number dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._stats.invalidations += 1
            self._m_invalidations.inc()
            return dropped

    def keys(self) -> list[Hashable]:
        """Snapshot of the cached keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LRUResultCache(capacity={self._capacity}, size={len(self._entries)}, "
                f"hit_rate={self._stats.hit_rate:.2f})"
            )
