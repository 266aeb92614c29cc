"""Minimal F&V: the oracle lower bound of the paper's evaluation.

For every benchmark query the paper materialises a single inverted-index list
containing exactly the true result rankings; query processing then consists
of one list lookup plus one Footrule evaluation per true result.  Its runtime
is a lower bound for every inverted-index-based algorithm, because no real
algorithm can touch fewer rankings than the answer itself.

The materialisation is an offline step (:meth:`MinimalFilterValidate.prepare`)
whose cost is *not* part of query processing, mirroring the paper's setup.
Querying with a (query, theta) combination that was not prepared raises an
error rather than silently falling back to a slow path.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import footrule_block
from repro.core.errors import ReproError
from repro.core.ranking import Ranking, RankingSet
from repro.core.result import SearchResult
from repro.core.stats import PhaseTimer
from repro.algorithms.base import RankingSearchAlgorithm


class QueryNotPreparedError(ReproError):
    """Raised when Minimal F&V is queried without prior materialisation."""


class MinimalFilterValidate(RankingSearchAlgorithm):
    """Oracle baseline with one pre-materialised result list per query."""

    name = "MinimalF&V"

    def __init__(self, rankings: RankingSet) -> None:
        super().__init__(rankings)
        self._materialised: dict[tuple[tuple[int, ...], float], list[int]] = {}

    @classmethod
    def build(cls, rankings: RankingSet) -> "MinimalFilterValidate":
        """Build the (initially empty) oracle; call :meth:`prepare` per query."""
        return cls(rankings)

    # -- offline materialisation -------------------------------------------------------

    def prepare(self, query: Ranking, theta: float) -> int:
        """Materialise the true result list for one (query, theta) combination.

        Returns the number of true results.  The brute-force scan performed
        here is offline work and intentionally bypasses the search counters.
        """
        raw = footrule_block(query, self._rankings.matrix())
        rids = np.flatnonzero(raw <= self.theta_raw(theta)).tolist()
        self._materialised[self._key(query, theta)] = rids
        return len(rids)

    def prepare_workload(self, queries, theta: float) -> None:
        """Materialise result lists for a whole query workload."""
        for query in queries:
            self.prepare(query, theta)

    def is_prepared(self, query: Ranking, theta: float) -> bool:
        """True if the (query, theta) combination has been materialised."""
        return self._key(query, theta) in self._materialised

    @staticmethod
    def _key(query: Ranking, theta: float) -> tuple[tuple[int, ...], float]:
        return (query.items, round(theta, 12))

    # -- query processing ------------------------------------------------------------------

    def _search(self, query: Ranking, theta: float, result: SearchResult) -> None:
        key = self._key(query, theta)
        if key not in self._materialised:
            raise QueryNotPreparedError(
                "Minimal F&V requires prepare(query, theta) before searching"
            )
        stats = result.stats
        with PhaseTimer(stats, "filter_seconds"):
            rids = self._materialised[key]
            stats.lists_accessed += 1
            stats.postings_scanned += len(rids)
            stats.candidates += len(rids)
        with PhaseTimer(stats, "validate_seconds"):
            self._validate_candidates(rids, query, theta, result)
