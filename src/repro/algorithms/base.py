"""Common interface and helpers shared by all query-processing algorithms."""

from __future__ import annotations

import abc
import math
from collections.abc import Collection
from typing import Optional

import numpy as np

from repro.core.distances import (
    footrule_block,
    max_footrule_distance,
    normalize_distance,
    unnormalize_distance,
)
from repro.core.errors import InvalidThresholdError, RankingSizeMismatchError
from repro.core.ranking import Ranking, RankingSet
from repro.core.result import SearchResult
from repro.core.stats import PhaseTimer, SearchStats


#: Candidates validated per kernel call: bounds the gathered item block
#: (rows x k x 8 bytes) at ~80 KiB whatever the candidate count.
VALIDATION_BLOCK_ROWS = 1024


class RankingSearchAlgorithm(abc.ABC):
    """A similarity-range-search algorithm over a fixed ranking collection.

    Subclasses are constructed (usually via a ``build`` classmethod) over a
    :class:`RankingSet` and answer ad-hoc queries through :meth:`search`.
    The query ranking and the normalised threshold ``theta`` are both
    supplied at query time, exactly as in the paper's problem statement.
    """

    #: Registry name; subclasses override with the paper's algorithm name.
    name: str = "abstract"

    def __init__(self, rankings: RankingSet) -> None:
        self._rankings = rankings

    @property
    def rankings(self) -> RankingSet:
        """The indexed ranking collection."""
        return self._rankings

    @property
    def k(self) -> int:
        """Ranking size of the indexed collection."""
        return self._rankings.k

    # -- query interface ---------------------------------------------------------

    def search(self, query: Ranking, theta: float) -> SearchResult:
        """Answer one similarity range query.

        Parameters
        ----------
        query:
            The query ranking; must have the same size ``k`` as the indexed
            collection.
        theta:
            Normalised distance threshold in ``[0, 1)``.

        Returns
        -------
        SearchResult
            All rankings within normalised distance ``theta`` of the query,
            together with the counters recorded while producing them.
        """
        self._check_query(query, theta)
        result = SearchResult(query=query, theta=theta, algorithm=self.name)
        with PhaseTimer(result.stats, "total_seconds"):
            self._search(query, theta, result)
        return result.finalize()

    @abc.abstractmethod
    def _search(self, query: Ranking, theta: float, result: SearchResult) -> None:
        """Algorithm-specific query processing filling ``result`` in place."""

    # -- shared helpers ------------------------------------------------------------

    def theta_raw(self, theta: float) -> float:
        """Convert a normalised threshold to the raw integer distance scale."""
        return unnormalize_distance(theta, self.k)

    def _check_query(self, query: Ranking, theta: float) -> None:
        if query.size != self.k:
            raise RankingSizeMismatchError(self.k, query.size)
        if not 0.0 <= theta < 1.0:
            raise InvalidThresholdError(theta, "theta must lie in [0, 1)")

    def _validate_candidates(
        self,
        candidate_rids: Collection[int],
        query: Ranking,
        theta: float,
        result: SearchResult,
        stats: Optional[SearchStats] = None,
    ) -> None:
        """Compute the exact distance of each candidate and keep the qualifying ones.

        The candidates' rows of the item matrix are scored by
        :func:`footrule_block`, :data:`VALIDATION_BLOCK_ROWS` at a time.  Every
        candidate still counts as one distance-function call, the paper's DFC
        measure.
        """
        stats = stats if stats is not None else result.stats
        rids = np.fromiter(candidate_rids, dtype=np.int64, count=len(candidate_rids))
        stats.distance_calls += len(rids)
        rankings = self._rankings
        matrix = rankings.matrix()
        # distances are integers: the floor keeps the test in integer arithmetic
        limit = math.floor(self.theta_raw(theta))
        maximum = max_footrule_distance(self.k)
        for start in range(0, len(rids), VALIDATION_BLOCK_ROWS):
            chunk = rids[start:start + VALIDATION_BLOCK_ROWS]
            raw = footrule_block(query, matrix[chunk])
            keep = np.flatnonzero(raw <= limit)
            for rid, separation in zip(chunk[keep].tolist(), raw[keep].tolist()):
                result.add(rid, rankings[rid], separation / maximum)

    def _add_raw_match(self, result: SearchResult, ranking: Ranking, raw_distance: float) -> None:
        """Record a match given its raw distance."""
        assert ranking.rid is not None
        result.add(ranking.rid, ranking, normalize_distance(raw_distance, self.k))
