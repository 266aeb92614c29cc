"""Batch query processing (the paper's "ongoing work" extension).

The conclusion of the paper sketches how large batches of queries could be
processed with the coarse-indexing idea applied to the *query* side: the
batch is partitioned into groups of similar queries, each group represented
by a query medoid.  One relaxed search per group (threshold enlarged by the
group radius) produces a candidate superset valid for every query in the
group, and each query then validates only those candidates.

This module implements that sketch on top of any
:class:`RankingSearchAlgorithm`, defaulting to the coarse index for the
per-group relaxed search.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.distances import footrule_topk_raw, max_footrule_distance
from repro.core.ranking import Ranking, RankingSet
from repro.core.result import SearchResult
from repro.core.stats import SearchStats
from repro.metric.partitioning import random_medoid_partition
from repro.algorithms.base import RankingSearchAlgorithm


@dataclass
class BatchResult:
    """Results of a batch run: one :class:`SearchResult` per query plus totals."""

    results: list[SearchResult]
    group_count: int
    stats: SearchStats

    def __len__(self) -> int:
        return len(self.results)


class BatchCoarseSearch:
    """Answer a batch of queries by grouping similar queries together.

    Parameters
    ----------
    algorithm:
        Any single-query algorithm used for the per-group relaxed search.
    query_theta_c:
        Normalised radius used when clustering the query batch.
    """

    def __init__(self, algorithm: RankingSearchAlgorithm, query_theta_c: float = 0.1) -> None:
        if not 0.0 <= query_theta_c < 1.0:
            raise ValueError(f"query_theta_c must lie in [0, 1), got {query_theta_c}")
        self._algorithm = algorithm
        self._query_theta_c = query_theta_c

    @property
    def algorithm(self) -> RankingSearchAlgorithm:
        """The single-query algorithm performing the per-group searches."""
        return self._algorithm

    def search_batch(self, queries: Sequence[Ranking], theta: float) -> BatchResult:
        """Answer every query in the batch with threshold ``theta``.

        The group search uses threshold ``theta + query_theta_c`` so that
        every true result of every member query appears among the group
        candidates (triangle inequality through the group medoid); member
        queries only validate those candidates.
        """
        k = self._algorithm.k
        maximum = max_footrule_distance(k)

        query_set = RankingSet(k=k)
        for query in queries:
            query_set.add(query.items)
        groups = random_medoid_partition(
            list(query_set.rankings),
            footrule_topk_raw,
            self._query_theta_c * maximum,
        )

        total_stats = SearchStats()
        results_by_position: dict[int, SearchResult] = {}
        relaxed = min(theta + self._query_theta_c, 0.999)
        for group in groups:
            group_answer = self._algorithm.search(group.medoid, relaxed)
            total_stats.merge(group_answer.stats)
            candidates = [match.rid for match in group_answer.matches]
            for member in group.members:
                assert member.rid is not None
                original_query = queries[member.rid]
                member_result = SearchResult(
                    query=original_query, theta=theta, algorithm="BatchCoarse"
                )
                self._algorithm._validate_candidates(
                    candidates, original_query, theta, member_result
                )
                member_result.finalize()
                total_stats.merge(member_result.stats)
                results_by_position[member.rid] = member_result

        ordered = [results_by_position[position] for position in range(len(queries))]
        return BatchResult(results=ordered, group_count=len(groups), stats=total_stats)
