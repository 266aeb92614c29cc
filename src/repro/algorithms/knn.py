"""k-nearest-neighbour queries on top of the range-search machinery.

The paper's problem statement is the similarity *range* query, but its
related-work section repeatedly contrasts it with KNN processing, and range
search is the natural building block for KNN: start with a small radius,
enlarge it until at least ``n_neighbours`` rankings qualify, then report the
closest ones.  This module provides

``BruteForceKNN``
    The obvious baseline: evaluate every distance, keep the best n.

``BKTreeKNN``
    Best-first traversal of a BK-tree with a shrinking worst-candidate bound.

``RangeExpansionKNN``
    KNN over *any* registered range-search algorithm (including the coarse
    index) by doubling the radius until enough results are found.  This is
    the variant a user of the library would reach for, because it inherits
    whatever index they already built.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.distances import footrule_block, footrule_topk_raw, max_footrule_distance
from repro.core.ranking import Ranking, RankingSet
from repro.core.stats import SearchStats
from repro.metric.bktree import BKTree
from repro.algorithms.base import RankingSearchAlgorithm

#: Largest threshold forwarded to a range search (theta must stay below 1).
_MAX_RANGE_THETA = 0.999


def exact_local_top(
    algorithm: RankingSearchAlgorithm,
    rankings: RankingSet,
    query: Ranking,
    n: int,
    initial_theta: float = 0.05,
    growth: float = 2.0,
) -> tuple[list[tuple[float, int]], SearchStats]:
    """Exact top-``n`` of one indexed collection as ``(distance, local rid)``.

    The building block shared by the sharded k-NN fan-out and the live
    store's per-segment k-NN: range queries with a geometrically growing
    radius until ``n`` results qualify, then — because rankings at the
    maximum possible distance are unreachable by any range query with
    ``theta < 1`` — a brute-force fallback over the collection if the
    answer is still short.  Pairs come back sorted by ``(distance, rid)``.
    """
    if not 0.0 < initial_theta < 1.0:
        raise ValueError(f"initial_theta must lie in (0, 1), got {initial_theta}")
    if growth <= 1.0:
        raise ValueError(f"growth must be greater than 1, got {growth}")
    stats = SearchStats()
    target = min(n, len(rankings))
    if target <= 0:
        return [], stats
    theta = initial_theta
    attempts = 0
    while True:
        attempts += 1
        result = algorithm.search(query, min(theta, _MAX_RANGE_THETA))
        stats.merge(result.stats)
        if len(result) >= target or theta >= 1.0:
            break
        theta *= growth
    stats.extra["range_attempts"] = float(attempts)
    if len(result) >= target:
        top = [(match.distance, match.rid) for match in list(result)[:target]]
    else:
        stats.distance_calls += len(rankings)
        raw = footrule_block(query, rankings.matrix())
        nearest = np.argsort(raw, kind="stable")[:target]  # ties: lower rid first
        maximum = max_footrule_distance(rankings.k)
        top = [
            (separation / maximum, rid)
            for separation, rid in zip(raw[nearest].tolist(), nearest.tolist())
        ]
    return top, stats


@dataclass(frozen=True, order=True)
class Neighbour:
    """One KNN answer entry: normalised distance plus the ranking."""

    distance: float
    rid: int
    ranking: Ranking = None  # type: ignore[assignment]


@dataclass
class KnnResult:
    """Answer to one KNN query, sorted by increasing distance."""

    query: Ranking
    neighbours: list[Neighbour]
    stats: SearchStats

    def __len__(self) -> int:
        return len(self.neighbours)

    @property
    def rids(self) -> list[int]:
        """The neighbour ranking ids, nearest first."""
        return [neighbour.rid for neighbour in self.neighbours]


class BruteForceKNN:
    """Exhaustive KNN baseline: one distance evaluation per indexed ranking."""

    def __init__(self, rankings: RankingSet) -> None:
        self._rankings = rankings

    def search(self, query: Ranking, n_neighbours: int) -> KnnResult:
        """Return the ``n_neighbours`` rankings closest to the query."""
        if n_neighbours <= 0:
            raise ValueError(f"n_neighbours must be positive, got {n_neighbours}")
        stats = SearchStats()
        stats.distance_calls += len(self._rankings)
        raw = footrule_block(query, self._rankings.matrix())
        rids = np.arange(len(raw))
        # ties at the cut go to the higher rid, then the n sort by (distance, rid)
        kept = np.lexsort((-rids, raw))[:n_neighbours]
        kept = kept[np.lexsort((kept, raw[kept]))]
        maximum = max_footrule_distance(self._rankings.k)
        neighbours = [
            Neighbour(distance=separation / maximum, rid=rid, ranking=self._rankings[rid])
            for separation, rid in zip(raw[kept].tolist(), kept.tolist())
        ]
        return KnnResult(query=query, neighbours=neighbours, stats=stats)


class BKTreeKNN:
    """Best-first KNN over a BK-tree (discrete-metric nearest neighbours)."""

    def __init__(self, rankings: RankingSet, tree: Optional[BKTree] = None) -> None:
        self._rankings = rankings
        self._tree = (
            tree if tree is not None else BKTree.build(rankings.rankings, footrule_topk_raw)
        )

    @property
    def tree(self) -> BKTree:
        """The underlying BK-tree."""
        return self._tree

    def search(self, query: Ranking, n_neighbours: int) -> KnnResult:
        """Return the ``n_neighbours`` rankings closest to the query.

        The traversal keeps the current n-th best distance as a shrinking
        radius: a subtree reached over edge ``e`` from a node at distance
        ``d`` can only contain closer rankings if ``|e - d| <= radius``.
        """
        if n_neighbours <= 0:
            raise ValueError(f"n_neighbours must be positive, got {n_neighbours}")
        stats = SearchStats()
        maximum = max_footrule_distance(self._rankings.k)
        best: list[tuple[float, int]] = []  # max-heap by negated distance
        radius = float(maximum)

        root = self._tree.root
        if root is None:
            return KnnResult(query=query, neighbours=[], stats=stats)
        stack = [root]
        while stack:
            node = stack.pop()
            stats.nodes_visited += 1
            stats.distance_calls += 1
            separation = self._tree.distance(query, node.ranking)
            assert node.ranking.rid is not None
            entry = (-float(separation), node.ranking.rid)
            if len(best) < n_neighbours:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
            if len(best) == n_neighbours:
                radius = -best[0][0]
            for edge, child in node.children.items():
                if abs(edge - separation) <= radius:
                    stack.append(child)
        neighbours = sorted(
            Neighbour(distance=-negated / maximum, rid=rid, ranking=self._rankings[rid])
            for negated, rid in best
        )
        return KnnResult(query=query, neighbours=neighbours, stats=stats)


class RangeExpansionKNN:
    """KNN through repeated range queries with an expanding radius.

    Parameters
    ----------
    algorithm:
        Any range-search algorithm of this library (F&V, Coarse+Drop, ...).
    initial_theta:
        First (normalised) radius tried.
    growth:
        Multiplicative radius growth factor between attempts (> 1).
    """

    def __init__(
        self,
        algorithm: RankingSearchAlgorithm,
        initial_theta: float = 0.05,
        growth: float = 2.0,
    ) -> None:
        if not 0.0 < initial_theta < 1.0:
            raise ValueError(f"initial_theta must lie in (0, 1), got {initial_theta}")
        if growth <= 1.0:
            raise ValueError(f"growth must be greater than 1, got {growth}")
        self._algorithm = algorithm
        self._initial_theta = initial_theta
        self._growth = growth

    @property
    def algorithm(self) -> RankingSearchAlgorithm:
        """The underlying range-search algorithm."""
        return self._algorithm

    def search(self, query: Ranking, n_neighbours: int) -> KnnResult:
        """Return the ``n_neighbours`` rankings closest to the query.

        Delegates to :func:`exact_local_top`: the radius is enlarged
        geometrically until the range query returns at least
        ``n_neighbours`` rankings, and rankings at the maximum possible
        distance — unreachable by any range query with ``theta < 1`` — are
        picked up by its brute-force fallback, so the answer is always the
        exact top ``n_neighbours``.
        """
        if n_neighbours <= 0:
            raise ValueError(f"n_neighbours must be positive, got {n_neighbours}")
        rankings = self._algorithm.rankings
        top, stats = exact_local_top(
            self._algorithm, rankings, query, n_neighbours,
            initial_theta=self._initial_theta, growth=self._growth,
        )
        neighbours = [
            Neighbour(distance=distance, rid=rid, ranking=rankings[rid])
            for distance, rid in top
        ]
        return KnnResult(query=query, neighbours=neighbours, stats=stats)
