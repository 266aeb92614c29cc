"""Distance functions between rankings.

The paper's query model is built on **Spearman's Footrule** adapted to top-k
lists (Fagin, Kumar, Sivakumar 2003): an item that is missing from a ranking
is assigned the artificial rank ``l = k`` and the distance is the L1 distance
of the rank vectors over the union of both domains.  With ranks ``0..k-1``
the largest possible value is ``k * (k + 1)``, attained by two disjoint
rankings, and all public thresholds in the library are expressed on the
normalised scale ``[0, 1]`` obtained by dividing by this maximum.

Validation runs on :func:`footrule_block`, which scores a whole block of
stored rankings (rows of a :meth:`RankingSet.matrix`) at once through the
**gain identity**.  Two disjoint lists are ``k * (k + 1)`` apart, and an item
shared at rank ``r`` in the query and rank ``j`` in the stored list lowers
that by its gain ``(k - r) + (k - j) - |r - j| = 2 * (k - max(r, j))``, so::

    d(q, tau) = k * (k + 1) - sum_r sum_j [tau_j == q_r] * G[r, j],
    G[r, j] = 2 * (k - max(r, j))

Only shared items contribute, and ``G[r, j]`` depends on ``max(r, j)``
alone, so the kernel records ``max(r, j)`` per stored cell (``k`` — a zero
gain — for an item the query lacks) with one equality test per query rank,
and needs no rank map.  :func:`footrule_topk_raw`, the
item-at-a-time definition, stays as the reference the kernel is tested
against and serves the metric structures that compare single pairs.

Kendall's tau (with the optimistic ``p = 0`` handling of item pairs missing
from both lists) is provided as well so the metric-generic parts of the
library (coarse index, metric trees) can be exercised with a second distance.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Callable

import numpy as np

from repro.core.errors import RankingSizeMismatchError
from repro.core.ranking import Ranking, is_item_id

DistanceFunction = Callable[[Ranking, Ranking], float]


def max_footrule_distance(k: int) -> int:
    """Maximum raw Footrule distance between two top-k lists of size ``k``.

    Two disjoint rankings realise the maximum: every item of either ranking
    at rank ``r`` contributes ``k - r`` against the artificial rank ``k``,
    which sums to ``k * (k + 1)`` over both rankings.
    """
    if k <= 0:
        raise ValueError(f"ranking size must be positive, got {k}")
    return k * (k + 1)


def normalize_distance(raw: float, k: int) -> float:
    """Map a raw Footrule distance into the normalised range ``[0, 1]``."""
    return raw / max_footrule_distance(k)


def unnormalize_distance(theta: float, k: int) -> float:
    """Map a normalised threshold back to the raw (integer) distance scale."""
    return theta * max_footrule_distance(k)


def _check_same_size(tau1: Ranking, tau2: Ranking) -> int:
    if tau1.size != tau2.size:
        raise RankingSizeMismatchError(tau1.size, tau2.size)
    return tau1.size


# ---------------------------------------------------------------------------
# Spearman's Footrule
# ---------------------------------------------------------------------------


def footrule_complete(sigma1: Sequence[int] | Ranking, sigma2: Sequence[int] | Ranking) -> int:
    """Footrule distance between two complete rankings of the same domain.

    Both arguments must be permutations of the same item set.  The result is
    ``sum_i |sigma1(i) - sigma2(i)|``.
    """
    r1 = sigma1 if isinstance(sigma1, Ranking) else Ranking(sigma1)
    r2 = sigma2 if isinstance(sigma2, Ranking) else Ranking(sigma2)
    if r1.domain != r2.domain:
        raise ValueError("complete rankings must be permutations of the same domain")
    return sum(abs(r1.rank_of(item) - r2.rank_of(item)) for item in r1.items)


def footrule_topk_raw(tau1: Ranking, tau2: Ranking) -> int:
    """Raw (integer) Footrule distance between two top-k lists.

    Missing items take the artificial rank ``l = k``.  The result lies in
    ``[0, k * (k + 1)]``.  Ranks are found by scanning the two item tuples,
    which at top-k sizes is cheaper than building either ranking's rank map.
    """
    k = _check_same_size(tau1, tau2)
    items1, items2 = tau1.items, tau2.items
    distance = 0
    for rank, item in enumerate(items1):
        if item in items2:
            distance += abs(rank - items2.index(item))
        else:
            distance += k - rank
    for rank, item in enumerate(items2):
        if item not in items1:
            distance += k - rank
    return distance


def _gain(k: int, top: np.ndarray) -> np.ndarray:
    """Per row, the gain identity's sum ``sum_j 2 * (k - top[:, j])``."""
    return 2 * (k * k - top.sum(axis=1, dtype=np.int64))


def footrule_block(query: Ranking, block: np.ndarray) -> np.ndarray:
    """Raw Footrule distance from ``query`` to every row of ``block``.

    ``block`` is a ``(c, k)`` i64 item matrix (rows of
    :meth:`RankingSet.matrix`); the result is a ``(c,)`` i64 array equal,
    row for row, to :func:`footrule_topk_raw`.  Computed with the gain
    identity in the module docstring: ``top[i, j]`` collects
    ``max(r, j)`` for the query rank ``r`` of ``block[i, j]`` — ``k``, a
    zero gain, when the query lacks it — from one ``(c, k)`` bool slice per
    query rank, so the only temporaries are two ``(c, k)`` byte arrays.  A
    query item that is not an i64 integer id matches no stored item.
    """
    count, k = block.shape
    if query.size != k:
        raise RankingSizeMismatchError(k, query.size)
    positions = np.arange(k, dtype=np.min_scalar_type(k))  # the narrowest dtype holding k
    top = np.full(block.shape, k, dtype=positions.dtype)
    hits = np.empty(block.shape, dtype=bool)
    for rank, item in enumerate(query.items):
        if is_item_id(item):
            np.equal(block, item, out=hits)
            np.copyto(top, rank, where=hits)
    np.maximum(top, positions, out=top)
    return max_footrule_distance(k) - _gain(k, top)


def footrule_topk(tau1: Ranking, tau2: Ranking) -> float:
    """Normalised Footrule distance between two top-k lists (range ``[0, 1]``)."""
    k = _check_same_size(tau1, tau2)
    return footrule_topk_raw(tau1, tau2) / max_footrule_distance(k)


def footrule_partial(
    query_ranks: Mapping[int, int],
    candidate_ranks: Mapping[int, int],
    k: int,
) -> int:
    """Footrule contribution of the items present in ``candidate_ranks``.

    Helper used by the list-at-a-time algorithms: given the ranks of the
    candidate items *seen so far* (a subset of the candidate's domain that
    intersects the query), return the exact partial distance contributed by
    those items, i.e. ``sum |q(i) - tau(i)|`` over the seen items.
    """
    partial = 0
    for item, candidate_rank in candidate_ranks.items():
        partial += abs(query_ranks.get(item, k) - candidate_rank)
    return partial


# ---------------------------------------------------------------------------
# Kendall's tau
# ---------------------------------------------------------------------------


def kendall_tau_complete(sigma1: Sequence[int] | Ranking, sigma2: Sequence[int] | Ranking) -> int:
    """Kendall's tau distance (number of discordant pairs) between permutations."""
    r1 = sigma1 if isinstance(sigma1, Ranking) else Ranking(sigma1)
    r2 = sigma2 if isinstance(sigma2, Ranking) else Ranking(sigma2)
    if r1.domain != r2.domain:
        raise ValueError("complete rankings must be permutations of the same domain")
    items = list(r1.items)
    discordant = 0
    for a_index in range(len(items)):
        for b_index in range(a_index + 1, len(items)):
            a, b = items[a_index], items[b_index]
            order1 = r1.rank_of(a) - r1.rank_of(b)
            order2 = r2.rank_of(a) - r2.rank_of(b)
            if order1 * order2 < 0:
                discordant += 1
    return discordant


def kendall_tau_topk(tau1: Ranking, tau2: Ranking, penalty: float = 0.0) -> float:
    """Kendall's tau distance between two top-k lists, K^(p) of Fagin et al.

    The four standard cases are handled:

    1. Both items in both lists: count 1 if the orders disagree.
    2. Both items in one list, only one of them in the other: count 1 if the
       item ranked ahead in the one-item list is behind in the two-item list.
    3. One item only in one list, the other item only in the other list:
       always discordant, count 1.
    4. Both items in one list, neither in the other: count ``penalty``
       (``p = 0`` is the optimistic variant, ``p = 0.5`` the neutral one).

    Returns the raw (possibly fractional) distance.
    """
    _check_same_size(tau1, tau2)
    union = sorted(tau1.domain | tau2.domain)
    distance = 0.0
    for a_index in range(len(union)):
        for b_index in range(a_index + 1, len(union)):
            a, b = union[a_index], union[b_index]
            in1 = (a in tau1, b in tau1)
            in2 = (a in tau2, b in tau2)
            if all(in1) and all(in2):
                if (tau1.rank_of(a) - tau1.rank_of(b)) * (tau2.rank_of(a) - tau2.rank_of(b)) < 0:
                    distance += 1.0
            elif all(in1) and any(in2):
                present = a if a in tau2 else b
                absent = b if present == a else a
                # absent is implicitly ranked behind every present item in tau2
                if tau1.rank_of(absent) < tau1.rank_of(present):
                    distance += 1.0
            elif all(in2) and any(in1):
                present = a if a in tau1 else b
                absent = b if present == a else a
                if tau2.rank_of(absent) < tau2.rank_of(present):
                    distance += 1.0
            elif all(in1) or all(in2):
                # both items live in exactly one of the lists, neither in the other
                distance += penalty
            elif (a in tau1 and b in tau2) or (a in tau2 and b in tau1):
                distance += 1.0
    return distance


def max_kendall_tau_distance(k: int) -> float:
    """Maximum K^(0) distance between two disjoint top-k lists.

    For disjoint lists every cross pair (k * k of them) is discordant and the
    within-list pairs contribute the penalty (0 for the optimistic variant).
    """
    if k <= 0:
        raise ValueError(f"ranking size must be positive, got {k}")
    return float(k * k)


def kendall_tau_topk_normalized(tau1: Ranking, tau2: Ranking) -> float:
    """K^(0) distance between top-k lists normalised into ``[0, 1]``."""
    k = _check_same_size(tau1, tau2)
    return kendall_tau_topk(tau1, tau2, penalty=0.0) / max_kendall_tau_distance(k)
