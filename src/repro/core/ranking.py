"""Top-k ranking value types.

A *top-k ranking* (also called a top-k list in Fagin et al. 2003) is an
ordered list of ``k`` distinct item identifiers.  The left-most position is
the top-ranked item.  Following the paper, ranks run from ``0`` (best) to
``k - 1`` (worst) and an item that is not contained in a ranking is assigned
the artificial rank ``l = k`` when distances are computed.

Two classes are provided:

``Ranking``
    An immutable, hashable ranking with O(1) rank lookup.  The item -> rank
    map behind that lookup is built on first use: the validation kernel
    reads a collection's item matrix and :func:`footrule_topk_raw` scans the
    item tuples, so a stored ranking that is only ever compared never pays
    for the map.

``RankingSet``
    A collection of rankings of uniform size ``k`` with stable integer ids,
    the unit that all indices in this library are built over.  Its
    :meth:`RankingSet.matrix` is the ``(n, k)`` i64 item matrix the kernel
    runs on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from numbers import Integral
from typing import Optional

import numpy as np

from repro.core.errors import (
    DuplicateItemError,
    InvalidRankingError,
    RankingSizeMismatchError,
)

#: Item ids are signed 64-bit integers wherever they are stored: the item
#: matrix, the WAL, run files and the wire.
ITEM_ID_MIN, ITEM_ID_MAX = -(2**63), 2**63 - 1


def is_item_id(item: object) -> bool:
    """Whether ``item`` is an integer that fits a signed 64-bit item id."""
    integral = type(item) is int or isinstance(item, Integral)
    return integral and ITEM_ID_MIN <= item <= ITEM_ID_MAX


def check_item_ids(items: Iterable[object]) -> None:
    """Raise :class:`InvalidRankingError` naming the first item that is not an i64 id."""
    for item in items:
        if not is_item_id(item):
            raise InvalidRankingError(f"item {item!r} is not a signed 64-bit integer id")


class Ranking:
    """An immutable top-k list of distinct item identifiers.

    Parameters
    ----------
    items:
        The ranked item ids, best first.  Items may be any hashable value but
        are typically small integers.
    rid:
        Optional ranking identifier.  Ids are assigned by :class:`RankingSet`
        when rankings are added to a collection; standalone rankings (for
        example ad-hoc queries) may leave it as ``None``.

    Examples
    --------
    >>> r = Ranking([2, 5, 4, 3])
    >>> r.size
    4
    >>> r.rank_of(5)
    1
    >>> r.rank_of(99, default=r.size)
    4
    """

    __slots__ = ("_items", "_ranks", "_rid")

    def __init__(self, items: Sequence[int] | Iterable[int], rid: Optional[int] = None) -> None:
        items_tuple = tuple(items)
        if not items_tuple:
            raise InvalidRankingError("a ranking must contain at least one item")
        if len(set(items_tuple)) < len(items_tuple):
            raise DuplicateItemError(
                next(item for i, item in enumerate(items_tuple) if item in items_tuple[:i])
            )
        self._items = items_tuple
        self._ranks: Optional[dict[int, int]] = None
        self._rid = rid

    def _rank_map(self) -> dict[int, int]:
        """The item -> rank map, built on first use and then kept."""
        ranks = self._ranks
        if ranks is None:
            ranks = {item: position for position, item in enumerate(self._items)}
            self._ranks = ranks
        return ranks

    # -- basic accessors ---------------------------------------------------

    @property
    def items(self) -> tuple[int, ...]:
        """The ranked items, best first."""
        return self._items

    @property
    def rid(self) -> Optional[int]:
        """The ranking id inside its :class:`RankingSet`, if assigned."""
        return self._rid

    @property
    def size(self) -> int:
        """The ranking length ``k``."""
        return len(self._items)

    @property
    def domain(self) -> frozenset[int]:
        """The set of items contained in the ranking (``D_tau``)."""
        return frozenset(self._items)

    def rank_of(self, item: int, default: Optional[int] = None) -> int:
        """Return the rank of ``item`` (0 = best).

        If the item is not contained in the ranking, ``default`` is returned
        when given, otherwise a :class:`KeyError` is raised.  Passing
        ``default=self.size`` yields the paper's convention ``tau(i) = l = k``
        for missing items.
        """
        ranks = self._ranks or self._rank_map()
        if default is None:
            return ranks[item]
        return ranks.get(item, default)

    def __contains__(self, item: object) -> bool:
        return item in (self._ranks or self._rank_map())

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, position: int) -> int:
        return self._items[position]

    def rank_map(self) -> Mapping[int, int]:
        """A read-only view of the item -> rank mapping."""
        return dict(self._rank_map())

    # -- relations between rankings ----------------------------------------

    def overlap(self, other: "Ranking") -> int:
        """Number of items shared with ``other``."""
        if len(self._items) > len(other._items):
            return other.overlap(self)
        ranks = other._rank_map()
        return sum(1 for item in self._items if item in ranks)

    def with_rid(self, rid: int) -> "Ranking":
        """Return a copy of this ranking carrying the given id."""
        clone = Ranking.__new__(Ranking)
        clone._items = self._items
        clone._ranks = self._ranks
        clone._rid = rid
        return clone

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        rid = "" if self._rid is None else f", rid={self._rid}"
        return f"Ranking({list(self._items)!r}{rid})"


def item_matrix(rows: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """Stack ``rows`` of ``k`` item ids into a read-only ``(len(rows), k)`` i64 array.

    Raises :class:`InvalidRankingError` naming the first item that is not a
    signed 64-bit integer id (numpy would otherwise truncate a float, parse a
    numeric string, or fail with an ``OverflowError``).
    """
    if not rows:
        matrix = np.empty((0, k), dtype=np.int64)
    else:
        matrix = np.array(rows)
        if matrix.dtype != np.int64:
            for row in rows:
                check_item_ids(row)
            matrix = matrix.astype(np.int64)
    matrix.flags.writeable = False
    return matrix


class RankingSet:
    """A collection of rankings of uniform size ``k`` with dense integer ids.

    The ranking id of the i-th added ranking is ``i``; all indices in the
    library refer to rankings through these ids.

    Examples
    --------
    >>> rs = RankingSet.from_lists([[2, 5, 4, 3], [1, 4, 5, 9]])
    >>> len(rs)
    2
    >>> rs.k
    4
    >>> rs[1].items
    (1, 4, 5, 9)
    """

    def __init__(self, k: Optional[int] = None) -> None:
        if k is not None:
            if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
                raise InvalidRankingError(f"ranking size k must be a positive integer, got {k!r}")
            k = int(k)
        self._rankings: list[Ranking] = []
        self._k = k
        self._matrix: Optional[np.ndarray] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_lists(cls, lists: Iterable[Sequence[int]], k: Optional[int] = None) -> "RankingSet":
        """Build a ranking set from plain item-id sequences."""
        ranking_set = cls(k=k)
        for entry in lists:
            ranking_set.add(entry)
        return ranking_set

    @classmethod
    def from_rankings(cls, rankings: Iterable[Ranking]) -> "RankingSet":
        """Build a ranking set from existing :class:`Ranking` objects."""
        ranking_set = cls()
        for ranking in rankings:
            ranking_set.add(ranking)
        return ranking_set

    def add(self, items: Sequence[int] | Ranking) -> Ranking:
        """Add one ranking and return the stored (id-carrying) copy."""
        rid = len(self._rankings)
        if isinstance(items, Ranking):
            stored = items.with_rid(rid)
        else:
            stored = Ranking(items, rid)
        if self._k is None:
            self._k = stored.size
        elif stored.size != self._k:
            raise RankingSizeMismatchError(self._k, stored.size)
        self._rankings.append(stored)
        self._matrix = None
        return stored

    # -- accessors ------------------------------------------------------------

    @property
    def k(self) -> int:
        """The uniform ranking size; raises if the set is empty and untyped."""
        if self._k is None:
            raise InvalidRankingError("ranking set is empty; k is undefined")
        return self._k

    @property
    def rankings(self) -> Sequence[Ranking]:
        """The stored rankings, indexable by ranking id."""
        return self._rankings

    def matrix(self) -> np.ndarray:
        """The ``(n, k)`` i64 item matrix, row ``rid`` holding ranking ``rid``.

        Built on first use and cached until the next :meth:`add`; the array
        is read-only.  Raises :class:`InvalidRankingError` naming the first
        item that is not a signed 64-bit integer id.
        """
        matrix = self._matrix
        if matrix is None:
            matrix = item_matrix([ranking.items for ranking in self._rankings], self.k)
            self._matrix = matrix
        return matrix

    def item_domain(self) -> set[int]:
        """The union of all item ids appearing in the collection."""
        domain: set[int] = set()
        for ranking in self._rankings:
            domain.update(ranking.items)
        return domain

    def item_frequencies(self) -> dict[int, int]:
        """Number of rankings each item appears in (document frequency)."""
        frequencies: dict[int, int] = {}
        for ranking in self._rankings:
            for item in ranking.items:
                frequencies[item] = frequencies.get(item, 0) + 1
        return frequencies

    def __len__(self) -> int:
        return len(self._rankings)

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self._rankings)

    def __getitem__(self, rid: int) -> Ranking:
        return self._rankings[rid]

    def __contains__(self, ranking: object) -> bool:
        if not isinstance(ranking, Ranking):
            return False
        return any(stored == ranking for stored in self._rankings)

    def __repr__(self) -> str:
        k = self._k if self._k is not None else "?"
        return f"RankingSet(n={len(self._rankings)}, k={k})"
