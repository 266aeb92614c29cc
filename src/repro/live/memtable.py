"""In-memory write buffer: the newest rankings, answered by exact scan.

The memtable absorbs inserts and upserts until it reaches the collection's
flush threshold, at which point it is sealed into an immutable
:class:`~repro.live.segment.Segment`.  While resident, its entries are
queried by brute-force Footrule evaluation — the buffer is small by
construction, and an exact scan uses precisely the same qualification test
(``raw <= theta * k * (k + 1)``) and the same normalisation
(``raw / maximum``) as the indexed algorithms, so merged answers stay
byte-identical to a from-scratch index.

The memtable is the one layer a checkpoint never persists: its entries are
covered by the WAL records *after* the manifest's ``covered_seq``, and
sealing (``drain`` → ``Segment.seal``) is exactly the moment they move from
the replayed tail into a spilled immutable run.  Restart cost is therefore
bounded by the memtable threshold plus the snapshot policy's WAL bound.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Sequence
from typing import Optional

from repro.core.distances import (
    footrule_block,
    max_footrule_distance,
    unnormalize_distance,
)
from repro.core.ranking import Ranking, item_matrix


def _raw_distances(entries: Sequence[tuple[int, Ranking]], query: Ranking) -> list[int]:
    """Raw Footrule distance of every entry to the query, from one kernel call."""
    block = item_matrix([ranking.items for _, ranking in entries], query.size)
    return footrule_block(query, block).tolist()


def scan_entries(
    entries: Sequence[tuple[int, Ranking]], query: Ranking, theta: float
) -> list[tuple[float, int, Ranking]]:
    """Exact range scan over ``(key, ranking)`` pairs.

    Returns ``(normalised distance, key, ranking)`` triples within
    ``theta``, sorted by ``(distance, key)`` — the same qualification test
    and normalisation as the indexed algorithms.  Module-level so query
    paths can scan an already-snapshotted entry list without rebuilding a
    buffer.
    """
    if not entries:
        return []
    k = query.size
    theta_raw = unnormalize_distance(theta, k)
    maximum = max_footrule_distance(k)
    matches = [
        (raw / maximum, key, ranking)
        for raw, (key, ranking) in zip(_raw_distances(entries, query), entries)
        if raw <= theta_raw
    ]
    matches.sort(key=lambda match: match[:2])
    return matches


def top_entries(
    entries: Sequence[tuple[int, Ranking]], query: Ranking, n: int
) -> list[tuple[float, int, Ranking]]:
    """The ``n`` entries closest to the query, by ``(distance, key)``."""
    if not entries or n <= 0:
        return []
    maximum = max_footrule_distance(query.size)
    scored = (
        (raw / maximum, key, ranking)
        for raw, (key, ranking) in zip(_raw_distances(entries, query), entries)
    )
    return heapq.nsmallest(n, scored, key=lambda entry: entry[:2])


class MemTable:
    """Mutable key -> ranking write buffer.

    Queries run over a snapshot of :meth:`items` through the module-level
    :func:`scan_entries` / :func:`top_entries` helpers, so a concurrent
    mutation cannot change the buffer mid-scan.

    Examples
    --------
    >>> table = MemTable()
    >>> table.put(0, Ranking([1, 2, 3]))
    >>> table.put(1, Ranking([7, 8, 9]))
    >>> [key for _, key, _ in scan_entries(table.items(), Ranking([1, 2, 3]), theta=0.1)]
    [0]
    """

    def __init__(self) -> None:
        self._entries: dict[int, Ranking] = {}

    # -- mutation ----------------------------------------------------------------

    def put(self, key: int, ranking: Ranking) -> None:
        """Insert or replace the ranking stored under ``key``."""
        self._entries[key] = ranking

    def remove(self, key: int) -> Ranking:
        """Drop and return the ranking stored under ``key``."""
        return self._entries.pop(key)

    def drain(self) -> list[tuple[int, Ranking]]:
        """Empty the buffer, returning its entries sorted by key."""
        entries = sorted(self._entries.items())
        self._entries.clear()
        return entries

    # -- accessors ---------------------------------------------------------------

    def get(self, key: int) -> Optional[Ranking]:
        """The ranking stored under ``key``, or ``None``."""
        return self._entries.get(key)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> list[tuple[int, Ranking]]:
        """Snapshot of the buffered entries sorted by key."""
        return sorted(self._entries.items())

    def __iter__(self) -> Iterator[tuple[int, Ranking]]:
        return iter(self.items())

    def __repr__(self) -> str:
        return f"MemTable(size={len(self._entries)})"
