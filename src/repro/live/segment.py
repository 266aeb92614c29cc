"""Immutable sealed segments: a frozen memtable served by a real index.

When the memtable reaches the flush threshold it is sealed into a
``Segment``: an immutable :class:`~repro.core.ranking.RankingSet` (local ids
``0..m-1`` assigned in ascending key order) plus a parallel key map.  Any
registry algorithm can serve as the segment's index; instances are built
lazily per ``(algorithm, params)`` — exactly the discipline
:class:`~repro.service.sharding.ShardedIndex` uses for its shards — and
cached for the segment's lifetime, which is bounded by the next compaction.

A durable collection spills every sealed segment to an immutable run file
under ``segments/`` (:meth:`Segment.save` / :meth:`Segment.load`), so a
restart reloads the run directly instead of replaying the WAL records that
produced it.  A run is one zlib-packed columnar RBF record
(:mod:`repro.codec`); :meth:`Segment.load` also reads the ``.json`` runs a
directory upgraded from the JSON era still holds.

Local ids ascend with keys, so per-segment tie order is consistent with the
global key order and bounded merges over segments reproduce a from-scratch
index's ``(distance, id)`` ordering.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from pathlib import Path

from repro.core.ranking import Ranking, RankingSet
from repro.core.result import SearchResult
from repro.core.stats import SearchStats
from repro.algorithms.base import RankingSearchAlgorithm
from repro.algorithms.knn import exact_local_top
from repro.algorithms.registry import make_algorithm
from repro.live.manifest import read_run, write_run


class Segment:
    """One sealed, immutable run of rankings with lazily built indices.

    Parameters
    ----------
    entries:
        ``(key, ranking)`` pairs; sealed in ascending key order regardless
        of the order given.

    Examples
    --------
    >>> segment = Segment.seal([(3, Ranking([1, 2, 3])), (1, Ranking([7, 8, 9]))])
    >>> segment.keys
    (1, 3)
    >>> result = segment.search(Ranking([1, 2, 3]), theta=0.1, algorithm="F&V")
    >>> [segment.keys[match.rid] for match in result.matches]
    [3]
    """

    def __init__(self, entries: Sequence[tuple[int, Ranking]]) -> None:
        if not entries:
            raise ValueError("cannot seal an empty segment")
        ordered = sorted(entries, key=lambda entry: entry[0])
        self._keys = tuple(key for key, _ in ordered)
        self._rankings = RankingSet.from_rankings(ranking for _, ranking in ordered)
        self._instances: dict[tuple, RankingSearchAlgorithm] = {}
        self._lock = threading.Lock()

    @classmethod
    def seal(cls, entries: Sequence[tuple[int, Ranking]]) -> "Segment":
        """Freeze drained memtable entries into an immutable segment."""
        return cls(entries)

    # -- persistence -------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Spill the sealed run to disk, atomically and ``fsync``\\ ed.

        The on-disk row order is exactly the in-memory local-id order, so
        tombstones recorded against this segment stay valid after a reload.
        """
        write_run(path, self._keys, self._rankings)

    @classmethod
    def load(cls, path: Path) -> "Segment":
        """Reload a spilled run; indices are rebuilt lazily on first query."""
        keys, rankings = read_run(path)
        return cls(list(zip(keys, (rankings[rid] for rid in range(len(rankings))))))

    # -- accessors ---------------------------------------------------------------

    @property
    def keys(self) -> tuple[int, ...]:
        """Logical key of each local ranking id, ascending."""
        return self._keys

    @property
    def rankings(self) -> RankingSet:
        """The sealed rankings (local ids ``0..m-1``)."""
        return self._rankings

    def __len__(self) -> int:
        return len(self._keys)

    # -- index management --------------------------------------------------------

    def index(self, algorithm: str, **kwargs) -> RankingSearchAlgorithm:
        """The (lazily built) instance of ``algorithm`` over this segment."""
        key = (algorithm, tuple(sorted(kwargs.items())))
        with self._lock:
            instance = self._instances.get(key)
        if instance is None:
            # build outside the lock: construction may be expensive and
            # concurrent queries should not serialise on it
            instance = make_algorithm(algorithm, self._rankings, **kwargs)
            with self._lock:
                instance = self._instances.setdefault(key, instance)
        return instance

    # -- queries -----------------------------------------------------------------

    def search(self, query: Ranking, theta: float, algorithm: str, **kwargs) -> SearchResult:
        """Answer one range query through the segment's index (local ids)."""
        return self.index(algorithm, **kwargs).search(query, theta)

    def top(
        self,
        query: Ranking,
        n: int,
        algorithm: str,
        initial_theta: float = 0.05,
        growth: float = 2.0,
        **kwargs,
    ) -> tuple[list[tuple[float, int]], SearchStats]:
        """Local exact top-``n`` as ``(distance, local id)`` plus search stats.

        Delegates to :func:`repro.algorithms.knn.exact_local_top`, the same
        expanding-radius + brute-force-fallback discipline the sharded k-NN
        fan-out uses per shard.
        """
        return exact_local_top(
            self.index(algorithm, **kwargs), self._rankings, query, n,
            initial_theta=initial_theta, growth=growth,
        )

    def __repr__(self) -> str:
        return f"Segment(size={len(self._keys)}, keys={self._keys[0]}..{self._keys[-1]})"
