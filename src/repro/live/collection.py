"""The live-update store: an LSM-style mutable ranking collection.

Every algorithm in the library serves a frozen :class:`RankingSet`; the only
way to change the collection used to be a full rebuild.  ``LiveCollection``
opens the write path with the classic log-structured design:

* every accepted mutation is first made durable in the
  :class:`~repro.live.wal.WriteAheadLog` (when one is attached),
* recent inserts and upserts live in a :class:`~repro.live.memtable.MemTable`
  answered by exact brute-force scan,
* a full memtable is sealed into an immutable
  :class:`~repro.live.segment.Segment` indexed by any registry algorithm,
* deletes and upserts of sealed rankings tombstone the superseded *location*
  (:class:`~repro.live.tombstones.TombstoneSet`) instead of touching the
  immutable layers, and
* the :class:`~repro.live.compactor.Compactor` merges base + segments minus
  tombstones into a fresh :class:`~repro.service.sharding.ShardedIndex`
  epoch, optionally on a background thread.

**Exactness invariant.**  Rankings are addressed by a stable integer *key*
(assigned at insert, preserved by upsert).  For any interleaving of
mutations, flushes, and compactions, ``range_query`` and ``knn`` return
exactly the answer a from-scratch index over the logical collection (the
live rankings in ascending key order) would return: same rankings, same
distances, and ``(distance, key)`` tie order — keys ascend with insertion
order, so the tie order matches a fresh ``RankingSet``'s ``(distance, id)``
order.  The property tests in ``tests/test_live_equivalence.py`` assert this
across algorithms and churn patterns.

**Persistence.**  A durable collection (one opened with :meth:`open`) keeps
a :class:`~repro.live.manifest.Manifest` next to the WAL, both as RBF records
(:mod:`repro.codec`).  Every checkpoint
— a memtable flush, a compaction swap, or an explicit :meth:`snapshot` —
spills the affected immutable run to disk and rewrites the manifest, so a
restart loads the sealed layers directly and replays only the WAL records
*after* the manifest's ``covered_seq``: the tail since the last seal, not
the collection's lifetime.  An automatic snapshot policy
(``snapshot_every``) additionally truncates the covered WAL prefix once the
log grows past a bound, keeping both log size and restart cost bounded
without user intervention.  A directory written by an earlier, JSON-era
build is read through :mod:`repro.live.legacy_json` and upgraded on open.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.core.errors import (
    InvalidRequestError,
    InvalidThresholdError,
    RankingSizeMismatchError,
    UnknownKeyError,
)
from repro.core.ranking import Ranking, RankingSet, check_item_ids
from repro.core.result import SearchResult
from repro.core.stats import SearchStats
from repro.algorithms.knn import KnnResult, Neighbour
from repro.live import legacy_json
from repro.live.compactor import Compactor
from repro.live.manifest import (
    MANIFEST_FILENAME,
    SEGMENTS_DIRNAME,
    Manifest,
    ManifestLog,
    base_filename,
    read_run,
    segment_filename,
    write_run,
)
from repro.live.memtable import MemTable, scan_entries, top_entries
from repro.live.segment import Segment
from repro.live.tombstones import TombstoneSet
from repro.live.wal import WalRecord, WriteAheadLog
from repro.devtools.locktrace import make_lock
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_span
from repro.service.sharding import ShardedIndex

#: The write-ahead log's name inside a persistence directory.
WAL_FILENAME = "wal.rbf"

#: Default algorithm used when a query does not name one.
DEFAULT_LIVE_ALGORITHM = "F&V"

#: Default WAL length (in records) that triggers an automatic snapshot.
DEFAULT_SNAPSHOT_EVERY = 1024

#: A storage location: ("mem", 0, key), ("seg", id, local rid), ("base", epoch, rid).
Location = tuple[str, int, int]


@dataclass
class LiveStats:
    """Mutation and maintenance counters over the collection's lifetime.

    ``durability`` names the write-path guarantee the collection runs
    under: ``in-memory`` (no WAL), ``no-sync`` (WAL without fsync),
    ``fsync`` (per-record barrier), or ``group-commit`` (batched barrier).
    """

    inserts: int = 0
    deletes: int = 0
    upserts: int = 0
    flushes: int = 0
    compactions: int = 0
    replayed: int = 0
    snapshots: int = 0
    durability: str = "in-memory"

    @property
    def mutations(self) -> int:
        """All accepted mutations (inserts + deletes + upserts)."""
        return self.inserts + self.deletes + self.upserts

    def as_dict(self) -> dict:
        """Normalised dictionary view for logs and admin requests.

        Mirrors :meth:`repro.service.recording.EngineStats.as_dict` —
        snake_case keys grouped one level deep by category, integer
        counters — so a metrics exporter maps static and live stats with
        the same code.
        """
        return {
            "mutations": {
                "total": self.mutations,
                "inserts": self.inserts,
                "deletes": self.deletes,
                "upserts": self.upserts,
            },
            "maintenance": {
                "flushes": self.flushes,
                "compactions": self.compactions,
                "snapshots": self.snapshots,
                "replayed": self.replayed,
            },
            "durability": {"mode": self.durability},
        }


def directory_has_state(directory: Union[str, Path]) -> bool:
    """Whether ``directory`` already holds a collection :meth:`LiveCollection.open` would load.

    True for a control file of any era, so a caller seeding a *fresh*
    directory never re-seeds an existing (even emptied-out) one.
    """
    directory = Path(directory)
    return (
        (directory / MANIFEST_FILENAME).exists()
        or (directory / WAL_FILENAME).exists()
        or bool(legacy_json.control_files(directory))
    )


class LiveCollection:
    """Mutable ranking collection with exact merged queries and durability.

    Parameters
    ----------
    initial:
        Optional pre-existing collection; it becomes the base index directly
        (keys ``0..n-1``) and is treated as already durable — the WAL only
        records subsequent mutations.
    memtable_threshold:
        Memtable size at which it is sealed into a segment.
    max_segments:
        Sealed-segment count above which a compaction is triggered.
    num_shards:
        Shard count of the compacted base index.
    wal:
        Optional write-ahead log; without one the collection is in-memory
        only (still fully queryable, just not durable).
    background_compaction:
        Run triggered compactions on a daemon thread instead of inline.
    directory:
        Persistence directory.  When set, sealed segments and compacted
        bases are spilled to immutable run files and a manifest tracks
        them, so restarts replay only the WAL tail.
    snapshot_every:
        Automatic snapshot policy: once this many WAL records accumulate
        since the last truncation, a snapshot is taken and the covered
        prefix dropped.  ``None`` disables the policy (snapshots stay
        manual).  Only meaningful with both a WAL and a directory.

    Examples
    --------
    >>> live = LiveCollection()
    >>> key = live.insert([1, 2, 3])
    >>> live.insert([7, 8, 9])
    1
    >>> result = live.range_query(Ranking([1, 2, 3]), theta=0.1)
    >>> [match.rid for match in result.matches]
    [0]
    >>> live.delete(key)
    >>> len(live)
    1
    """

    def __init__(
        self,
        initial: Optional[RankingSet] = None,
        *,
        memtable_threshold: int = 256,
        max_segments: int = 4,
        num_shards: int = 1,
        wal: Optional[WriteAheadLog] = None,
        background_compaction: bool = False,
        directory: Optional[Union[str, Path]] = None,
        snapshot_every: Optional[int] = DEFAULT_SNAPSHOT_EVERY,
    ) -> None:
        if memtable_threshold <= 0:
            raise ValueError(f"memtable_threshold must be positive, got {memtable_threshold}")
        if max_segments <= 0:
            raise ValueError(f"max_segments must be positive, got {max_segments}")
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError(f"snapshot_every must be positive or None, got {snapshot_every}")
        self._memtable_threshold = memtable_threshold
        self._max_segments = max_segments
        self._num_shards = num_shards
        self._wal = wal
        self._directory = Path(directory) if directory is not None else None
        self._snapshot_every = snapshot_every
        self._manifest_log = (
            ManifestLog(self._directory / MANIFEST_FILENAME) if self._directory is not None else None
        )

        # Reentrant because flush/checkpoint helpers re-enter while held;
        # REPRO_LOCKTRACE=1 swaps in a TracedLock (see repro.devtools).
        self._lock = make_lock("LiveCollection._lock", reentrant=True)
        self._k: Optional[int] = None  # guarded-by: _lock
        self._next_key = 0  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        self._version = 0  # guarded-by: _lock
        self._memtable = MemTable()  # guarded-by: _lock
        self._segments: dict[int, Segment] = {}  # guarded-by: _lock
        self._segment_files: dict[int, str] = {}  # guarded-by: _lock
        self._next_segment_id = 0  # guarded-by: _lock
        self._base: Optional[ShardedIndex] = None  # guarded-by: _lock
        self._base_keys: tuple[int, ...] = ()  # guarded-by: _lock
        self._base_epoch = 0  # guarded-by: _lock
        self._base_file: Optional[str] = None  # guarded-by: _lock
        self._current: dict[int, Location] = {}  # guarded-by: _lock
        self._tombstones = TombstoneSet()  # guarded-by: _lock
        self._covered_seq = 0  # guarded-by: _lock
        self._wal_records = 0  # guarded-by: _lock
        self._replaying = False  # set only on the single-threaded open() path
        #: Cluster seam: when set, called (under the collection lock) with
        #: every accepted :class:`WalRecord` — local mutations and replicated
        #: applies alike.  The coordinator in :mod:`repro.cluster` hangs WAL
        #: shipping off this hook; it must not raise or block.
        self.wal_hook: Optional[Callable[[WalRecord], None]] = None
        self._stats = LiveStats(  # guarded-by: _lock
            durability=wal.durability if wal is not None else "in-memory",
        )
        registry = get_registry()
        self._m_mutations = {
            op: registry.counter(
                metric_names.LIVE_MUTATIONS_TOTAL, "Accepted live-store mutations.", op=op
            )
            for op in ("insert", "delete", "upsert")
        }
        self._m_flushes = registry.counter(
            metric_names.LIVE_FLUSHES_TOTAL, "Memtable seals into immutable segments."
        )
        self._m_snapshots = registry.counter(
            metric_names.LIVE_SNAPSHOTS_TOTAL, "Checkpoints (manual or policy-triggered)."
        )
        self._compactor = Compactor(self, background=background_compaction)

        if initial is not None and len(initial) > 0:
            self._k = initial.k
            self._base = ShardedIndex.build(initial, num_shards=num_shards)
            self._base_keys = tuple(range(len(initial)))
            self._next_key = len(initial)
            for rid in self._base_keys:
                self._current[rid] = ("base", 0, rid)

    # -- persistence lifecycle ------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        memtable_threshold: int = 256,
        max_segments: int = 4,
        num_shards: int = 1,
        background_compaction: bool = False,
        sync: bool = False,
        commit_batch: Optional[int] = None,
        commit_interval: Optional[float] = None,
        snapshot_every: Optional[int] = DEFAULT_SNAPSHOT_EVERY,
        format: Optional[str] = None,
    ) -> "LiveCollection":
        """Open (or create) a durable collection in ``directory``.

        Loads the manifest's sealed layers (base + segments + tombstones)
        if one exists, then replays only the WAL records after the covered
        sequence number: the tail.  ``sync`` / ``commit_batch`` /
        ``commit_interval`` pick the WAL durability mode (see
        :class:`~repro.live.wal.WriteAheadLog`).

        A directory written by a JSON-era build is upgraded here: its
        checkpoint and ``wal.jsonl`` tail are read through
        :mod:`repro.live.legacy_json`, one RBF checkpoint is written, and
        the JSON control files are unlinked.  Its ``*.json`` run files are
        untouched (the new manifest keeps naming them until a compaction
        rewrites them), so the upgrade costs one checkpoint, not a data
        rewrite.

        ``format`` is vestigial: ``None`` and ``"binary"`` both mean RBF,
        the only format written.
        """
        if format not in (None, "binary"):
            raise ValueError(
                f"format must be None or 'binary', got {format!r}: RBF is the only"
                " format written (the JSON writer is gone; a JSON-era directory"
                " is upgraded when opened)"
            )
        directory = Path(directory)
        wal = WriteAheadLog(
            directory / WAL_FILENAME,
            sync=sync,
            commit_batch=commit_batch,
            commit_interval=commit_interval,
        )
        collection = cls(
            memtable_threshold=memtable_threshold,
            max_segments=max_segments,
            num_shards=num_shards,
            wal=wal,
            background_compaction=background_compaction,
            directory=directory,
            snapshot_every=snapshot_every,
        )
        legacy_files = legacy_json.control_files(directory)
        manifest, unspilled_base = collection._manifest_log.load(), None
        if manifest is None:
            manifest, unspilled_base = legacy_json.load_checkpoint(directory)
        if manifest is not None:
            collection._load_manifest(manifest, unspilled_base)
        collection._collect_garbage(
            manifest.referenced_files() if manifest is not None else frozenset()
        )
        # a JSON-era tail first: it predates anything in wal.rbf
        collection._replay(legacy_json.replay_wal(directory, after_seq=collection._seq))
        collection._replay(wal.replay(after_seq=collection._seq))
        if legacy_files:
            # complete the upgrade: checkpoint in RBF, then drop the JSON
            # control files.  Idempotent — a crash in between re-runs this
            # block with an empty old tail.
            collection._checkpoint()
            for path in legacy_files:
                path.unlink(missing_ok=True)
        if wal.exists:
            # the file may still hold an untruncated covered prefix, so the
            # policy counter tracks actual log length, not just the tail
            collection._wal_records = wal.record_count()
        collection._maybe_auto_snapshot()
        return collection

    def _replay(self, records: Iterable[WalRecord]) -> None:
        """Re-apply a WAL tail on the open() path, before the collection is shared."""
        self._replaying = True
        try:
            for record in records:
                self._apply_record(record, tolerant=True)
                self._maintain()
        finally:
            self._replaying = False

    # holds: _lock — open() path, before the collection is shared
    def _load_manifest(
        self, manifest: Manifest, unspilled_base: Optional[legacy_json.Run] = None
    ) -> None:
        """Install a checkpoint's layers; ``unspilled_base`` is a base the
        checkpoint carries in memory instead of naming a file (a legacy
        whole-state snapshot) — the next manifest write spills it."""
        assert self._directory is not None
        self._k = manifest.k
        self._next_key = manifest.next_key
        self._seq = manifest.covered_seq
        self._covered_seq = manifest.covered_seq
        # resume the epoch counter: compactions after this restart must not
        # reuse the surviving base run's numbered filename
        self._base_epoch = manifest.base_epoch
        if manifest.base is not None:
            unspilled_base = read_run(self._directory / manifest.base)
        if unspilled_base is not None and unspilled_base[0]:
            keys, rankings = unspilled_base
            self._base = ShardedIndex.build(rankings, num_shards=self._num_shards)
            self._base_keys = keys
            self._base_file = manifest.base
        for rid in manifest.base_tombstones:
            self._tombstones.add(("base", self._base_epoch, rid))
        for segment_id, filename in manifest.segments:
            segment = Segment.load(self._directory / filename)
            self._segments[segment_id] = segment
            self._segment_files[segment_id] = filename
            for local_rid in manifest.segment_tombstones.get(segment_id, ()):
                self._tombstones.add(("seg", segment_id, local_rid))
            self._next_segment_id = max(self._next_segment_id, segment_id + 1)
        # every key has exactly one non-tombstoned location across the
        # sealed layers (superseded locations are always tombstoned)
        for rid, key in enumerate(self._base_keys):
            if ("base", self._base_epoch, rid) not in self._tombstones:
                self._current[key] = ("base", self._base_epoch, rid)
        for segment_id, _ in manifest.segments:
            segment = self._segments[segment_id]
            for local_rid, key in enumerate(segment.keys):
                if ("seg", segment_id, local_rid) not in self._tombstones:
                    self._current[key] = ("seg", segment_id, local_rid)

    def _collect_garbage(self, referenced: frozenset[str]) -> None:
        """Drop run files the surviving manifest does not name.

        A crash between spilling a run and rewriting the manifest — or
        between a manifest rewrite and deleting the files it superseded —
        leaves orphans; they are harmless but would accumulate.
        """
        if self._directory is None or not self._directory.exists():
            return
        # any suffix: an upgraded directory may still hold JSON-era runs
        candidates = list(self._directory.glob("base-*"))
        candidates += list(self._directory.glob("*.tmp"))
        candidates += list((self._directory / SEGMENTS_DIRNAME).glob("*"))
        for path in candidates:
            if path.relative_to(self._directory).as_posix() not in referenced:
                path.unlink(missing_ok=True)

    def snapshot(self, directory: Optional[Union[str, Path]] = None) -> Path:
        """Checkpoint the collection; restarts then replay only the WAL tail.

        In the collection's own directory this seals the memtable, spills
        it, rewrites the manifest with ``covered_seq`` equal to the last
        accepted mutation, and truncates the WAL records the manifest
        covers — every step ``fsync``\\ ed (run file, manifest, WAL rewrite,
        and the directory entries), so a crash at any point leaves a
        recoverable state with no acknowledged-and-committed write lost.
        The whole operation runs under the collection lock: concurrent
        snapshots serialize and mutations cannot interleave between the
        state capture and the truncation.

        With an explicit *other* ``directory`` the live state is exported
        there as a standalone base run + manifest (the collection's own
        WAL is left untouched).  Returns the manifest path.
        """
        target_dir = Path(directory) if directory is not None else self._directory
        if target_dir is None:
            raise ValueError("no directory: pass one or open the collection with .open()")
        if (
            self._directory is not None
            and target_dir.resolve() == self._directory.resolve()
        ):
            return self._checkpoint()
        return self._export_snapshot(target_dir)

    def _checkpoint(self) -> Path:
        assert self._directory is not None
        with self._lock:
            self._flush_locked(write_manifest=False)
            self._write_manifest_locked(covered_seq=self._seq)
            if self._wal is not None:
                self._wal_records = self._wal.truncate_through(self._covered_seq)
            self._stats.snapshots += 1
            self._m_snapshots.inc()
        return self._directory / MANIFEST_FILENAME

    def _export_snapshot(self, target_dir: Path) -> Path:
        with self._lock:
            entries = [
                (key, self._ranking_at(location))
                for key, location in sorted(self._current.items())
            ]
            manifest = Manifest(
                k=self._k,
                next_key=self._next_key,
                covered_seq=self._seq,
                base=base_filename(0) if entries else None,
            )
            self._stats.snapshots += 1
            self._m_snapshots.inc()
        target_dir.mkdir(parents=True, exist_ok=True)
        if entries:
            keys = tuple(key for key, _ in entries)
            rankings = RankingSet.from_rankings(ranking for _, ranking in entries)
            write_run(target_dir / base_filename(0), keys, rankings)
        log = ManifestLog(target_dir / MANIFEST_FILENAME)
        log.rewrite(manifest)
        return log.path

    def _write_manifest_locked(self, covered_seq: int) -> None:
        """Rewrite the manifest to describe the current sealed layers.

        Caller holds the collection lock and guarantees that every WAL
        record with ``seq <= covered_seq`` is reflected in those layers.
        """
        assert self._directory is not None
        if self._base is not None and self._base_file is None:
            # base built in memory (initial= or a legacy snapshot): spill it
            self._base_file = base_filename(self._base_epoch)
            write_run(self._directory / self._base_file, self._base_keys, self._base.rankings)
        tombstones = self._tombstones.snapshot()
        base_tombstones = tuple(
            sorted(rid for layer, epoch, rid in tombstones
                   if layer == "base" and epoch == self._base_epoch)
        )
        segment_tombstones = {
            segment_id: tuple(sorted(
                rid for layer, container, rid in tombstones
                if layer == "seg" and container == segment_id
            ))
            for segment_id in self._segment_files
        }
        manifest = Manifest(
            k=self._k,
            next_key=self._next_key,
            covered_seq=covered_seq,
            base=self._base_file if self._base is not None else None,
            base_epoch=self._base_epoch,
            segments=sorted(self._segment_files.items()),
            base_tombstones=base_tombstones,
            segment_tombstones=segment_tombstones,
        )
        self._manifest_log.commit(manifest)
        self._covered_seq = covered_seq

    def close(self) -> None:
        """Finish background compaction and close the WAL."""
        self._compactor.join()
        if self._wal is not None:
            self._wal.close()
        with self._lock:
            base = self._base
        if base is not None:
            base.close()

    def __enter__(self) -> "LiveCollection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- accessors ------------------------------------------------------------------

    @property
    def k(self) -> Optional[int]:
        """Uniform ranking size (``None`` until the first insert)."""
        with self._lock:
            return self._k

    @property
    def version(self) -> int:
        """Bumped by every mutation, flush, and compaction (cache epoch)."""
        with self._lock:
            return self._version

    @property
    def num_shards(self) -> int:
        """Shard count used for compacted base epochs."""
        return self._num_shards

    @property
    def durability(self) -> str:
        """The write-path guarantee: in-memory / no-sync / fsync / group-commit."""
        return self._wal.durability if self._wal is not None else "in-memory"

    @property
    def memtable_size(self) -> int:
        """Number of rankings buffered in the memtable."""
        with self._lock:
            return len(self._memtable)

    @property
    def segment_count(self) -> int:
        """Number of sealed, not-yet-compacted segments."""
        with self._lock:
            return len(self._segments)

    @property
    def tombstone_count(self) -> int:
        """Number of superseded versions awaiting compaction."""
        with self._lock:
            return len(self._tombstones)

    @property
    def base_size(self) -> int:
        """Number of rankings in the compacted base (live or tombstoned)."""
        with self._lock:
            return len(self._base_keys)

    def stats(self) -> LiveStats:
        """Lifetime mutation/maintenance counters (live object)."""
        return self._stats  # repro: noqa[guarded-by] documented live handle; reads are racy by contract

    @property
    def last_seq(self) -> int:
        """Sequence number of the last accepted mutation (0 when pristine)."""
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._current)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._current

    def live_keys(self) -> list[int]:
        """The live logical keys in ascending order."""
        with self._lock:
            return sorted(self._current)

    def get(self, key: int) -> Optional[Ranking]:
        """The current ranking stored under ``key``, or ``None``."""
        with self._lock:
            location = self._current.get(key)
            if location is None:
                return None
            return self._ranking_at(location)

    def to_ranking_set(self) -> RankingSet:
        """The logical collection: live rankings in ascending key order.

        This is the from-scratch baseline the live answers are equivalent
        to — dense id ``i`` corresponds to the i-th smallest live key.
        """
        with self._lock:
            return RankingSet.from_rankings(
                self._ranking_at(location) for _, location in sorted(self._current.items())
            )

    def export_state(self) -> dict:
        """One consistent dump of the logical collection, for cluster backfill.

        Returns ``{"entries": [[key, [items...]], ...], "next_key", "last_seq"}``
        with entries in ascending key order — everything a fresh replica (or a
        reshard target) needs to catch up to this collection's state before
        tailing its WAL.
        """
        with self._lock:
            entries = [
                [key, list(self._ranking_at(location).items)]
                for key, location in sorted(self._current.items())
            ]
            return {"entries": entries, "next_key": self._next_key, "last_seq": self._seq}

    def _ranking_at(self, location: Location) -> Ranking:  # holds: _lock
        layer, container, position = location
        if layer == "mem":
            ranking = self._memtable.get(position)
            assert ranking is not None
            return ranking
        if layer == "seg":
            return self._segments[container].rankings[position]
        assert self._base is not None
        return self._base.rankings[position]

    # -- mutations ------------------------------------------------------------------

    def insert(self, items: Union[Ranking, list[int], tuple[int, ...]]) -> int:
        """Add one ranking; returns its (stable) logical key."""
        ranking = self._coerce(items)
        with self._lock:
            self._check_size(ranking)
            key = self._next_key
            self._write_record("insert", key, ranking)
            self._do_insert(key, ranking)
        self._maintain()
        return key

    def delete(self, key: int) -> None:
        """Remove the ranking stored under ``key`` (:class:`UnknownKeyError` if absent)."""
        with self._lock:
            if key not in self._current:
                raise UnknownKeyError(key)
            self._write_record("delete", key, None)
            self._do_delete(key)
        self._maintain()

    def upsert(self, key: int, items: Union[Ranking, list[int], tuple[int, ...]]) -> None:
        """Replace the ranking under ``key`` (or insert it there if absent)."""
        ranking = self._coerce(items)
        with self._lock:
            self._check_size(ranking)
            self._write_record("upsert", key, ranking)
            self._do_upsert(key, ranking)
        self._maintain()

    def sync(self) -> None:
        """Force a WAL barrier: everything accepted so far becomes durable.

        Useful under group-commit (commits a partial batch) and no-sync
        (the only fsync those modes ever issue).  A no-op in-memory.
        """
        if self._wal is not None:
            with self._lock:
                self._wal.sync()

    @staticmethod
    def _coerce(items: Union[Ranking, list[int], tuple[int, ...]]) -> Ranking:
        ranking = items if isinstance(items, Ranking) else Ranking(items)
        check_item_ids(ranking.items)
        return ranking

    def _check_size(self, ranking: Ranking) -> None:  # holds: _lock
        if self._k is not None and ranking.size != self._k:
            raise RankingSizeMismatchError(self._k, ranking.size)

    def _write_record(self, op: str, key: int, ranking: Optional[Ranking]) -> None:  # holds: _lock
        self._seq += 1
        record: Optional[WalRecord] = None
        if self._wal is not None or self.wal_hook is not None:
            items = None if ranking is None else ranking.items
            record = WalRecord(seq=self._seq, op=op, key=key, items=items)
        if self._wal is not None:
            self._wal.append(record)
            self._wal_records += 1
        if self.wal_hook is not None:
            self.wal_hook(record)

    def _do_insert(self, key: int, ranking: Ranking) -> None:  # holds: _lock
        if self._k is None:
            self._k = ranking.size
        self._memtable.put(key, ranking)
        self._current[key] = ("mem", 0, key)
        self._next_key = max(self._next_key, key + 1)
        self._version += 1
        self._stats.inserts += 1
        self._m_mutations["insert"].inc()

    def _do_delete(self, key: int) -> None:  # holds: _lock
        location = self._current.pop(key)
        if location[0] == "mem":
            self._memtable.remove(key)
        else:
            self._tombstones.add(location)
        self._version += 1
        self._stats.deletes += 1
        self._m_mutations["delete"].inc()

    def _do_upsert(self, key: int, ranking: Ranking) -> None:  # holds: _lock
        if self._k is None:
            self._k = ranking.size
        old = self._current.get(key)
        if old is not None and old[0] != "mem":
            self._tombstones.add(old)
        self._memtable.put(key, ranking)
        self._current[key] = ("mem", 0, key)
        self._next_key = max(self._next_key, key + 1)
        self._version += 1
        self._stats.upserts += 1
        self._m_mutations["upsert"].inc()

    def _apply_record(self, record: WalRecord, tolerant: bool = False) -> None:
        """Re-apply one durable mutation during replay (no re-logging).

        ``tolerant`` is set during recovery: a checkpoint written at a
        compaction swap may already reflect tail mutations whose tombstones
        the compaction consumed, so a replayed delete of an already-absent
        key is a completed no-op, not an error.
        """
        with self._lock:
            if record.op == "insert":
                self._do_insert(record.key, Ranking(record.items))
            elif record.op == "delete":
                if not tolerant or record.key in self._current:
                    self._do_delete(record.key)
            else:
                self._do_upsert(record.key, Ranking(record.items))
            self._seq = record.seq
            self._stats.replayed += 1

    def apply_replicated(self, record: WalRecord) -> bool:
        """Apply one mutation shipped from a primary, preserving its ``seq``.

        The replica apply path of :mod:`repro.cluster`: the record is logged
        to this collection's own WAL (when one is attached) *with the
        primary's sequence number*, so primary and replica WALs describe the
        same history and a promoted replica carries on from the same ``seq``.

        Idempotent under redelivery — a record at or below the current
        sequence returns ``False`` untouched (the coordinator resends from
        its last acknowledged offset after failures).  A gap (``seq``
        beyond ``last_seq + 1``) raises :class:`InvalidRequestError` so the
        shipper knows to back up; deletes of absent keys are tolerated the
        same way recovery replay tolerates them.
        """
        with self._lock:
            if record.seq <= self._seq:
                return False
            if record.seq != self._seq + 1:
                raise InvalidRequestError(
                    f"replication gap: next expected seq {self._seq + 1}, got {record.seq}"
                )
            ranking = None if record.items is None else Ranking(record.items)
            if ranking is not None:
                self._check_size(ranking)
            self._seq = record.seq
            if self._wal is not None:
                self._wal.append(record)
                self._wal_records += 1
            if record.op == "insert":
                self._do_insert(record.key, ranking)
            elif record.op == "delete":
                if record.key in self._current:
                    self._do_delete(record.key)
            else:
                self._do_upsert(record.key, ranking)
            if self.wal_hook is not None:
                self.wal_hook(record)
        self._maintain()
        return True

    # -- maintenance ----------------------------------------------------------------

    def _maintain(self) -> None:
        with self._lock:
            needs_flush = len(self._memtable) >= self._memtable_threshold
        if needs_flush:
            self.flush()
        self._compactor.maybe_trigger()
        self._maybe_auto_snapshot()

    def _maybe_auto_snapshot(self) -> None:
        """Snapshot + truncate once the WAL grows past the policy bound.

        Suppressed during recovery replay: the replay iterator streams the
        very file a snapshot would rewrite, and the post-replay check in
        :meth:`open` applies the policy once the file is quiescent.
        """
        if (
            self._snapshot_every is None
            or self._wal is None
            or self._directory is None
            or self._replaying
        ):
            return
        # check-and-checkpoint under one lock hold: a concurrent writer that
        # also saw the log past the bound must observe the reset counter, not
        # run a second back-to-back checkpoint
        with self._lock:
            if self._wal_records >= self._snapshot_every:
                self._checkpoint()

    def flush(self) -> Optional[int]:
        """Seal the memtable into a segment; returns the segment id (or None).

        With a persistence directory attached the sealed run is spilled to
        disk and the manifest rewritten, so the flushed records leave the
        WAL replay path immediately.
        """
        with self._lock:
            return self._flush_locked(write_manifest=True)

    def _flush_locked(self, write_manifest: bool) -> Optional[int]:
        if len(self._memtable) == 0:
            return None
        entries = self._memtable.drain()
        segment_id = self._next_segment_id
        self._next_segment_id += 1
        segment = Segment.seal(entries)
        self._segments[segment_id] = segment
        # every drained entry was the live version of its key
        for local_rid, key in enumerate(segment.keys):
            self._current[key] = ("seg", segment_id, local_rid)
        self._version += 1
        self._stats.flushes += 1
        self._m_flushes.inc()
        if self._directory is not None:
            filename = segment_filename(segment_id)
            segment.save(self._directory / filename)
            self._segment_files[segment_id] = filename
            if write_manifest:
                # the memtable is empty right now, so the sealed layers are
                # complete through every record accepted so far
                self._write_manifest_locked(covered_seq=self._seq)
        return segment_id

    def compact(self, wait: bool = True) -> bool:
        """Merge base + segments minus tombstones into a fresh base epoch.

        Runs inline (or waits for the background run when
        ``background_compaction`` is on and ``wait`` is true); returns
        whether a compaction actually ran.
        """
        return self._compactor.run(wait=wait)

    # -- queries --------------------------------------------------------------------

    def _check_query(self, query: Ranking) -> None:
        with self._lock:
            if self._k is not None and query.size != self._k:
                raise RankingSizeMismatchError(self._k, query.size)

    def _query_snapshot(self):
        """One atomic view of every layer, taken under the lock."""
        with self._lock:
            base = self._base
            base_keys = self._base_keys
            base_epoch = self._base_epoch
            base_dead = self._tombstones.count_for(("base", base_epoch))
            segments = [
                (segment_id, segment, self._tombstones.count_for(("seg", segment_id)))
                for segment_id, segment in self._segments.items()
            ]
            memtable_entries = self._memtable.items()
            tombstones = self._tombstones.snapshot()
        return base, base_keys, base_epoch, base_dead, segments, memtable_entries, tombstones

    def range_query(
        self,
        query: Ranking,
        theta: float,
        algorithm: str = DEFAULT_LIVE_ALGORITHM,
        **kwargs,
    ) -> SearchResult:
        """Answer one range query over the logical collection (rids are keys).

        The base, every segment, and the memtable are queried independently
        and their answers merged, dropping tombstoned versions; the result is
        exactly a from-scratch index's answer, ordered by ``(distance, key)``.
        """
        if not 0.0 <= theta < 1.0:
            raise InvalidThresholdError(theta, "theta must lie in [0, 1)")
        self._check_query(query)
        base, base_keys, base_epoch, _, segments, memtable_entries, tombstones = (
            self._query_snapshot()
        )
        stats = SearchStats()
        result = SearchResult(query=query, theta=theta, algorithm=f"live:{algorithm}")
        if base is not None:
            with trace_span("live:base", size=len(base_keys)):
                base_answer = base.range_query(query, theta, algorithm, **kwargs)
            stats.merge(base_answer.stats)
            for match in base_answer.matches:
                if ("base", base_epoch, match.rid) not in tombstones:
                    result.add(base_keys[match.rid], match.ranking, match.distance)
        with trace_span("live:segments", count=len(segments)):
            for segment_id, segment, _ in segments:
                segment_answer = segment.search(query, theta, algorithm, **kwargs)
                stats.merge(segment_answer.stats)
                for match in segment_answer.matches:
                    if ("seg", segment_id, match.rid) not in tombstones:
                        result.add(
                            segment.keys[match.rid], segment.rankings[match.rid], match.distance
                        )
        if memtable_entries:
            stats.distance_calls += len(memtable_entries)
            with trace_span("live:memtable", scanned=len(memtable_entries)):
                for distance, key, ranking in scan_entries(memtable_entries, query, theta):
                    result.add(key, ranking, distance)
        stats.extra["segments_queried"] = float(len(segments))
        stats.extra["memtable_scanned"] = float(len(memtable_entries))
        result.stats = stats
        return result.finalize()

    def knn(
        self,
        query: Ranking,
        n_neighbours: int,
        algorithm: str = DEFAULT_LIVE_ALGORITHM,
        initial_theta: float = 0.05,
        growth: float = 2.0,
        **kwargs,
    ) -> KnnResult:
        """Exact k-nearest neighbours over the logical collection (rids are keys).

        Each layer contributes its exact local top candidates — over-fetched
        by the layer's tombstone count, so filtering cannot cost an answer —
        and a bounded merge keeps the ``n_neighbours`` globally smallest
        ``(distance, key)`` pairs.
        """
        if n_neighbours <= 0:
            raise InvalidRequestError(f"n_neighbours must be positive, got {n_neighbours}")
        self._check_query(query)
        base, base_keys, base_epoch, base_dead, segments, memtable_entries, tombstones = (
            self._query_snapshot()
        )
        stats = SearchStats()
        candidates: list[tuple[float, int, Ranking]] = []
        if base is not None:
            target = min(n_neighbours + base_dead, len(base_keys))
            with trace_span("live:base", size=len(base_keys)):
                base_answer = base.knn(
                    query, target, algorithm, initial_theta=initial_theta, growth=growth, **kwargs
                )
            stats.merge(base_answer.stats)
            live = [
                (neighbour.distance, base_keys[neighbour.rid], neighbour.ranking)
                for neighbour in base_answer.neighbours
                if ("base", base_epoch, neighbour.rid) not in tombstones
            ]
            candidates.extend(live[:n_neighbours])
        with trace_span("live:segments", count=len(segments)):
            for segment_id, segment, segment_dead in segments:
                target = min(n_neighbours + segment_dead, len(segment))
                top, segment_stats = segment.top(
                    query, target, algorithm, initial_theta=initial_theta, growth=growth, **kwargs
                )
                stats.merge(segment_stats)
                live = [
                    (distance, segment.keys[local_rid], segment.rankings[local_rid])
                    for distance, local_rid in top
                    if ("seg", segment_id, local_rid) not in tombstones
                ]
                candidates.extend(live[:n_neighbours])
        if memtable_entries:
            stats.distance_calls += len(memtable_entries)
            with trace_span("live:memtable", scanned=len(memtable_entries)):
                candidates.extend(top_entries(memtable_entries, query, n_neighbours))
        best = heapq.nsmallest(n_neighbours, candidates, key=lambda entry: entry[:2])
        neighbours = [
            Neighbour(distance=distance, rid=key, ranking=ranking)
            for distance, key, ranking in best
        ]
        stats.results = len(neighbours)
        return KnnResult(query=query, neighbours=neighbours, stats=stats)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LiveCollection(live={len(self._current)}, memtable={len(self._memtable)}, "
                f"segments={len(self._segments)}, base={len(self._base_keys)}, "
                f"tombstones={len(self._tombstones)}, version={self._version})"
            )
