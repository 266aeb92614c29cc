"""Write-ahead log: every mutation is durable before it is applied.

The log is a file of RBF records (:mod:`repro.codec`) — one
CRC32-checksummed ``KIND_WAL`` record per mutation, items as a packed i64
column, in the order the mutations were accepted — so a crashed or
restarted service can rebuild its logical state by replaying the file.
Records carry a monotonically increasing sequence number; a checkpoint
remembers the last sequence it covers, and a restart replays only the
records *after* it (the WAL tail).

Durability model
----------------
``append`` always writes the record and flushes the Python buffer to the OS;
what happens next depends on the configured mode:

``no-sync`` (``sync=False``, the default)
    Never ``fsync``.  Power loss can drop acknowledged mutations that were
    still in the OS page cache; process crash loses nothing.
``fsync`` (``sync=True``)
    ``fsync`` after every record.  A mutation is power-loss durable before
    the caller sees it acknowledged, at one disk barrier per record.
``group-commit`` (``commit_batch`` and/or ``commit_interval``)
    Batch the barrier: records accumulate un-fsynced and one ``fsync``
    commits the whole batch — when ``commit_batch`` records are pending,
    when ``commit_interval`` seconds have passed since the batch opened,
    or when :meth:`sync` is called explicitly.  Per-batch sequence
    accounting is exposed as :attr:`appended_seq` (last record written)
    and :attr:`durable_seq` (last record covered by a barrier).

A truncated final record (a crash mid-append) is tolerated by
:meth:`replay` — the partial record never took effect, so it is skipped —
while any *complete* record with a bad magic, flag set or checksum raises
:class:`CorruptWalError`, even at the tail: a failed CRC means the bytes
changed after they were written, not that the append was interrupted, and
silently dropping a mutation would diverge the replayed state from the
served one.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.codec import (
    CorruptRecordError,
    TruncatedRecordError,
    pack_record,
    skip_record,
    unpack_record,
)
from repro.codec.records import KIND_WAL, decode_wal_payload, encode_wal_payload
from repro.core.errors import ReproError
from repro.devtools.locktrace import make_lock, mark_io
from repro.obs import names as metric_names
from repro.obs.metrics import COUNT_BUCKETS, get_registry

#: The mutation kinds a WAL record may carry.
WAL_OPERATIONS = ("insert", "delete", "upsert")

#: The durability modes a log can run under.
DURABILITY_MODES = ("no-sync", "fsync", "group-commit")

def fsync_directory(path: Path) -> None:
    """``fsync`` a directory so a freshly created/renamed entry survives.

    ``rename``/``create`` only become power-loss durable once the containing
    directory's metadata hits the platter.  Platforms that cannot open a
    directory for syncing (notably Windows) are silently skipped.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CorruptWalError(ReproError):
    """A WAL record could not be decoded (``line_number`` counts records)."""

    def __init__(self, path: Path, line_number: int, reason: str) -> None:
        self.path = path
        self.line_number = line_number
        super().__init__(f"corrupt WAL record at {path}:{line_number}: {reason}")


@dataclass(frozen=True)
class WalRecord:
    """One durable mutation: sequence number, operation, key, payload."""

    seq: int
    op: str
    key: int
    items: Optional[tuple[int, ...]] = None

    def to_record(self) -> bytes:
        """Serialise to one framed RBF ``KIND_WAL`` record."""
        return pack_record(
            KIND_WAL, encode_wal_payload(self.seq, self.op, self.key, self.items)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        """Decode the payload of an RBF ``KIND_WAL`` record."""
        fields, end = decode_wal_payload(payload)
        if end != len(payload):
            raise CorruptRecordError(f"{len(payload) - end} trailing bytes", offset=end)
        items = fields["items"]
        return cls(
            seq=fields["seq"],
            op=fields["op"],
            key=fields["key"],
            items=None if items is None else tuple(items),
        )


class WriteAheadLog:
    """Append-only RBF mutation log with tail-tolerant replay.

    Parameters
    ----------
    path:
        Log file location; created (with parents) on first append.
    sync:
        ``fsync`` after every append (the ``fsync`` mode).  Off by default:
        the benchmarks measure the in-process write path, and
        crash-consistency against power loss is a deployment decision.
    commit_batch:
        Group-commit: ``fsync`` once every this many pending records
        instead of per record.  Implies durable mode regardless of
        ``sync``.
    commit_interval:
        Group-commit: ``fsync`` once a batch has been open for this many
        seconds (checked on the append path — no timer thread).  May be
        combined with ``commit_batch``; whichever bound trips first
        commits.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "wal.rbf")
    >>> wal = WriteAheadLog(path, commit_batch=2)
    >>> wal.append(WalRecord(seq=1, op="insert", key=0, items=(1, 2, 3)))
    >>> wal.durable_seq                       # batch of 2 not full yet
    0
    >>> wal.sync()                            # explicit barrier
    >>> wal.durable_seq
    1
    >>> [record.key for record in wal.replay()]
    [0]
    >>> wal.close()
    """

    def __init__(
        self,
        path: str | Path,
        sync: bool = False,
        commit_batch: Optional[int] = None,
        commit_interval: Optional[float] = None,
    ) -> None:
        if commit_batch is not None and commit_batch <= 0:
            raise ValueError(f"commit_batch must be positive, got {commit_batch}")
        if commit_interval is not None and commit_interval <= 0:
            raise ValueError(f"commit_interval must be positive, got {commit_interval}")
        self._path = Path(path)
        self._commit_batch = commit_batch
        self._commit_interval = commit_interval
        if commit_batch is not None or commit_interval is not None:
            self._durability = "group-commit"
        elif sync:
            self._durability = "fsync"
        else:
            self._durability = "no-sync"
        # Reentrant: close() re-enters through sync(), truncate_through()
        # through close().  REPRO_LOCKTRACE=1 swaps in a TracedLock.
        self._lock = make_lock("WriteAheadLog._lock", reentrant=True)
        self._handle = None  # guarded-by: _lock
        self._pending = 0  # guarded-by: _lock
        self._batch_started: Optional[float] = None  # guarded-by: _lock
        self._appended_seq = 0  # guarded-by: _lock
        self._durable_seq = 0  # guarded-by: _lock
        self._commits = 0  # guarded-by: _lock
        registry = get_registry()
        self._m_appends = registry.counter(
            metric_names.WAL_APPENDS_TOTAL, "Mutation records appended to the WAL.",
            durability=self._durability,
        )
        self._m_commits = registry.counter(
            metric_names.WAL_COMMITS_TOTAL, "fsync barriers issued (per record or per batch).",
            durability=self._durability,
        )
        self._m_batch = registry.histogram(
            metric_names.WAL_COMMIT_BATCH_RECORDS,
            "Records made durable by one fsync barrier.",
            buckets=COUNT_BUCKETS,
            durability=self._durability,
        )

    @property
    def path(self) -> Path:
        """The log file location."""
        return self._path

    @property
    def exists(self) -> bool:
        """Whether the log file is present on disk."""
        return self._path.exists()

    @property
    def durability(self) -> str:
        """One of :data:`DURABILITY_MODES`."""
        return self._durability

    @property
    def appended_seq(self) -> int:
        """Sequence number of the last record written by this handle."""
        with self._lock:
            return self._appended_seq

    @property
    def durable_seq(self) -> int:
        """Sequence number of the last record covered by an ``fsync`` barrier.

        Always 0 in ``no-sync`` mode until :meth:`sync` is called; equal to
        :attr:`appended_seq` after every append in ``fsync`` mode.
        """
        with self._lock:
            return self._durable_seq

    @property
    def pending_records(self) -> int:
        """Records appended since the last barrier (the open batch)."""
        with self._lock:
            return self._pending

    @property
    def commits(self) -> int:
        """``fsync`` barriers issued so far (per-record or per-batch)."""
        with self._lock:
            return self._commits

    # -- writing -----------------------------------------------------------------

    def append(self, record: WalRecord) -> None:
        """Write one mutation (buffered write + flush; barrier per the mode)."""
        with self._lock:
            if self._handle is None:
                self._open_for_append()
            self._handle.write(record.to_record())
            self._handle.flush()
            self._appended_seq = record.seq
            self._m_appends.inc()
            if self._durability == "fsync":
                self._commit()
                return
            self._pending += 1
            if self._durability != "group-commit":
                return
            if self._batch_started is None:
                self._batch_started = time.monotonic()
            batch_full = (
                self._commit_batch is not None and self._pending >= self._commit_batch
            )
            interval_up = (
                self._commit_interval is not None
                and time.monotonic() - self._batch_started >= self._commit_interval
            )
            if batch_full or interval_up:
                self._commit()

    def sync(self) -> None:
        """Explicit barrier: ``fsync`` whatever has been appended so far.

        Works in every mode — in ``no-sync`` it is the only way to get a
        durability guarantee, in ``group-commit`` it commits a partial
        batch, in ``fsync`` it is a no-op (nothing is ever pending).
        """
        with self._lock:
            if self._handle is None or self._durable_seq == self._appended_seq:
                return
            self._handle.flush()
            self._commit()

    # holds: _lock — the barrier and its accounting must be one atom
    def _commit(self) -> None:
        """``fsync`` the handle and account the batch as durable."""
        mark_io("fsync:wal")  # group commit *is* IO under the lock, by design
        os.fsync(self._handle.fileno())
        batch = self._appended_seq - self._durable_seq
        self._durable_seq = self._appended_seq
        self._pending = 0
        self._batch_started = None
        self._commits += 1
        self._m_commits.inc()
        if batch > 0:
            self._m_batch.observe(batch)

    # holds: _lock — called from append()'s hold
    def _open_for_append(self) -> None:
        created_parent = not self._path.parent.exists()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        existed = self._path.exists()
        self._trim_torn_tail()
        self._handle = open(self._path, "ab")
        if not existed or created_parent:
            # make the new directory entry itself crash-durable
            fsync_directory(self._path.parent)

    def _trim_torn_tail(self) -> None:
        """Drop a partial final record left by a crash mid-append.

        The torn record never committed (replay skips it), but appending
        after it would glue the next record onto its bytes and corrupt the
        log — so the tail is truncated back to the last complete record
        before the first post-reopen append.
        """
        if not self._path.exists():
            return
        with open(self._path, "rb+") as handle:
            content = handle.read()
            keep = 0
            while keep < len(content):
                try:
                    keep = skip_record(content, keep)
                except TruncatedRecordError:
                    break  # torn tail: drop it, keep everything before
                except CorruptRecordError:
                    # A *complete* record with a damaged header is not a
                    # torn append — keep the file intact so replay (which
                    # also CRC-checks payloads) reports it.
                    return
            if keep == len(content):
                return
            # Dropping an *uncommitted* torn tail needs no fsync: replay
            # already skips it, and the truncation becomes durable with the
            # first post-reopen commit's fsync.
            handle.truncate(keep)  # repro: noqa[fsync-discipline] uncommitted tail

    def close(self) -> None:
        """Commit a pending group-commit batch and close the handle.

        Idempotent; replay still works afterwards.  ``no-sync`` mode stays
        true to its name — close flushes to the OS but does not ``fsync``.
        """
        with self._lock:
            if self._handle is not None:
                if self._durability == "group-commit":
                    self.sync()
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- reading -----------------------------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[WalRecord]:
        """Yield the records with ``seq > after_seq`` in log order.

        A truncated final record is skipped (torn append: the mutation
        never committed), while any *complete* record with a bad magic,
        flag set, or checksum raises :class:`CorruptWalError` — even at the
        tail, because a failed CRC means the bytes changed after they were
        written, not that the append was interrupted.
        """
        if not self._path.exists():
            return
        content = self._path.read_bytes()
        offset = 0
        record_number = 0
        while offset < len(content):
            record_number += 1
            try:
                kind, payload, end = unpack_record(content, offset)
                if kind != KIND_WAL:
                    raise CorruptRecordError(f"unexpected record kind {kind}")
                record = WalRecord.from_payload(payload)
            except TruncatedRecordError:
                return  # torn tail: the append never completed
            except CorruptRecordError as error:
                raise CorruptWalError(self._path, record_number, str(error)) from error
            if record.seq > after_seq:
                yield record
            offset = end

    def record_count(self) -> int:
        """Committed records currently in the file (torn tail excluded).

        Walks record headers only (:func:`repro.codec.skip_record`), no CRC
        check or payload decoding — startup accounting should not re-parse
        the log the replay pass already decoded.
        """
        if not self._path.exists():
            return 0
        content = self._path.read_bytes()
        count = 0
        offset = 0
        while offset < len(content):
            try:
                offset = skip_record(content, offset)
            except CorruptRecordError:
                break  # torn or damaged tail; replay decides what it means
            count += 1
        return count

    def last_seq(self) -> int:
        """Sequence number of the newest committed record (0 when empty)."""
        seq = 0
        for record in self.replay():
            seq = record.seq
        return seq

    def truncate_through(self, seq: int) -> int:
        """Drop every committed record with ``seq`` at or below the given one.

        Called after a checkpoint has durably captured the state through
        ``seq``, so restarts replay (and startup reads) only the tail.  The
        rewrite is atomic *and* durable: the temp file is ``fsync``\\ ed
        before the rename and the directory after it, so a crash leaves
        either the old complete log or the new one — never a torn rewrite
        that loses acknowledged records.  Returns the number of records
        kept.
        """
        with self._lock:
            if not self._path.exists():
                return 0
            kept = list(self.replay(after_seq=seq))
            self.close()
            temporary = self._path.with_suffix(self._path.suffix + ".tmp")
            mark_io("fsync:wal-truncate")
            with open(temporary, "wb") as handle:
                handle.write(b"".join(record.to_record() for record in kept))
                handle.flush()
                os.fsync(handle.fileno())
            temporary.replace(self._path)
            fsync_directory(self._path.parent)
            # the rewrite itself was fsynced, so every kept record is durable
            self._appended_seq = kept[-1].seq if kept else 0
            self._durable_seq = self._appended_seq
            self._pending = 0
            self._batch_started = None
            return len(kept)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"WriteAheadLog(path={str(self._path)!r}, durability={self._durability!r}, "
                f"pending={self._pending})"
            )
