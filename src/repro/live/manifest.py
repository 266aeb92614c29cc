"""The manifest: which persisted files make up a live collection's state.

A durable :class:`~repro.live.collection.LiveCollection` directory holds
RBF records (:mod:`repro.codec`) and nothing else:

* ``wal.rbf`` — the write-ahead log (see :mod:`repro.live.wal`),
* ``base-<epoch>.rbf`` — the persisted base run, when one exists,
* ``segments/segment-<id>.rbf`` — one immutable run per sealed segment
  (runs are zlib-packed columnar records),
* ``manifest.rbf`` — this file: which base/segment runs are live, which
  of their rows are tombstoned, and the WAL sequence number
  (``covered_seq``) through which those layers are complete.

``manifest.rbf`` is not a rewritten snapshot but an *edit log*
(:class:`ManifestLog`): one full snapshot record followed by small edit
records holding only the changed top-level fields, folded over the
snapshot at load time and compacted back into one snapshot once the tail
grows past a threshold.  A checkpoint (memtable flush, compaction swap,
explicit snapshot) then costs one small durable append instead of a full
rewrite; the compaction is atomic and durable — temp file, ``fsync`` of
the temp file, rename, ``fsync`` of the directory.

Recovery loads the runs the manifest names and replays only the WAL records
*after* ``covered_seq`` — the tail — instead of rebuilding the whole
collection from the log.  A crash leaves either the previous checkpoint or
the new one, and any run files the surviving manifest does not name are
orphans that :func:`Manifest.referenced_files` lets the opener
garbage-collect.

``base_epoch`` is persisted so a recovered collection's epoch counter — and
with it the numbered base run filenames — continues where the previous
process stopped; base tombstones are stored as bare row ids and re-tagged
with that epoch at load time.

A directory upgraded from the JSON era (:mod:`repro.live.legacy_json`) may
still name ``*.json`` runs until its next compaction; :func:`read_run`
hands those to that module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.codec import (
    CorruptRecordError,
    TruncatedRecordError,
    append_record,
    atomic_write_bytes,
    pack_record,
    unpack_record,
)
from repro.codec.records import (
    KIND_MANIFEST_EDIT,
    KIND_MANIFEST_SNAPSHOT,
    KIND_RUN,
    decode_manifest_payload,
    decode_run_payload,
    encode_manifest_payload,
    encode_run_payload,
)
from repro.core.errors import ReproError
from repro.core.ranking import RankingSet

#: File and directory names inside a persistence directory.
MANIFEST_FILENAME = "manifest.rbf"
SEGMENTS_DIRNAME = "segments"

#: Edit records a manifest log may accumulate before compaction.
MANIFEST_EDIT_LIMIT = 16

#: Manifest payload format version, bumped on incompatible layout changes.
MANIFEST_FORMAT = 1


class CorruptManifestError(ReproError):
    """The manifest file could not be decoded into a usable checkpoint."""

    def __init__(self, path: Path, reason: str) -> None:
        self.path = path
        super().__init__(f"corrupt manifest at {path}: {reason}")


def write_run(path: Path, keys: tuple[int, ...], rankings: RankingSet) -> None:
    """Persist one immutable run (a sealed segment or the base) durably.

    A run is the full row list *including tombstoned rows*: tombstones are
    row-id addressed, so the on-disk layout must match the in-memory one
    exactly, dead rows and all.  It is one zlib-packed columnar RBF record
    (runs are cold data — write once, read on recovery).
    """
    record = pack_record(KIND_RUN, encode_run_payload(keys, rankings.matrix()), compress=True)
    atomic_write_bytes(path, record)


def read_run(path: Path) -> tuple[tuple[int, ...], RankingSet]:
    """Load one immutable run written by :func:`write_run`."""
    if path.suffix == ".json":
        # an upgraded directory keeps its JSON-era runs until compaction
        from repro.live import legacy_json

        return legacy_json.read_run(path)
    raw = path.read_bytes()
    try:
        kind, payload, end = unpack_record(raw)
        if kind != KIND_RUN:
            raise CorruptRecordError(f"unexpected record kind {kind}")
        if end != len(raw):
            raise CorruptRecordError(f"{len(raw) - end} trailing bytes", offset=end)
        keys_list, rows = decode_run_payload(payload)
    except CorruptRecordError as error:
        raise CorruptManifestError(path, str(error)) from error
    return tuple(keys_list), RankingSet.from_lists(rows)


def segment_filename(segment_id: int) -> str:
    """Relative path of a sealed segment's run file."""
    return f"{SEGMENTS_DIRNAME}/segment-{segment_id}.rbf"


def base_filename(epoch: int) -> str:
    """Relative path of a base epoch's run file."""
    return f"base-{epoch}.rbf"


@dataclass
class Manifest:
    """One checkpoint: the persisted layers and the WAL position they cover.

    Attributes
    ----------
    k:
        Uniform ranking size (``None`` before the first insert).
    next_key:
        The key the next insert will be assigned.
    covered_seq:
        Every WAL record with ``seq`` at or below this is reflected in the
        named layers; recovery replays only the records after it.
    base:
        Relative filename of the base run, or ``None`` without a base.
    base_epoch:
        The base epoch counter at checkpoint time; recovery resumes from
        it so future compactions never reuse a live run's filename.
    segments:
        ``(segment_id, relative filename)`` pairs, ascending id.
    base_tombstones:
        Row ids dead in the base run.
    segment_tombstones:
        ``segment_id -> dead local row ids``.
    """

    k: int | None = None
    next_key: int = 0
    covered_seq: int = 0
    base: str | None = None
    base_epoch: int = 0
    segments: list[tuple[int, str]] = field(default_factory=list)
    base_tombstones: tuple[int, ...] = ()
    segment_tombstones: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def to_payload(self) -> dict:
        """The plain-dict form :class:`ManifestLog` encodes and diffs."""
        return {
            "format": MANIFEST_FORMAT,
            "k": self.k,
            "next_key": self.next_key,
            "covered_seq": self.covered_seq,
            "base": self.base,
            "base_epoch": self.base_epoch,
            "segments": [[segment_id, file] for segment_id, file in self.segments],
            "tombstones": {
                "base": list(self.base_tombstones),
                "segments": {
                    str(segment_id): list(rids)
                    for segment_id, rids in self.segment_tombstones.items()
                    if rids
                },
            },
        }

    @classmethod
    def from_payload(cls, payload: dict, path: Path) -> "Manifest":
        """Decode a payload written by :meth:`to_payload`."""
        try:
            version = payload["format"]
            if version != MANIFEST_FORMAT:
                raise ValueError(f"unsupported manifest format {version!r}")
            tombstones = payload.get("tombstones", {})
            return cls(
                k=payload["k"],
                next_key=int(payload["next_key"]),
                covered_seq=int(payload["covered_seq"]),
                base=payload.get("base"),
                base_epoch=int(payload.get("base_epoch", 0)),
                segments=sorted(
                    (int(segment_id), str(file)) for segment_id, file in payload["segments"]
                ),
                base_tombstones=tuple(int(rid) for rid in tombstones.get("base", ())),
                segment_tombstones={
                    int(segment_id): tuple(int(rid) for rid in rids)
                    for segment_id, rids in tombstones.get("segments", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CorruptManifestError(path, str(error)) from error

    def referenced_files(self) -> frozenset[str]:
        """Relative filenames of every run this checkpoint depends on."""
        files = {file for _, file in self.segments}
        if self.base is not None:
            files.add(self.base)
        return frozenset(files)

    def __repr__(self) -> str:
        return (
            f"Manifest(covered_seq={self.covered_seq}, base={self.base!r}, "
            f"segments={len(self.segments)})"
        )


class ManifestLog:
    """Incremental manifest: one snapshot record plus an edit tail.

    ``manifest.rbf`` holds a full ``KIND_MANIFEST_SNAPSHOT`` record
    followed by zero or more ``KIND_MANIFEST_EDIT`` records, each carrying
    only the top-level payload fields that changed at that checkpoint.
    :meth:`load` folds the edits over the snapshot in order;
    :meth:`commit` appends one edit (a small durable ``fsync`` instead of
    a full atomic rewrite) and compacts back to a lone snapshot once
    ``edit_limit`` edits have accumulated.

    Crash semantics mirror the WAL: a torn final edit is dropped at load
    (the checkpoint it described never finished acknowledging, and every
    run file it named is still reachable as an orphan for the garbage
    collector), while a complete record that fails its CRC raises
    :class:`CorruptManifestError` — bit rot is never silently skipped.
    """

    def __init__(self, path: Path, *, edit_limit: int = MANIFEST_EDIT_LIMIT) -> None:
        if edit_limit <= 0:
            raise ValueError(f"edit_limit must be positive, got {edit_limit}")
        self._path = path
        self._edit_limit = edit_limit
        self._payload: dict | None = None  # folded payload currently on disk
        self._edits = 0

    @property
    def path(self) -> Path:
        """The edit-log file location."""
        return self._path

    @property
    def edits(self) -> int:
        """Complete edit records currently after the snapshot."""
        return self._edits

    def load(self) -> Manifest | None:
        """Fold the snapshot and edit tail into a manifest; ``None`` if absent."""
        if not self._path.exists():
            self._payload = None
            self._edits = 0
            return None
        content = self._path.read_bytes()
        payload: dict | None = None
        edits = 0
        offset = 0
        while offset < len(content):
            try:
                kind, data, end = unpack_record(content, offset)
                fields = decode_manifest_payload(data)
            except TruncatedRecordError:
                break  # torn final append: that checkpoint never completed
            except CorruptRecordError as error:
                raise CorruptManifestError(self._path, str(error)) from error
            if payload is None:
                if kind != KIND_MANIFEST_SNAPSHOT:
                    raise CorruptManifestError(
                        self._path, f"first record has kind {kind}, expected snapshot"
                    )
                payload = fields
            else:
                if kind != KIND_MANIFEST_EDIT:
                    raise CorruptManifestError(
                        self._path, f"interior record has kind {kind}, expected edit"
                    )
                payload.update(fields)
                edits += 1
            offset = end
        if payload is None:
            raise CorruptManifestError(self._path, "no complete snapshot record")
        self._payload = payload
        self._edits = edits
        return Manifest.from_payload(dict(payload), self._path)

    def commit(self, manifest: Manifest) -> None:
        """Persist a checkpoint: append a diff edit, or compact to a snapshot.

        The append is flushed and ``fsync``\\ ed before returning, so the
        caller may immediately truncate the WAL through the manifest's
        ``covered_seq``.  An empty diff (nothing changed) writes nothing.
        """
        payload = manifest.to_payload()
        if (
            self._payload is None
            or not self._path.exists()
            or self._edits >= self._edit_limit
        ):
            self.rewrite(manifest)
            return
        diff = {
            key: value
            for key, value in payload.items()
            if self._payload.get(key) != value
        }
        if not diff:
            return
        record = pack_record(KIND_MANIFEST_EDIT, encode_manifest_payload(diff))
        with open(self._path, "ab") as handle:
            append_record(handle, record)
        self._payload = payload
        self._edits += 1

    def rewrite(self, manifest: Manifest) -> None:
        """Compact to a single snapshot record, atomically and durably."""
        payload = manifest.to_payload()
        record = pack_record(KIND_MANIFEST_SNAPSHOT, encode_manifest_payload(payload))
        atomic_write_bytes(self._path, record)
        self._payload = payload
        self._edits = 0

    def __repr__(self) -> str:
        return f"ManifestLog(path={str(self._path)!r}, edits={self._edits})"
