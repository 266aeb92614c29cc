"""Read-only loaders for directories written before RBF was the only format.

Earlier builds could keep a durable collection in JSON: a ``wal.jsonl``
log (one mutation per line), a ``manifest.json`` checkpoint, ``*.json``
run files, and — before the manifest existed — one whole-state
``snapshot.json``.  Nothing produces those any more.  This module is the one
place that still knows their layout, so everything this library ever
wrote stays readable:

* :meth:`LiveCollection.open <repro.live.collection.LiveCollection.open>`
  asks :func:`control_files` whether the directory predates RBF, loads
  its checkpoint through :func:`load_checkpoint`, replays
  :func:`replay_wal`, then checkpoints in RBF and unlinks the JSON control
  files — an upgrade on open, once.
* :func:`read_run` stays in use after that: the upgraded manifest keeps
  naming the old ``*.json`` runs until a compaction replaces them.

Damage is reported with the same typed errors the RBF readers raise —
:class:`~repro.live.manifest.CorruptManifestError` for runs, manifests and
snapshots, :class:`~repro.live.wal.CorruptWalError` for an interior log
line — never a bare ``json``/``KeyError``/``TypeError``.  A torn *final*
log line is a crash mid-append and is skipped.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path
from typing import Optional

from repro.core.errors import InvalidRankingError, RankingSizeMismatchError
from repro.core.ranking import RankingSet
from repro.live.manifest import CorruptManifestError, Manifest
from repro.live.wal import WAL_OPERATIONS, CorruptWalError, WalRecord

#: Control files of a JSON-era directory, removed once it has been upgraded.
WAL_FILENAME = "wal.jsonl"
MANIFEST_FILENAME = "manifest.json"
SNAPSHOT_FILENAME = "snapshot.json"

#: One run as the collection loads it: row keys and the rows themselves.
Run = tuple[tuple[int, ...], RankingSet]

#: What a damaged payload raises while it is being decoded.
_DECODE_ERRORS = (ValueError, KeyError, TypeError, InvalidRankingError, RankingSizeMismatchError)


def control_files(directory: Path) -> list[Path]:
    """The JSON-era control files present in ``directory`` (empty once upgraded)."""
    candidates = (directory / name for name in (WAL_FILENAME, MANIFEST_FILENAME, SNAPSHOT_FILENAME))
    return [path for path in candidates if path.exists()]


def _load_object(path: Path) -> dict:
    """Parse ``path`` as one JSON object."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
        raise CorruptManifestError(path, str(error)) from error
    if not isinstance(payload, dict):
        raise CorruptManifestError(path, "expected a JSON object")
    return payload


def read_run(path: Path) -> Run:
    """Load one ``*.json`` run: ``{"keys": [...], "items": [[...], ...]}``."""
    payload = _load_object(path)
    try:
        keys = tuple(int(key) for key in payload["keys"])
        rankings = RankingSet.from_lists(payload["items"])
    except _DECODE_ERRORS as error:
        raise CorruptManifestError(path, f"{type(error).__name__}: {error}") from error
    if len(keys) != len(rankings):
        raise CorruptManifestError(path, f"{len(keys)} keys but {len(rankings)} rankings")
    return keys, rankings


def load_manifest(path: Path) -> Manifest:
    """Read and decode a ``manifest.json`` checkpoint."""
    return Manifest.from_payload(_load_object(path), path)


def load_snapshot(path: Path) -> tuple[Manifest, Run]:
    """Read a pre-manifest ``snapshot.json``: a checkpoint plus its unspilled base."""
    payload = _load_object(path)
    try:
        entries = payload["entries"]
        manifest = Manifest(
            k=payload["k"],
            next_key=int(payload["next_key"]),
            covered_seq=int(payload["last_seq"]),
        )
        keys = tuple(int(key) for key, _ in entries)
        rankings = RankingSet.from_lists([items for _, items in entries])
    except _DECODE_ERRORS as error:
        raise CorruptManifestError(path, f"{type(error).__name__}: {error}") from error
    return manifest, (keys, rankings)


def load_checkpoint(directory: Path) -> tuple[Optional[Manifest], Optional[Run]]:
    """The newest JSON-era checkpoint in ``directory``, or ``(None, None)``.

    ``manifest.json`` names its runs on disk, so its base is ``None`` here;
    ``snapshot.json`` carries the rows itself and returns them beside a
    manifest that names no file.
    """
    if (directory / MANIFEST_FILENAME).exists():
        return load_manifest(directory / MANIFEST_FILENAME), None
    if (directory / SNAPSHOT_FILENAME).exists():
        return load_snapshot(directory / SNAPSHOT_FILENAME)
    return None, None


def record_from_json(line: str | bytes) -> WalRecord:
    """Parse one ``wal.jsonl`` line; raises ``ValueError``-family errors when malformed."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("WAL record must be a JSON object")
    op = payload.get("op")
    if op not in WAL_OPERATIONS:
        raise ValueError(f"unknown WAL operation {op!r}")
    items = payload.get("items")
    if op == "delete":
        items = None
    elif not isinstance(items, list) or not items:
        raise ValueError(f"{op} record requires a non-empty 'items' list")
    return WalRecord(
        seq=int(payload["seq"]),
        op=op,
        key=int(payload["key"]),
        items=None if items is None else tuple(int(item) for item in items),
    )


def replay_wal(directory: Path, after_seq: int = 0) -> Iterator[WalRecord]:
    """Yield ``wal.jsonl``'s records with ``seq > after_seq`` in log order.

    Streamed line by line.  A malformed *final* line is a torn append and is
    skipped (it never completed); one with more log after it raises
    :class:`CorruptWalError` — dropping an interior mutation would diverge
    the replayed state from the served one.
    """
    path = directory / WAL_FILENAME
    if not path.exists():
        return
    with open(path, "rb") as handle:  # bytes: a line that is not UTF-8 is a decode error too
        malformed: Optional[CorruptWalError] = None
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            if malformed is not None:
                raise malformed
            try:
                record = record_from_json(line)
            except (ValueError, KeyError, TypeError) as error:
                malformed = CorruptWalError(path, line_number, str(error))
                malformed.__cause__ = error
                continue
            if record.seq > after_seq:
                yield record
