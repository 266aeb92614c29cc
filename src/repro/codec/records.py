"""Payload layouts for the storage-side RBF record kinds.

Storage artifacts use four record kinds:

========================  ==========================================
kind                      payload
========================  ==========================================
``KIND_WAL``              one WAL record: ``WAL_HEAD`` (op, seq, key)
                          then, unless the op is a delete, an i64
                          items column
``KIND_RUN``              one immutable run: an i64 keys column then
                          an ``n x k`` i64 items matrix (zlib-packed
                          at the framing layer — runs are cold data)
``KIND_MANIFEST_SNAPSHOT``  a full manifest payload as canonical JSON
``KIND_MANIFEST_EDIT``    the changed top-level manifest fields only,
                          canonical JSON, folded over the snapshot
========================  ==========================================

The manifest payloads stay JSON *inside* CRC-checked RBF records: the
manifest is tiny and structural, so the win there is the edit log and
the checksum, not a packed layout.  This module is deliberately
value-shaped (ints, dicts) rather than importing :mod:`repro.live` —
the codec sits below the storage layer.
"""

from __future__ import annotations

import json
import struct
from typing import Iterable, Optional, Sequence

from repro.codec.columns import decode_i64, decode_matrix, encode_i64, matrix_parts
from repro.codec.rbf import CorruptRecordError

__all__ = [
    "KIND_MANIFEST_EDIT",
    "KIND_MANIFEST_SNAPSHOT",
    "KIND_RUN",
    "KIND_WAL",
    "OP_CODES",
    "OP_NAMES",
    "WAL_HEAD",
    "decode_manifest_payload",
    "decode_run_payload",
    "decode_wal_batch",
    "decode_wal_payload",
    "encode_manifest_payload",
    "encode_run_payload",
    "encode_wal_batch",
    "encode_wal_payload",
]

#: Storage record kinds (the wire kinds live in :mod:`repro.codec.wire`).
KIND_WAL = 1
KIND_RUN = 2
KIND_MANIFEST_SNAPSHOT = 3
KIND_MANIFEST_EDIT = 4

#: WAL operation <-> opcode, fixed forever (these bytes hit disk).
OP_CODES = {"insert": 1, "delete": 2, "upsert": 3}
OP_NAMES = {code: name for name, code in OP_CODES.items()}

#: Fixed head of a WAL payload: opcode, sequence number, key.
WAL_HEAD = struct.Struct("<Bqq")

#: Count prefix of a WAL batch payload.
_BATCH_COUNT = struct.Struct("<I")


def encode_wal_payload(
    seq: int, op: str, key: int, items: Optional[Sequence[int]]
) -> bytes:
    """Encode one WAL record's payload (``KIND_WAL``)."""
    code = OP_CODES.get(op)
    if code is None:
        raise ValueError(f"unknown WAL op {op!r}")
    head = WAL_HEAD.pack(code, seq, key)
    if op == "delete":
        return head
    if not items:
        raise ValueError(f"WAL op {op!r} requires items")
    return head + encode_i64(items)


def decode_wal_payload(payload: bytes, offset: int = 0) -> tuple[dict, int]:
    """Decode one WAL payload; returns ``({seq, op, key, items}, next_offset)``."""
    if len(payload) - offset < WAL_HEAD.size:
        raise CorruptRecordError("WAL payload shorter than its head", offset=offset)
    code, seq, key = WAL_HEAD.unpack_from(payload, offset)
    op = OP_NAMES.get(code)
    if op is None:
        raise CorruptRecordError(f"unknown WAL opcode {code}", offset=offset)
    offset += WAL_HEAD.size
    items: Optional[list[int]] = None
    if op != "delete":
        items, offset = decode_i64(payload, offset)
        if not items:
            raise CorruptRecordError(f"WAL op {op!r} with no items", offset=offset)
    return {"seq": seq, "op": op, "key": key, "items": items}, offset


def encode_wal_batch(records: Iterable[dict]) -> bytes:
    """Encode many WAL records (``seq/op/key/items`` dicts) as one payload.

    This is the body of binary replication shipping: a count prefix then
    the concatenated per-record payloads, each self-describing.
    """
    encoded = [
        encode_wal_payload(record["seq"], record["op"], record["key"], record["items"])
        for record in records
    ]
    return _BATCH_COUNT.pack(len(encoded)) + b"".join(encoded)


def decode_wal_batch(payload: bytes, offset: int = 0) -> tuple[list[dict], int]:
    """Decode a WAL batch payload; returns ``(records, next_offset)``."""
    if len(payload) - offset < _BATCH_COUNT.size:
        raise CorruptRecordError("missing WAL batch count", offset=offset)
    (count,) = _BATCH_COUNT.unpack_from(payload, offset)
    offset += _BATCH_COUNT.size
    records = []
    for _ in range(count):
        record, offset = decode_wal_payload(payload, offset)
        records.append(record)
    return records, offset


def encode_run_payload(keys: Sequence[int], rows: Sequence[Sequence[int]]) -> bytes:
    """Encode one immutable run (``KIND_RUN``): keys column + items matrix."""
    if len(keys) != len(rows):
        raise ValueError(f"{len(keys)} keys but {len(rows)} rows")
    return b"".join((encode_i64(keys), *matrix_parts(rows)))


def decode_run_payload(payload: bytes) -> tuple[list[int], list[list[int]]]:
    """Decode a run payload written by :func:`encode_run_payload`."""
    keys, offset = decode_i64(payload)
    rows, offset = decode_matrix(payload, offset)
    if len(keys) != len(rows):
        raise CorruptRecordError(f"{len(keys)} keys but {len(rows)} rows")
    if offset != len(payload):
        raise CorruptRecordError(f"{len(payload) - offset} trailing bytes", offset=offset)
    return keys, rows


def encode_manifest_payload(payload: dict) -> bytes:
    """Canonical-JSON bytes for a manifest snapshot or edit record."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def decode_manifest_payload(data: bytes) -> dict:
    """Decode a manifest snapshot/edit payload back into its dict."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptRecordError(f"manifest payload: {error}") from error
    if not isinstance(payload, dict):
        raise CorruptRecordError("manifest payload must be a JSON object")
    return payload
