"""Columnar array codecs: count-prefixed little-endian i64/f64 columns.

The RBF payloads that carry bulk data (WAL items, run files, wire match
lists) are columnar: a ``u32`` count followed by packed little-endian
values, so the decode side is a single ``numpy.frombuffer`` view over
the payload instead of a per-element JSON parse.  When numpy is absent
(or ``REPRO_CODEC_PURE=1`` forces the fallback for testing), the
:mod:`array` module produces byte-identical encodings — with an explicit
byteswap on big-endian platforms, since the wire layout is always
little-endian.

Decoded values are returned as plain Python ``int``/``float`` lists:
numpy scalars must never leak into response envelopes, where
``json.dumps`` (and byte-identical answers) require native types.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import Sequence

from repro.codec.rbf import CorruptRecordError

try:  # pragma: no cover - exercised via REPRO_CODEC_PURE on numpy-less builds
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None  # type: ignore[assignment]

if os.environ.get("REPRO_CODEC_PURE"):
    _numpy = None  # type: ignore[assignment]

__all__ = [
    "COUNT",
    "MATRIX_HEADER",
    "decode_f64",
    "decode_i64",
    "decode_matrix",
    "encode_f64",
    "encode_i64",
    "encode_matrix",
    "matrix_parts",
    "using_numpy",
]

#: Count prefix of every column: number of values that follow.
COUNT = struct.Struct("<I")

#: Matrix prefix: row count then uniform row width.
MATRIX_HEADER = struct.Struct("<II")

_BIG_ENDIAN = sys.byteorder == "big"


def using_numpy() -> bool:
    """Whether the fast numpy path is active (vs the ``array`` fallback)."""
    return _numpy is not None


def _pack_values(values: Sequence, typecode: str, dtype: str) -> bytes:
    if _numpy is not None:
        return _numpy.asarray(values, dtype=dtype).tobytes()
    packed = array(typecode, values)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI
        packed.byteswap()
    return packed.tobytes()


#: Below this count ``struct.unpack_from`` beats ``numpy.frombuffer`` —
#: the per-call numpy overhead dominates tiny columns (WAL items, short
#: match lists), and the struct module caches compiled formats.
_SMALL_COLUMN = 64


def _unpack_values(
    buffer: bytes, offset: int, count: int, typecode: str, dtype: str
) -> list:
    width = struct.calcsize(typecode)
    end = offset + count * width
    if end > len(buffer):
        raise CorruptRecordError(
            f"column of {count} values overruns the payload", offset=offset
        )
    if count <= _SMALL_COLUMN:
        return list(struct.unpack_from(f"<{count}{typecode}", buffer, offset))
    if _numpy is not None:
        view = _numpy.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
        return view.tolist()
    unpacked = array(typecode)
    unpacked.frombytes(buffer[offset:end])
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI
        unpacked.byteswap()
    return unpacked.tolist()


def encode_i64(values: Sequence[int]) -> bytes:
    """Encode a count-prefixed column of signed 64-bit integers."""
    return COUNT.pack(len(values)) + _pack_values(values, "q", "<i8")


def decode_i64(buffer: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode one i64 column; returns ``(values, next_offset)``."""
    if len(buffer) - offset < COUNT.size:
        raise CorruptRecordError("missing column count", offset=offset)
    (count,) = COUNT.unpack_from(buffer, offset)
    values = _unpack_values(buffer, offset + COUNT.size, count, "q", "<i8")
    return values, offset + COUNT.size + count * 8


def encode_f64(values: Sequence[float]) -> bytes:
    """Encode a count-prefixed column of IEEE-754 doubles (exact round trip)."""
    return COUNT.pack(len(values)) + _pack_values(values, "d", "<f8")


def decode_f64(buffer: bytes, offset: int = 0) -> tuple[list[float], int]:
    """Decode one f64 column; returns ``(values, next_offset)``."""
    if len(buffer) - offset < COUNT.size:
        raise CorruptRecordError("missing column count", offset=offset)
    (count,) = COUNT.unpack_from(buffer, offset)
    values = _unpack_values(buffer, offset + COUNT.size, count, "d", "<f8")
    return values, offset + COUNT.size + count * 8


def matrix_parts(rows: Sequence[Sequence[int]]) -> tuple[bytes, bytes | memoryview]:
    """The two byte runs of :func:`encode_matrix`: header, then the packed values.

    Kept apart so a caller that frames the matrix with more columns can join
    everything once.  Rows must share one width ``k`` (rankings in a
    collection do by construction); an empty matrix stores ``k = 0``.  A
    two-dimensional numpy array (a :meth:`RankingSet.matrix`) is packed as
    it stands, without a copy.
    """
    n = len(rows)
    k = len(rows[0]) if n else 0
    header = MATRIX_HEADER.pack(n, k)
    if _numpy is not None and isinstance(rows, _numpy.ndarray):
        return header, rows.astype("<i8", order="C", copy=False).data
    flat: list[int] = []
    for row in rows:
        if len(row) != k:
            raise ValueError(f"ragged matrix: row of {len(row)} items, expected {k}")
        flat.extend(row)
    return header, _pack_values(flat, "q", "<i8")


def encode_matrix(rows: Sequence[Sequence[int]]) -> bytes:
    """Encode ``n`` uniform-width i64 rows as an ``n x k`` matrix block."""
    header, values = matrix_parts(rows)
    return header + values


def decode_matrix(buffer: bytes, offset: int = 0) -> tuple[list[list[int]], int]:
    """Decode one i64 matrix block; returns ``(rows, next_offset)``."""
    if len(buffer) - offset < MATRIX_HEADER.size:
        raise CorruptRecordError("missing matrix header", offset=offset)
    n, k = MATRIX_HEADER.unpack_from(buffer, offset)
    start = offset + MATRIX_HEADER.size
    flat = _unpack_values(buffer, start, n * k, "q", "<i8")
    rows = [flat[i * k : (i + 1) * k] for i in range(n)]
    return rows, start + n * k * 8
