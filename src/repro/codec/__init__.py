"""``repro.codec`` — the RBF binary format shared by storage and wire.

One zero-copy, length-prefixed, CRC32-checksummed record framing
(:mod:`repro.codec.rbf`) carries every binary artifact in the system:

* **storage** — WAL records, immutable run files, and the manifest
  edit log (:mod:`repro.codec.records`), written with the fsync
  discipline of :mod:`repro.codec.files`;
* **wire** — binary protocol-frame bodies for the hot query and
  replication shapes (:mod:`repro.codec.wire`, imported explicitly by
  the api layer — not re-exported here, so the storage stack can use
  the codec without touching the protocol modules).

Payload columns are little-endian i64/f64 arrays decoded with numpy
``frombuffer`` when numpy is available and the :mod:`array` module
otherwise (:mod:`repro.codec.columns`); ``REPRO_CODEC_PURE=1`` forces
the fallback.  The codec sits *below* :mod:`repro.live` and
:mod:`repro.api`: it never imports either.
"""

from repro.codec.columns import using_numpy
from repro.codec.files import append_record, atomic_write_bytes, fsync_directory
from repro.codec.rbf import (
    CodecError,
    CorruptRecordError,
    TruncatedRecordError,
    iter_records,
    pack_record,
    skip_record,
    unpack_record,
)

__all__ = [
    "CodecError",
    "CorruptRecordError",
    "TruncatedRecordError",
    "append_record",
    "atomic_write_bytes",
    "fsync_directory",
    "iter_records",
    "pack_record",
    "skip_record",
    "unpack_record",
    "using_numpy",
]
