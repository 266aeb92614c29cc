"""Durable file primitives for binary artifacts.

The codec layer owns the crash-safety discipline for the files it
defines: temp file, ``fsync`` of the temp file, atomic rename, ``fsync``
of the containing directory.  A crash at any point leaves
either the previous file or the complete new one — never a torn middle.

:func:`append_record` is the edit-log/WAL-side primitive: an in-place
append followed by ``fsync``, so the appended record is durable before
the caller takes any dependent action (e.g. truncating the WAL that
covered it).  A crash mid-append leaves a torn tail, which the RBF
framing detects (:class:`~repro.codec.rbf.TruncatedRecordError`) and
readers drop.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO

from repro.devtools.locktrace import mark_io

__all__ = [
    "append_record",
    "atomic_write_bytes",
    "fsync_directory",
]


def fsync_directory(path: Path) -> None:
    """``fsync`` a directory so a rename/create inside it survives a crash."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` so a crash leaves the old file or the new, durably."""
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(path.suffix + ".tmp")
    mark_io(f"fsync:{path.name}")
    with open(temporary, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    temporary.replace(path)
    fsync_directory(path.parent)


def append_record(handle: BinaryIO, data: bytes) -> None:
    """Append ``data`` to an open binary handle and make it durable now."""
    mark_io(f"fsync:{os.path.basename(getattr(handle, 'name', '<handle>'))}")
    handle.write(data)
    handle.flush()
    os.fsync(handle.fileno())
