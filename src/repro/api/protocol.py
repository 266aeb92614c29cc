"""Length-prefixed framing and the request/response envelope (protocol v2).

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON (the canonical encoding from
:func:`repro.api.responses.canonical_json`: sorted keys, no whitespace)::

    +----------------+----------------------------------+
    | length  !I (4) | payload  UTF-8 JSON (length)     |
    +----------------+----------------------------------+

Both sides enforce ``max_frame_bytes``; an oversized or torn frame raises
:class:`FrameError` subclasses, which the server answers with a
``protocol`` error envelope before closing the connection (after refusing
a frame the stream cannot be resynchronised).  A clean EOF *between*
frames reads as ``None`` — that is how a client hangs up.

A frame whose length header has the top bit set
(:data:`BINARY_FRAME_FLAG`) carries an RBF binary envelope
(:mod:`repro.codec.wire`) instead of JSON: the remaining 31 bits are the
body length.  Binary framing is negotiated at ``hello`` — the server
advertises ``formats`` and a client only sends binary frames after seeing
``"binary"`` there — and is decided per frame, so JSON and binary frames
interleave freely on one connection (a shape the binary envelope cannot
express simply falls back to JSON).

Every JSON frame carries one envelope: a client-assigned correlation id
and the request kind, with the request fields nested under ``body``::

    request   {"id": 7, "kind": "range", "body": {"collection": ..., ...}}
    response  {"id": 7, "body": {"ok": true, ...}}

A request envelope may additionally carry an optional ``trace`` field —
``true`` to request tracing with a server-generated trace id, or a
non-empty string to propagate an existing id (what the remote shard
executor sends so shard-server spans correlate with the coordinator's).
Traced responses carry the span tree as a ``trace`` block *inside* the
response payload (see :mod:`repro.obs.tracing`).

Because every response echoes its request's ``id``, any number of
requests may be in flight on one connection (pipelining) and servers may
answer them as they complete (multiplexing).  A connection opens with a
``hello`` handshake (:func:`hello_payload`), which the server answers
with its protocol version, frame limit and frame-body formats.

This is the only protocol served.  Protocol v1 — the bare request payload
``{"type": "range", ...}`` with no envelope — was removed: such a frame
is answered with one bare ``unsupported_protocol`` error envelope naming
v2, on a connection that stays usable.

:func:`classify_frame` is the single decision point that validates the
envelope; :class:`repro.api.connection.ServerConnection` acts on it for
both transports.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from typing import Any, BinaryIO, Optional

from repro.core.errors import ReproError
from repro.api.responses import canonical_json

#: Frame header: one 4-byte big-endian unsigned payload length.
HEADER = struct.Struct("!I")

#: Top bit of the length header: the frame body is an RBF binary envelope.
BINARY_FRAME_FLAG = 0x80000000

#: The low 31 bits of the length header carry the actual body length.
FRAME_LENGTH_MASK = 0x7FFFFFFF

#: Frame body encodings this build can speak (advertised at ``hello``).
WIRE_FORMATS = ("json", "binary")

#: Default upper bound on one frame's payload (requests *and* responses).
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The newest protocol version this build speaks.
PROTOCOL_VERSION = 2

#: Every protocol version this build can serve.
SUPPORTED_VERSIONS = (2,)

#: Envelope ``kind`` of the version handshake (not a request type).
HELLO_KIND = "hello"

#: Envelope ``kind`` of an unsolicited server push (standing-query deltas).
#: Push frames reuse the subscription's correlation id — the ``kind`` field
#: is what tells them apart from ordinary replies, which never carry one.
PUSH_KIND = "push"

#: Longest propagated trace id the envelope accepts (matches
#: :data:`repro.obs.tracing.MAX_TRACE_ID_LENGTH`).
MAX_TRACE_ID_BYTES = 64


class FrameError(ReproError):
    """A wire frame violated the protocol (torn, oversized, or not JSON)."""


class FrameTooLargeError(FrameError):
    """A frame announced a payload larger than the negotiated maximum."""

    def __init__(self, announced: int, maximum: int) -> None:
        super().__init__(f"frame of {announced} bytes exceeds the {maximum}-byte maximum")
        self.announced = announced
        self.maximum = maximum


def encode_frame(payload: dict, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Serialize one payload into a complete frame (header + body)."""
    body = canonical_json(payload)
    if len(body) > max_frame_bytes:
        raise FrameTooLargeError(len(body), max_frame_bytes)
    return HEADER.pack(len(body)) + body


def write_frame(
    stream: BinaryIO, payload: dict, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> None:
    """Write one frame and flush it."""
    stream.write(encode_frame(payload, max_frame_bytes))
    stream.flush()


def _read_exact(stream: BinaryIO, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            if chunks:
                raise FrameError(
                    f"connection closed mid-frame ({count - remaining} of {count} bytes read)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def decode_frame_body(body: bytes) -> dict:
    """Parse and validate one frame's payload bytes (shared by both readers)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"frame payload is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise FrameError(f"frame payload must be a JSON object, got {type(payload).__name__}")
    return payload


def parse_frame_header(header: bytes, max_frame_bytes: int) -> tuple[bool, int]:
    """Split a frame header into ``(binary, body length)``; refuse oversized frames."""
    (announced,) = HEADER.unpack(header)
    length = announced & FRAME_LENGTH_MASK
    if length > max_frame_bytes:
        raise FrameTooLargeError(length, max_frame_bytes)
    return bool(announced & BINARY_FRAME_FLAG), length


def _whole_frame(binary: bool, body: bytes, byte_counter) -> tuple[str, Any]:
    """One completely read frame as ``(shape, payload)``, its wire size counted."""
    if byte_counter is not None:
        byte_counter.inc(HEADER.size + len(body))
    if binary:
        return "binary", body
    return "json", decode_frame_body(body)


def _json_only(result: Optional[tuple[str, Any]]) -> Optional[dict]:
    if result is None:
        return None
    shape, payload = result
    if shape != "json":
        raise FrameError("unexpected binary frame on a JSON-only connection")
    return payload


def read_frame(
    stream: BinaryIO, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[dict]:
    """Read one JSON frame's payload; ``None`` on clean EOF between frames.

    Raises :class:`FrameError` on a binary frame — callers that negotiate
    binary framing use :func:`read_frame_any` instead.
    """
    return _json_only(read_frame_any(stream, max_frame_bytes))


def read_frame_any(
    stream: BinaryIO, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES, byte_counter=None
) -> Optional[tuple[str, Any]]:
    """Read one frame of either encoding; ``None`` on clean EOF between frames.

    Returns ``("json", payload_dict)`` for a JSON frame or
    ``("binary", body_bytes)`` for a binary one — decoding the binary
    envelope is the caller's job (:mod:`repro.codec.wire`), keeping the
    framing layer below the codec.  ``byte_counter`` (a metrics counter)
    receives the wire size of each whole frame read, header included.
    """
    header = _read_exact(stream, HEADER.size)
    if header is None:
        return None
    binary, length = parse_frame_header(header, max_frame_bytes)
    body = _read_exact(stream, length)
    if body is None:
        raise FrameError("connection closed between frame header and payload")
    return _whole_frame(binary, body, byte_counter)


async def read_frame_any_async(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    byte_counter=None,
) -> Optional[tuple[str, Any]]:
    """:func:`read_frame_any` over an asyncio stream (same contract)."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between frames
        raise FrameError(
            f"connection closed mid-frame ({len(error.partial)} of {HEADER.size} bytes read)"
        ) from None
    binary, length = parse_frame_header(header, max_frame_bytes)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError(
            f"connection closed mid-frame ({len(error.partial)} of {length} bytes read)"
        ) from None
    return _whole_frame(binary, body, byte_counter)


def encode_binary_frame(body: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Frame one RBF binary envelope body (header with the binary flag set)."""
    if len(body) > min(max_frame_bytes, FRAME_LENGTH_MASK):
        raise FrameTooLargeError(len(body), min(max_frame_bytes, FRAME_LENGTH_MASK))
    return HEADER.pack(len(body) | BINARY_FRAME_FLAG) + body


# -- envelopes -----------------------------------------------------------------------

#: What a bare (protocol v1) frame is told; the refusal is typed
#: ``unsupported_protocol`` and leaves the connection usable.
BARE_FRAME_REFUSAL = (
    "protocol v1 (a bare request payload without an envelope) is no longer"
    f" served; this server speaks protocol v{PROTOCOL_VERSION} only: open with a hello"
    ' handshake and wrap each request as {"id": ..., "kind": ..., "body": {...}}'
)


@dataclass(frozen=True)
class InboundFrame:
    """One classified inbound frame: what it asks, or why it cannot be served.

    ``request_id`` carries the client's correlation id and ``kind`` the
    envelope kind; ``payload`` is the dispatchable request payload
    (``{"type": kind, **body}``), or ``None`` for a ``hello`` handshake.
    ``trace`` is ``None`` for an untraced request, ``True`` when the client
    asked the server to generate a trace id, or the propagated trace id
    string.  ``error`` is set (and ``payload`` is ``None``) when the frame
    cannot be served — the stream is still synchronised, so servers answer
    it on a healthy connection instead of closing: a malformed envelope
    with ``invalid_request``, a ``bare`` frame (no envelope at all, the
    removed protocol v1) with ``unsupported_protocol``.
    """

    request_id: Any = None
    kind: Optional[str] = None
    payload: Optional[dict] = None
    error: Optional[str] = None
    trace: Any = None
    bare: bool = False

    @property
    def traced(self) -> bool:
        """Whether the client opted into tracing for this request."""
        return self.trace is not None

    @property
    def is_hello(self) -> bool:
        return self.kind == HELLO_KIND and self.error is None


def valid_request_id(request_id: Any) -> bool:
    """Whether a value may serve as a correlation id (int or string)."""
    if isinstance(request_id, bool):
        return False
    return isinstance(request_id, (int, str))


def classify_frame(payload: dict) -> InboundFrame:
    """Validate one JSON frame as a request envelope.

    A frame with none of ``id`` / ``kind`` / ``body`` is not an envelope
    at all (request payloads carry ``type`` instead, and strict request
    validation has always rejected stray fields, so the shapes cannot
    collide): it comes back ``bare`` with :data:`BARE_FRAME_REFUSAL`.
    """
    if "kind" not in payload and "id" not in payload and "body" not in payload:
        return InboundFrame(error=BARE_FRAME_REFUSAL, bare=True)
    request_id = payload.get("id")
    if not valid_request_id(request_id):
        return InboundFrame(
            error=f"envelope 'id' must be an integer or string, got {request_id!r}",
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or not kind:
        return InboundFrame(
            request_id=request_id,
            error=f"envelope 'kind' must be a non-empty string, got {kind!r}",
        )
    unknown = set(payload) - {"id", "kind", "body", "trace"}
    if unknown:
        return InboundFrame(
            request_id=request_id,
            kind=kind,
            error=f"unknown envelope field(s): {', '.join(sorted(unknown))}",
        )
    trace = payload.get("trace")
    if trace in (None, False):
        trace = None
    elif trace is not True and not (
        isinstance(trace, str) and 0 < len(trace) <= MAX_TRACE_ID_BYTES
    ):
        return InboundFrame(
            request_id=request_id,
            kind=kind,
            error=(
                "envelope 'trace' must be true or a non-empty string of at most"
                f" {MAX_TRACE_ID_BYTES} characters, got {trace!r}"
            ),
        )
    body = payload.get("body", {})
    if not isinstance(body, dict):
        return InboundFrame(
            request_id=request_id,
            kind=kind,
            error=f"envelope 'body' must be an object, got {type(body).__name__}",
        )
    if kind == HELLO_KIND:
        return InboundFrame(request_id=request_id, kind=kind)
    if "type" in body:
        return InboundFrame(
            request_id=request_id,
            kind=kind,
            error="envelope 'body' must not carry 'type'; the kind names the request",
        )
    return InboundFrame(
        request_id=request_id, kind=kind, payload={"type": kind, **body}, trace=trace
    )


def request_envelope(request_id: Any, payload: dict, trace: Any = None) -> dict:
    """Wrap a request payload (``{"type": ...}``) in its envelope.

    ``trace`` opts the request into tracing: ``True`` asks the server to
    generate a trace id, a non-empty string propagates an existing one.
    """
    if not valid_request_id(request_id):
        raise FrameError(f"request id must be an integer or string, got {request_id!r}")
    kind = payload.get("type")
    if not isinstance(kind, str) or not kind:
        raise FrameError(f"request payload must carry a string 'type', got {kind!r}")
    body = {key: value for key, value in payload.items() if key != "type"}
    envelope = {"id": request_id, "kind": kind, "body": body}
    if trace:
        envelope["trace"] = trace
    return envelope


def response_envelope(request_id: Any, payload: dict) -> dict:
    """Wrap a response payload in the envelope echoing ``request_id``."""
    return {"id": request_id, "body": payload}


def push_envelope(subscription_id: Any, payload: dict) -> dict:
    """Wrap one standing-query push in the envelope for ``subscription_id``.

    The id is the *subscribe* request's correlation id: one subscription,
    many correlated frames.  Clients route on ``kind == PUSH_KIND`` before
    matching pending replies, so pushes interleave freely with responses.
    """
    if not valid_request_id(subscription_id):
        raise FrameError(
            f"subscription id must be an integer or string, got {subscription_id!r}"
        )
    return {"id": subscription_id, "kind": PUSH_KIND, "body": payload}


def hello_payload(request_id: Any, version: int = PROTOCOL_VERSION) -> dict:
    """The handshake frame a client opens its connection with."""
    return {"id": request_id, "kind": HELLO_KIND, "body": {"version": version}}


def hello_data(max_frame_bytes: int) -> dict:
    """The ``data`` payload a server answers the handshake with."""
    return {
        "server": "repro-topk",
        "version": PROTOCOL_VERSION,
        "versions": list(SUPPORTED_VERSIONS),
        "formats": list(WIRE_FORMATS),
        "max_frame_bytes": max_frame_bytes,
    }
