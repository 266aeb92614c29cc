"""The blocking network client: the engine surface over one TCP connection.

:class:`Client` speaks the frame protocol of
:class:`~repro.api.server.DatabaseServer` (or the asyncio transport in
:mod:`repro.api.aserver`) and mixes in the same
:class:`~repro.api.surface.ExecutorSurface` the in-process
:class:`~repro.api.database.Session` uses, so swapping a local session for
a remote client is a one-line change::

    with Client(host, port) as client:
        response = client.range_query([3, 1, 4], theta=0.2, collection="news")
        key = client.insert([9, 9, 9], collection="updates")

On connect the client performs the ``hello`` handshake; the server
confirms it and every frame after that is a correlated envelope: a
background reader thread matches each response to its request by ``id``,
which unlocks **pipelining** — :meth:`Client.submit` sends a request
without waiting, returns a :class:`PendingReply`, and any number of
requests may be in flight at once::

    replies = [client.submit(request) for request in requests]   # N sends
    responses = [reply.result() for reply in replies]            # N receives

A peer that answers the handshake without an envelope does not speak this
protocol; the constructor raises ``ConnectionError``.

Timeouts: a request that times out fails **only its own id** — the reply,
when it eventually arrives, is discarded by the reader and every other
in-flight request completes normally.  Frame-level corruption (torn frame,
not-JSON, unannounced close) still poisons the whole connection, because a
byte stream cannot be resynchronised.
"""

from __future__ import annotations

import logging
import queue
import socket
import struct
import threading
from typing import Iterator, Optional

from repro.api.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PUSH_KIND,
    FrameError,
    encode_binary_frame,
    encode_frame,
    hello_payload,
    read_frame,
    read_frame_any,
    request_envelope,
)
from repro.api.requests import DEFAULT_COLLECTION, RequestLike, parse_request
from repro.api.responses import MatchPayload, Response
from repro.api.server import DEFAULT_HOST, DEFAULT_PORT
from repro.api.surface import ExecutorSurface, Items
from repro.codec import CodecError
from repro.codec.wire import decode_push as decode_binary_push
from repro.codec.wire import decode_response as decode_binary_response
from repro.codec.wire import encode_request as encode_binary_request
from repro.codec.wire import is_push_frame
from repro.devtools.locktrace import make_lock
from repro.sub.delta import EVENT_DELTA, EVENT_ERROR, PushDelta, apply_delta

logger = logging.getLogger(__name__)


class Subscription:
    """Client handle for one standing query: snapshot plus a delta stream.

    :attr:`matches` starts as the server's snapshot and is advanced by
    every delta consumed through :meth:`get` (or iteration), so it always
    equals what re-running the query would return as of the last consumed
    delta — byte-identical, which the equivalence tests assert via
    :meth:`result_bytes`.

    Iterating yields :class:`~repro.sub.delta.PushDelta` objects until the
    subscription ends: :meth:`unsubscribe` ends it cleanly (iteration
    stops), a server-side cancel (``subscription_overflow``, a dropped
    collection) raises the typed error, and a dead connection raises
    ``ConnectionError``.  One consumer thread at a time.
    """

    def __init__(self, client: "Client", subscription_id: int, collection: str) -> None:
        self._client = client
        self.id = subscription_id
        self.collection = collection
        #: Subscription metadata from the subscribe reply (mode, version,
        #: queue_size, format); filled in before the handle is returned.
        self.info: dict = {}
        self.matches: tuple[MatchPayload, ...] = ()
        self._queue: "queue.SimpleQueue[tuple[str, object]]" = queue.SimpleQueue()
        self._done = False  # consumer-side; one consumer thread at a time

    # -- reader-thread side --------------------------------------------------------

    def _absorb(self, body: dict) -> None:
        """Queue one push body (reader thread; never raises)."""
        event = body.get("event")
        if event == EVENT_DELTA:
            try:
                delta = PushDelta.from_dict(body)
            except Exception as error:
                logger.debug("subscription %r push malformed: %s", self.id, error)
                self._queue.put(
                    ("fail", ConnectionError(f"malformed push delta: {error}"))
                )
                return
            self._queue.put(("delta", delta))
        elif event == EVENT_ERROR:
            self._queue.put(
                ("error", Response.from_dict({"ok": False, "error": body.get("error")}))
            )
        else:
            self._queue.put(
                ("fail", ConnectionError(f"unknown push event {event!r}"))
            )

    def _fail(self, error: BaseException) -> None:
        self._queue.put(("fail", error))

    def _finish(self) -> None:
        self._queue.put(("end", None))

    # -- consumer side -------------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[PushDelta]:
        """The next delta, applied to :attr:`matches`; ``None`` when ended.

        ``timeout=None`` blocks until a push arrives (standing queries can
        be quiet for a long time); a positive timeout raises
        ``TimeoutError`` on expiry without consuming anything.  Terminal
        server errors (overflow, dropped collection) raise their typed
        exception; a dead connection raises ``ConnectionError``.
        """
        if self._done:
            return None
        try:
            kind, value = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"no push on subscription {self.id} within {timeout}s"
            ) from None
        if kind == "delta":
            assert isinstance(value, PushDelta)
            self.matches = apply_delta(self.matches, value)
            return value
        self._done = True
        if kind == "end":
            return None
        if kind == "error":
            assert isinstance(value, Response)
            value.raise_for_error()
            raise ConnectionError("subscription ended with an unreadable error")
        assert isinstance(value, BaseException)
        raise value

    def __iter__(self) -> Iterator[PushDelta]:
        return self

    def __next__(self) -> PushDelta:
        delta = self.get()
        if delta is None:
            raise StopIteration
        return delta

    def result_bytes(self) -> bytes:
        """Canonical bytes of the current result set (equivalence checks)."""
        return Response(ok=True, matches=self.matches).result_bytes()

    @property
    def ended(self) -> bool:
        """Whether the consumer has seen the subscription end."""
        return self._done

    def unsubscribe(self, timeout: Optional[float] = None) -> None:
        """Cancel the standing query; pending deltas stay consumable."""
        self._client._unsubscribe(self, timeout)

    def __repr__(self) -> str:
        state = "ended" if self._done else f"{len(self.matches)} matches"
        return f"Subscription(id={self.id}, collection={self.collection!r}, {state})"


class PendingReply:
    """One in-flight pipelined request, resolved by the reader thread."""

    def __init__(self, client: "Client", request_id: int) -> None:
        self._client = client
        self.request_id = request_id
        self._event = threading.Event()
        self._response: Optional[Response] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether the reply (or a connection failure) has arrived."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Response:
        """Block until the reply arrives; ``None`` uses the client's timeout.

        Raises ``TimeoutError`` when the wait expires — abandoning *only*
        this request: the connection and every other in-flight request
        stay healthy, and the late reply is discarded on arrival.
        """
        effective = self._client.timeout if timeout is None else timeout
        if not self._event.wait(effective):
            self._client._abandon(self.request_id)
            if not self._event.is_set():  # the reply did not race the abandonment
                raise TimeoutError(
                    f"request {self.request_id} timed out after {effective}s "
                    "(only this request failed; the connection is still usable)"
                )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    def _resolve(self, response: Response) -> None:
        self._response = response
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"PendingReply(id={self.request_id}, {state})"


class Client(ExecutorSurface):
    """Blocking client for one server connection.

    Parameters
    ----------
    host / port:
        The server's bind address.
    timeout:
        Seconds to wait for connect, the handshake, and each reply.
    max_frame_bytes:
        Must not exceed the server's limit; larger requests are refused
        locally before touching the wire.
    protocol:
        ``None`` or ``2``; there is one protocol, so the argument selects
        nothing and stays only for callers that still pass ``2``.  ``1``
        raises ``ValueError``: protocol v1 was removed.
    wire_format:
        ``"binary"`` opts into RBF binary frame bodies
        (:mod:`repro.codec.wire`) for the hot request shapes, used only
        when the server advertises ``"binary"`` in its handshake
        ``formats`` — otherwise (and for any shape the binary envelope
        cannot express, e.g. traced requests) the client transparently
        sends JSON.  ``None``/``"json"`` keeps every frame JSON.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: Optional[float] = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        protocol: Optional[int] = None,
        wire_format: Optional[str] = None,
    ) -> None:
        if protocol == 1:
            raise ValueError(
                "protocol=1 was removed: servers speak protocol v2 only and refuse"
                " bare v1 frames with unsupported_protocol; drop the argument"
            )
        if protocol not in (None, 2):
            raise ValueError(f"protocol must be None or 2, got {protocol!r}")
        if wire_format not in (None, "json", "binary"):
            raise ValueError(
                f"wire_format must be None, 'json' or 'binary', got {wire_format!r}"
            )
        self._address = (host, port)
        self._max_frame_bytes = max_frame_bytes
        self._want_binary = wire_format == "binary"
        self._binary_wire = False
        self.timeout = timeout
        #: Lock order (when nested): _send_lock -> _state_lock, never the
        #: reverse — _post registers ids and releases before sending, while
        #: a failed send tears down (state lock) under the send lock.
        self._send_lock = make_lock("Client._send_lock")
        self._state_lock = make_lock("Client._state_lock")
        self._pending: dict[int, PendingReply] = {}  # guarded-by: _state_lock
        self._subscriptions: dict[int, Subscription] = {}  # guarded-by: _state_lock
        self._next_id = 0  # guarded-by: _state_lock
        #: Poisoned-flag writes happen under _state_lock; hot-path reads are
        #: deliberately lock-free and recover via ConnectionError.
        self._closed = False
        self._server_info: Optional[dict] = None
        self._reader: Optional[threading.Thread] = None
        self._socket = socket.create_connection(self._address, timeout=timeout)
        # small request/response frames must not sit in Nagle's buffer
        # waiting for delayed ACKs — that would turn a pipelined burst into
        # one ~40ms round trip per frame
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._recv = self._socket.makefile("rb")
        self._send = self._socket.makefile("wb")
        self._handshake()

    # -- connection state ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` this client is connected to."""
        return self._address

    @property
    def closed(self) -> bool:
        """Whether the connection is gone (closed or poisoned)."""
        return self._closed

    @property
    def server_info(self) -> Optional[dict]:
        """The server's handshake data (versions, frame limit)."""
        return self._server_info

    @property
    def wire_format(self) -> str:
        """The negotiated frame-body encoding: ``"binary"`` or ``"json"``."""
        return "binary" if self._binary_wire else "json"

    def _handshake(self) -> None:
        """Open with ``hello``; start the reader once the server confirms."""
        request_id = self._take_id()
        try:
            with self._send_lock:
                self._send.write(
                    encode_frame(hello_payload(request_id), self._max_frame_bytes)
                )
                self._send.flush()
            reply = read_frame(self._recv, self._max_frame_bytes)
        except (FrameError, OSError) as error:
            self._teardown(ConnectionError(f"handshake failed: {error}"))
            raise ConnectionError(f"handshake failed: {error}") from None
        if reply is None:
            self._teardown(ConnectionError("server closed the connection"))
            raise ConnectionError("server closed the connection during the handshake")
        if "id" not in reply:
            self._teardown(ConnectionError("server does not speak protocol v2"))
            raise ConnectionError(
                f"server at {self._address[0]}:{self._address[1]} does not speak"
                " protocol v2 (handshake refused)"
            )
        response = Response.from_dict(reply.get("body") or {})
        if not response.ok or response.data is None:
            self._teardown(ConnectionError("handshake rejected"))
            raise ConnectionError(f"handshake rejected: {response.error}")
        self._server_info = response.data
        formats = response.data.get("formats")
        self._binary_wire = self._want_binary and (
            isinstance(formats, (list, tuple)) and "binary" in formats
        )
        server_limit = response.data.get("max_frame_bytes")
        if isinstance(server_limit, int) and 0 < server_limit < self._max_frame_bytes:
            self._max_frame_bytes = server_limit
        # replies are awaited on events, not socket timeouts, from here on —
        # the reader thread must block indefinitely between frames
        self._socket.settimeout(None)
        # ... but sends must still be bounded, or a server that stops
        # reading would block submit()/pipeline() forever once the TCP send
        # buffer fills; SO_SNDTIMEO bounds only the send side (best effort:
        # the struct layout is the POSIX timeval)
        if self.timeout is not None and self.timeout > 0:
            seconds = int(self.timeout)
            microseconds = int((self.timeout - seconds) * 1_000_000)
            try:
                self._socket.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_SNDTIMEO,
                    struct.pack("@ll", seconds, microseconds),
                )
            except (OSError, ValueError, struct.error):
                pass  # platform without timeval sockopts: unbounded sends
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        self._reader.start()

    # -- requests ------------------------------------------------------------------

    def _take_id(self) -> int:
        with self._state_lock:
            request_id = self._next_id
            self._next_id += 1
            return request_id

    def submit(self, request: RequestLike, *, trace=None) -> PendingReply:
        """Send one request without waiting; correlate via the returned reply.

        Typed requests are validated locally first, so a malformed request
        costs no round trip.  ``trace=True`` asks the server to trace the request
        (a string propagates an existing trace id); the response then
        carries its span tree as :attr:`Response.trace`.
        """
        return self._post([request], trace=trace)[0]

    def _post(self, requests: list, trace=None) -> list[PendingReply]:
        """Encode, register, and send a burst of requests with one flush."""
        # validate and encode everything *before* registering any id, so a
        # malformed or oversized request in the middle of a burst cannot
        # strand earlier requests as never-sent pending entries
        payloads = [
            parse_request(request).to_dict() if not isinstance(request, dict) else request
            for request in requests
        ]
        with self._state_lock:
            if self._closed:
                raise ConnectionError("client is closed")
            first_id = self._next_id
            self._next_id += len(payloads)
        frames = [
            self._encode_outbound(first_id + offset, payload, trace)
            for offset, payload in enumerate(payloads)
        ]
        pendings = [PendingReply(self, first_id + offset) for offset in range(len(payloads))]
        with self._state_lock:
            if self._closed:
                raise ConnectionError("client is closed")
            for pending in pendings:
                self._pending[pending.request_id] = pending
        try:
            with self._send_lock:
                for frame in frames:
                    self._send.write(frame)
                self._send.flush()
        except (OSError, ValueError) as error:
            self._teardown(ConnectionError(f"connection failed: {error}"))
            raise ConnectionError(f"connection failed: {error}") from None
        return pendings

    def _encode_outbound(self, request_id: int, payload: dict, trace) -> bytes:
        """Encode one request frame: binary when negotiated and representable.

        Traced requests always travel as JSON — the binary envelope has no
        trace field, and silently dropping the opt-in would be worse than
        the fallback.  The codec returning ``None`` (a shape outside the
        hot set) falls back the same way.
        """
        if self._binary_wire and trace is None:
            body = encode_binary_request(request_id, payload)
            if body is not None:
                return encode_binary_frame(body, self._max_frame_bytes)
        return encode_frame(
            request_envelope(request_id, payload, trace=trace), self._max_frame_bytes
        )

    def pipeline(
        self, requests: list, *, timeout: Optional[float] = None, trace=None
    ) -> list[Response]:
        """Send every request back to back, then collect the replies in order.

        One round of syscall-batched sends, one round of receives: the
        wire carries ``len(requests)`` frames each way but the caller
        waits roughly one round trip instead of ``len(requests)``.
        """
        return [
            reply.result(timeout) for reply in self._post(list(requests), trace=trace)
        ]

    def _abandon(self, request_id: int) -> None:
        """Forget one timed-out request; its late reply will be discarded."""
        with self._state_lock:
            self._pending.pop(request_id, None)

    def _read_loop(self) -> None:
        """Reader thread: route every inbound envelope to its pending reply."""
        try:
            while True:
                framed = read_frame_any(self._recv, self._max_frame_bytes)
                if framed is None:
                    raise FrameError("server closed the connection")
                shape, reply = framed
                if shape == "binary":
                    if is_push_frame(reply):
                        subscription_id, push_body = decode_binary_push(reply)
                        self._route_push(subscription_id, push_body)
                        continue
                    request_id, body = decode_binary_response(reply)
                else:
                    if reply.get("kind") == PUSH_KIND:
                        push_body = reply.get("body")
                        if not isinstance(push_body, dict):
                            raise FrameError(f"push envelope without body: {reply!r}")
                        self._route_push(reply.get("id"), push_body)
                        continue
                    if "id" not in reply:
                        raise FrameError(f"response frame without correlation id: {reply!r}")
                    request_id = reply["id"]
                    body = reply.get("body")
                    if not isinstance(body, dict):
                        raise FrameError(f"response envelope without body: {reply!r}")
                with self._state_lock:
                    pending = self._pending.pop(request_id, None)
                # an unmatched id is a reply whose request timed out and was
                # abandoned — exactly the late answer ids exist to absorb
                if pending is not None:
                    pending._resolve(Response.from_dict(body))
        except (FrameError, CodecError, OSError, ValueError) as error:
            if isinstance(error, ValueError) and self._closed:
                return  # reading a deliberately closed stream, not a failure
            self._teardown(ConnectionError(f"connection failed: {error}"))

    def _route_push(self, subscription_id, body: dict) -> None:
        """Hand one push body to its subscription (reader thread).

        An unknown id is a push that raced an unsubscribe (or a
        subscription that already ended) — dropped, exactly like a late
        reply to an abandoned request.
        """
        with self._state_lock:
            subscription = self._subscriptions.get(subscription_id)
        if subscription is not None:
            subscription._absorb(body)
            if body.get("event") == EVENT_ERROR:  # terminal: the server released it
                with self._state_lock:
                    self._subscriptions.pop(subscription_id, None)

    def _teardown(self, error: BaseException) -> None:
        """Poison the connection: close the transport, fail every pending reply."""
        with self._state_lock:
            self._closed = True
            pending = dict(self._pending)
            self._pending.clear()
            subscriptions = list(self._subscriptions.values())
            self._subscriptions.clear()
        # shutdown() first: it unblocks a reader thread parked in recv(),
        # which otherwise holds the buffered stream's lock and would make
        # the stream close below deadlock against it
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for stream in (self._send, self._recv):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._socket.close()
        except OSError:
            pass
        for reply in pending.values():
            reply._fail(error)
        for subscription in subscriptions:
            subscription._fail(error)

    # -- standing queries ----------------------------------------------------------

    def subscribe(
        self,
        items: Items,
        *,
        collection: str = DEFAULT_COLLECTION,
        mode: str = "range",
        theta: float = 0.0,
        k: int = 0,
        algorithm: Optional[str] = None,
        queue_size: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Subscription:
        """Register a standing query; returns its live :class:`Subscription`.

        Blocks until the server replies with the query's current result
        set (the snapshot); deltas then arrive on the handle as mutations
        commit.  Binary delta bodies are requested automatically when the
        connection negotiated the binary wire.
        """
        request = self.subscribe_request(
            items,
            collection=collection,
            mode=mode,
            theta=theta,
            k=k,
            algorithm=algorithm,
            format="binary" if self._binary_wire else None,
            queue_size=queue_size,
        )
        # a push can overtake the subscribe reply (the sender thread starts
        # as soon as the server registers), so the handle must be routable
        # before the request leaves
        with self._state_lock:
            if self._closed:
                raise ConnectionError("client is closed")
            request_id = self._next_id
            self._next_id += 1
            pending = PendingReply(self, request_id)
            self._pending[request_id] = pending
            subscription = Subscription(self, request_id, collection)
            self._subscriptions[request_id] = subscription
        frame = encode_frame(
            request_envelope(request_id, request.to_dict()), self._max_frame_bytes
        )
        try:
            try:
                with self._send_lock:
                    self._send.write(frame)
                    self._send.flush()
            except (OSError, ValueError) as error:
                self._teardown(ConnectionError(f"connection failed: {error}"))
                raise ConnectionError(f"connection failed: {error}") from None
            response = pending.result(timeout)
            if not response.ok:
                response.raise_for_error()
        except BaseException:
            with self._state_lock:
                self._subscriptions.pop(request_id, None)
            raise
        subscription.matches = tuple(response.matches or ())
        subscription.info = dict(response.data or {})
        return subscription

    def _unsubscribe(self, subscription: Subscription, timeout: Optional[float]) -> None:
        """Cancel one standing query; the server's reply ends the stream.

        Deltas pushed before the server processed the cancel stay queued
        on the handle (consume them with :meth:`Subscription.get`); any
        push racing the reply is dropped by the reader.
        """
        with self._state_lock:
            known = self._subscriptions.pop(subscription.id, None)
        if known is None:
            return  # already ended (terminal error, teardown, double call)
        request = self.unsubscribe_request(subscription.id, collection=subscription.collection)
        try:
            response = self.submit(request).result(timeout)
        except BaseException:
            subscription._finish()
            raise
        subscription._finish()
        response.raise_for_error()

    def execute(self, request: RequestLike, *, trace=None) -> Response:
        """Send one request and return its response envelope.

        This is ``submit(...)`` + ``result()``: concurrent calls from many
        threads interleave on the one connection and a timeout fails only
        this request.
        """
        return self.submit(request, trace=trace).result()

    def shutdown_server(self) -> Response:
        """Ask the server to stop after acknowledging (admin/shutdown)."""
        return self.execute({"type": "admin", "action": "shutdown"})

    def close(self) -> None:
        """Close the connection (idempotent); in-flight replies fail cleanly."""
        self._teardown(ConnectionError("client is closed"))

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        host, port = self._address
        state = "closed" if self.closed else "open"
        return f"Client({host}:{port}, {state})"
