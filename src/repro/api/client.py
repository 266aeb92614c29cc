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

It is a transport — a socket, a reader thread and two locks — around the
sans-IO :class:`~repro.api.connection.ClientConnection`, which makes every
protocol decision for it and for :class:`~repro.api.aclient.AsyncClient`
alike.  Replies are correlated by ``id``, which unlocks **pipelining** —
:meth:`Client.submit` sends a request without waiting, returns a
:class:`PendingReply`, and any number of requests may be in flight at once::

    replies = [client.submit(request) for request in requests]   # N sends
    responses = [reply.result() for reply in replies]            # N receives

A peer that answers the handshake without an envelope does not speak this
protocol; the constructor raises ``ConnectionError``.

Timeouts: a request that times out fails **only its own id** — the reply,
when it eventually arrives, is discarded and every other in-flight request
completes normally.  Frame-level corruption (torn frame, not-JSON, a reply
body that does not decode, unannounced close) poisons the whole
connection: every pending request fails at once, because a byte stream
cannot be resynchronised.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from typing import Iterator, Optional

from repro.api.connection import BaseSubscription, ClientConnection
from repro.api.protocol import DEFAULT_MAX_FRAME_BYTES, FrameError, read_frame_any
from repro.api.requests import RequestLike, SubscribeRequest
from repro.api.responses import Response
from repro.api.server import DEFAULT_HOST, DEFAULT_PORT
from repro.api.surface import ConnectionSurface
from repro.devtools.locktrace import make_lock
from repro.sub.delta import PushDelta


class Subscription(BaseSubscription):
    """A standing query on a :class:`Client`: iterate, or :meth:`get` with a timeout."""

    _queue_type = queue.SimpleQueue

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
        return self._take(kind, value)

    def __iter__(self) -> Iterator[PushDelta]:
        return self

    def __next__(self) -> PushDelta:
        delta = self.get()
        if delta is None:
            raise StopIteration
        return delta


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


class Client(ConnectionSurface):
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
        self.timeout = timeout
        #: Lock order (when nested): _send_lock -> _state_lock, never the
        #: reverse — requests register under the state lock and release it
        #: before sending, while a failed send tears down (state lock)
        #: under the send lock.
        self._send_lock = make_lock("Client._send_lock")
        self._state_lock = make_lock("Client._state_lock")
        self._core = ClientConnection(  # guarded-by: _state_lock
            max_frame_bytes, binary=wire_format == "binary"
        )
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
        return self._core.closed  # repro: noqa[guarded-by] racy flag read; callers recover via ConnectionError

    @property
    def server_info(self) -> Optional[dict]:
        """The server's handshake data (versions, frame limit)."""
        with self._state_lock:
            return self._core.server_info

    @property
    def wire_format(self) -> str:
        """The negotiated frame-body encoding: ``"binary"`` or ``"json"``."""
        with self._state_lock:
            return "binary" if self._core.binary else "json"

    def _handshake(self) -> None:
        """Open with ``hello``; start the reader once the server confirms."""
        with self._state_lock:
            hello = self._core.hello()
            limit = self._core.max_frame_bytes
        try:
            self._write([hello])
            reply = read_frame_any(self._recv, limit)
        except (FrameError, OSError) as error:
            self._teardown(ConnectionError(f"handshake failed: {error}"))
            raise ConnectionError(f"handshake failed: {error}") from None
        try:
            with self._state_lock:
                self._core.handshake(reply)
                limit = self._core.max_frame_bytes
        except ConnectionError as error:
            self._teardown(error)
            raise
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
        threading.Thread(
            target=self._read_loop, args=(limit,), name="repro-client-reader", daemon=True
        ).start()

    # -- requests ------------------------------------------------------------------

    def submit(self, request: RequestLike, *, trace=None) -> PendingReply:
        """Send one request without waiting; correlate via the returned reply.

        Typed requests are validated locally first, so a malformed request
        costs no round trip.  ``trace=True`` asks the server to trace the request
        (a string propagates an existing trace id); the response then
        carries its span tree as :attr:`Response.trace`.
        """
        return self._post([request], trace=trace)[0]

    def _post(self, requests: list, trace=None, handle=None) -> list[PendingReply]:
        """Encode, register, and send a burst of requests with one flush.

        ``handle`` is the subscription handle of a one-request ``subscribe``
        burst: it takes the request's id and is routable before the frame
        leaves, because the server may push before its reply lands.
        """
        with self._state_lock:
            first_id = self._core.allocate(len(requests))
        # encode everything *before* registering any id, so a malformed or
        # oversized request in the middle of a burst cannot strand earlier
        # requests as never-sent pending entries
        frames = [
            self._core.encode(first_id + offset, request, trace)  # repro: noqa[guarded-by] reads only what the handshake fixed
            for offset, request in enumerate(requests)
        ]
        pendings = [PendingReply(self, first_id + offset) for offset in range(len(requests))]
        if handle is not None:
            handle.id = first_id
        with self._state_lock:
            for pending in pendings:
                self._core.expect(pending.request_id, pending, handle)
        self._write(frames)
        return pendings

    def _write(self, frames: list[bytes]) -> None:
        """Send whole frames with one flush; a failed send poisons the connection."""
        try:
            with self._send_lock:
                for frame in frames:
                    self._send.write(frame)
                self._send.flush()
        except (OSError, ValueError) as error:
            self._teardown(ConnectionError(f"connection failed: {error}"))
            raise ConnectionError(f"connection failed: {error}") from None

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
            self._core.abandon(request_id)

    def _read_loop(self, limit: int) -> None:
        """Reader thread: hand every inbound frame to the core, complete what it routes."""
        try:
            while True:
                framed = read_frame_any(self._recv, limit)
                if framed is None:
                    raise FrameError("server closed the connection")
                with self._state_lock:
                    routed = self._core.receive(*framed)
                if routed is None:
                    continue
                waiter, value, push = routed
                if push:
                    waiter._absorb(value)
                else:
                    waiter._resolve(value)
        except (FrameError, OSError, ValueError) as error:
            if isinstance(error, ValueError) and self.closed:
                return  # reading a deliberately closed stream, not a failure
            self._teardown(ConnectionError(f"connection failed: {error}"))

    def _teardown(self, error: BaseException) -> None:
        """Poison the connection: close the transport, fail every waiter once."""
        with self._state_lock:
            waiters, handles = self._core.fail_all(error)
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
        for waiter in waiters + handles:
            waiter._fail(error)

    # -- standing queries ----------------------------------------------------------

    def _subscribe(self, request: SubscribeRequest, timeout: Optional[float]) -> Subscription:
        subscription = Subscription(self, request.collection)
        try:
            (pending,) = self._post([request], handle=subscription)
            response = pending.result(timeout).raise_for_error()
        except BaseException:
            with self._state_lock:
                self._core.release(subscription.id)
            raise
        subscription._open(response)
        return subscription

    def _unsubscribe(self, subscription: Subscription, timeout: Optional[float]) -> None:
        """Cancel one standing query; the server's reply ends the stream.

        Deltas pushed before the server processed the cancel stay queued
        on the handle (consume them with :meth:`Subscription.get`); any
        push racing the reply is dropped by the core.
        """
        with self._state_lock:
            known = self._core.release(subscription.id)
        if known is None:
            return  # already ended (terminal error, teardown, double call)
        request = self.unsubscribe_request(subscription.id, collection=subscription.collection)
        try:
            response = self.submit(request).result(timeout)
        finally:
            subscription._finish()
        response.raise_for_error()

    def execute(self, request: RequestLike, *, trace=None) -> Response:
        """Send one request and return its response envelope.

        This is ``submit(...)`` + ``result()``: concurrent calls from many
        threads interleave on the one connection and a timeout fails only
        this request.
        """
        return self.submit(request, trace=trace).result()

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
