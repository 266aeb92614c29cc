"""Both sides of one connection, without the transport.

:class:`ServerConnection` is every protocol decision a server makes for
one client, and :class:`ClientConnection` every decision a client makes
for one server; neither reads or writes a socket.  A transport reads one
frame (:func:`~repro.api.protocol.read_frame_any` or its asyncio twin),
hands what it got to ``receive``, and acts on what comes back — so the
threaded and asyncio servers (:mod:`repro.api.server`,
:mod:`repro.api.aserver`) cannot answer the same frame differently, the
blocking and asyncio clients (:mod:`repro.api.client`,
:mod:`repro.api.aclient`) cannot read it differently, and a test can
drive the whole protocol, both ends, with tuples and bytes.

What the server side owns: binary-request decode, envelope
classification, the ``hello`` reply and the greeted flag, envelope-error
and bare-frame refusals, the subscribe/unsubscribe intercept with this
connection's subscription table and push encoder, traced dispatch, reply
encoding (binary, then JSON, then the reply-too-large rule), the final
``protocol`` envelope of a frame error, the frame/byte/oversize counters,
and subscription teardown.

The reply-too-large rule: a reply that does not fit ``max_frame_bytes`` is
replaced by a small ``protocol`` error envelope on the same id, so only
that request fails; when even that does not fit, the connection is closed
— a client must never be left waiting for bytes that cannot be framed.

What the client side owns: request ids, the ``hello`` frame and its
reply's validation, request encoding, the pending-reply and subscription
tables (of opaque waiters), routing of every reply and push, and
teardown.  A frame it cannot correlate or decode is a protocol violation
that fails the whole connection.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, NamedTuple, Optional

from repro.api.database import Database
from repro.api.protocol import (
    PUSH_KIND,
    FrameError,
    FrameTooLargeError,
    InboundFrame,
    classify_frame,
    encode_binary_frame,
    encode_frame,
    hello_data,
    hello_payload,
    push_envelope,
    request_envelope,
    response_envelope,
    valid_request_id,
)
from repro.api.requests import RequestLike, SubscribeRequest, UnsubscribeRequest, parse_request
from repro.api.responses import MatchPayload, Response, ResponseError, error_response
from repro.codec import CodecError
from repro.codec.wire import decode_push as decode_binary_push
from repro.codec.wire import decode_request as decode_binary_request
from repro.codec.wire import decode_response as decode_binary_response
from repro.codec.wire import encode_push as encode_binary_push
from repro.codec.wire import encode_request as encode_binary_request
from repro.codec.wire import encode_response as encode_binary_response
from repro.codec.wire import is_push_frame
from repro.core.errors import InvalidRequestError, UnsupportedProtocolError
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry
from repro.obs.tracing import Trace, use_trace
from repro.sub.delta import EVENT_DELTA, EVENT_ERROR, PushDelta, apply_delta
from repro.sub.manager import ServerSubscription

#: Envelope kinds intercepted before session dispatch: they change
#: connection state (register/cancel pushes), which a bare ``execute``
#: cannot express.
SUBSCRIPTION_KINDS = frozenset({"subscribe", "unsubscribe"})


class ServerMetrics:
    """Per-transport wire counters, shared by both server implementations.

    One instance per server; ``transport`` labels the samples so the two
    transports (``threaded``, ``asyncio``) stay distinguishable when both
    run in one process (the CLI never does, tests do).  Frames and bytes
    are counted once per whole frame, header included, in each direction.
    """

    def __init__(self, transport: str) -> None:
        registry = get_registry()
        self.transport = transport
        self.connections = registry.counter(
            metric_names.SERVER_CONNECTIONS_TOTAL,
            "Client connections accepted.",
            transport=transport,
        )
        self.frames_in = registry.counter(
            metric_names.SERVER_FRAMES_TOTAL,
            "Wire frames processed.",
            transport=transport,
            direction="in",
        )
        self.frames_out = registry.counter(
            metric_names.SERVER_FRAMES_TOTAL,
            "Wire frames processed.",
            transport=transport,
            direction="out",
        )
        self.bytes_in = registry.counter(
            metric_names.SERVER_BYTES_TOTAL,
            "Wire bytes moved, frame headers included.",
            transport=transport,
            direction="in",
        )
        self.bytes_out = registry.counter(
            metric_names.SERVER_BYTES_TOTAL,
            "Wire bytes moved, frame headers included.",
            transport=transport,
            direction="out",
        )
        self.oversized = registry.counter(
            metric_names.SERVER_OVERSIZED_TOTAL,
            "Frames refused for exceeding the frame limit.",
            transport=transport,
        )


class Reply(NamedTuple):
    """What the transport does after one inbound frame.

    ``data`` is zero or one whole frame to write; ``close`` ends the
    connection after writing it; ``shutdown`` (an acknowledged
    ``admin``/``shutdown``) stops the whole server.
    """

    data: bytes
    close: bool = False
    shutdown: bool = False


def _protocol_error(message: str) -> Response:
    return Response(ok=False, error=ResponseError(code="protocol", message=message))


class ServerConnection:
    """Protocol state of one client connection over one :class:`Database`.

    Parameters
    ----------
    database:
        The served database (or anything with its ``session()`` contract,
        e.g. a cluster coordinator).
    max_frame_bytes:
        Upper bound on one request/response payload.
    metrics:
        The owning server's counters; :attr:`ServerMetrics.bytes_in` is fed
        by the transport's frame reader, everything else from here.
    send:
        ``send(frame_bytes)``, callable from any thread, that writes one
        whole frame to this client without interleaving with other writes.
        Used only for standing-query pushes, which are not replies to any
        frame; replies are returned from :meth:`receive`.
    """

    def __init__(
        self,
        database: Database,
        max_frame_bytes: int,
        metrics: ServerMetrics,
        send: Callable[[bytes], None],
    ) -> None:
        self._database = database
        self._session = database.session()
        self._limit = max_frame_bytes
        self._metrics = metrics
        self._send = send
        self._greeted = False
        #: Standing queries this connection registered, by subscription id.
        self._subscriptions: dict[Any, ServerSubscription] = {}

    # -- inbound -------------------------------------------------------------------

    def receive(self, shape: str, payload: Any) -> Reply:
        """Answer one frame as :func:`~repro.api.protocol.read_frame_any` yields it."""
        self._metrics.frames_in.inc()
        binary = shape == "binary"
        if binary:
            try:
                request_id, request = decode_binary_request(payload)
            except CodecError as error:
                # no trustworthy correlation id to answer on
                return self.frame_error(error)
            frame = InboundFrame(request_id=request_id, kind=request.get("type"), payload=request)
        else:
            frame = classify_frame(payload)
        if frame.error is not None:
            if frame.bare:
                refusal = error_response(UnsupportedProtocolError(frame.error))
                return self._small(refusal.to_dict())
            malformed = ResponseError(code="invalid_request", message=frame.error)
            return self._reply(frame.request_id, Response(ok=False, error=malformed))
        if frame.is_hello:
            self._greeted = True
            return self._reply(
                frame.request_id, Response(ok=True, data=hello_data(self._limit))
            )
        if frame.kind in SUBSCRIPTION_KINDS:
            response = self._subscription(frame)
        else:
            response = self._execute(frame)
        reply = self._reply(frame.request_id, response, binary=binary)
        if response.ok and frame.kind == "admin" and frame.payload.get("action") == "shutdown":
            return reply._replace(close=True, shutdown=True)
        return reply

    def frame_error(self, error: Exception) -> Reply:
        """The final bare ``protocol`` envelope for an unreadable frame.

        A torn, oversized, not-JSON or undecodable frame leaves a byte
        stream that cannot be resynchronised, so the connection closes.
        """
        if isinstance(error, FrameTooLargeError):
            self._metrics.oversized.inc()
        return self._small(_protocol_error(str(error)).to_dict(), close=True)

    def close(self) -> None:
        """Tear down exactly the standing queries this connection registered."""
        if self._subscriptions:
            subs = list(self._subscriptions.values())
            self._subscriptions.clear()
            self._database.subscriptions.cancel_all(subs)

    # -- dispatch ------------------------------------------------------------------

    def _execute(self, frame: InboundFrame) -> Response:
        """Dispatch one request frame, honouring its trace opt-in.

        Traced frames get a :class:`Trace` — carrying the propagated id
        when the client sent one — installed for the dispatch, a root
        ``request:<kind>`` span, and the span tree attached to the response.
        """
        assert frame.payload is not None
        if not frame.traced:
            return self._session.execute(frame.payload)
        trace = Trace(frame.trace if isinstance(frame.trace, str) else None)
        with use_trace(trace):
            with trace.span(f"request:{frame.payload.get('type', frame.kind)}"):
                response = self._session.execute(frame.payload)
        return replace(response, trace=trace.to_dict())

    # -- outbound ------------------------------------------------------------------

    def _reply(self, request_id: Any, response: Response, *, binary: bool = False) -> Reply:
        """Frame one correlated reply: binary when asked and able, else JSON."""
        payload = response.to_dict()
        if binary:
            encoded = encode_binary_response(request_id, payload)
            if encoded is not None and len(encoded) <= self._limit:
                return self._out(encode_binary_frame(encoded, self._limit))
        try:
            data = encode_frame(response_envelope(request_id, payload), self._limit)
        except FrameTooLargeError as error:
            self._metrics.oversized.inc()
            substitute = _protocol_error(
                f"response exceeds frame limit: {error}; retry with a"
                " smaller request (range queries support limit/cursor"
                " pagination; batches can be split into single queries)"
            )
            return self._small(response_envelope(request_id, substitute.to_dict()))
        return self._out(data)

    def _small(self, envelope: dict, *, close: bool = False) -> Reply:
        """Frame an envelope that is small by construction, or give up and close."""
        try:
            data = encode_frame(envelope, self._limit)
        except FrameTooLargeError:
            return Reply(b"", close=True)
        return self._out(data, close=close)

    def _out(self, data: bytes, *, close: bool = False) -> Reply:
        self._count_out(data)
        return Reply(data, close=close)

    def _count_out(self, data: bytes) -> None:
        self._metrics.frames_out.inc()
        self._metrics.bytes_out.inc(len(data))

    # -- standing queries ----------------------------------------------------------

    def _subscription(self, frame: InboundFrame) -> Response:
        """Serve one ``subscribe``/``unsubscribe`` envelope.

        Registration happens here rather than in the session dispatch
        because a subscription is connection state: its pushes ride this
        connection and die with it.
        """
        if not self._greeted:
            return error_response(
                UnsupportedProtocolError(
                    "subscribe requires a connection opened with a hello"
                    " handshake; send hello first"
                )
            )
        assert frame.payload is not None
        try:
            request = parse_request(frame.payload)
            if isinstance(request, UnsubscribeRequest):
                return self._unsubscribe(request)
            assert isinstance(request, SubscribeRequest)
            return self._subscribe(request, frame.request_id)
        except Exception as error:
            return error_response(error)

    def _subscribe(self, request: SubscribeRequest, subscription_id: Any) -> Response:
        registry = getattr(self._database, "subscriptions", None)
        if registry is None:
            raise InvalidRequestError(
                "this server keeps no standing queries (a cluster coordinator"
                " routes requests; it holds no collection to watch)"
            )
        if subscription_id in self._subscriptions:
            raise InvalidRequestError(
                f"subscription id {subscription_id!r} is already registered"
                " on this connection"
            )
        entry = self._database._lookup(request.collection)
        if entry.kind != "live":
            raise InvalidRequestError(
                f"collection {request.collection!r} is {entry.kind} (read-only);"
                " standing queries need a live collection"
            )
        binary = request.format == "binary"

        def deliver(sub_id: Any, body: dict) -> None:
            data = self.encode_push(sub_id, body, binary)
            self._send(data)
            self._count_out(data)

        response, sub = registry.subscribe(
            entry.engine, request, subscription_id, deliver, self._metrics.transport
        )
        self._subscriptions[sub.id] = sub
        return response

    def _unsubscribe(self, request: UnsubscribeRequest) -> Response:
        """Cancel one standing query; an id this connection never registered
        (or already cancelled) is an invalid request, not a no-op."""
        sub = self._subscriptions.pop(request.subscription, None)
        if sub is None:
            raise InvalidRequestError(
                f"no subscription {request.subscription!r} on this connection"
            )
        self._database.subscriptions.unsubscribe(sub)
        return Response(ok=True, data={"unsubscribed": request.subscription})

    def encode_push(self, subscription_id: Any, body: dict, binary: bool) -> bytes:
        """Frame one push: binary when asked, representable and within the limit."""
        if binary:
            encoded = encode_binary_push(subscription_id, body)
            if encoded is not None and len(encoded) <= self._limit:
                return encode_binary_frame(encoded, self._limit)
        return encode_frame(push_envelope(subscription_id, body), self._limit)


# -- the client side ---------------------------------------------------------------


def _decoded(what: str, decode: Callable[[dict], Any], body: Any) -> Any:
    """``decode(body)``, or :class:`FrameError`: an undecodable body is a
    protocol violation, not a per-request failure."""
    if not isinstance(body, dict):
        raise FrameError(f"{what} envelope without a body object")
    try:
        return decode(body)
    except Exception as error:
        raise FrameError(f"malformed {what}: {type(error).__name__}: {error}") from None


class ClientConnection:
    """Protocol state of one client connection: ids, tables, encode, route.

    It has no lock: a threaded transport makes every call under one lock,
    except :meth:`encode`, which reads only what the handshake fixed.
    ``binary`` offers RBF frame bodies (:mod:`repro.codec.wire`), used
    only when the server advertises them.
    """

    def __init__(self, max_frame_bytes: int, *, binary: bool = False) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._offer_binary = binary
        #: Whether binary frame bodies were negotiated (fixed by the handshake).
        self.binary = False
        #: The server's handshake data (versions, frame limit, formats).
        self.server_info: Optional[dict] = None
        self._failure: Optional[BaseException] = None
        self._next_id = 0
        self._pending: dict[Any, Any] = {}
        self._subscriptions: dict[Any, Any] = {}

    @property
    def closed(self) -> bool:
        """Whether :meth:`fail_all` ran (a deliberate close or a failure)."""
        return self._failure is not None

    # -- handshake -----------------------------------------------------------------

    def hello(self) -> bytes:
        """The frame a connection opens with."""
        return encode_frame(hello_payload(self.allocate()), self.max_frame_bytes)

    def handshake(self, framed: Optional[tuple[str, Any]]) -> None:
        """Check the reply to :meth:`hello` (``ConnectionError`` if refused);
        record the server, clamp the frame limit, settle :attr:`binary`."""
        if framed is None:
            raise ConnectionError("server closed the connection during the handshake")
        shape, reply = framed
        if shape != "json" or "id" not in reply:
            raise ConnectionError("server does not speak protocol v2 (handshake refused)")
        try:
            response = Response.from_dict(reply.get("body") or {})
        except Exception as error:
            raise ConnectionError(f"handshake failed: malformed reply: {error}") from None
        if not response.ok or not isinstance(response.data, dict):
            raise ConnectionError(f"handshake rejected: {response.error}")
        info = response.data
        limit = info.get("max_frame_bytes")
        if isinstance(limit, int) and 0 < limit < self.max_frame_bytes:
            self.max_frame_bytes = limit
        formats = info.get("formats")
        self.binary = self._offer_binary and isinstance(formats, (list, tuple)) and (
            "binary" in formats
        )
        self.server_info = info

    # -- outbound ------------------------------------------------------------------

    def allocate(self, count: int = 1) -> int:
        """Reserve ``count`` consecutive request ids; returns the first."""
        self._check_open()
        first = self._next_id
        self._next_id += count
        return first

    def encode(self, request_id: int, request: RequestLike, trace: Any = None) -> bytes:
        """One request frame: binary when negotiated and representable, else JSON.

        Traced requests travel as JSON (the binary envelope has no trace
        field), and so does any shape outside the binary hot set.  A
        ``subscribe`` on a binary connection asks for binary deltas.  A
        malformed or oversized request raises before anything is registered.
        """
        payload = request if isinstance(request, dict) else parse_request(request).to_dict()
        if self.binary and payload.get("type") == "subscribe" and not payload.get("format"):
            payload = {**payload, "format": "binary"}
        if self.binary and trace is None:
            body = encode_binary_request(request_id, payload)
            if body is not None:
                return encode_binary_frame(body, self.max_frame_bytes)
        return encode_frame(
            request_envelope(request_id, payload, trace=trace), self.max_frame_bytes
        )

    def expect(self, request_id: int, waiter: Any, handle: Any = None) -> None:
        """Register one request's waiter (and its subscription ``handle``)
        before the frame leaves: a push may overtake the subscribe reply."""
        self._check_open()
        self._pending[request_id] = waiter
        if handle is not None:
            self._subscriptions[request_id] = handle

    def abandon(self, request_id: int) -> None:
        """Forget one timed-out request; its late reply will be dropped."""
        self._pending.pop(request_id, None)

    def release(self, subscription_id: Any) -> Any:
        """Unregister one subscription; returns its handle, ``None`` if it ended."""
        return self._subscriptions.pop(subscription_id, None)

    def _check_open(self) -> None:
        if self._failure is not None:
            raise ConnectionError(str(self._failure))

    # -- inbound -------------------------------------------------------------------

    def receive(self, shape: str, payload: Any) -> Optional[tuple[Any, Any, bool]]:
        """Route one frame as :func:`~repro.api.protocol.read_frame_any` yields it.

        Returns ``(waiter, response, False)`` for a reply, ``(handle, event,
        True)`` for a push — ``event`` being what the handle's ``_absorb``
        queues — and ``None`` for a late reply to an abandoned id or a push
        to an unknown one.  A terminal ``error`` push releases its
        subscription.  A frame without a usable id or with an undecodable
        body raises :class:`FrameError`.
        """
        if shape == "binary":
            try:
                push = is_push_frame(payload)
                decode = decode_binary_push if push else decode_binary_response
                frame_id, body = decode(payload)
            except CodecError as error:
                raise FrameError(f"undecodable binary frame: {error}") from None
        else:
            push = payload.get("kind") == PUSH_KIND
            frame_id, body = payload.get("id"), payload.get("body")
        if not valid_request_id(frame_id):
            raise FrameError(f"frame without a usable correlation id: {frame_id!r}")
        if push:
            return self._push(frame_id, body)
        response = _decoded("reply", Response.from_dict, body)
        waiter = self._pending.pop(frame_id, None)
        return None if waiter is None else (waiter, response, False)

    def _push(self, subscription_id: Any, body: Any) -> Optional[tuple[Any, Any, bool]]:
        event = body.get("event") if isinstance(body, dict) else None
        if event == EVENT_DELTA:
            item = ("delta", _decoded("push", PushDelta.from_dict, body))
        elif event == EVENT_ERROR:
            error = {"ok": False, "error": body.get("error")}
            item = ("error", _decoded("push", Response.from_dict, error))
        else:
            raise FrameError(f"push without a known event: {event!r}")
        handle = self._subscriptions.get(subscription_id)
        if handle is None:
            return None
        if event == EVENT_ERROR:  # terminal: the server released it
            del self._subscriptions[subscription_id]
        return handle, item, True

    # -- teardown ------------------------------------------------------------------

    def fail_all(self, error: BaseException) -> tuple[list, list]:
        """Close the connection with ``error``; returns ``(waiters, handles)``
        to fail, each exactly once (a second call returns nothing)."""
        if self._failure is None:
            self._failure = error
        waiters, self._pending = list(self._pending.values()), {}
        handles, self._subscriptions = list(self._subscriptions.values()), {}
        return waiters, handles


class BaseSubscription:
    """Client handle for one standing query: snapshot plus a delta stream.

    :attr:`matches` starts as the server's snapshot and is advanced by
    every delta the consumer takes through ``get`` (or iteration), so it
    always equals what re-running the query would return as of the last
    consumed delta — byte-identical, which the equivalence tests assert via
    :meth:`result_bytes`.  :meth:`unsubscribe` ends the stream cleanly, a
    server-side cancel (``subscription_overflow``, a dropped collection)
    raises the typed error, and a dead connection raises
    ``ConnectionError``.  One consumer at a time.  The blocking and asyncio
    subclasses differ only in their queue and in how ``get`` waits.
    """

    #: The queue the reader side fills (anything with ``put_nowait``).
    _queue_type: Callable[[], Any]

    def __init__(self, client: Any, collection: str) -> None:
        self._client = client
        #: The subscribe request's id, set when the transport registers it.
        self.id: Any = None
        self.collection = collection
        #: Subscription metadata from the subscribe reply (mode, version,
        #: queue_size, format); filled in before the handle is returned.
        self.info: dict = {}
        self.matches: tuple[MatchPayload, ...] = ()
        self._queue = self._queue_type()
        self._done = False  # consumer-side

    # -- reader side ---------------------------------------------------------------

    def _absorb(self, event: tuple[str, Any]) -> None:
        """Queue one routed push event (reader side; never raises)."""
        self._queue.put_nowait(event)

    def _fail(self, error: BaseException) -> None:
        self._queue.put_nowait(("fail", error))

    def _finish(self) -> None:
        self._queue.put_nowait(("end", None))

    def _open(self, response: Response) -> None:
        """Take the subscribe reply: the snapshot and the metadata."""
        self.matches = tuple(response.matches or ())
        self.info = dict(response.data or {})

    # -- consumer side -------------------------------------------------------------

    def _take(self, kind: str, value: Any) -> Optional[PushDelta]:
        """Consume one queued event: a delta advances :attr:`matches`, the rest end."""
        if kind == "delta":
            self.matches = apply_delta(self.matches, value)
            return value
        self._done = True
        if kind == "end":
            return None
        if kind == "error":
            value.raise_for_error()
            raise ConnectionError("subscription ended with an unreadable error")
        raise value

    def result_bytes(self) -> bytes:
        """Canonical bytes of the current result set (equivalence checks)."""
        return Response(ok=True, matches=self.matches).result_bytes()

    @property
    def ended(self) -> bool:
        """Whether the consumer has seen the subscription end."""
        return self._done

    def unsubscribe(self, timeout: Optional[float] = None) -> Any:
        """Cancel the standing query; pending deltas stay consumable.

        On the asyncio client this returns the coroutine to await.
        """
        return self._client._unsubscribe(self, timeout)

    def __repr__(self) -> str:
        state = "ended" if self._done else f"{len(self.matches)} matches"
        return (
            f"{type(self).__name__}(id={self.id}, collection={self.collection!r}, {state})"
        )
