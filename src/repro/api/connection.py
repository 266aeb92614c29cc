"""The server side of one connection, without the transport.

:class:`ServerConnection` is every protocol decision a server makes for
one client, and nothing else: it never reads or writes a socket.  A
transport reads one frame (:func:`~repro.api.protocol.read_frame_any` or
its asyncio twin), hands what it got to :meth:`ServerConnection.receive`,
writes the returned bytes, and honours the returned flags — so the
threaded server (:mod:`repro.api.server`) and the asyncio server
(:mod:`repro.api.aserver`) cannot answer the same frame differently, and a
test can drive the whole protocol with tuples and a list.

What it owns: binary-request decode, envelope classification, the
``hello`` reply and the greeted flag, envelope-error and bare-frame
refusals, the subscribe/unsubscribe intercept with this connection's
subscription table and push encoder, traced dispatch, reply encoding
(binary, then JSON, then the reply-too-large rule), the final ``protocol``
envelope of a frame error, the frame/byte/oversize counters, and
subscription teardown.

The reply-too-large rule: a reply that does not fit ``max_frame_bytes`` is
replaced by a small ``protocol`` error envelope on the same id, so only
that request fails; when even that does not fit, the connection is closed
— a client must never be left waiting for bytes that cannot be framed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, NamedTuple

from repro.api.database import Database
from repro.api.protocol import (
    FrameTooLargeError,
    InboundFrame,
    classify_frame,
    encode_binary_frame,
    encode_frame,
    hello_data,
    push_envelope,
    response_envelope,
)
from repro.api.requests import SubscribeRequest, UnsubscribeRequest, parse_request
from repro.api.responses import Response, ResponseError, error_response
from repro.codec import CodecError
from repro.codec.wire import decode_request as decode_binary_request
from repro.codec.wire import encode_push as encode_binary_push
from repro.codec.wire import encode_response as encode_binary_response
from repro.core.errors import InvalidRequestError, UnsupportedProtocolError
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry
from repro.obs.tracing import Trace, use_trace
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

