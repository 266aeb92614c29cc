"""The asyncio client: pipelining as plain ``await`` concurrency.

:class:`AsyncClient` opens one connection, performs the ``hello``
handshake, and correlates responses to requests by ``id`` with a
background reader task.  Pipelining falls out of the programming
model: every ``execute`` is a coroutine, so issuing N requests before
awaiting any of them puts N requests in flight on the one connection::

    async with await AsyncClient.connect(host, port) as client:
        single = await client.range_query([3, 1, 4], theta=0.2)
        burst = await asyncio.gather(
            *(client.range_query(query, 0.2) for query in queries)
        )

A per-request ``timeout`` fails only that request's id (the late reply is
discarded on arrival); frame-level corruption poisons the connection and
fails every in-flight request, exactly like the sync client.

The verb surface mirrors :class:`~repro.api.surface.ExecutorSurface` with
``async`` signatures; mutation and admin verbs raise the envelope's typed
error and return the useful part, so porting sync call sites is mechanical.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Optional, Sequence

from repro.api.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PUSH_KIND,
    FrameError,
    encode_frame,
    hello_payload,
    read_frame_async,
    request_envelope,
)
from repro.api.requests import (
    AdminRequest,
    BatchRequest,
    DEFAULT_COLLECTION,
    DeleteRequest,
    InsertRequest,
    KnnRequest,
    RangeQueryRequest,
    RequestLike,
    SubscribeRequest,
    UnsubscribeRequest,
    UpsertRequest,
    parse_request,
)
from repro.api.responses import MatchPayload, Response
from repro.api.server import DEFAULT_HOST, DEFAULT_PORT
from repro.api.surface import Items
from repro.sub.delta import EVENT_DELTA, EVENT_ERROR, PushDelta, apply_delta

logger = logging.getLogger(__name__)


class AsyncSubscription:
    """Async handle for one standing query: snapshot plus a delta stream.

    The async twin of :class:`repro.api.client.Subscription`: iterate with
    ``async for`` (each step yields a :class:`~repro.sub.delta.PushDelta`
    already applied to :attr:`matches`), end it with :meth:`unsubscribe`.
    Terminal server errors raise their typed exception; a dead connection
    raises ``ConnectionError``.  The async client speaks JSON frames only,
    so delta bodies arrive as JSON pushes.
    """

    def __init__(self, client: "AsyncClient", subscription_id: int, collection: str) -> None:
        self._client = client
        self.id = subscription_id
        self.collection = collection
        #: Subscription metadata from the subscribe reply (mode, version,
        #: queue_size, format); filled in before the handle is returned.
        self.info: dict = {}
        self.matches: tuple[MatchPayload, ...] = ()
        self._queue: "asyncio.Queue[tuple[str, object]]" = asyncio.Queue()
        self._done = False

    # -- reader-task side ----------------------------------------------------------

    def _absorb(self, body: dict) -> None:
        """Queue one push body (reader task; never raises)."""
        event = body.get("event")
        if event == EVENT_DELTA:
            try:
                delta = PushDelta.from_dict(body)
            except Exception as error:
                logger.debug("subscription %r push malformed: %s", self.id, error)
                self._queue.put_nowait(
                    ("fail", ConnectionError(f"malformed push delta: {error}"))
                )
                return
            self._queue.put_nowait(("delta", delta))
        elif event == EVENT_ERROR:
            self._queue.put_nowait(
                ("error", Response.from_dict({"ok": False, "error": body.get("error")}))
            )
        else:
            self._queue.put_nowait(
                ("fail", ConnectionError(f"unknown push event {event!r}"))
            )

    def _fail(self, error: BaseException) -> None:
        self._queue.put_nowait(("fail", error))

    def _finish(self) -> None:
        self._queue.put_nowait(("end", None))

    # -- consumer side -------------------------------------------------------------

    async def get(self, timeout: Optional[float] = None) -> Optional[PushDelta]:
        """The next delta, applied to :attr:`matches`; ``None`` when ended."""
        if self._done:
            return None
        if timeout is None:
            kind, value = await self._queue.get()
        else:
            try:
                kind, value = await asyncio.wait_for(self._queue.get(), timeout)
            except asyncio.TimeoutError:
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

    def __aiter__(self) -> "AsyncSubscription":
        return self

    async def __anext__(self) -> PushDelta:
        delta = await self.get()
        if delta is None:
            raise StopAsyncIteration
        return delta

    def result_bytes(self) -> bytes:
        """Canonical bytes of the current result set (equivalence checks)."""
        return Response(ok=True, matches=self.matches).result_bytes()

    @property
    def ended(self) -> bool:
        """Whether the consumer has seen the subscription end."""
        return self._done

    async def unsubscribe(self, timeout: Optional[float] = None) -> None:
        """Cancel the standing query; pending deltas stay consumable."""
        await self._client._unsubscribe(self, timeout)

    def __repr__(self) -> str:
        state = "ended" if self._done else f"{len(self.matches)} matches"
        return f"AsyncSubscription(id={self.id}, collection={self.collection!r}, {state})"


class AsyncClient:
    """One server connection inside an event loop.

    Build instances with :meth:`connect`; the constructor itself only wires
    the streams (the handshake needs ``await``).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout: Optional[float] = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.timeout = timeout
        self._max_frame_bytes = max_frame_bytes
        self._pending: dict[int, asyncio.Future] = {}
        self._subscriptions: dict[int, AsyncSubscription] = {}
        self._next_id = 0
        self._closed = False
        self._server_info: Optional[dict] = None
        self._reader_task: Optional[asyncio.Task] = None

    @classmethod
    async def connect(
        cls,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: Optional[float] = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "AsyncClient":
        """Open a connection, run the handshake, start the reader task."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, timeout=timeout, max_frame_bytes=max_frame_bytes)
        try:
            await client._handshake()
        except BaseException:
            await client.close()
            raise
        return client

    # -- connection state ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the connection is gone (closed or poisoned)."""
        return self._closed

    @property
    def server_info(self) -> Optional[dict]:
        """The server's handshake data (versions, frame limit)."""
        return self._server_info

    async def _handshake(self) -> None:
        request_id = self._take_id()
        self._writer.write(encode_frame(hello_payload(request_id), self._max_frame_bytes))
        await self._writer.drain()
        try:
            reply = await asyncio.wait_for(
                read_frame_async(self._reader, self._max_frame_bytes), self.timeout
            )
        except (asyncio.TimeoutError, FrameError, OSError) as error:
            raise ConnectionError(f"handshake failed: {error}") from None
        if reply is None:
            raise ConnectionError("server closed the connection during the handshake")
        if "id" not in reply:
            raise ConnectionError("server does not speak protocol v2 (handshake refused)")
        response = Response.from_dict(reply.get("body") or {})
        if not response.ok or response.data is None:
            raise ConnectionError(f"handshake rejected: {response.error}")
        self._server_info = response.data
        server_limit = response.data.get("max_frame_bytes")
        if isinstance(server_limit, int) and 0 < server_limit < self._max_frame_bytes:
            self._max_frame_bytes = server_limit
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id

    # -- the execute primitive -----------------------------------------------------

    async def execute(
        self, request: RequestLike, *, timeout: Optional[float] = None, trace=None
    ) -> Response:
        """Send one request; await its correlated response envelope.

        ``timeout=None`` uses the client default.  A timeout abandons only
        this request's id; other in-flight requests are unaffected.
        ``trace=True`` asks the server to trace the request (a string
        propagates an existing trace id); the response then carries its
        span tree as :attr:`Response.trace`.
        """
        if self._closed:
            raise ConnectionError("client is closed")
        payload = parse_request(request).to_dict() if not isinstance(request, dict) else request
        request_id = self._take_id()
        frame = encode_frame(
            request_envelope(request_id, payload, trace=trace), self._max_frame_bytes
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except (ConnectionError, OSError) as error:
            self._poison(ConnectionError(f"connection failed: {error}"))
            raise ConnectionError(f"connection failed: {error}") from None
        effective = self.timeout if timeout is None else timeout
        try:
            return await asyncio.wait_for(future, effective)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)  # the late reply gets discarded
            raise TimeoutError(
                f"request {request_id} timed out after {effective}s "
                "(only this request failed; the connection is still usable)"
            ) from None

    # -- standing queries ----------------------------------------------------------

    async def subscribe(
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
    ) -> AsyncSubscription:
        """Register a standing query; returns its :class:`AsyncSubscription`.

        Awaits the server's snapshot reply; deltas then arrive on the
        handle as mutations commit (consume with ``async for`` or
        :meth:`AsyncSubscription.get`).
        """
        if self._closed:
            raise ConnectionError("client is closed")
        request = SubscribeRequest(
            collection=collection,
            mode=mode,
            items=items,
            theta=theta,
            k=k,
            algorithm=algorithm,
            queue_size=queue_size,
        )
        request_id = self._take_id()
        frame = encode_frame(
            request_envelope(request_id, request.to_dict()), self._max_frame_bytes
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        # the handle must be routable before the request leaves: a push can
        # overtake the subscribe reply
        subscription = AsyncSubscription(self, request_id, collection)
        self._subscriptions[request_id] = subscription
        try:
            try:
                self._writer.write(frame)
                await self._writer.drain()
            except (ConnectionError, OSError) as error:
                self._poison(ConnectionError(f"connection failed: {error}"))
                raise ConnectionError(f"connection failed: {error}") from None
            effective = self.timeout if timeout is None else timeout
            try:
                response = await asyncio.wait_for(future, effective)
            except asyncio.TimeoutError:
                self._pending.pop(request_id, None)
                raise TimeoutError(
                    f"subscribe {request_id} timed out after {effective}s"
                ) from None
            if not response.ok:
                response.raise_for_error()
        except BaseException:
            self._subscriptions.pop(request_id, None)
            raise
        subscription.matches = tuple(response.matches or ())
        subscription.info = dict(response.data or {})
        return subscription

    async def _unsubscribe(
        self, subscription: AsyncSubscription, timeout: Optional[float]
    ) -> None:
        """Cancel one standing query; the server's reply ends the stream."""
        known = self._subscriptions.pop(subscription.id, None)
        if known is None:
            return  # already ended (terminal error, poison, double call)
        request = UnsubscribeRequest(
            collection=subscription.collection, subscription=subscription.id
        )
        try:
            response = await self.execute(request, timeout=timeout)
        except BaseException:
            subscription._finish()
            raise
        subscription._finish()
        response.raise_for_error()

    async def _read_loop(self) -> None:
        try:
            while True:
                reply = await read_frame_async(self._reader, self._max_frame_bytes)
                if reply is None:
                    raise FrameError("server closed the connection")
                if reply.get("kind") == PUSH_KIND:
                    body = reply.get("body")
                    if not isinstance(body, dict):
                        raise FrameError(f"push envelope without body: {reply!r}")
                    # an unknown id is a push that raced an unsubscribe: drop
                    subscription = self._subscriptions.get(reply.get("id"))
                    if subscription is not None:
                        subscription._absorb(body)
                        if body.get("event") == EVENT_ERROR:  # terminal
                            self._subscriptions.pop(reply.get("id"), None)
                    continue
                if "id" not in reply or not isinstance(reply.get("body"), dict):
                    raise FrameError(f"uncorrelatable response frame: {reply!r}")
                future = self._pending.pop(reply["id"], None)
                if future is not None and not future.done():
                    future.set_result(Response.from_dict(reply["body"]))
        except (FrameError, ConnectionError, OSError) as error:
            self._poison(ConnectionError(f"connection failed: {error}"))
        except asyncio.CancelledError:
            self._poison(ConnectionError("client is closed"))
            raise

    def _poison(self, error: BaseException) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)
        subscriptions, self._subscriptions = self._subscriptions, {}
        for subscription in subscriptions.values():
            subscription._fail(error)

    async def close(self) -> None:
        """Close the connection (idempotent); in-flight requests fail cleanly."""
        self._poison(ConnectionError("client is closed"))
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- the engine-shaped verb surface (async ExecutorSurface) ---------------------

    async def range_query(
        self,
        items: Items,
        theta: float,
        *,
        collection: str = DEFAULT_COLLECTION,
        algorithm: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: int = 0,
        timeout: Optional[float] = None,
    ) -> Response:
        """One similarity range query; the envelope carries the matches."""
        return await self.execute(
            RangeQueryRequest(
                collection=collection, items=items, theta=theta,
                algorithm=algorithm, limit=limit, cursor=cursor,
            ),
            timeout=timeout,
        )

    async def knn(
        self,
        items: Items,
        k: int,
        *,
        collection: str = DEFAULT_COLLECTION,
        algorithm: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Response:
        """One exact k-nearest-neighbour query."""
        return await self.execute(
            KnnRequest(collection=collection, items=items, k=k, algorithm=algorithm),
            timeout=timeout,
        )

    async def batch(
        self,
        queries: Sequence[Items],
        theta: float,
        *,
        collection: str = DEFAULT_COLLECTION,
        algorithm: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Response:
        """A batch of range queries; the envelope nests one per query."""
        return await self.execute(
            BatchRequest(
                collection=collection, queries=tuple(queries), theta=theta, algorithm=algorithm
            ),
            timeout=timeout,
        )

    async def insert(self, items: Items, *, collection: str = DEFAULT_COLLECTION) -> int:
        """Insert one ranking; returns its logical key."""
        response = await self.execute(InsertRequest(collection=collection, items=items))
        response.raise_for_error()
        assert response.key is not None
        return response.key

    async def delete(self, key: int, *, collection: str = DEFAULT_COLLECTION) -> None:
        """Delete the ranking stored under ``key``."""
        (await self.execute(DeleteRequest(collection=collection, key=key))).raise_for_error()

    async def upsert(
        self, key: int, items: Items, *, collection: str = DEFAULT_COLLECTION
    ) -> None:
        """Replace (or insert) the ranking under ``key``."""
        (
            await self.execute(UpsertRequest(collection=collection, key=key, items=items))
        ).raise_for_error()

    async def _admin(self, action: str, collection: str) -> Response:
        response = await self.execute(AdminRequest(collection=collection, action=action))
        return response.raise_for_error()

    async def ping(self) -> bool:
        """Liveness probe."""
        return bool((await self._admin("ping", DEFAULT_COLLECTION)).data)

    async def collections(self) -> list[dict]:
        """Descriptors of every collection the database holds."""
        response = await self._admin("collections", DEFAULT_COLLECTION)
        assert response.data is not None
        return list(response.data["collections"])

    async def stats(self, collection: str = DEFAULT_COLLECTION) -> dict:
        """Engine statistics for one collection."""
        response = await self._admin("stats", collection)
        assert response.data is not None
        return response.data

    async def create_collection(
        self,
        name: str,
        engine: str,
        *,
        rankings: Optional[Sequence[Items]] = None,
        algorithm: Optional[str] = None,
        num_shards: Optional[int] = None,
        cache_capacity: Optional[int] = None,
    ) -> dict:
        """DDL: register a collection (see :class:`AdminRequest`)."""
        response = await self.execute(
            AdminRequest(
                collection=name,
                action="create",
                engine=engine,
                rankings=None if rankings is None else tuple(rankings),
                algorithm=algorithm,
                num_shards=num_shards,
                cache_capacity=cache_capacity,
            )
        )
        response.raise_for_error()
        assert response.data is not None
        return response.data

    async def drop_collection(self, name: str) -> dict:
        """DDL: remove a collection and close its engine."""
        response = await self.execute(AdminRequest(collection=name, action="drop"))
        response.raise_for_error()
        assert response.data is not None
        return response.data

    async def shutdown_server(self) -> Response:
        """Ask the server to stop after acknowledging (admin/shutdown)."""
        return await self.execute({"type": "admin", "action": "shutdown"})

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"AsyncClient({state}, in_flight={len(self._pending)})"
