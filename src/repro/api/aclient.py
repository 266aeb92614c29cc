"""The asyncio client: pipelining as plain ``await`` concurrency.

:class:`AsyncClient` is a transport — a stream pair and a reader task —
around the sans-IO :class:`~repro.api.connection.ClientConnection` the
blocking :class:`~repro.api.client.Client` also uses, so both clients
make every protocol decision identically.  Every verb is a coroutine, so
issuing N requests before awaiting any of them puts N requests in flight
on the one connection::

    async with await AsyncClient.connect(host, port) as client:
        single = await client.range_query([3, 1, 4], theta=0.2)
        burst = await asyncio.gather(
            *(client.range_query(query, 0.2) for query in queries)
        )

The verbs are the blocking client's own (:mod:`repro.api.surface`), made
awaitable by implementing its one ``_call`` hook as a coroutine.  A
per-request ``timeout=`` on :meth:`AsyncClient.execute` fails only that
request's id; frame-level corruption fails every in-flight request.
Frames are JSON only: the core is built without the binary offer.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.api.connection import BaseSubscription, ClientConnection
from repro.api.protocol import DEFAULT_MAX_FRAME_BYTES, FrameError, read_frame_any_async
from repro.api.requests import RequestLike, SubscribeRequest
from repro.api.responses import Response
from repro.api.server import DEFAULT_HOST, DEFAULT_PORT
from repro.api.surface import ConnectionSurface
from repro.sub.delta import PushDelta


class AsyncSubscription(BaseSubscription):
    """A standing query on an :class:`AsyncClient`: ``async for``, or :meth:`get`."""

    _queue_type = asyncio.Queue

    async def get(self, timeout: Optional[float] = None) -> Optional[PushDelta]:
        """The next delta, applied to :attr:`matches`; ``None`` when ended."""
        if self._done:
            return None
        try:
            kind, value = await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"no push on subscription {self.id} within {timeout}s"
            ) from None
        return self._take(kind, value)

    def __aiter__(self) -> "AsyncSubscription":
        return self

    async def __anext__(self) -> PushDelta:
        delta = await self.get()
        if delta is None:
            raise StopAsyncIteration
        return delta


class AsyncClient(ConnectionSurface):
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
        self._core = ClientConnection(max_frame_bytes)
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
        """Open a connection, run the handshake, start the reader task.

        ``timeout`` bounds the connect and the handshake each; an expired
        connect raises ``TimeoutError``, as :class:`~repro.api.client.Client`
        does.
        """
        try:
            reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(f"connecting to {host}:{port} timed out after {timeout}s") from None
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
        return self._core.closed

    @property
    def server_info(self) -> Optional[dict]:
        """The server's handshake data (versions, frame limit)."""
        return self._core.server_info

    async def _handshake(self) -> None:
        self._writer.write(self._core.hello())
        try:
            await self._writer.drain()
            reply = await asyncio.wait_for(
                read_frame_any_async(self._reader, self._core.max_frame_bytes), self.timeout
            )
        except (asyncio.TimeoutError, FrameError, OSError) as error:
            raise ConnectionError(f"handshake failed: {error}") from None
        self._core.handshake(reply)
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    # -- requests ------------------------------------------------------------------

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
        return await self._exchange(request, timeout, trace)

    async def _call(self, request: RequestLike, finish: Callable[[Response], Any]) -> Any:
        return finish(await self.execute(request))

    async def _exchange(
        self, request: RequestLike, timeout: Optional[float], trace=None, handle=None
    ) -> Response:
        """Register, send and await one request; a ``subscribe``'s ``handle``
        takes the request's id and is routable before the frame leaves."""
        request_id = self._core.allocate()
        frame = self._core.encode(request_id, request, trace)
        if handle is not None:
            handle.id = request_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._core.expect(request_id, future, handle)
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except OSError as error:
            self._fail(ConnectionError(f"connection failed: {error}"))
            raise ConnectionError(f"connection failed: {error}") from None
        effective = self.timeout if timeout is None else timeout
        try:
            return await asyncio.wait_for(future, effective)
        except asyncio.TimeoutError:
            self._core.abandon(request_id)  # the late reply gets discarded
            raise TimeoutError(
                f"request {request_id} timed out after {effective}s "
                "(only this request failed; the connection is still usable)"
            ) from None

    async def _read_loop(self) -> None:
        try:
            while True:
                framed = await read_frame_any_async(self._reader, self._core.max_frame_bytes)
                if framed is None:
                    raise FrameError("server closed the connection")
                routed = self._core.receive(*framed)
                if routed is None:
                    continue
                waiter, value, push = routed
                if push:
                    waiter._absorb(value)
                elif not waiter.done():
                    waiter.set_result(value)
        except (FrameError, OSError) as error:
            self._fail(ConnectionError(f"connection failed: {error}"))
        except asyncio.CancelledError:
            self._fail(ConnectionError("client is closed"))
            raise

    def _fail(self, error: BaseException) -> None:
        waiters, handles = self._core.fail_all(error)
        for future in waiters:
            if not future.done():
                future.set_exception(error)
        for subscription in handles:
            subscription._fail(error)

    # -- standing queries ----------------------------------------------------------

    async def _subscribe(
        self, request: SubscribeRequest, timeout: Optional[float]
    ) -> AsyncSubscription:
        subscription = AsyncSubscription(self, request.collection)
        try:
            response = await self._exchange(request, timeout, handle=subscription)
            response.raise_for_error()
        except BaseException:
            self._core.release(subscription.id)
            raise
        subscription._open(response)
        return subscription

    async def _unsubscribe(self, subscription: AsyncSubscription, timeout: Optional[float]) -> None:
        """Cancel one standing query; the server's reply ends the stream."""
        if self._core.release(subscription.id) is None:
            return  # already ended (terminal error, poison, double call)
        request = self.unsubscribe_request(subscription.id, collection=subscription.collection)
        try:
            response = await self.execute(request, timeout=timeout)
        finally:
            subscription._finish()
        response.raise_for_error()

    async def close(self) -> None:
        """Close the connection (idempotent); in-flight requests fail cleanly."""
        self._fail(ConnectionError("client is closed"))
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
        except OSError:
            pass

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def __repr__(self) -> str:
        return f"AsyncClient({'closed' if self.closed else 'open'})"
