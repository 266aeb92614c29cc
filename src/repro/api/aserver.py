"""The asyncio wire transport: many connections, no thread per connection.

:class:`AsyncDatabaseServer` serves the same :class:`~repro.api.database.Database`
as the threaded :class:`~repro.api.server.DatabaseServer`, over the same
frames — answers stay byte-identical to in-process calls, and identical
between the two transports, because every protocol decision is made by the
one :class:`~repro.api.connection.ServerConnection` both of them feed.
What changes is the concurrency model:

* **I/O** for every connection is multiplexed on one event loop — ten
  thousand idle connections cost ten thousand coroutines, not ten thousand
  threads;
* **dispatch** (``ServerConnection.receive``, which is CPU-bound Python)
  runs on a small bounded worker pool via ``run_in_executor``, so one slow
  query never stalls the other connections' reads and writes.

Requests on one connection are processed in arrival order — pipelining
removes round-trip waits while keeping mutation streams deterministic (a
pipelined insert→delete pair lands in the order it was sent, which is what
makes pipelined execution byte-identical to sequential execution).  Many
*connections* make progress concurrently, bounded by the worker pool.

The server is async-native (``await server.start_async()`` inside a running
loop) and also embeds in synchronous programs: :meth:`start` boots a
daemon thread running a private event loop, mirroring the threaded
server's ``start``/``close``/context-manager surface so benchmarks, tests,
and the CLI can swap transports with one flag.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.api.connection import ServerConnection, ServerMetrics
from repro.api.database import Database
from repro.api.protocol import DEFAULT_MAX_FRAME_BYTES, FrameError, read_frame_any_async
from repro.api.server import DEFAULT_HOST, DEFAULT_PORT

#: How long a push write may sit in the event loop before the sender gives
#: up and drops the subscription (the connection is considered gone).
PUSH_WRITE_TIMEOUT_SECONDS = 30.0

#: Default size of the dispatch worker pool (CPU-bound Python holds the GIL,
#: so a handful of workers saturates; more just buys queueing fairness).
DEFAULT_DISPATCH_WORKERS = 8


class AsyncDatabaseServer:
    """Serve one :class:`Database` on an asyncio event loop.

    Parameters
    ----------
    database:
        The database shared by every connection (caller owns its lifecycle).
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port.
    max_frame_bytes:
        Upper bound on one request/response payload.
    dispatch_workers:
        Size of the worker pool ``ServerConnection.receive`` runs on.

    Examples
    --------
    Synchronous embedding (mirrors :class:`DatabaseServer`)::

        with AsyncDatabaseServer(database, port=0) as server:
            host, port = server.address
            ...  # clients connect here

    Async-native::

        server = AsyncDatabaseServer(database, port=0)
        await server.start_async()
        await server.wait_stopped()
    """

    def __init__(
        self,
        database: Database,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        dispatch_workers: int = DEFAULT_DISPATCH_WORKERS,
    ) -> None:
        if dispatch_workers <= 0:
            raise ValueError(f"dispatch_workers must be positive, got {dispatch_workers}")
        self._database = database
        self._host = host
        self._port = port
        self.max_frame_bytes = max_frame_bytes
        self._pool = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="repro-aserver"
        )
        self._metrics = ServerMetrics("asyncio")
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._address: Optional[tuple[str, int]] = None
        # sync-bridge state
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._boot_error: Optional[BaseException] = None

    @property
    def database(self) -> Database:
        """The served database."""
        return self._database

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` once the server is listening."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    # -- async-native lifecycle ----------------------------------------------------

    async def start_async(self) -> tuple[str, int]:
        """Start listening inside the running event loop; returns the address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (str(sockname[0]), int(sockname[1]))
        return self._address

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` (or an admin/shutdown request)."""
        assert self._stop_event is not None, "server is not started"
        await self._stop_event.wait()

    def stop(self) -> None:
        """Signal the serve loop to stop (thread-safe, idempotent)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # the loop already exited (e.g. an admin/shutdown stopped it)

    async def aclose(self) -> None:
        """Stop listening and release the socket (connections finish closing)."""
        self.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)

    # -- one connection ------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        limit = self.max_frame_bytes
        metrics = self._metrics
        metrics.connections.inc()
        loop = asyncio.get_running_loop()

        async def write(data: bytes) -> None:
            # on the loop writer.write() enqueues each frame's bytes atomically
            writer.write(data)
            await writer.drain()

        def send(data: bytes) -> None:
            # runs on a subscription's sender thread: hop onto the loop
            future = asyncio.run_coroutine_threadsafe(write(data), loop)
            future.result(timeout=PUSH_WRITE_TIMEOUT_SECONDS)

        connection = ServerConnection(self._database, limit, metrics, send)
        try:
            while self._stop_event is not None and not self._stop_event.is_set():
                try:
                    framed = await read_frame_any_async(reader, limit, metrics.bytes_in)
                except FrameError as error:
                    reply = connection.frame_error(error)
                else:
                    if framed is None:
                        return
                    # CPU-bound dispatch happens off-loop so other connections'
                    # I/O keeps flowing; per-connection order is preserved by
                    # awaiting before reading the next frame.  A request's
                    # trace is installed inside the worker thread, so tracing
                    # needs no contextvar propagation across the hop.
                    reply = await loop.run_in_executor(
                        self._pool, connection.receive, *framed
                    )
                if reply.data:
                    await write(reply.data)
                if reply.shutdown:
                    self.stop()
                if reply.close:
                    return
        except (ConnectionError, OSError):
            pass  # client went away; nothing to clean beyond the finally
        finally:
            connection.close()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- sync bridge (runs a private event loop on a daemon thread) -----------------

    def start(self) -> tuple[str, int]:
        """Serve on a background thread with its own loop; returns the address."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_bridge, name="repro-aserver", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._boot_error is not None:
            error, self._boot_error = self._boot_error, None
            self._thread = None  # the bridge thread is already dead
            if isinstance(error, OSError):
                raise error  # e.g. address in use — callers handle OSError
            raise RuntimeError("async server failed to start") from error
        return self.address

    def _run_bridge(self) -> None:
        try:
            asyncio.run(self._bridge_main())
        except BaseException as error:  # repro: noqa[no-bare-except] start() re-raises _boot_error
            self._boot_error = error
            self._started.set()

    async def _bridge_main(self) -> None:
        await self.start_async()
        self._started.set()
        try:
            await self.wait_stopped()
        finally:
            await self.aclose()

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the background thread exits (e.g. after admin/shutdown)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def close(self) -> None:
        """Stop the loop, join the background thread, release everything."""
        self.stop()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "AsyncDatabaseServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        where = f"{self._address[0]}:{self._address[1]}" if self._address else "unbound"
        return f"AsyncDatabaseServer({where}, collections={self._database.names()})"
