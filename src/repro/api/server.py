"""A threaded TCP server exposing one :class:`Database` to remote clients.

:class:`DatabaseServer` is the stdlib-only threaded transport: every client
connection gets its own handler thread, all sharing the one database.  The
handler only moves bytes — it reads one frame, hands it to the
connection's :class:`~repro.api.connection.ServerConnection` (which owns
every protocol decision, shared with the asyncio transport in
:mod:`repro.api.aserver`), writes the reply it gets back, and honours the
close/shutdown flags.  Because the session dispatch behind it is
byte-for-byte the same code the in-process facade runs, a remote answer's
:meth:`~repro.api.responses.Response.result_bytes` equal the in-process
answer's — the server adds transport, never semantics.

Requests on one connection are processed in arrival order (pipelining
removes round-trip waits, not ordering); the asyncio transport serves many
*connections* without a thread each.

Error discipline: malformed requests come back as typed error envelopes on
a healthy connection; *frame-level* violations (torn frame, oversized
payload, not-JSON) are answered with one final ``protocol`` envelope and
the connection is closed, because a byte stream cannot be resynchronised
after a bad frame.  An ``admin``/``shutdown`` request is acknowledged and
then stops the whole server — that is how scripted deployments (and the CI
smoke job) exit cleanly.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Optional

from repro.api.connection import ServerConnection, ServerMetrics
from repro.api.database import Database
from repro.api.protocol import DEFAULT_MAX_FRAME_BYTES, FrameError, read_frame_any

#: Host the server binds by default (loopback: serving is opt-in).
DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``repro-topk serve`` (0 picks an ephemeral port).
DEFAULT_PORT = 7421


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: a frame loop around a :class:`ServerConnection`."""

    server: "_TCPServer"

    # response frames are small; without this a pipelined client's replies
    # queue behind Nagle + delayed ACKs (~40ms each, since a waiting client
    # sends nothing to piggyback ACKs on).  The asyncio transport disables
    # Nagle by default; this keeps both transports on equal footing.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server = self.server
        limit = server.max_frame_bytes
        server.metrics.connections.inc()
        # pushes are written by per-subscription sender threads while this
        # thread writes replies: the lock keeps frames whole on the stream
        send_lock = threading.Lock()

        def send(data: bytes) -> None:
            with send_lock:
                self.wfile.write(data)
                self.wfile.flush()

        connection = ServerConnection(server.database, limit, server.metrics, send)
        try:
            while not server.stopping:
                try:
                    framed = read_frame_any(self.rfile, limit, server.metrics.bytes_in)
                except FrameError as error:
                    reply = connection.frame_error(error)
                else:
                    if framed is None:  # client hung up cleanly
                        return
                    reply = connection.receive(*framed)
                if reply.data:
                    send(reply.data)
                if reply.shutdown:
                    server.initiate_shutdown()
                if reply.close:
                    return
        except OSError:  # client aborted (RST, timeout): a clean close, not a crash
            return
        finally:
            connection.close()


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, database: Database, max_frame_bytes: int) -> None:
        super().__init__(address, _Handler)
        self.database = database
        self.max_frame_bytes = max_frame_bytes
        self.metrics = ServerMetrics("threaded")
        self.stopping = False
        self._loop_lock = threading.Lock()
        self._loop_started = False

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        with self._loop_lock:
            if self.stopping:
                return
            self._loop_started = True
        super().serve_forever(poll_interval)

    def stop_loop(self) -> None:
        """Stop the serve loop, also when it never ran.

        ``BaseServer.shutdown()`` waits on an event only ``serve_forever()``
        sets, so calling it on a server whose loop never started would hang
        forever; the flag handshake makes stopping safe in every state.
        """
        with self._loop_lock:
            self.stopping = True
            started = self._loop_started
        if started:
            self.shutdown()

    def initiate_shutdown(self) -> None:
        """Stop the serve loop without blocking the calling handler thread."""
        if self.stopping:
            return
        # stop_loop() blocks until serve_forever() exits, so run it off-thread
        threading.Thread(
            target=self.stop_loop, name="repro-server-shutdown", daemon=True
        ).start()


class DatabaseServer:
    """Serve one :class:`Database` over length-prefixed JSON frames.

    Parameters
    ----------
    database:
        The database to share across every client connection.  The server
        does **not** close it; the caller owns its lifecycle.
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port (read the
        actual one from :attr:`address`).
    max_frame_bytes:
        Upper bound on one request/response payload.

    Examples
    --------
    >>> from repro.core.ranking import RankingSet
    >>> database = Database()
    >>> _ = database.create_static("demo", RankingSet.from_lists([[1, 2, 3], [4, 5, 6]]))
    >>> with DatabaseServer(database, port=0) as server:
    ...     host, port = server.address
    ...     # clients connect to (host, port) here
    >>> database.close()
    """

    def __init__(
        self,
        database: Database,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._database = database
        self._server = _TCPServer((host, port), database, max_frame_bytes)
        self._thread: Optional[threading.Thread] = None

    @property
    def database(self) -> Database:
        """The served database."""
        return self._database

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (the real port, also when 0 was asked)."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Serve on a background thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-server", daemon=True
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (or a
        client's ``admin``/``shutdown`` request) stops the loop."""
        self._server.serve_forever()

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until a background :meth:`start` thread exits."""
        if self._thread is not None:
            self._thread.join(timeout)

    def shutdown(self) -> None:
        """Stop the serve loop (idempotent, callable from any thread, safe
        also when the loop was never started)."""
        self._server.stop_loop()

    def close(self) -> None:
        """Stop serving and release the listening socket."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "DatabaseServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        host, port = self.address
        return f"DatabaseServer({host}:{port}, collections={self._database.names()})"
