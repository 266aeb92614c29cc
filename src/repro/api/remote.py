"""Remote shard transport: fan sub-queries out to shard servers.

:class:`RemoteShardExecutor` implements the
:class:`~repro.service.sharding.RemoteExecutorLike` seam over protocol v2:
shard ``i`` of the index maps to server ``i`` in ``addresses``, each
holding that shard's :class:`~repro.core.ranking.RankingSet` as a
collection (provision them with
:func:`~repro.service.sharding.partition_rankings`, the CLI's
``serve --shard i/n``, or wire DDL).  One pipelined
:class:`~repro.api.client.Client` per server is opened lazily and reused;
a fan-out submits every shard's sub-query first and only then collects, so
the shards compute concurrently — across *machines*, which is what lifts
the GIL ceiling one process cannot::

    ShardedIndex             RemoteShardExecutor          shard servers
    range_query(q, θ) ──►  submit q to every server ──►  [0] range over shard 0
         merge       ◄──   collect by request id   ◄──   [1] range over shard 1

Answers are identical to the local fan-out's because each shard server
runs the very same per-shard computation (a range query, or an exact local
top-k via the k-NN request) on the very same shard data, and local ids
inside a round-robin shard agree between coordinator and server.

Failure semantics: a server that cannot answer raises the typed error its
envelope carries (unknown collection, invalid request, ...); transport
failures surface as ``ConnectionError`` naming the shard.  A poisoned
connection is re-established on the next query, so one crashed sub-query
does not permanently sideline a shard.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Optional, Sequence, Union

from repro.api.client import Client, PendingReply
from repro.api.protocol import DEFAULT_MAX_FRAME_BYTES
from repro.api.requests import DEFAULT_COLLECTION, KnnRequest, RangeQueryRequest, Request
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry
from repro.obs.tracing import current_trace

#: One shard server's location: ``(host, port)`` or ``"host:port"``.
Address = Union[tuple[str, int], str]


def _parse_address(address: Address) -> tuple[str, int]:
    if isinstance(address, str):
        host, separator, port = address.rpartition(":")
        if not separator or not host:
            raise ValueError(f"address must look like 'host:port', got {address!r}")
        try:
            return host, int(port)
        except ValueError:
            raise ValueError(f"address has a non-integer port: {address!r}") from None
    host, port = address
    return str(host), int(port)


class RemoteShardExecutor:
    """Execute :class:`~repro.service.sharding.ShardedIndex` fan-outs remotely.

    Parameters
    ----------
    addresses:
        One shard server per shard, in shard order.
    collection:
        The collection name every shard server serves its shard under.
    timeout:
        Seconds to wait for each sub-query's reply.
    max_frame_bytes:
        Frame limit for the per-server connections.
    connect_retries:
        Extra connection attempts per shard before a fan-out gives up on
        it.  A restarting shard server (or a listen backlog hiccup) is
        invisible to callers as long as it comes back within the retry
        budget; every failed attempt still counts in
        ``repro_remote_fanout_errors_total``.
    backoff:
        Base of the jittered exponential backoff between attempts, in
        seconds (attempt ``n`` sleeps ``backoff * 2^n``, randomly scaled
        to 50–100% so N coordinators retrying the same dead server do
        not reconnect in lockstep).
    wire_format:
        ``"binary"`` sends the fan-out's query frames as RBF binary
        envelopes when a shard server advertises support (per-connection
        negotiation; JSON fallback otherwise).  Default ``"json"``.
    """

    def __init__(
        self,
        addresses: Sequence[Address],
        *,
        collection: str = DEFAULT_COLLECTION,
        timeout: Optional[float] = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        connect_retries: int = 2,
        backoff: float = 0.05,
        wire_format: str = "json",
    ) -> None:
        if not addresses:
            raise ValueError("RemoteShardExecutor needs at least one shard server address")
        if connect_retries < 0:
            raise ValueError(f"connect_retries must be non-negative, got {connect_retries}")
        self._addresses = [_parse_address(address) for address in addresses]
        self._collection = collection
        self._timeout = timeout
        self._max_frame_bytes = max_frame_bytes
        self._connect_retries = connect_retries
        self._backoff = backoff
        self._wire_format = wire_format
        self._clients: list[Optional[Client]] = [None] * len(self._addresses)
        self._lock = threading.Lock()  # guards the client slots, not the wire
        registry = get_registry()
        self._m_latency = [
            registry.histogram(
                metric_names.REMOTE_FANOUT_SECONDS,
                "Wall time from fan-out start to each shard server's reply.",
                shard=str(shard),
            )
            for shard in range(len(self._addresses))
        ]
        self._m_errors = [
            registry.counter(
                metric_names.REMOTE_FANOUT_ERRORS_TOTAL,
                "Sub-queries that failed (transport or typed error).",
                shard=str(shard),
            )
            for shard in range(len(self._addresses))
        ]

    @property
    def addresses(self) -> list[tuple[str, int]]:
        """The shard servers, in shard order."""
        return list(self._addresses)

    @property
    def num_servers(self) -> int:
        """How many shard servers (and therefore shards) this executor serves."""
        return len(self._addresses)

    # -- the RemoteExecutorLike surface --------------------------------------------

    def range_shards(
        self,
        items: tuple[int, ...],
        theta: float,
        algorithm: Optional[str],
        num_shards: int,
    ) -> list[list[tuple[int, float]]]:
        """Per-shard ``(local rid, distance)`` pairs for one range query."""
        responses = self._fan_out(
            num_shards,
            lambda: RangeQueryRequest(
                collection=self._collection, items=items, theta=theta, algorithm=algorithm
            ),
        )
        return [
            [(match.rid, match.distance) for match in response.matches or ()]
            for response in responses
        ]

    def knn_shards(
        self,
        items: tuple[int, ...],
        n_neighbours: int,
        algorithm: Optional[str],
        num_shards: int,
    ) -> list[list[tuple[float, int]]]:
        """Per-shard exact local top-k as ``(distance, local rid)`` pairs.

        The shard server's k-NN request runs the same
        :func:`~repro.algorithms.knn.exact_local_top` expansion a local
        executor runs, so the pairs (including brute-force fallbacks on
        short shards) are identical.
        """
        responses = self._fan_out(
            num_shards,
            lambda: KnnRequest(
                collection=self._collection, items=items, k=n_neighbours, algorithm=algorithm
            ),
        )
        return [
            [(match.distance, match.rid) for match in response.matches or ()]
            for response in responses
        ]

    # -- plumbing ------------------------------------------------------------------

    def _fan_out(self, num_shards: int, make_request) -> list:
        """Submit one request per shard server, then collect every reply.

        When a trace is active the coordinator's trace id is propagated on
        every sub-query's envelope, and each shard server's span tree comes
        back grafted under a ``shard-i`` span — one tree across processes.
        """
        if num_shards != len(self._addresses):
            raise ValueError(
                f"remote executor serves {len(self._addresses)} shard server(s) but the"
                f" index fans out over {num_shards} shard(s); partition the collection"
                f" with num_shards={len(self._addresses)} (see partition_rankings)"
            )
        trace = current_trace()
        propagated = trace.trace_id if trace is not None else None
        start = time.perf_counter()
        pending: list[tuple[int, PendingReply]] = []
        for shard in range(num_shards):
            request: Request = make_request()
            try:
                pending.append(
                    (shard, self._client(shard).submit(request, trace=propagated))
                )
            except (ConnectionError, OSError) as error:
                self._m_errors[shard].inc()
                self._discard(shard)
                raise ConnectionError(
                    f"shard {shard} ({self._where(shard)}) failed: {error}"
                ) from None
        responses = []
        for shard, reply in pending:
            try:
                response = reply.result(self._timeout)
            except (ConnectionError, OSError, TimeoutError) as error:
                self._m_errors[shard].inc()
                if isinstance(error, ConnectionError):
                    self._discard(shard)
                raise type(error)(
                    f"shard {shard} ({self._where(shard)}) failed: {error}"
                ) from None
            self._m_latency[shard].observe(time.perf_counter() - start)
            if not response.ok:
                self._m_errors[shard].inc()
            response.raise_for_error()
            if trace is not None and response.trace is not None:
                trace.attach_remote(f"shard-{shard}", response.trace, shard=shard)
            responses.append(response)
        return responses

    def _where(self, shard: int) -> str:
        host, port = self._addresses[shard]
        return f"{host}:{port}"

    def _client(self, shard: int) -> Client:
        with self._lock:
            client = self._clients[shard]
        if client is not None and not client.closed:
            return client
        fresh = self._connect(shard)
        with self._lock:
            current = self._clients[shard]
            if current is not None and not current.closed:
                # lost a connect race; use the winner (connections are cheap)
                winner = current
            else:
                self._clients[shard] = winner = fresh
        if winner is not fresh:
            fresh.close()
        return winner

    def _connect(self, shard: int) -> Client:
        """Open a connection to ``shard``, retrying with jittered backoff.

        Only the *last* failure propagates; earlier ones are counted and
        slept away, which is what lets a fan-out ride out a shard server
        restart instead of failing the whole query.
        """
        host, port = self._addresses[shard]
        for attempt in range(self._connect_retries + 1):
            try:
                return Client(
                    host,
                    port,
                    timeout=self._timeout,
                    max_frame_bytes=self._max_frame_bytes,
                    wire_format=self._wire_format,
                )
            except (ConnectionError, OSError):
                self._m_errors[shard].inc()
                if attempt == self._connect_retries:
                    raise
                delay = self._backoff * (2**attempt)
                time.sleep(delay * (0.5 + random.random() / 2))
        raise AssertionError("unreachable")  # pragma: no cover

    def _discard(self, shard: int) -> None:
        with self._lock:
            client, self._clients[shard] = self._clients[shard], None
        if client is not None:
            client.close()

    def close(self) -> None:
        """Close every shard connection (the executor stays reusable)."""
        for shard in range(len(self._clients)):
            self._discard(shard)

    def __enter__(self) -> "RemoteShardExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        where = ", ".join(self._where(shard) for shard in range(len(self._addresses)))
        return f"RemoteShardExecutor([{where}], collection={self._collection!r})"
