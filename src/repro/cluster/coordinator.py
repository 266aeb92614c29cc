"""The coordinator: membership, routing, replication, failover, resharding.

One :class:`Coordinator` turns a set of *empty* shard servers into a
clustered live collection:

* **Provisioning** — each node gets the collection created over the
  existing wire DDL (``admin create``) and a versioned routing table
  pushed via ``admin route`` together with its role (primary/replica) and
  shard id.
* **Mutations** flow through the coordinator, which allocates insert keys
  centrally (so clustered key assignment matches a single node's), routes
  each write to the owning primary by key hash, and appends the accepted
  record to a per-shard logical WAL.  *Committed = acknowledged to the
  client = present in that log.*
* **Replication** — a background shipper sends group-commit batches of
  logged records to follower replicas (``admin replicate``), tracking each
  replica's applied sequence number; the log is trimmed below the slowest
  replica, which bounds replay at failover exactly the way the manifest's
  ``covered_seq`` bounds restart replay.
* **Failover** — heartbeats (pipelined v2 ``ping`` frames) detect dead
  nodes; a dead primary's best replica is caught up from the retained log
  tail, promoted (``admin promote``), and published in a new table
  version.  Because every acknowledged write is in the coordinator log,
  promotion loses no committed write.  The mutation and query paths also
  fail over *immediately* on connection errors rather than waiting a
  heartbeat round.
* **Resharding** moves hash slots between shards online: a migration
  buffer captures concurrent writes, the source's state is backfilled
  from ``admin export``, the buffer is drained, the table version flips
  atomically (all shard write locks held for the blink of the swap — the
  epoch-swap idea compaction already uses), and the moved keys are
  tombstone-forwarded off the old owner.

* **Queries** fan out unpaginated to every shard primary and merge by
  ``(distance, key)``; answers are byte-identical to a single
  :class:`~repro.live.collection.LiveCollection` holding the same data
  (see :mod:`repro.cluster.merge`).

A coordinator duck-types the server contract (``session()`` / ``names()``
/ ``execute()``), so :class:`~repro.api.server.DatabaseServer` can serve
it directly: clients speak the exact same protocol to a cluster as to a
single node.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Optional, Sequence

from repro.api.client import Client
from repro.api.requests import (
    AdminRequest,
    BatchRequest,
    DeleteRequest,
    InsertRequest,
    KnnRequest,
    RangeQueryRequest,
    Request,
    RequestLike,
    UpsertRequest,
    parse_request,
)
from repro.api.responses import Response, error_response
from repro.cluster.merge import (
    merge_batch_responses,
    merge_knn_responses,
    merge_range_responses,
)
from repro.cluster.routing import DEFAULT_NUM_SLOTS, RoutingTable, ShardSpec
from repro.api.surface import ExecutorSurface
from repro.core.errors import (
    CollectionClosedError,
    InvalidRequestError,
    RankingSizeMismatchError,
    UnknownCollectionError,
)
from repro.core.ranking import Ranking
from repro.devtools.locktrace import make_lock
from repro.live.wal import WalRecord
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry, merge_snapshots, render_prometheus

logger = logging.getLogger(__name__)

__all__ = ["Coordinator"]

#: Admin actions a coordinator answers itself (vs. fanning out / rejecting).
_QUERY_TYPES = (RangeQueryRequest, KnnRequest, BatchRequest)

#: Errors meaning "that node is gone" at the transport level.
_NODE_ERRORS = (ConnectionError, OSError, TimeoutError)


def _is_dead_node_response(response: Response) -> bool:
    """A closing server can still answer one last frame — with this error."""
    return (
        not response.ok
        and response.error is not None
        and response.error.code == "collection_closed"
    )


class _Node:
    """One shard server: its address, cached client, and health."""

    def __init__(self, address: str) -> None:
        self.address = address
        host, _, port = address.rpartition(":")
        self.host = host
        self.port = int(port)
        self.client: Optional[Client] = None  # guarded-by: lock
        #: `alive`/`misses` are written by the heartbeat thread; other
        #: threads read them optimistically and recover via retry.
        self.alive = True
        self.misses = 0
        self.lock = make_lock(f"cluster.node:{address}")


class _Shard:
    """One shard's coordinator-side replication state."""

    def __init__(self, shard_id: int, primary: str, replicas: Sequence[str]) -> None:
        self.shard_id = shard_id
        self.primary = primary
        self.replicas: list[str] = list(replicas)
        #: Mutations are serialized per shard: the lock also orders the log.
        #: Reentrant: reshard's atomic flip holds every shard lock and still
        #: routes writes through _shard_write, which re-acquires its shard's.
        self.lock = make_lock(f"cluster.shard:{shard_id}", reentrant=True)
        self.seq = 0  # guarded-by: lock
        self.log: deque[WalRecord] = deque()  # guarded-by: lock
        #: Per-replica acknowledged (applied) sequence numbers; written by
        #: the single shipper thread and under the lock at failover.
        self.applied: dict[str, int] = {addr: 0 for addr in replicas}

    def spec(self) -> ShardSpec:
        return ShardSpec(self.shard_id, self.primary, tuple(self.replicas))


class _Migration:
    """An in-flight reshard: the moving slots and the write capture buffer."""

    def __init__(self, moves: dict[int, int]) -> None:
        self.moves = dict(moves)
        self.slots = set(moves)
        self.buffer: deque[tuple[str, int, Optional[tuple[int, ...]]]] = deque()


class Coordinator(ExecutorSurface):
    """Self-assembling cluster control plane over plain shard servers.

    Parameters
    ----------
    nodes:
        ``"host:port"`` addresses of *empty* servers (``serve --empty``).
        The first ``num_shards * (1 + replicas)`` become shard groups in
        order; the rest are recorded as spares.
    num_shards / replicas:
        Topology shape.  ``num_shards`` defaults to however many groups of
        ``1 + replicas`` the node list can fill.
    address:
        The coordinator's own advertised ``host:port`` (embedded in routing
        tables so stale clients can find their way back).
    wire_format:
        ``"binary"`` ships queries and replication batches to shard
        servers as RBF binary envelopes when they advertise support
        (negotiated per connection; JSON fallback otherwise).
    """

    def __init__(
        self,
        nodes: Sequence[str],
        *,
        collection: str = "default",
        num_shards: Optional[int] = None,
        replicas: int = 1,
        num_slots: int = DEFAULT_NUM_SLOTS,
        algorithm: Optional[str] = None,
        heartbeat_interval: float = 0.5,
        miss_threshold: int = 3,
        ship_interval: float = 0.02,
        ship_batch: int = 128,
        timeout: float = 10.0,
        address: Optional[str] = None,
        wire_format: str = "json",
    ) -> None:
        if replicas < 0:
            raise InvalidRequestError(f"replicas must be non-negative, got {replicas}")
        group = 1 + replicas
        if num_shards is None:
            num_shards = len(nodes) // group
        if num_shards <= 0 or len(nodes) < num_shards * group:
            raise InvalidRequestError(
                f"{len(nodes)} nodes cannot host {num_shards} shards x {group} members"
            )
        self._collection = collection
        self._replica_count = replicas
        self._num_slots = num_slots
        self._algorithm = algorithm
        self._heartbeat_interval = heartbeat_interval
        self._miss_threshold = miss_threshold
        self._ship_interval = ship_interval
        self._ship_batch = ship_batch
        self._timeout = timeout
        self._address = address
        self._wire_format = wire_format

        self._nodes: dict[str, _Node] = {addr: _Node(addr) for addr in nodes}
        self._shards: list[_Shard] = []
        for shard_id in range(num_shards):
            members = list(nodes[shard_id * group : (shard_id + 1) * group])
            self._shards.append(_Shard(shard_id, members[0], members[1:]))
        self._spares: list[str] = list(nodes[num_shards * group :])

        self._table: Optional[RoutingTable] = None  # guarded-by: _table_lock
        self._table_lock = make_lock("Coordinator._table_lock")
        #: Set/cleared only by the single admin reshard path; _shard_write
        #: reads it under its shard lock, status() reads it racily.
        self._migration: Optional[_Migration] = None
        self._k: Optional[int] = None  # guarded-by: _alloc_lock
        self._next_key = 0  # guarded-by: _alloc_lock
        self._alloc_lock = make_lock("Coordinator._alloc_lock")
        self._closed = False
        self._started = False
        self._stop = threading.Event()
        self._ship_event = threading.Event()
        self._ship_thread: Optional[threading.Thread] = None
        self._heartbeat_thread: Optional[threading.Thread] = None

        registry = get_registry()
        self._m_failovers = {
            shard.shard_id: registry.counter(
                metric_names.CLUSTER_FAILOVERS_TOTAL,
                "Replica promotions after a primary was lost.",
                shard=str(shard.shard_id),
            )
            for shard in self._shards
        }
        self._m_lag = {
            shard.shard_id: registry.gauge(
                metric_names.CLUSTER_REPLICATION_LAG,
                "Records the slowest live replica of a shard still has to apply.",
                shard=str(shard.shard_id),
            )
            for shard in self._shards
        }
        self._m_shipped = {
            shard.shard_id: registry.counter(
                metric_names.CLUSTER_SHIPPED_RECORDS_TOTAL,
                "WAL records acknowledged by replicas.",
                shard=str(shard.shard_id),
            )
            for shard in self._shards
        }
        self._m_version = registry.gauge(
            metric_names.CLUSTER_ROUTING_VERSION,
            "Version of the routing table installed on this node.",
            collection=collection,
        )
        self._m_reshards = registry.counter(
            metric_names.CLUSTER_RESHARDS_TOTAL, "Completed online slot migrations."
        )

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "Coordinator":
        """Provision every node (wire DDL + routing push) and start the
        shipper and heartbeat threads."""
        if self._started:
            return self
        table = RoutingTable.assign(
            self._collection,
            [shard.spec() for shard in self._shards],
            num_slots=self._num_slots,
            coordinator=self._address,
        )
        for shard in self._shards:
            for addr in (shard.primary, *shard.replicas):
                client = self._client(self._nodes[addr])
                client.execute(
                    AdminRequest(
                        collection=self._collection,
                        action="create",
                        engine="live",
                        algorithm=self._algorithm,
                    )
                ).raise_for_error()
        for addr in self._spares:
            # touch spares so a dead spare is discovered at `up`, not later
            self._client(self._nodes[addr]).execute(
                AdminRequest(collection=self._collection, action="ping")
            ).raise_for_error()
        self._install_table(table)
        self._started = True
        self._ship_thread = threading.Thread(
            target=self._ship_loop, name="cluster-shipper", daemon=True
        )
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="cluster-heartbeat", daemon=True
        )
        self._ship_thread.start()
        self._heartbeat_thread.start()
        return self

    def close(self) -> None:
        """Stop the background threads and drop every node connection."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._ship_event.set()
        for thread in (self._ship_thread, self._heartbeat_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        for node in self._nodes.values():
            self._discard_client(node)

    def shutdown_nodes(self) -> None:
        """Send ``admin shutdown`` to every node that still answers."""
        for node in self._nodes.values():
            try:
                self._client(node).shutdown_server()
            except _NODE_ERRORS:
                pass
            self._discard_client(node)

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- server duck type ------------------------------------------------------------

    def session(self) -> "Coordinator":
        """The server contract: a coordinator is its own (stateless) session."""
        return self

    def names(self) -> list[str]:
        return [self._collection]

    @property
    def collection(self) -> str:
        return self._collection

    @property
    def address(self) -> Optional[str]:
        """The advertised ``host:port`` embedded in routing tables."""
        return self._address

    @address.setter
    def address(self, value: Optional[str]) -> None:
        if self._started:
            raise RuntimeError("set the advertised address before start()")
        self._address = value

    @property
    def routing_table(self) -> RoutingTable:
        with self._table_lock:
            table = self._table
        assert table is not None, "coordinator not started"
        return table

    # -- dispatch --------------------------------------------------------------------

    def execute(self, request: RequestLike) -> Response:
        """Answer one request; failures become typed error envelopes."""
        try:
            parsed = parse_request(request)
        except Exception as error:
            return error_response(error)
        try:
            if self._closed:
                raise CollectionClosedError("coordinator is closed")
            if not self._started:
                raise CollectionClosedError("coordinator is not started")
            if isinstance(parsed, AdminRequest):
                return self._dispatch_admin(parsed)
            if parsed.collection != self._collection:
                raise UnknownCollectionError(parsed.collection)
            if isinstance(parsed, _QUERY_TYPES):
                return self._dispatch_query(parsed)
            return self._dispatch_mutation(parsed)
        except Exception as error:
            return error_response(error)

    # -- mutations -------------------------------------------------------------------

    def _dispatch_mutation(self, request: Request) -> Response:
        if isinstance(request, InsertRequest):
            # validate before allocating, so a rejected insert burns no key
            # and raises exactly what a single node's engine would
            ranking = Ranking(request.items)
            self._check_size(ranking.size)
            with self._alloc_lock:
                key = self._next_key
                self._next_key += 1
            response = self._routed_write("upsert", key, ranking.items)
            if not response.ok:
                return response
            self._note_items(key, ranking.size)
            return Response(ok=True, key=key)
        if isinstance(request, UpsertRequest):
            ranking = Ranking(request.items)
            self._check_size(ranking.size)
            response = self._routed_write("upsert", request.key, ranking.items)
            if response.ok:
                self._note_items(request.key, ranking.size)
            return response
        assert isinstance(request, DeleteRequest), type(request).__name__
        return self._routed_write("delete", request.key, None)

    def _check_size(self, size: int) -> None:
        with self._alloc_lock:
            expected = self._k
        if expected is not None and size != expected:
            raise RankingSizeMismatchError(expected, size)

    def _note_items(self, key: int, size: int) -> None:
        with self._alloc_lock:
            if self._k is None:
                self._k = size
            self._next_key = max(self._next_key, key + 1)

    def _routed_write(
        self, op: str, key: int, items: Optional[tuple[int, ...]]
    ) -> Response:
        table = self.routing_table
        return self._shard_write(table.owner_of(key), op, key, items)

    def _shard_write(
        self,
        shard_id: int,
        op: str,
        key: int,
        items: Optional[tuple[int, ...]],
        *,
        capture_migration: bool = True,
    ) -> Response:
        """Send one write to a shard primary; log + capture it if accepted."""
        shard = self._shards[shard_id]
        if op == "delete":
            request: Request = DeleteRequest(collection=self._collection, key=key)
        else:
            request = UpsertRequest(collection=self._collection, key=key, items=items)
        with shard.lock:
            response = self._send_primary(shard, request)
            if not response.ok:
                return response
            shard.seq += 1
            shard.log.append(WalRecord(seq=shard.seq, op=op, key=key, items=items))
            migration = self._migration
            if (
                capture_migration
                and migration is not None
                and self.routing_table.slot_of(key) in migration.slots
            ):
                migration.buffer.append((op, key, items))
        self._ship_event.set()
        return response

    def _send_primary(self, shard: _Shard, request: Request) -> Response:
        """Execute on the shard's primary, failing over once if it is gone."""
        for attempt in (0, 1):
            primary = shard.primary
            node = self._nodes[primary]
            try:
                response = self._client(node).execute(request)
            except _NODE_ERRORS as error:
                self._discard_client(node)
                if attempt == 0 and self._failover(shard, expect_primary=primary):
                    continue
                raise ConnectionError(
                    f"shard {shard.shard_id} primary {primary} unavailable: {error}"
                ) from None
            if _is_dead_node_response(response):
                if attempt == 0 and self._failover(shard, expect_primary=primary):
                    continue
                raise ConnectionError(
                    f"shard {shard.shard_id} primary {primary} is shutting down"
                )
            return response
        raise ConnectionError(f"shard {shard.shard_id} has no servable primary")

    # -- queries ---------------------------------------------------------------------

    def _dispatch_query(self, request: Request) -> Response:
        if isinstance(request, RangeQueryRequest):
            self._check_size(len(request.items))
            # fan out unpaginated; pagination is applied after the merge
            shard_request: Request = RangeQueryRequest(
                collection=self._collection,
                items=request.items,
                theta=request.theta,
                algorithm=request.algorithm,
            )
            responses = self._fan_out(shard_request)
            failed = next((entry for entry in responses if not entry.ok), None)
            if failed is not None:
                return failed
            return merge_range_responses(
                responses, limit=request.limit, cursor=request.cursor
            )
        if isinstance(request, KnnRequest):
            self._check_size(len(request.items))
            responses = self._fan_out(request)
            failed = next((entry for entry in responses if not entry.ok), None)
            if failed is not None:
                return failed
            return merge_knn_responses(responses, request.k)
        assert isinstance(request, BatchRequest)
        for items in request.queries:
            self._check_size(len(items))
        responses = self._fan_out(request)
        failed = next((entry for entry in responses if not entry.ok), None)
        if failed is not None:
            return failed
        return merge_batch_responses(responses)

    def _fan_out(self, request: Request) -> list[Response]:
        """One response per shard, pipelined; dead primaries fail over inline."""
        replies: list[Optional[object]] = []
        for shard in self._shards:
            node = self._nodes[shard.primary]
            try:
                replies.append(self._client(node).submit(request))
            except _NODE_ERRORS:
                self._discard_client(node)
                replies.append(None)
        responses: list[Response] = []
        for shard, reply in zip(self._shards, replies):
            response: Optional[Response] = None
            if reply is not None:
                try:
                    response = reply.result(self._timeout)
                except _NODE_ERRORS:
                    self._discard_client(self._nodes[shard.primary])
            if response is not None and _is_dead_node_response(response):
                response = None
            if response is None:
                primary = shard.primary
                if not self._failover(shard, expect_primary=primary):
                    raise ConnectionError(
                        f"shard {shard.shard_id} has no servable primary"
                    )
                response = self._client(self._nodes[shard.primary]).execute(request)
            responses.append(response)
        return responses

    def _fan_out_admin(self, action: str, **fields) -> dict[int, Response]:
        """One admin response per shard primary (maintenance fan-out)."""
        results: dict[int, Response] = {}
        request = AdminRequest(collection=self._collection, action=action, **fields)
        for shard in self._shards:
            results[shard.shard_id] = self._send_primary(shard, request)
        return results

    # -- admin -----------------------------------------------------------------------

    def _dispatch_admin(self, request: AdminRequest) -> Response:
        action = request.action
        if action == "ping":
            return Response(ok=True, data={"pong": True})
        if action == "shutdown":
            return Response(ok=True, data={"acknowledged": True})
        if action == "metrics":
            return self._cluster_metrics(request)
        if action == "slow_queries":
            return Response(ok=True, data={"capacity": 0, "slow_queries": []})
        if action == "collections":
            sizes = self._shard_sizes()
            info = {
                "name": self._collection,
                "kind": "live",
                "size": sum(sizes.values()),
                "algorithm": self._algorithm or "adaptive",
            }
            return Response(ok=True, data={"collections": [info]})
        if action == "route":
            if request.collection != self._collection:
                raise UnknownCollectionError(request.collection)
            if request.table is not None:
                raise InvalidRequestError(
                    "the coordinator owns the routing table; push tables to shard "
                    "servers, not to the coordinator"
                )
            return Response(
                ok=True,
                data={"routing": self.routing_table.to_dict(), "status": self.status()},
            )
        if action == "reshard":
            if request.collection != self._collection:
                raise UnknownCollectionError(request.collection)
            assert request.moves is not None  # request validation guarantees it
            return Response(ok=True, data=self.reshard(request.moves))
        if action == "stats":
            if request.collection != self._collection:
                raise UnknownCollectionError(request.collection)
            responses = self._fan_out_admin("stats")
            for entry in responses.values():
                entry.raise_for_error()
            sizes = {
                shard_id: int((entry.data or {}).get("size", 0))
                for shard_id, entry in responses.items()
            }
            return Response(
                ok=True,
                data={
                    "name": self._collection,
                    "kind": "live",
                    "cluster": True,
                    "size": sum(sizes.values()),
                    "version": self.routing_table.version,
                    "shards": {
                        str(shard_id): entry.data
                        for shard_id, entry in responses.items()
                    },
                },
            )
        if action in ("flush", "compact"):
            if request.collection != self._collection:
                raise UnknownCollectionError(request.collection)
            responses = self._fan_out_admin(action)
            for entry in responses.values():
                entry.raise_for_error()
            return Response(
                ok=True,
                data={
                    "shards": {
                        str(shard_id): entry.data
                        for shard_id, entry in responses.items()
                    }
                },
            )
        raise InvalidRequestError(
            f"admin action {action!r} is not supported on a coordinator"
        )

    def _shard_sizes(self) -> dict[int, int]:
        responses = self._fan_out_admin("stats")
        for entry in responses.values():
            entry.raise_for_error()
        return {
            shard_id: int((entry.data or {}).get("size", 0))
            for shard_id, entry in responses.items()
        }

    def _cluster_metrics(self, request: AdminRequest) -> Response:
        if request.scope != "cluster":
            snapshot = get_registry().snapshot()
            if request.format == "prometheus":
                return Response(ok=True, data={"exposition": render_prometheus(snapshot)})
            return Response(ok=True, data=snapshot)
        labelled: list[tuple[str, dict]] = [("coordinator", get_registry().snapshot())]
        scrape = AdminRequest(collection=self._collection, action="metrics")
        for node in self._nodes.values():
            if not node.alive:
                continue
            try:
                response = self._client(node).execute(scrape)
            except _NODE_ERRORS:
                self._discard_client(node)
                continue
            if response.ok and response.data is not None:
                labelled.append((node.address, response.data))
        merged = merge_snapshots(labelled)
        if request.format == "prometheus":
            return Response(ok=True, data={"exposition": render_prometheus(merged)})
        return Response(ok=True, data=merged)

    def status(self) -> dict:
        """Membership, routing version, and replication lag — ``cluster status``."""
        table = self.routing_table
        with self._alloc_lock:
            next_key = self._next_key
        shards = []
        for shard in self._shards:
            with shard.lock:
                seq = shard.seq
                replicas = [
                    {
                        "address": addr,
                        "applied_seq": shard.applied.get(addr, 0),
                        "lag": seq - shard.applied.get(addr, 0),
                        "alive": self._nodes[addr].alive,
                    }
                    for addr in shard.replicas
                ]
                shards.append(
                    {
                        "shard": shard.shard_id,
                        "primary": shard.primary,
                        "primary_alive": self._nodes[shard.primary].alive,
                        "seq": seq,
                        "log_size": len(shard.log),
                        "replicas": replicas,
                    }
                )
        return {
            "collection": self._collection,
            "version": table.version,
            "num_slots": table.num_slots,
            "coordinator": self._address,
            "next_key": next_key,
            "shards": shards,
            "spares": list(self._spares),
            "migrating": sorted(self._migration.slots) if self._migration else [],
        }

    # -- replication -----------------------------------------------------------------

    def _ship_loop(self) -> None:
        while not self._stop.is_set():
            self._ship_event.wait(self._ship_interval)
            self._ship_event.clear()
            if self._stop.is_set():
                return
            for shard in self._shards:
                try:
                    self._ship_shard(shard)
                except Exception:
                    # the shipper must survive anything; heartbeats handle death
                    logger.warning(
                        "replication shipper: shard %d ship failed",
                        shard.shard_id,
                        exc_info=True,
                    )
                    continue

    def _ship_shard(self, shard: _Shard) -> None:
        with shard.lock:
            replicas = list(shard.replicas)
            log = list(shard.log)
        for addr in replicas:
            node = self._nodes.get(addr)
            if node is None or not node.alive:
                continue
            applied = shard.applied.get(addr, 0)
            pending = [record for record in log if record.seq > applied]
            if not pending:
                continue
            batch = pending[: self._ship_batch]
            request = AdminRequest(
                collection=self._collection,
                action="replicate",
                records=tuple(_record_payload(record) for record in batch),
            )
            try:
                response = self._client(node).execute(request)
            except _NODE_ERRORS:
                self._discard_client(node)
                continue
            if response.ok:
                acked = int((response.data or {}).get("applied_seq", applied))
                if acked > shard.applied.get(addr, 0):
                    self._m_shipped[shard.shard_id].inc(
                        acked - shard.applied.get(addr, 0)
                    )
                shard.applied[addr] = acked
                if acked < batch[-1].seq:
                    # replica answered from a diverged offset; re-ship from there
                    self._ship_event.set()
            else:
                # out-of-sync replica (e.g. replication gap): re-learn its
                # applied offset with an empty probe and retry next round
                acked = self._probe_applied(addr)
                if acked is not None:
                    shard.applied[addr] = acked
                    self._ship_event.set()
        self._trim_log(shard)

    def _trim_log(self, shard: _Shard) -> None:
        with shard.lock:
            if shard.replicas:
                low = min(shard.applied.get(addr, 0) for addr in shard.replicas)
            else:
                low = shard.seq
            while shard.log and shard.log[0].seq <= low:
                shard.log.popleft()
            lag = shard.seq - low if shard.replicas else 0
        self._m_lag[shard.shard_id].set(float(max(lag, 0)))

    def _probe_applied(self, addr: str) -> Optional[int]:
        node = self._nodes.get(addr)
        if node is None:
            return None
        probe = AdminRequest(collection=self._collection, action="replicate", records=())
        try:
            response = self._client(node).execute(probe)
        except _NODE_ERRORS:
            self._discard_client(node)
            return None
        if not response.ok:
            return None
        return int((response.data or {}).get("applied_seq", 0))

    # -- heartbeats & failover -------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        ping = AdminRequest(collection=self._collection, action="ping")
        while not self._stop.is_set():
            if self._stop.wait(self._heartbeat_interval):
                return
            for node in list(self._nodes.values()):
                if not node.alive:
                    continue
                try:
                    healthy = self._client(node).execute(ping).ok
                except _NODE_ERRORS:
                    self._discard_client(node)
                    healthy = False
                except Exception:
                    logger.warning(
                        "heartbeat: probe of %s failed unexpectedly",
                        node.address,
                        exc_info=True,
                    )
                    healthy = False
                if healthy:
                    node.misses = 0
                    continue
                node.misses += 1
                get_registry().counter(
                    metric_names.CLUSTER_HEARTBEAT_MISSES_TOTAL,
                    "Consecutive-failure heartbeat probes.",
                    node=node.address,
                ).inc()
                if node.misses >= self._miss_threshold:
                    try:
                        self._on_node_dead(node)
                    except Exception:
                        # keep probing the other nodes; a failed failover
                        # retries on the next heartbeat round
                        logger.error(
                            "failover for %s failed; will retry",
                            node.address,
                            exc_info=True,
                        )
                        continue

    def _on_node_dead(self, node: _Node) -> None:
        for shard in self._shards:
            if shard.primary == node.address:
                self._failover(shard, expect_primary=node.address)
                return
            if node.address in shard.replicas:
                self._drop_replica(shard, node.address)
                return
        if node.address in self._spares:
            node.alive = False

    def _drop_replica(self, shard: _Shard, addr: str) -> None:
        with shard.lock:
            if addr not in shard.replicas:
                return
            shard.replicas.remove(addr)
            shard.applied.pop(addr, None)
            self._mark_dead(addr)
            table = self.routing_table.with_shard(shard.spec())
        self._install_table(table)
        self._trim_log(shard)

    def _failover(self, shard: _Shard, *, expect_primary: str) -> bool:
        """Promote the best replica of ``shard``; True when a primary serves.

        Reentrant and idempotent: callers pass the primary they *saw* fail,
        so a concurrent failover that already replaced it counts as done.
        """
        with shard.lock:
            if shard.primary != expect_primary:
                return True  # someone else already failed over
            candidates = [
                addr for addr in shard.replicas if self._nodes[addr].alive
            ]
            best: Optional[str] = None
            best_applied = -1
            for addr in candidates:
                applied = self._probe_applied(addr)
                if applied is None:
                    continue
                shard.applied[addr] = applied
                if applied > best_applied:
                    best, best_applied = addr, applied
            if best is None:
                self._mark_dead(expect_primary)
                return False
            # bounded replay: exactly the log tail past the replica's
            # applied seq — every acknowledged write is in that log
            tail = [record for record in shard.log if record.seq > best_applied]
            node = self._nodes[best]
            try:
                for start in range(0, len(tail), self._ship_batch):
                    batch = tail[start : start + self._ship_batch]
                    response = self._client(node).execute(
                        AdminRequest(
                            collection=self._collection,
                            action="replicate",
                            records=tuple(_record_payload(r) for r in batch),
                        )
                    )
                    if not response.ok:
                        return False
                    shard.applied[best] = int(
                        (response.data or {}).get("applied_seq", 0)
                    )
                promoted = self._client(node).execute(
                    AdminRequest(collection=self._collection, action="promote")
                )
                if not promoted.ok:
                    return False
            except _NODE_ERRORS:
                self._discard_client(node)
                return False
            self._mark_dead(expect_primary)
            shard.primary = best
            shard.replicas = [
                addr
                for addr in shard.replicas
                if addr != best and self._nodes[addr].alive
            ]
            shard.applied = {
                addr: shard.applied.get(addr, 0) for addr in shard.replicas
            }
            self._m_failovers[shard.shard_id].inc()
            table = self.routing_table.with_shard(shard.spec())
        self._install_table(table)
        self._trim_log(shard)
        return True

    def _mark_dead(self, addr: str) -> None:
        node = self._nodes.get(addr)
        if node is None:
            return
        node.alive = False
        self._discard_client(node)

    # -- resharding ------------------------------------------------------------------

    def reshard(self, moves: dict[int, int]) -> dict:
        """Move hash slots between shards online; returns a summary.

        Phases: (1) start capturing writes to the moving slots, (2)
        backfill the targets from the sources' ``admin export``, (3) drain
        the capture buffer, (4) flip the table version atomically under
        every shard's write lock, (5) tombstone-forward the moved keys off
        their old owners, (6) compact the sources.
        """
        table = self.routing_table
        effective = {
            slot: target
            for slot, target in moves.items()
            if table.slots[slot] != target
        }
        for slot, target in moves.items():
            if not 0 <= slot < table.num_slots:
                raise InvalidRequestError(f"unknown slot {slot}")
            if not 0 <= target < len(self._shards):
                raise InvalidRequestError(f"unknown target shard {target}")
        if not effective:
            return {"version": table.version, "moved_slots": 0, "moved_keys": 0}
        if self._migration is not None:
            raise InvalidRequestError("a reshard is already in progress")

        migration = _Migration(effective)
        self._migration = migration
        moved_keys: set[int] = set()
        old_owner = {slot: table.slots[slot] for slot in effective}
        forwarded = 0
        try:
            # (1b) teach the target primaries the proposed table so their
            # routing guard accepts the incoming keys during the backfill
            # (sources keep the current table: they still own the slots)
            proposed = table.with_moves(effective)
            for target in sorted(set(effective.values())):
                self._send_primary(
                    self._shards[target],
                    AdminRequest(
                        collection=self._collection,
                        action="route",
                        table=proposed.to_dict(),
                        role="primary",
                        shard_id=target,
                    ),
                ).raise_for_error()
            # (2) backfill from a consistent export of each source shard
            sources = sorted(set(old_owner.values()))
            for source in sources:
                exported = self._send_primary(
                    self._shards[source],
                    AdminRequest(collection=self._collection, action="export"),
                )
                exported.raise_for_error()
                for key, items in (exported.data or {}).get("entries", []):
                    slot = table.slot_of(key)
                    if slot not in effective or old_owner[slot] != source:
                        continue
                    self._shard_write(
                        effective[slot],
                        "upsert",
                        int(key),
                        tuple(int(item) for item in items),
                        capture_migration=False,
                    ).raise_for_error()
                    moved_keys.add(int(key))
            # (3) drain concurrent writes captured during the backfill
            self._drain_migration(migration, moved_keys)
            # (4) atomic flip: hold every shard's write lock, drain the
            # last captured writes, tombstone-forward the moved keys off
            # their old owners (through the normal logged path, so the old
            # shard's replicas drop them too — and while the sources still
            # hold the old table, whose guard permits the deletes), then
            # swap the version
            for shard in self._shards:
                shard.lock.acquire()
            try:
                self._drain_migration(migration, moved_keys)
                for key in sorted(moved_keys):
                    slot = table.slot_of(key)
                    response = self._shard_write(
                        old_owner[slot], "delete", key, None, capture_migration=False
                    )
                    if response.ok:
                        forwarded += 1
                    elif (
                        response.error is not None
                        and response.error.code == "unknown_key"
                    ):
                        continue  # deleted while migrating — already gone
                    else:
                        response.raise_for_error()
                new_table = self.routing_table.with_moves(effective)
                self._migration = None
            finally:
                for shard in reversed(self._shards):
                    shard.lock.release()
        except BaseException:
            self._migration = None
            raise
        self._install_table(new_table)
        # (5) reclaim the forwarded tombstones on the sources
        for source in sorted(set(old_owner.values())):
            try:
                self._send_primary(
                    self._shards[source],
                    AdminRequest(collection=self._collection, action="compact"),
                )
            except _NODE_ERRORS:
                pass
        self._m_reshards.inc()
        return {
            "version": new_table.version,
            "moved_slots": len(effective),
            "moved_keys": len(moved_keys),
            "forwarded_tombstones": forwarded,
        }

    def _drain_migration(self, migration: _Migration, moved_keys: set[int]) -> None:
        table = self.routing_table
        while migration.buffer:
            op, key, items = migration.buffer.popleft()
            target = migration.moves[table.slot_of(key)]
            response = self._shard_write(
                target, op, key, items, capture_migration=False
            )
            if op == "delete":
                moved_keys.discard(key)
                if (
                    not response.ok
                    and response.error is not None
                    and response.error.code == "unknown_key"
                ):
                    continue  # the key never reached the target — fine
            else:
                moved_keys.add(key)
            response.raise_for_error()

    # -- routing table / clients -----------------------------------------------------

    def _install_table(self, table: RoutingTable) -> None:
        with self._table_lock:
            current = self._table
            if current is not None and current.version >= table.version:
                return
            self._table = table
        self._m_version.set(float(table.version))
        self._push_table(table)

    def _push_table(self, table: RoutingTable) -> None:
        assignments: dict[str, tuple[str, int]] = {}
        for spec in table.shards:
            assignments[spec.primary] = ("primary", spec.shard_id)
            for addr in spec.replicas:
                assignments[addr] = ("replica", spec.shard_id)
        payload = table.to_dict()
        for addr, (role, shard_id) in assignments.items():
            node = self._nodes.get(addr)
            if node is None or not node.alive:
                continue
            try:
                self._client(node).execute(
                    AdminRequest(
                        collection=self._collection,
                        action="route",
                        table=payload,
                        role=role,
                        shard_id=shard_id,
                    )
                )
            except _NODE_ERRORS:
                self._discard_client(node)

    def _client(self, node: _Node) -> Client:
        client = node.client
        if client is not None and not client.closed:
            return client
        with node.lock:
            if node.client is None or node.client.closed:
                node.client = Client(
                    node.host,
                    node.port,
                    timeout=self._timeout,
                    wire_format=self._wire_format,
                )
            return node.client

    def _discard_client(self, node: _Node) -> None:
        with node.lock:
            client, node.client = node.client, None
        if client is not None:
            try:
                client.close()
            except OSError:
                pass  # best-effort close of an already-broken connection

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"shards={len(self._shards)}"
        return f"Coordinator(collection={self._collection!r}, {state})"


def _record_payload(record: WalRecord) -> dict:
    return {
        "seq": record.seq,
        "op": record.op,
        "key": record.key,
        "items": None if record.items is None else list(record.items),
    }


