"""A cluster-aware client: routed reads, coordinator writes, self-correction.

:class:`ClusterClient` speaks the ordinary wire protocol — no new frames —
but knows about the cluster's versioned routing table:

* **Mutations** always go to the coordinator.  Insert keys are allocated
  centrally (so a clustered collection assigns the same keys a single
  node would) and every acknowledged write must enter the coordinator's
  replication log; a client that wrote straight to a shard would bypass
  both, which is exactly what the shard-side guards reject.
* **Queries** go straight to the shard primaries and are merged locally
  (see :mod:`repro.cluster.merge`), skipping the coordinator hop.  The
  client holds a cached :class:`~repro.cluster.routing.RoutingTable`; when
  the topology changed under it — a failover promoted a replica, a reshard
  moved slots — the stale shard answers with a ``not_primary`` or
  ``stale_routing`` envelope that *embeds the current table*, and the
  client installs it and retries.  No control-plane round trip: the error
  is the table update.

The self-correction loop is bounded (``max_retries``); a table refresh
from the coordinator is the fallback when a node died without answering.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.api.client import Client
from repro.api.requests import (
    AdminRequest,
    BatchRequest,
    KnnRequest,
    RangeQueryRequest,
    Request,
)
from repro.api.responses import Response
from repro.cluster.merge import (
    merge_batch_responses,
    merge_knn_responses,
    merge_range_responses,
)
from repro.cluster.routing import RoutingTable
from repro.core.errors import CollectionClosedError, NotPrimaryError, StaleRoutingError
from repro.core.ranking import Ranking

__all__ = ["ClusterClient"]

ItemsLike = Union[Ranking, Sequence[int]]

#: Transport-level failures that warrant a table refresh + retry.
_NODE_ERRORS = (ConnectionError, OSError, TimeoutError)


class ClusterClient:
    """Client for a coordinator-fronted cluster (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        *,
        collection: str = "default",
        timeout: Optional[float] = 10.0,
        max_retries: int = 3,
    ) -> None:
        self._collection = collection
        self._timeout = timeout
        self._max_retries = max_retries
        self._coordinator = Client(host, port, timeout=timeout)
        self._shard_clients: dict[str, Client] = {}
        self._table: Optional[RoutingTable] = None

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        for client in self._shard_clients.values():
            try:
                client.close()
            except OSError:
                pass  # best-effort close of an already-broken connection
        self._shard_clients.clear()
        self._coordinator.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- routing table ---------------------------------------------------------------

    @property
    def routing_table(self) -> RoutingTable:
        """The cached table, fetched from the coordinator on first use."""
        if self._table is None:
            self.refresh_routing()
        assert self._table is not None
        return self._table

    @property
    def routing_version(self) -> int:
        return self.routing_table.version

    def refresh_routing(self) -> RoutingTable:
        """Fetch the authoritative table from the coordinator."""
        response = self._coordinator.execute(
            AdminRequest(collection=self._collection, action="route")
        ).raise_for_error()
        table = RoutingTable.from_dict((response.data or {})["routing"])
        self._install(table)
        return table

    def _install(self, table: Optional[dict | RoutingTable]) -> bool:
        """Adopt a newer table (e.g. from an error envelope); False if stale."""
        if table is None:
            return False
        if isinstance(table, dict):
            table = RoutingTable.from_dict(table)
        if self._table is not None and table.version <= self._table.version:
            return False
        self._table = table
        return True

    def status(self) -> dict:
        """The coordinator's membership/lag view (``cluster status``)."""
        response = self._coordinator.execute(
            AdminRequest(collection=self._collection, action="route")
        ).raise_for_error()
        return (response.data or {})["status"]

    # -- mutations (always through the coordinator) ----------------------------------

    def insert(self, items: ItemsLike) -> int:
        return self._coordinator.insert(items, collection=self._collection)

    def upsert(self, key: int, items: ItemsLike) -> None:
        self._coordinator.upsert(key, items, collection=self._collection)

    def delete(self, key: int) -> None:
        self._coordinator.delete(key, collection=self._collection)

    # -- queries (direct to shards, merged locally) ----------------------------------

    def range_query(
        self,
        items: ItemsLike,
        theta: float,
        *,
        algorithm: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: int = 0,
    ) -> Response:
        request = RangeQueryRequest(
            collection=self._collection,
            items=Ranking(items).items,
            theta=theta,
            algorithm=algorithm,
        )
        responses = self._fan_out(request)
        return merge_range_responses(responses, limit=limit, cursor=cursor)

    def knn(self, items: ItemsLike, k: int, *, algorithm: Optional[str] = None) -> Response:
        request = KnnRequest(
            collection=self._collection, items=Ranking(items).items, k=k, algorithm=algorithm
        )
        return merge_knn_responses(self._fan_out(request), k)

    def batch(
        self,
        queries: Sequence[ItemsLike],
        theta: float,
        *,
        algorithm: Optional[str] = None,
    ) -> Response:
        request = BatchRequest(
            collection=self._collection,
            queries=tuple(Ranking(query).items for query in queries),
            theta=theta,
            algorithm=algorithm,
        )
        return merge_batch_responses(self._fan_out(request))

    def _fan_out(self, request: Request) -> list[Response]:
        """One checked answer per shard, self-correcting on stale routing."""
        last_error: Optional[Exception] = None
        for _ in range(self._max_retries + 1):
            table = self.routing_table
            try:
                return [
                    self._ask_shard(table.shard(shard_id).primary, request)
                    for shard_id in range(table.num_shards)
                ]
            except (NotPrimaryError, StaleRoutingError) as error:
                last_error = error
                # the envelope carries the fresh table; fall back to a
                # coordinator round trip when it (unusually) does not
                if not self._install(error.routing):
                    self.refresh_routing()
            except (*_NODE_ERRORS, CollectionClosedError) as error:
                # a dying node can still answer one last frame — with a
                # collection_closed envelope; treat it like a dead socket
                last_error = error
                self.refresh_routing()
        raise ConnectionError(
            f"query failed after {self._max_retries + 1} routing attempts"
        ) from last_error

    def _ask_shard(self, address: str, request: Request) -> Response:
        try:
            response = self._shard_client(address).execute(request)
        except _NODE_ERRORS:
            self._drop_shard_client(address)
            raise
        response.raise_for_error()
        return response

    def _shard_client(self, address: str) -> Client:
        client = self._shard_clients.get(address)
        if client is None or client.closed:
            host, _, port = address.rpartition(":")
            client = Client(host, int(port), timeout=self._timeout)
            self._shard_clients[address] = client
        return client

    def _drop_shard_client(self, address: str) -> None:
        client = self._shard_clients.pop(address, None)
        if client is not None:
            try:
                client.close()
            except OSError:
                pass  # best-effort close of an already-broken connection

    def __repr__(self) -> str:
        version = self._table.version if self._table is not None else "?"
        return (
            f"ClusterClient(collection={self._collection!r}, "
            f"coordinator={self._coordinator.address!r}, table=v{version})"
        )
