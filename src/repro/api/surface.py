"""The convenience surface shared by in-process sessions and network clients.

:class:`ExecutorSurface` turns a single ``execute(request) -> Response``
primitive into the familiar engine-shaped API — ``range_query`` / ``knn`` /
``batch`` plus the mutations and admin verbs — each through one hook,
``_call(request, finish)``, which the asyncio client overrides with a
coroutine.  :class:`~repro.api.database.Session` (in-process),
:class:`~repro.api.client.Client` and :class:`~repro.api.aclient.AsyncClient`
(over the wire) all mix it in, which is what makes remote and local call
sites interchangeable: same methods, same envelopes, same typed errors.

Query verbs return the :class:`~repro.api.responses.Response` envelope
as-is (callers inspect ``matches`` / ``stats`` / ``error``); mutation and
admin verbs raise the envelope's typed error and return the useful part
(the key, the stats dictionary, ...), mirroring the engines they wrap.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from repro.core.ranking import Ranking
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
)
from repro.api.responses import Response

#: Anything accepted where a ranking's items are expected.
Items = Union[Ranking, Sequence[int]]


def _envelope(response: Response) -> Response:
    return response


def _data(response: Response) -> dict:
    response.raise_for_error()
    assert response.data is not None
    return response.data


def _key(response: Response) -> int:
    response.raise_for_error()
    assert response.key is not None
    return response.key


def _nothing(response: Response) -> None:
    response.raise_for_error()


class ExecutorSurface:
    """Engine-shaped helpers defined purely in terms of :meth:`execute`."""

    def execute(self, request: RequestLike) -> Response:
        """Answer one request with an envelope (never raises for bad input)."""
        raise NotImplementedError

    def _call(self, request: RequestLike, finish: Callable[[Response], Any]) -> Any:
        """Execute ``request`` and return ``finish(response)``: every verb's one hook."""
        return finish(self.execute(request))

    # -- queries -------------------------------------------------------------------

    def range_query(
        self,
        items: Items,
        theta: float,
        *,
        collection: str = DEFAULT_COLLECTION,
        algorithm: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: int = 0,
    ) -> Response:
        """One similarity range query; the envelope carries the matches."""
        return self._call(
            RangeQueryRequest(
                collection=collection, items=items, theta=theta,
                algorithm=algorithm, limit=limit, cursor=cursor,
            ),
            _envelope,
        )

    def knn(
        self,
        items: Items,
        k: int,
        *,
        collection: str = DEFAULT_COLLECTION,
        algorithm: Optional[str] = None,
    ) -> Response:
        """One exact k-nearest-neighbour query."""
        return self._call(
            KnnRequest(collection=collection, items=items, k=k, algorithm=algorithm),
            _envelope,
        )

    def batch(
        self,
        queries: Sequence[Items],
        theta: float,
        *,
        collection: str = DEFAULT_COLLECTION,
        algorithm: Optional[str] = None,
    ) -> Response:
        """A batch of range queries; the envelope nests one per query."""
        return self._call(
            BatchRequest(
                collection=collection, queries=tuple(queries), theta=theta, algorithm=algorithm
            ),
            _envelope,
        )

    # -- standing queries (live collections, server connections only) --------------

    def subscribe_request(
        self,
        items: Items,
        *,
        collection: str = DEFAULT_COLLECTION,
        mode: str = "range",
        theta: float = 0.0,
        k: int = 0,
        algorithm: Optional[str] = None,
        format: Optional[str] = None,
        queue_size: Optional[int] = None,
    ) -> SubscribeRequest:
        """The typed ``subscribe`` request these arguments describe.

        The network clients' ``subscribe()`` builds on this; executing it
        against an in-process session returns the typed
        ``unsupported_protocol`` envelope, because only a server
        connection can carry the push frames the subscription needs.
        """
        return SubscribeRequest(
            collection=collection,
            mode=mode,
            items=items,
            theta=theta,
            k=k,
            algorithm=algorithm,
            format=format,
            queue_size=queue_size,
        )

    def unsubscribe_request(
        self, subscription: Union[int, str], *, collection: str = DEFAULT_COLLECTION
    ) -> UnsubscribeRequest:
        """The typed ``unsubscribe`` request for one subscription id."""
        return UnsubscribeRequest(collection=collection, subscription=subscription)

    # -- mutations (live collections only) -----------------------------------------

    def insert(self, items: Items, *, collection: str = DEFAULT_COLLECTION) -> int:
        """Insert one ranking; returns its logical key."""
        return self._call(InsertRequest(collection=collection, items=items), _key)

    def delete(self, key: int, *, collection: str = DEFAULT_COLLECTION) -> None:
        """Delete the ranking stored under ``key``."""
        return self._call(DeleteRequest(collection=collection, key=key), _nothing)

    def upsert(self, key: int, items: Items, *, collection: str = DEFAULT_COLLECTION) -> None:
        """Replace (or insert) the ranking under ``key``."""
        return self._call(UpsertRequest(collection=collection, key=key, items=items), _nothing)

    # -- admin ---------------------------------------------------------------------

    def _admin(
        self, action: str, collection: str, finish: Callable[[Response], Any] = _data
    ) -> Any:
        return self._call(AdminRequest(collection=collection, action=action), finish)

    def ping(self) -> bool:
        """Liveness probe."""
        return self._admin(
            "ping", DEFAULT_COLLECTION, lambda response: bool(response.raise_for_error().data)
        )

    def collections(self) -> list[dict]:
        """Descriptors of every collection the database holds."""
        return self._admin(
            "collections", DEFAULT_COLLECTION,
            lambda response: list(_data(response)["collections"]),
        )

    def create_collection(
        self,
        name: str,
        engine: str,
        *,
        rankings: Optional[Sequence[Items]] = None,
        algorithm: Optional[str] = None,
        num_shards: Optional[int] = None,
        cache_capacity: Optional[int] = None,
    ) -> dict:
        """DDL: register a collection (``engine`` is ``"static"`` or ``"live"``).

        Static collections require ``rankings`` (their data); live ones are
        created empty unless ``rankings`` seed them.  Returns the server's
        descriptor of what was created.
        """
        return self._call(
            AdminRequest(
                collection=name,
                action="create",
                engine=engine,
                rankings=None if rankings is None else tuple(rankings),
                algorithm=algorithm,
                num_shards=num_shards,
                cache_capacity=cache_capacity,
            ),
            _data,
        )

    def drop_collection(self, name: str) -> dict:
        """DDL: remove a collection and close its engine."""
        return self._call(AdminRequest(collection=name, action="drop"), _data)

    def stats(self, collection: str = DEFAULT_COLLECTION) -> dict:
        """Engine statistics for one collection."""
        return self._admin("stats", collection)

    def metrics(self, format: Optional[str] = None) -> dict:
        """The process metrics registry behind this surface.

        ``format=None``/``"json"`` returns the structured snapshot;
        ``"prometheus"`` returns ``{"exposition": "<text>"}`` with the
        scrape-ready text exposition.
        """
        return self._call(AdminRequest(action="metrics", format=format), _data)

    def slow_queries(self) -> list[dict]:
        """The database's slowest requests so far, slowest first."""
        return self._admin(
            "slow_queries", DEFAULT_COLLECTION,
            lambda response: list(_data(response)["slow_queries"]),
        )

    def flush(self, collection: str = DEFAULT_COLLECTION) -> Optional[int]:
        """Seal a live collection's memtable; returns the segment id."""
        return self._admin(
            "flush", collection, lambda response: _data(response).get("segment_id")
        )

    def compact(self, collection: str = DEFAULT_COLLECTION) -> bool:
        """Compact a live collection; returns whether a compaction ran."""
        return self._admin(
            "compact", collection, lambda response: bool(_data(response).get("compacted"))
        )

    def snapshot(self, collection: str = DEFAULT_COLLECTION) -> str:
        """Checkpoint a live collection; returns the manifest path."""
        return self._admin(
            "snapshot", collection, lambda response: str(_data(response)["path"])
        )


class ConnectionSurface(ExecutorSurface):
    """The verbs only a server connection has: standing queries and shutdown.

    Each network client implements ``_subscribe(request, timeout)``: send
    the request with its handle registered, return the handle once the
    snapshot arrived.
    """

    def subscribe(
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
    ) -> Any:
        """Register a standing query; returns its live subscription handle.

        Waits for the server's reply with the query's current result set
        (the snapshot); deltas then arrive on the handle as mutations
        commit.  Binary delta bodies are requested automatically when the
        connection negotiated the binary wire.
        """
        request = self.subscribe_request(
            items,
            collection=collection,
            mode=mode,
            theta=theta,
            k=k,
            algorithm=algorithm,
            queue_size=queue_size,
        )
        return self._subscribe(request, timeout)

    def _subscribe(self, request: SubscribeRequest, timeout: Optional[float]) -> Any:
        raise NotImplementedError

    def shutdown_server(self) -> Response:
        """Ask the server to stop after acknowledging (admin/shutdown)."""
        return self._call({"type": "admin", "action": "shutdown"}, _envelope)
