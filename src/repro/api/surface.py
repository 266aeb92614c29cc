"""The convenience surface shared by in-process sessions and network clients.

:class:`ExecutorSurface` turns a single ``execute(request) -> Response``
primitive into the familiar engine-shaped API — ``range_query`` / ``knn`` /
``batch`` plus the mutations and admin verbs.  Both
:class:`~repro.api.database.Session` (in-process) and
:class:`~repro.api.client.Client` (over the wire) mix it in, which is what
makes remote and local call sites interchangeable: same methods, same
envelopes, same typed errors.

Query verbs return the :class:`~repro.api.responses.Response` envelope
as-is (callers inspect ``matches`` / ``stats`` / ``error``); mutation and
admin verbs raise the envelope's typed error and return the useful part
(the key, the stats dictionary, ...), mirroring the engines they wrap.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

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


class ExecutorSurface:
    """Engine-shaped helpers defined purely in terms of :meth:`execute`."""

    def execute(self, request: RequestLike) -> Response:
        """Answer one request with an envelope (never raises for bad input)."""
        raise NotImplementedError

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
        return self.execute(
            RangeQueryRequest(
                collection=collection, items=items, theta=theta,
                algorithm=algorithm, limit=limit, cursor=cursor,
            )
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
        return self.execute(
            KnnRequest(collection=collection, items=items, k=k, algorithm=algorithm)
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
        return self.execute(
            BatchRequest(
                collection=collection, queries=tuple(queries), theta=theta, algorithm=algorithm
            )
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
        response = self.execute(InsertRequest(collection=collection, items=items))
        response.raise_for_error()
        assert response.key is not None
        return response.key

    def delete(self, key: int, *, collection: str = DEFAULT_COLLECTION) -> None:
        """Delete the ranking stored under ``key``."""
        self.execute(DeleteRequest(collection=collection, key=key)).raise_for_error()

    def upsert(self, key: int, items: Items, *, collection: str = DEFAULT_COLLECTION) -> None:
        """Replace (or insert) the ranking under ``key``."""
        self.execute(UpsertRequest(collection=collection, key=key, items=items)).raise_for_error()

    # -- admin ---------------------------------------------------------------------

    def _admin(self, action: str, collection: str) -> Response:
        return self.execute(AdminRequest(collection=collection, action=action)).raise_for_error()

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self._admin("ping", DEFAULT_COLLECTION).data)

    def collections(self) -> list[dict]:
        """Descriptors of every collection the database holds."""
        response = self._admin("collections", DEFAULT_COLLECTION)
        assert response.data is not None
        return list(response.data["collections"])

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
        response = self.execute(
            AdminRequest(
                collection=name,
                action="create",
                engine=engine,
                rankings=None if rankings is None else tuple(rankings),
                algorithm=algorithm,
                num_shards=num_shards,
                cache_capacity=cache_capacity,
            )
        ).raise_for_error()
        assert response.data is not None
        return response.data

    def drop_collection(self, name: str) -> dict:
        """DDL: remove a collection and close its engine."""
        response = self.execute(
            AdminRequest(collection=name, action="drop")
        ).raise_for_error()
        assert response.data is not None
        return response.data

    def stats(self, collection: str = DEFAULT_COLLECTION) -> dict:
        """Engine statistics for one collection."""
        response = self._admin("stats", collection)
        assert response.data is not None
        return response.data

    def metrics(self, format: Optional[str] = None) -> dict:
        """The process metrics registry behind this surface.

        ``format=None``/``"json"`` returns the structured snapshot;
        ``"prometheus"`` returns ``{"exposition": "<text>"}`` with the
        scrape-ready text exposition.
        """
        response = self.execute(
            AdminRequest(action="metrics", format=format)
        ).raise_for_error()
        assert response.data is not None
        return response.data

    def slow_queries(self) -> list[dict]:
        """The database's slowest requests so far, slowest first."""
        response = self._admin("slow_queries", DEFAULT_COLLECTION)
        assert response.data is not None
        return list(response.data["slow_queries"])

    def flush(self, collection: str = DEFAULT_COLLECTION) -> Optional[int]:
        """Seal a live collection's memtable; returns the segment id."""
        response = self._admin("flush", collection)
        assert response.data is not None
        return response.data.get("segment_id")

    def compact(self, collection: str = DEFAULT_COLLECTION) -> bool:
        """Compact a live collection; returns whether a compaction ran."""
        response = self._admin("compact", collection)
        assert response.data is not None
        return bool(response.data.get("compacted"))

    def snapshot(self, collection: str = DEFAULT_COLLECTION) -> str:
        """Checkpoint a live collection; returns the manifest path."""
        response = self._admin("snapshot", collection)
        assert response.data is not None
        return str(response.data["path"])
