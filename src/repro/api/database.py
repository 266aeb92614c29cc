"""The unified serving facade: named collections behind one dispatch.

A :class:`Database` owns any number of *named collections*, each served by
one of the two engines the library already has:

* **static** — a read-only :class:`~repro.service.engine.QueryEngine` over
  a frozen :class:`~repro.core.ranking.RankingSet` (sharded, planned,
  cached);
* **live** — a :class:`~repro.live.engine.LiveQueryEngine` over a mutable
  :class:`~repro.live.collection.LiveCollection` (LSM layers, WAL,
  tombstones), which additionally accepts mutations.

A :class:`Session` is the protocol boundary: ``session.execute(request)``
takes a typed request (or its wire dictionary), routes it to the addressed
collection, and always returns a :class:`~repro.api.responses.Response`
envelope — malformed input, unknown collections, and engine-raised typed
errors all come back as structured error envelopes, never stack traces.
The network server in :mod:`repro.api.server` is nothing but this dispatch
behind a socket, which is why remote answers are byte-identical to
in-process ones.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.errors import (
    CollectionClosedError,
    InvalidRequestError,
    NotPrimaryError,
    StaleRoutingError,
    UnknownCollectionError,
    UnsupportedProtocolError,
)
from repro.core.ranking import Ranking, RankingSet
from repro.live.collection import DEFAULT_LIVE_ALGORITHM, LiveCollection
from repro.live.wal import WalRecord
from repro.live.engine import LiveQueryEngine
from repro.obs import names as metric_names
from repro.obs.metrics import get_registry, render_prometheus
from repro.obs.slowlog import DEFAULT_SLOWLOG_CAPACITY, SlowQueryEntry, SlowQueryLog
from repro.obs.tracing import current_trace
from repro.service.engine import QueryEngine
from repro.service.recording import EngineResponse
from repro.api.requests import (
    AdminRequest,
    BatchRequest,
    DeleteRequest,
    InsertRequest,
    KnnRequest,
    RangeQueryRequest,
    Request,
    RequestLike,
    SubscribeRequest,
    UnsubscribeRequest,
    UpsertRequest,
    parse_request,
)
from repro.api.responses import MatchPayload, Response, error_response
from repro.api.surface import ExecutorSurface
from repro.devtools.locktrace import make_lock
from repro.sub.manager import SubscriptionManager

#: Engines a collection may be served by.
Engine = Union[QueryEngine, LiveQueryEngine]

#: Request kinds the slow-query log considers (queries, not mutations/admin).
_SLOW_LOGGED_KINDS = frozenset({"range", "knn", "batch"})


@dataclass(frozen=True)
class CollectionInfo:
    """One collection's descriptor, as reported by admin requests."""

    name: str
    kind: str
    size: int
    algorithm: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "size": self.size,
            "algorithm": self.algorithm,
        }


@dataclass
class _Collection:
    name: str
    kind: str  # "static" | "live"
    engine: Engine

    @property
    def live_engine(self) -> LiveQueryEngine:
        assert isinstance(self.engine, LiveQueryEngine)
        return self.engine

    def info(self) -> CollectionInfo:
        if self.kind == "static":
            assert isinstance(self.engine, QueryEngine)
            size = len(self.engine.rankings)
            candidates = self.engine.planner.candidates
            algorithm = candidates[0] if len(candidates) == 1 else "adaptive"
        else:
            assert isinstance(self.engine, LiveQueryEngine)
            size = len(self.engine.collection)
            algorithm = self.engine.algorithm
        return CollectionInfo(name=self.name, kind=self.kind, size=size, algorithm=algorithm)


class Database:
    """Named static and live collections behind one serving facade.

    Examples
    --------
    >>> from repro.core.ranking import RankingSet
    >>> database = Database()
    >>> _ = database.create_static(
    ...     "news", RankingSet.from_lists([[1, 2, 3], [1, 3, 2], [7, 8, 9]])
    ... )
    >>> session = database.session()
    >>> session.range_query([1, 2, 3], theta=0.3, collection="news").rids
    [0, 1]
    >>> database.close()
    """

    def __init__(self, slow_query_capacity: int = DEFAULT_SLOWLOG_CAPACITY) -> None:
        self._collections: dict[str, _Collection] = {}  # guarded-by: _lock
        self._cluster: dict[str, dict] = {}  # guarded-by: _lock
        self._lock = make_lock("Database._lock")
        self._closed = False  # guarded-by: _lock
        self._slow_log = SlowQueryLog(slow_query_capacity)
        self._subscriptions = SubscriptionManager()

    @property
    def slow_log(self) -> SlowQueryLog:
        """The N-slowest-queries ring every session of this database feeds."""
        return self._slow_log

    @property
    def subscriptions(self) -> SubscriptionManager:
        """The standing-query registry the protocol servers subscribe through."""
        return self._subscriptions

    # -- collection management -----------------------------------------------------

    def create_static(
        self,
        name: str,
        rankings: RankingSet,
        *,
        num_shards: int = 1,
        algorithms: Optional[list[str]] = None,
        cache_capacity: int = 1024,
    ) -> QueryEngine:
        """Register a read-only collection served by a :class:`QueryEngine`."""
        engine = QueryEngine(
            rankings,
            num_shards=num_shards,
            algorithms=algorithms,
            cache_capacity=cache_capacity,
        )
        try:
            self._register(name, _Collection(name=name, kind="static", engine=engine))
        except BaseException:
            engine.close()
            raise
        return engine

    def create_live(
        self,
        name: str,
        collection: Optional[LiveCollection] = None,
        *,
        algorithm: str = DEFAULT_LIVE_ALGORITHM,
        cache_capacity: int = 1024,
    ) -> LiveQueryEngine:
        """Register a mutable collection served by a :class:`LiveQueryEngine`."""
        engine = LiveQueryEngine(
            collection, algorithm=algorithm, cache_capacity=cache_capacity
        )
        try:
            self._register(name, _Collection(name=name, kind="live", engine=engine))
        except BaseException:
            # closing would also close a caller-supplied collection, which the
            # caller still owns on failure — only release the engine's own one
            if collection is None:
                engine.close()
            raise
        return engine

    def attach(self, name: str, engine: Engine) -> Engine:
        """Register an already-built engine under ``name``.

        The database takes ownership: :meth:`drop` and :meth:`close` close
        the engine.
        """
        if isinstance(engine, LiveQueryEngine):
            kind = "live"
        elif isinstance(engine, QueryEngine):
            kind = "static"
        else:
            raise InvalidRequestError(
                f"cannot attach {type(engine).__name__}; expected QueryEngine or LiveQueryEngine"
            )
        self._register(name, _Collection(name=name, kind=kind, engine=engine))
        return engine

    def _register(self, name: str, entry: _Collection) -> None:
        if not name or not isinstance(name, str):
            raise InvalidRequestError(f"collection name must be a non-empty string, got {name!r}")
        with self._lock:
            self._check_open()
            if name in self._collections:
                raise InvalidRequestError(f"collection {name!r} already exists")
            self._collections[name] = entry

    def drop(self, name: str) -> None:
        """Remove a collection and close its engine."""
        with self._lock:
            self._check_open()
            entry = self._collections.pop(name, None)
            self._cluster.pop(name, None)
        if entry is None:
            raise UnknownCollectionError(name)
        entry.engine.close()

    # -- cluster routing state -------------------------------------------------------

    def cluster_config(self, name: str) -> Optional[dict]:
        """This node's routing state for collection ``name``: the installed
        table plus the node's own role and shard id — ``None`` when the
        collection is not clustered (the common case)."""
        with self._lock:
            return self._cluster.get(name)

    def set_cluster_config(
        self, name: str, *, table: dict, role: str, shard_id: Optional[int]
    ) -> dict:
        """Install a routing table pushed by a coordinator (``admin route``)."""
        config = {"table": table, "role": role, "shard_id": shard_id}
        with self._lock:
            self._check_open()
            self._cluster[name] = config
        get_registry().gauge(
            metric_names.CLUSTER_ROUTING_VERSION,
            "Version of the routing table installed on this node.",
            collection=name,
        ).set(float(table.get("version", 0)))
        return config

    def names(self) -> list[str]:
        """The registered collection names, sorted."""
        with self._lock:
            return sorted(self._collections)

    def infos(self) -> list[CollectionInfo]:
        """Descriptors for every collection, sorted by name."""
        with self._lock:
            entries = sorted(self._collections.values(), key=lambda entry: entry.name)
        return [entry.info() for entry in entries]

    def engine(self, name: str) -> Engine:
        """The engine serving ``name`` (for direct in-process use)."""
        return self._lookup(name).engine

    def _lookup(self, name: str) -> _Collection:
        with self._lock:
            self._check_open()
            entry = self._collections.get(name)
        if entry is None:
            raise UnknownCollectionError(name)
        return entry

    def _check_open(self) -> None:  # holds: _lock
        if self._closed:
            raise CollectionClosedError("database is closed")

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed  # repro: noqa[guarded-by] lock-free monotonic-flag read

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Close every engine; subsequent requests get ``collection_closed``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._collections.values())
            self._collections.clear()
        # stop the standing-query dispatchers before their engines go away
        self._subscriptions.close()
        for entry in entries:
            entry.engine.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving -------------------------------------------------------------------

    def session(self) -> "Session":
        """A protocol session over this database (cheap; one per client)."""
        return Session(self)

    def execute(self, request: RequestLike) -> Response:
        """Shortcut for ``database.session().execute(request)``."""
        return self.session().execute(request)

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"collections={self.names()}"  # repro: noqa[guarded-by] racy repr read, diagnostic only
        return f"Database({state})"


class Session(ExecutorSurface):
    """The ``execute(request) -> Response`` dispatch over one database.

    Sessions are stateless and thread-compatible: every server connection
    gets one, all sharing the same :class:`Database`.  (Standing queries
    are connection state and live in
    :class:`~repro.api.connection.ServerConnection`.)
    """

    def __init__(self, database: Database) -> None:
        self._database = database

    @property
    def database(self) -> Database:
        """The database this session serves."""
        return self._database

    def execute(self, request: RequestLike) -> Response:
        """Answer one request; failures become typed error envelopes."""
        try:
            parsed = parse_request(request)
        except Exception as error:
            return error_response(error)
        start = time.perf_counter()
        try:
            response = self._dispatch(parsed)
        except Exception as error:
            # error_response discriminates the typed/user-input failures from
            # true internals; a server must never crash a connection
            return error_response(error)
        if response.ok and parsed.TYPE in _SLOW_LOGGED_KINDS:
            self._record_slow(parsed, response, time.perf_counter() - start)
        return response

    def _record_slow(self, request: Request, response: Response, wall_seconds: float) -> None:
        """Offer one answered query to the database's slow-query log."""
        stats = response.stats or {}
        if response.matches is not None:
            results = len(response.matches)
        elif response.batch is not None:
            results = sum(len(entry.matches or ()) for entry in response.batch)
        else:
            results = 0
        trace = current_trace()
        self._database.slow_log.record(
            SlowQueryEntry(
                kind=request.TYPE,
                collection=request.collection,
                wall_seconds=wall_seconds,
                algorithm=str(stats.get("algorithm", "")),
                planner_source=str(stats.get("planner_source", "")),
                results=results,
                trace_id=trace.trace_id if trace is not None else "",
                # the request's spans so far; the transport-level root span is
                # still open, so its duration reads as time-to-here
                trace=trace.to_dict() if trace is not None else None,
            )
        )

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, request: Request) -> Response:
        if isinstance(request, (SubscribeRequest, UnsubscribeRequest)):
            # a server connection intercepts these before dispatch; reaching
            # here means there is no connection to push on
            raise UnsupportedProtocolError(
                "subscriptions need a server connection; "
                "an in-process session cannot carry push frames"
            )
        if isinstance(request, AdminRequest):
            return self._dispatch_admin(request)
        entry = self._database._lookup(request.collection)
        config = self._database.cluster_config(request.collection)
        if config is not None and config.get("role") == "replica":
            # replicas serve nothing directly: reads would race the shipped
            # WAL tail, and answers must be byte-identical cluster-wide
            raise NotPrimaryError(
                f"collection {request.collection!r} on this node is a replica; "
                f"route the request via the coordinator or the shard primary",
                routing=config.get("table"),
            )
        if isinstance(request, RangeQueryRequest):
            answered = entry.engine.query(
                request.query, request.theta, algorithm=request.algorithm
            )
            return _range_response(answered, limit=request.limit, cursor=request.cursor)
        if isinstance(request, KnnRequest):
            answered = entry.engine.knn(request.query, request.k, algorithm=request.algorithm)
            return _knn_response(answered)
        if isinstance(request, BatchRequest):
            queries = [Ranking(items) for items in request.queries]
            responses = entry.engine.batch_query(
                queries, request.theta, algorithm=request.algorithm
            )
            return Response(
                ok=True, batch=tuple(_range_response(answered) for answered in responses)
            )
        return self._dispatch_mutation(request, entry, config)

    def _dispatch_mutation(
        self, request: Request, entry: _Collection, config: Optional[dict] = None
    ) -> Response:
        if entry.kind != "live":
            raise InvalidRequestError(
                f"collection {entry.name!r} is static (read-only); mutations need a live collection"
            )
        if config is not None:
            self._check_routing(request, config)
        engine = entry.live_engine
        if isinstance(request, InsertRequest):
            key = engine.insert(list(request.items))
            return Response(ok=True, key=key)
        if isinstance(request, DeleteRequest):
            engine.delete(request.key)
            return Response(ok=True, key=request.key)
        if isinstance(request, UpsertRequest):
            engine.upsert(request.key, list(request.items))
            return Response(ok=True, key=request.key)
        raise InvalidRequestError(f"unhandled request type {type(request).__name__}")

    @staticmethod
    def _check_routing(request: Request, config: dict) -> None:
        """Reject mutations this clustered node does not own.

        The raised errors carry the node's routing table, so a client that
        routed with a stale version can install the fresh one straight from
        the error envelope and retry — no extra round trip.
        """
        table = config.get("table") or {}
        if isinstance(request, InsertRequest):
            coordinator = table.get("coordinator")
            hint = f" at {coordinator}" if coordinator else ""
            raise NotPrimaryError(
                f"collection {request.collection!r} is clustered: insert keys are "
                f"assigned centrally — send inserts to the coordinator{hint}",
                routing=table or None,
            )
        shard_id = config.get("shard_id")
        if shard_id is None or not table.get("slots"):
            return
        from repro.cluster.routing import table_owner  # runtime import: no cycle

        owner = table_owner(table, request.key)
        if owner != shard_id:
            raise StaleRoutingError(
                f"key {request.key} belongs to shard {owner} under routing "
                f"version {table.get('version')}; this node serves shard {shard_id}",
                routing=table,
            )

    def _dispatch_admin(self, request: AdminRequest) -> Response:
        database = self._database
        if request.action == "ping":
            database._check_open()
            return Response(ok=True, data={"pong": True})
        if request.action == "collections":
            database._check_open()
            return Response(
                ok=True, data={"collections": [info.to_dict() for info in database.infos()]}
            )
        if request.action == "shutdown":
            # meaningful to a server (which stops after replying); in-process
            # sessions just acknowledge so the surface behaves uniformly
            database._check_open()
            return Response(ok=True, data={"acknowledged": True})
        if request.action == "metrics":
            database._check_open()
            if request.scope == "cluster":
                raise InvalidRequestError(
                    "metrics scope 'cluster' needs a coordinator; this server "
                    "only scrapes its own process"
                )
            snapshot = get_registry().snapshot()
            if request.format == "prometheus":
                return Response(ok=True, data={"exposition": render_prometheus(snapshot)})
            return Response(ok=True, data=snapshot)
        if request.action == "route":
            database._check_open()
            if request.table is not None:
                config = database.set_cluster_config(
                    request.collection,
                    table=request.table,
                    role=request.role or "primary",
                    shard_id=request.shard_id,
                )
            else:
                config = database.cluster_config(request.collection)
            if config is None:
                return Response(ok=True, data={"routing": None})
            return Response(
                ok=True,
                data={
                    "routing": config["table"],
                    "role": config["role"],
                    "shard_id": config["shard_id"],
                },
            )
        if request.action == "reshard":
            raise InvalidRequestError(
                "reshard is a coordinator verb; this server is a plain database"
            )
        if request.action == "slow_queries":
            database._check_open()
            return Response(
                ok=True,
                data={
                    "capacity": database.slow_log.capacity,
                    "slow_queries": [
                        entry.as_dict() for entry in database.slow_log.entries()
                    ],
                },
            )
        if request.action == "create":
            return self._dispatch_create(request)
        if request.action == "drop":
            database.drop(request.collection)
            return Response(ok=True, data={"dropped": request.collection})
        # everything below operates on one collection — keep this dispatch
        # and the request class's own grouping in lockstep
        assert request.addresses_collection, request.action
        entry = database._lookup(request.collection)
        if request.action == "stats":
            data = entry.info().to_dict()
            data["engine"] = entry.engine.stats().as_dict()
            if entry.kind == "live":
                live = entry.live_engine.collection
                data["live"] = live.stats().as_dict()
                data["layers"] = {
                    "memtable": live.memtable_size,
                    "segments": live.segment_count,
                    "base": live.base_size,
                    "tombstones": live.tombstone_count,
                }
            return Response(ok=True, data=data)
        if entry.kind != "live":
            raise InvalidRequestError(
                f"admin action {request.action!r} needs a live collection; "
                f"{entry.name!r} is static"
            )
        engine = entry.live_engine
        if request.action == "flush":
            return Response(ok=True, data={"segment_id": engine.flush()})
        if request.action == "compact":
            return Response(ok=True, data={"compacted": engine.compact()})
        if request.action == "replicate":
            collection = engine.collection
            applied = 0
            skipped = 0
            for payload in request.records or ():
                record = WalRecord(
                    seq=payload["seq"],
                    op=payload["op"],
                    key=payload["key"],
                    items=None if payload["items"] is None else tuple(payload["items"]),
                )
                if collection.apply_replicated(record):
                    applied += 1
                else:
                    skipped += 1
            return Response(
                ok=True,
                data={
                    "applied_seq": collection.last_seq,
                    "applied": applied,
                    "skipped": skipped,
                },
            )
        if request.action == "promote":
            config = database.cluster_config(request.collection)
            if config is not None:
                with database._lock:
                    config["role"] = "primary"
            return Response(
                ok=True,
                data={
                    "promoted": request.collection,
                    "last_seq": engine.collection.last_seq,
                },
            )
        if request.action == "export":
            return Response(ok=True, data=engine.collection.export_state())
        assert request.action == "snapshot"
        return Response(ok=True, data={"path": str(engine.snapshot())})

    def _dispatch_create(self, request: AdminRequest) -> Response:
        """Collection DDL: register a static or live collection over the wire."""
        database = self._database
        name = request.collection
        num_shards = 1 if request.num_shards is None else request.num_shards
        cache_capacity = 1024 if request.cache_capacity is None else request.cache_capacity
        if request.engine == "static":
            assert request.rankings is not None  # request validation guarantees it
            rankings = RankingSet.from_lists([list(items) for items in request.rankings])
            database.create_static(
                name,
                rankings,
                num_shards=num_shards,
                algorithms=[request.algorithm] if request.algorithm else None,
                cache_capacity=cache_capacity,
            )
            size = len(rankings)
        else:
            collection = LiveCollection(num_shards=num_shards)
            engine = database.create_live(
                name,
                collection,
                algorithm=request.algorithm or DEFAULT_LIVE_ALGORITHM,
                cache_capacity=cache_capacity,
            )
            try:
                if request.rankings is not None:
                    for items in request.rankings:
                        engine.insert(list(items))
            except BaseException:
                # a bad seed row must not leave a half-created collection behind
                database.drop(name)
                raise
            size = len(collection)
        return Response(
            ok=True, data={"created": name, "engine": request.engine, "size": size}
        )


def _range_response(
    answered: EngineResponse, limit: Optional[int] = None, cursor: int = 0
) -> Response:
    """Wrap one answered range query, applying pagination.

    The window is cut on the engine's raw matches first, so payloads are
    only built for the page actually returned.
    """
    raw = answered.result.matches  # type: ignore[union-attr]
    next_cursor: Optional[int] = None
    if limit is not None or cursor:
        end = len(raw) if limit is None else cursor + limit
        window = raw[cursor:end]
        if end < len(raw):
            next_cursor = end
    else:
        window = raw
    matches = tuple(
        MatchPayload(rid=match.rid, distance=match.distance, items=match.ranking.items)
        for match in window
    )
    return Response(
        ok=True, matches=matches, stats=answered.stats.as_dict(), cursor=next_cursor
    )


def _knn_response(answered: EngineResponse) -> Response:
    """Wrap one answered k-NN query."""
    matches = tuple(
        MatchPayload(
            rid=neighbour.rid, distance=neighbour.distance, items=neighbour.ranking.items
        )
        for neighbour in answered.result.neighbours  # type: ignore[union-attr]
    )
    return Response(ok=True, matches=matches, stats=answered.stats.as_dict())
