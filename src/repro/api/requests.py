"""Typed, JSON-serializable request objects for the serving API.

Every operation a client can ask of a :class:`~repro.api.database.Database`
is one of the request classes below.  Each is a frozen dataclass that

* validates itself on construction (so in-process callers fail fast with a
  :class:`~repro.core.errors.InvalidRequestError`),
* serializes to a plain dictionary via :meth:`to_dict` (the wire payload),
* deserializes **strictly** via :meth:`from_dict` / :func:`parse_request`:
  missing fields, unknown fields, wrong types, and out-of-range values all
  raise :class:`InvalidRequestError` — the protocol layer turns that into a
  typed error envelope instead of a deep stack trace.

The ``type`` field of the payload names the request kind::

    {"type": "range", "collection": "news", "items": [3, 1, 4], "theta": 0.2}

Booleans are deliberately rejected wherever an integer is expected
(``True`` *is* an ``int`` in Python, but ``{"key": true}`` on the wire is
almost certainly a client bug).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Optional, Union

from repro.core.errors import InvalidRequestError
from repro.core.ranking import ITEM_ID_MAX, ITEM_ID_MIN, Ranking

#: Name of the collection used when a request does not specify one.
DEFAULT_COLLECTION = "default"

#: Actions an :class:`AdminRequest` may carry.
ADMIN_ACTIONS = (
    "ping",
    "collections",
    "stats",
    "metrics",
    "slow_queries",
    "create",
    "drop",
    "flush",
    "compact",
    "snapshot",
    "shutdown",
    "route",
    "replicate",
    "promote",
    "export",
    "reshard",
)

#: Admin actions that address one specific (live) collection.
_COLLECTION_ADMIN_ACTIONS = ("stats", "flush", "compact", "snapshot", "replicate", "promote", "export")

#: Formats an admin ``metrics`` dump may ask for.
METRICS_FORMATS = ("json", "prometheus")

#: Scopes an admin ``metrics`` dump may ask for: the local process registry
#: (default) or — on a coordinator — every node of the topology merged.
METRICS_SCOPES = ("process", "cluster")

#: Roles an admin ``route`` push may assign to a node.
CLUSTER_ROLES = ("primary", "replica")

#: Operations a replicated WAL record may carry.
_WAL_OPS = ("insert", "delete", "upsert")

#: Engines an admin ``create`` may ask for.
COLLECTION_ENGINES = ("static", "live")

#: Query kinds a standing subscription may watch.
SUBSCRIPTION_MODES = ("range", "knn")

#: Delta-body encodings a subscription may ask for (mirrors the wire formats).
SUBSCRIPTION_FORMATS = ("json", "binary")

#: Upper bound on a subscription's pending-delta queue (the overflow knob).
MAX_SUBSCRIPTION_QUEUE = 4096


def _require_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidRequestError(f"{field} must be an integer, got {value!r}")
    return value


def _require_number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidRequestError(f"{field} must be a number, got {value!r}")
    return float(value)


def _require_str(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise InvalidRequestError(f"{field} must be a string, got {value!r}")
    return value


def coerce_items(value: Any, field: str = "items") -> tuple[int, ...]:
    """Validate one ranked item list (a ranking's worth of signed 64-bit ids)."""
    if isinstance(value, Ranking):
        value = value.items
    if not isinstance(value, (list, tuple)):
        raise InvalidRequestError(f"{field} must be a list of item ids, got {value!r}")
    if not value:
        raise InvalidRequestError(f"{field} must not be empty")
    items = tuple(value)
    for position, item in enumerate(items):
        if type(item) is not int or not ITEM_ID_MIN <= item <= ITEM_ID_MAX:
            name = f"{field}[{position}]"  # built only for an item that may be refused
            _require_int(item, name)
            if not ITEM_ID_MIN <= item <= ITEM_ID_MAX:
                raise InvalidRequestError(f"{name} must fit a signed 64-bit integer, got {item!r}")
    return items


def _validate_wal_record(entry: Any, field: str) -> dict:
    """Validate one replicated WAL record: ``{seq, op, key, items}``."""
    if not isinstance(entry, dict):
        raise InvalidRequestError(f"{field} must be a WAL record object, got {entry!r}")
    unknown = set(entry) - {"seq", "op", "key", "items"}
    if unknown:
        raise InvalidRequestError(f"unknown field(s) in {field}: {', '.join(sorted(unknown))}")
    seq = _require_int(entry.get("seq"), f"{field}.seq")
    if seq <= 0:
        raise InvalidRequestError(f"{field}.seq must be positive, got {seq}")
    op = _require_str(entry.get("op"), f"{field}.op")
    if op not in _WAL_OPS:
        raise InvalidRequestError(f"{field}.op must be one of {', '.join(_WAL_OPS)}, got {op!r}")
    key = _require_int(entry.get("key"), f"{field}.key")
    if key < 0:
        raise InvalidRequestError(f"{field}.key must be non-negative, got {key}")
    items = entry.get("items")
    if op == "delete":
        if items is not None:
            raise InvalidRequestError(f"{field}: delete records carry no items")
        return {"seq": seq, "op": op, "key": key, "items": None}
    return {"seq": seq, "op": op, "key": key, "items": list(coerce_items(items, f"{field}.items"))}


def _validate_theta(theta: float) -> float:
    theta = _require_number(theta, "theta")
    if not 0.0 <= theta < 1.0:
        raise InvalidRequestError(f"theta must lie in [0, 1), got {theta!r}")
    return theta


def _validate_algorithm(algorithm: Any) -> Optional[str]:
    if algorithm is None:
        return None
    return _require_str(algorithm, "algorithm")


@dataclass(frozen=True)
class Request:
    """Base class: the collection address plus strict (de)serialization."""

    #: Wire name of the request kind; set by each concrete class.
    TYPE: ClassVar[str] = ""

    collection: str = DEFAULT_COLLECTION

    def __post_init__(self) -> None:
        _require_str(self.collection, "collection")
        if not self.collection:
            raise InvalidRequestError("collection must not be empty")

    def to_dict(self) -> dict:
        """The JSON-serializable wire payload (``type`` + every field)."""
        payload: dict = {"type": self.TYPE}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = [list(entry) if isinstance(entry, tuple) else entry for entry in value]
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Request":
        """Strictly rebuild a request from its wire payload."""
        if not isinstance(payload, dict):
            raise InvalidRequestError(f"request payload must be an object, got {payload!r}")
        data = dict(payload)
        declared_type = data.pop("type", cls.TYPE)
        if declared_type != cls.TYPE:
            raise InvalidRequestError(
                f"payload type {declared_type!r} does not match request type {cls.TYPE!r}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidRequestError(
                f"unknown field(s) for {cls.TYPE!r} request: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**data)
        except TypeError as error:  # missing required fields
            raise InvalidRequestError(f"malformed {cls.TYPE!r} request: {error}") from None


@dataclass(frozen=True)
class RangeQueryRequest(Request):
    """One similarity range query, optionally paginated.

    ``limit`` caps the number of matches returned and ``cursor`` is the
    match offset to resume from; the response's ``cursor`` field carries
    the next offset (or ``None`` when the answer is exhausted).
    """

    TYPE: ClassVar[str] = "range"

    items: tuple[int, ...] = ()
    theta: float = 0.0
    algorithm: Optional[str] = None
    limit: Optional[int] = None
    cursor: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "items", coerce_items(self.items))
        object.__setattr__(self, "theta", _validate_theta(self.theta))
        object.__setattr__(self, "algorithm", _validate_algorithm(self.algorithm))
        if self.limit is not None and _require_int(self.limit, "limit") <= 0:
            raise InvalidRequestError(f"limit must be positive, got {self.limit}")
        if _require_int(self.cursor, "cursor") < 0:
            raise InvalidRequestError(f"cursor must be non-negative, got {self.cursor}")

    @property
    def query(self) -> Ranking:
        """The query as a :class:`Ranking` (validates item distinctness)."""
        return Ranking(self.items)


@dataclass(frozen=True)
class KnnRequest(Request):
    """One exact k-nearest-neighbour query."""

    TYPE: ClassVar[str] = "knn"

    items: tuple[int, ...] = ()
    k: int = 1
    algorithm: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "items", coerce_items(self.items))
        if _require_int(self.k, "k") <= 0:
            raise InvalidRequestError(f"k must be positive, got {self.k}")
        object.__setattr__(self, "algorithm", _validate_algorithm(self.algorithm))

    @property
    def query(self) -> Ranking:
        """The query as a :class:`Ranking`."""
        return Ranking(self.items)


@dataclass(frozen=True)
class BatchRequest(Request):
    """A batch of range queries answered through one round trip."""

    TYPE: ClassVar[str] = "batch"

    queries: tuple[tuple[int, ...], ...] = ()
    theta: float = 0.0
    algorithm: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.queries, (list, tuple)) or not self.queries:
            raise InvalidRequestError("queries must be a non-empty list of item lists")
        object.__setattr__(
            self,
            "queries",
            tuple(
                coerce_items(entry, f"queries[{position}]")
                for position, entry in enumerate(self.queries)
            ),
        )
        object.__setattr__(self, "theta", _validate_theta(self.theta))
        object.__setattr__(self, "algorithm", _validate_algorithm(self.algorithm))


@dataclass(frozen=True)
class InsertRequest(Request):
    """Insert one ranking into a live collection; the response carries its key."""

    TYPE: ClassVar[str] = "insert"

    items: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "items", coerce_items(self.items))


@dataclass(frozen=True)
class DeleteRequest(Request):
    """Delete the ranking stored under ``key`` in a live collection."""

    TYPE: ClassVar[str] = "delete"

    key: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if _require_int(self.key, "key") < 0:
            raise InvalidRequestError(f"key must be non-negative, got {self.key}")


@dataclass(frozen=True)
class UpsertRequest(Request):
    """Replace (or insert) the ranking under ``key`` in a live collection."""

    TYPE: ClassVar[str] = "upsert"

    key: int = 0
    items: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if _require_int(self.key, "key") < 0:
            raise InvalidRequestError(f"key must be non-negative, got {self.key}")
        object.__setattr__(self, "items", coerce_items(self.items))


@dataclass(frozen=True)
class AdminRequest(Request):
    """Maintenance, introspection, and collection DDL.

    ``flush`` / ``compact`` / ``snapshot`` address one live collection;
    ``stats`` reports engine totals and layer sizes for one collection;
    ``collections`` and ``ping`` ignore the collection field.  ``shutdown``
    asks a *server* to stop after replying; an in-process session simply
    acknowledges it.

    ``metrics`` dumps the process metrics registry — structured JSON by
    default, Prometheus text exposition when ``format`` is
    ``"prometheus"`` (returned as the ``exposition`` string of the data
    payload).  ``slow_queries`` dumps the database's slow-query ring,
    slowest first.  Both are process-wide and ignore the collection
    field; ``format`` is only valid on ``metrics``.

    ``create`` registers a new collection named by the ``collection``
    field: ``engine`` picks ``"static"`` (read-only, requires ``rankings``
    as its data) or ``"live"`` (mutable, ``rankings`` optionally seed it);
    ``algorithm`` pins the serving algorithm, ``num_shards`` and
    ``cache_capacity`` size the engine.  ``drop`` removes a collection and
    closes its engine.  The DDL-only fields are rejected on every other
    action, so a typo cannot silently change what a request does.

    The cluster verbs (see :mod:`repro.cluster`):

    * ``route`` — with ``table`` set, pushes a routing table onto a node
      (``role`` and ``shard_id`` telling the node what it is); without,
      reads back the node's routing state.
    * ``replicate`` — applies a batch of WAL ``records`` to a follower
      replica; an **empty** batch is a probe that just reports the
      replica's applied sequence number.
    * ``promote`` — flips a replica to primary (warm failover).
    * ``export`` — dumps a live collection's entries for backfill.
    * ``reshard`` — asks a *coordinator* to move hash slots between
      shards (``moves`` maps slot -> target shard id); plain databases
      reject it.
    """

    TYPE: ClassVar[str] = "admin"

    action: str = "ping"
    engine: Optional[str] = None
    rankings: Optional[tuple[tuple[int, ...], ...]] = None
    algorithm: Optional[str] = None
    num_shards: Optional[int] = None
    cache_capacity: Optional[int] = None
    format: Optional[str] = None
    table: Optional[dict] = None
    role: Optional[str] = None
    shard_id: Optional[int] = None
    records: Optional[tuple[dict, ...]] = None
    scope: Optional[str] = None
    moves: Optional[dict] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_str(self.action, "action")
        if self.action not in ADMIN_ACTIONS:
            raise InvalidRequestError(
                f"unknown admin action {self.action!r}; use one of {', '.join(ADMIN_ACTIONS)}"
            )
        if self.action == "create":
            self._validate_create()
        else:
            for name in ("engine", "rankings", "algorithm", "num_shards", "cache_capacity"):
                if getattr(self, name) is not None:
                    raise InvalidRequestError(
                        f"admin field {name!r} only applies to action 'create', "
                        f"not {self.action!r}"
                    )
        if self.format is not None:
            if self.action != "metrics":
                raise InvalidRequestError(
                    f"admin field 'format' only applies to action 'metrics', not {self.action!r}"
                )
            if self.format not in METRICS_FORMATS:
                raise InvalidRequestError(
                    f"metrics format must be one of {', '.join(METRICS_FORMATS)}, "
                    f"got {self.format!r}"
                )
        if self.scope is not None:
            if self.action != "metrics":
                raise InvalidRequestError(
                    f"admin field 'scope' only applies to action 'metrics', not {self.action!r}"
                )
            if self.scope not in METRICS_SCOPES:
                raise InvalidRequestError(
                    f"metrics scope must be one of {', '.join(METRICS_SCOPES)}, "
                    f"got {self.scope!r}"
                )
        for name in ("table", "role", "shard_id"):
            if getattr(self, name) is not None and self.action != "route":
                raise InvalidRequestError(
                    f"admin field {name!r} only applies to action 'route', not {self.action!r}"
                )
        if self.action == "route":
            self._validate_route()
        if self.records is not None and self.action != "replicate":
            raise InvalidRequestError(
                f"admin field 'records' only applies to action 'replicate', not {self.action!r}"
            )
        if self.action == "replicate":
            self._validate_replicate()
        if self.moves is not None and self.action != "reshard":
            raise InvalidRequestError(
                f"admin field 'moves' only applies to action 'reshard', not {self.action!r}"
            )
        if self.action == "reshard":
            self._validate_reshard()

    def _validate_route(self) -> None:
        if self.table is not None and not isinstance(self.table, dict):
            raise InvalidRequestError(f"table must be a routing-table object, got {self.table!r}")
        if self.role is not None:
            _require_str(self.role, "role")
            if self.role not in CLUSTER_ROLES:
                raise InvalidRequestError(
                    f"role must be one of {', '.join(CLUSTER_ROLES)}, got {self.role!r}"
                )
        if self.shard_id is not None and _require_int(self.shard_id, "shard_id") < 0:
            raise InvalidRequestError(f"shard_id must be non-negative, got {self.shard_id}")
        if self.table is None and (self.role is not None or self.shard_id is not None):
            raise InvalidRequestError("route with role/shard_id needs a table (it is a push)")

    def _validate_replicate(self) -> None:
        if not isinstance(self.records, (list, tuple)):
            raise InvalidRequestError(
                f"replicate needs records, a (possibly empty) list of WAL records; "
                f"got {self.records!r}"
            )
        object.__setattr__(
            self,
            "records",
            tuple(
                _validate_wal_record(entry, f"records[{position}]")
                for position, entry in enumerate(self.records)
            ),
        )

    def _validate_reshard(self) -> None:
        if not isinstance(self.moves, dict) or not self.moves:
            raise InvalidRequestError(
                "reshard needs moves, a non-empty {slot: target shard id} mapping"
            )
        normalized: dict[int, int] = {}
        for raw_slot, raw_shard in self.moves.items():
            try:
                slot = int(raw_slot)
            except (TypeError, ValueError):
                raise InvalidRequestError(f"moves slot {raw_slot!r} is not an integer") from None
            if isinstance(raw_slot, bool) or slot < 0:
                raise InvalidRequestError(f"moves slot {raw_slot!r} must be a non-negative slot")
            shard = _require_int(raw_shard, f"moves[{slot}]")
            if shard < 0:
                raise InvalidRequestError(f"moves[{slot}] must be a shard id, got {shard}")
            normalized[slot] = shard
        object.__setattr__(self, "moves", normalized)

    def _validate_create(self) -> None:
        if self.engine not in COLLECTION_ENGINES:
            raise InvalidRequestError(
                f"create needs engine set to one of {', '.join(COLLECTION_ENGINES)}, "
                f"got {self.engine!r}"
            )
        if self.rankings is not None:
            if not isinstance(self.rankings, (list, tuple)) or not self.rankings:
                raise InvalidRequestError("rankings must be a non-empty list of item lists")
            object.__setattr__(
                self,
                "rankings",
                tuple(
                    coerce_items(entry, f"rankings[{position}]")
                    for position, entry in enumerate(self.rankings)
                ),
            )
        elif self.engine == "static":
            raise InvalidRequestError("create engine='static' needs rankings (its data)")
        object.__setattr__(self, "algorithm", _validate_algorithm(self.algorithm))
        if self.num_shards is not None and _require_int(self.num_shards, "num_shards") <= 0:
            raise InvalidRequestError(f"num_shards must be positive, got {self.num_shards}")
        if (
            self.cache_capacity is not None
            and _require_int(self.cache_capacity, "cache_capacity") < 0
        ):
            raise InvalidRequestError(
                f"cache_capacity must be non-negative, got {self.cache_capacity}"
            )

    def to_dict(self) -> dict:
        """The wire payload; DDL-only fields are omitted unless set.

        Plain admin payloads stay free of ``null`` DDL fields, so a
        ``ping`` is three keys on the wire.
        """
        payload: dict = {"type": self.TYPE, "collection": self.collection, "action": self.action}
        for name in (
            "engine",
            "algorithm",
            "num_shards",
            "cache_capacity",
            "format",
            "table",
            "role",
            "shard_id",
            "scope",
        ):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.rankings is not None:
            payload["rankings"] = [list(entry) for entry in self.rankings]
        if self.records is not None:
            payload["records"] = [dict(entry) for entry in self.records]
        if self.moves is not None:
            payload["moves"] = {str(slot): shard for slot, shard in self.moves.items()}
        return payload

    @property
    def addresses_collection(self) -> bool:
        """Whether the action operates on one specific collection."""
        return self.action in _COLLECTION_ADMIN_ACTIONS


@dataclass(frozen=True)
class SubscribeRequest(Request):
    """Register a standing range/k-NN query over a live collection.

    The server answers with the query's current result set (the snapshot)
    and then pushes incremental deltas — ``push`` frames correlated by the
    subscribe request's id — as mutations commit.  ``mode`` picks the query
    kind: ``"range"`` watches everything within ``theta`` of the query
    ranking, ``"knn"`` watches its ``k`` nearest neighbours.

    ``format`` asks for binary (RBF) delta bodies when the server
    advertised the binary wire in its hello; ``queue_size`` bounds the
    per-subscription pending-delta queue — a consumer that falls further
    behind is cancelled with a ``subscription_overflow`` error push rather
    than growing server memory without bound.
    """

    TYPE: ClassVar[str] = "subscribe"

    mode: str = "range"
    items: tuple[int, ...] = ()
    theta: float = 0.0
    k: int = 0
    algorithm: Optional[str] = None
    format: Optional[str] = None
    queue_size: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_str(self.mode, "mode")
        if self.mode not in SUBSCRIPTION_MODES:
            raise InvalidRequestError(
                f"mode must be one of {', '.join(SUBSCRIPTION_MODES)}, got {self.mode!r}"
            )
        object.__setattr__(self, "items", coerce_items(self.items))
        if self.mode == "range":
            object.__setattr__(self, "theta", _validate_theta(self.theta))
            if _require_int(self.k, "k") != 0:
                raise InvalidRequestError("k only applies to mode 'knn'")
        else:
            if _require_number(self.theta, "theta") != 0.0:
                raise InvalidRequestError("theta only applies to mode 'range'")
            if _require_int(self.k, "k") <= 0:
                raise InvalidRequestError(f"k must be positive, got {self.k}")
        object.__setattr__(self, "algorithm", _validate_algorithm(self.algorithm))
        if self.format is not None:
            _require_str(self.format, "format")
            if self.format not in SUBSCRIPTION_FORMATS:
                raise InvalidRequestError(
                    f"format must be one of {', '.join(SUBSCRIPTION_FORMATS)}, "
                    f"got {self.format!r}"
                )
        if self.queue_size is not None:
            if not 1 <= _require_int(self.queue_size, "queue_size") <= MAX_SUBSCRIPTION_QUEUE:
                raise InvalidRequestError(
                    f"queue_size must lie in [1, {MAX_SUBSCRIPTION_QUEUE}], "
                    f"got {self.queue_size}"
                )

    @property
    def query(self) -> Ranking:
        """The watched query as a :class:`Ranking`."""
        return Ranking(self.items)


@dataclass(frozen=True)
class UnsubscribeRequest(Request):
    """Cancel the standing query registered under ``subscription``.

    ``subscription`` is the correlation id of the original ``subscribe``
    request on the same connection; subscriptions are per-connection, so
    no other client can cancel them.
    """

    TYPE: ClassVar[str] = "unsubscribe"

    subscription: Union[int, str] = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.subscription, str):
            if not self.subscription:
                raise InvalidRequestError("subscription must not be empty")
        elif isinstance(self.subscription, bool) or not isinstance(self.subscription, int):
            raise InvalidRequestError(
                f"subscription must be a correlation id (integer or string), "
                f"got {self.subscription!r}"
            )


#: Wire ``type`` -> request class, the protocol dispatch table.
REQUEST_TYPES: dict[str, type[Request]] = {
    cls.TYPE: cls
    for cls in (
        RangeQueryRequest,
        KnnRequest,
        BatchRequest,
        InsertRequest,
        DeleteRequest,
        UpsertRequest,
        AdminRequest,
        SubscribeRequest,
        UnsubscribeRequest,
    )
}

#: Anything :func:`parse_request` accepts.
RequestLike = Union[Request, dict]


def parse_request(payload: RequestLike) -> Request:
    """Turn a wire payload (or an already-typed request) into a request.

    Raises :class:`InvalidRequestError` for anything malformed; never lets
    a ``KeyError``/``TypeError`` escape, so the caller can map failures to
    error envelopes uniformly.
    """
    if isinstance(payload, Request):
        return payload
    if not isinstance(payload, dict):
        raise InvalidRequestError(f"request payload must be an object, got {type(payload).__name__}")
    declared_type = payload.get("type")
    if not isinstance(declared_type, str):
        raise InvalidRequestError("request payload must carry a string 'type' field")
    request_cls = REQUEST_TYPES.get(declared_type)
    if request_cls is None:
        known = ", ".join(sorted(REQUEST_TYPES))
        raise InvalidRequestError(f"unknown request type {declared_type!r}; use one of {known}")
    return request_cls.from_dict(payload)
