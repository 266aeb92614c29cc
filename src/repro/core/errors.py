"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while letting programming errors (``TypeError`` etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidRankingError(ReproError):
    """A ranking violates the top-k list model (wrong type, empty, ...)."""


class DuplicateItemError(InvalidRankingError):
    """A ranking contains the same item at two different ranks."""

    def __init__(self, item: int) -> None:
        super().__init__(f"item {item!r} appears more than once in the ranking")
        self.item = item


class RankingSizeMismatchError(ReproError):
    """Two rankings (or a ranking and an index) have incompatible sizes k."""

    def __init__(self, expected: int, actual: int) -> None:
        super().__init__(f"expected ranking of size {expected}, got size {actual}")
        self.expected = expected
        self.actual = actual


class InvalidThresholdError(ReproError):
    """A similarity threshold lies outside its valid range."""

    def __init__(self, theta: float, reason: str = "") -> None:
        message = f"invalid threshold {theta!r}"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)
        self.theta = theta


class EmptyDatasetError(ReproError):
    """An index or model was asked to operate on an empty collection."""


class IndexNotBuiltError(ReproError):
    """A query was issued against an index that has not been built yet."""


class InvalidRequestError(ReproError, ValueError):
    """A serving request is malformed or references impossible parameters.

    Subclasses ``ValueError`` so call sites that predate the typed API keep
    working; the protocol layer maps it to an ``invalid_request`` envelope.
    """


class UnknownKeyError(ReproError, KeyError):
    """A mutation addressed a logical key that holds no live ranking."""

    def __init__(self, key: int) -> None:
        super().__init__(f"no live ranking under key {key}")
        self.key = key

    def __str__(self) -> str:
        # KeyError.__str__ reprs its single argument; keep the message plain.
        return self.args[0]


class UnknownCollectionError(ReproError, KeyError):
    """A request addressed a collection name the database does not hold."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown collection {name!r}")
        self.name = name

    def __str__(self) -> str:
        return self.args[0]


class CollectionClosedError(ReproError):
    """A request reached a database or collection that was already closed."""


class NotPrimaryError(ReproError):
    """A request reached a replica (or a demoted node) that cannot serve it.

    Carries the node's current routing table (when it has one) so stale
    clients can self-correct from the error envelope alone.
    """

    def __init__(self, message: str, routing: dict | None = None) -> None:
        super().__init__(message)
        self.routing = routing


class UnsupportedProtocolError(ReproError):
    """A request needs a protocol capability the connection does not have.

    Raised when a standing-query ``subscribe`` arrives before the hello
    handshake or through an in-process session (push frames only exist on
    greeted server connections), and when a frame arrives in the removed
    protocol v1 shape, a bare request payload without an envelope.  The
    protocol layer maps it to an ``unsupported_protocol`` envelope on a
    healthy connection — the client can keep using request/response verbs.
    """


class SubscriptionOverflowError(ReproError):
    """A standing query fell too far behind and was cancelled.

    Raised (as the terminal push of the subscription) when a slow consumer
    filled its bounded delta queue; re-subscribing starts a fresh snapshot.
    """


class StaleRoutingError(ReproError):
    """A routed request hit a node that no longer owns the addressed key.

    Raised by a primary when the key's hash slot maps to a different shard
    under the node's current routing table — the client routed with a stale
    table version.  Carries the current table for self-correction.
    """

    def __init__(self, message: str, routing: dict | None = None) -> None:
        super().__init__(message)
        self.routing = routing
