"""Protocol-first serving API: one facade, typed envelopes, a wire layer.

The library grew two signature-divergent serving engines —
:class:`~repro.service.engine.QueryEngine` over frozen collections and
:class:`~repro.live.engine.LiveQueryEngine` over mutable ones.  This
package is the stable boundary in front of both:

Layering (each module only depends on the ones above it)::

    requests.py   typed request objects + strict wire-payload validation
    responses.py  the Response envelope, error codes, canonical JSON
    surface.py    ExecutorSurface: engine-shaped verbs over one _call hook
    database.py   Database facade (named static/live collections) + Session
    protocol.py   length-prefixed frames (sync + asyncio readers) + the envelope
    connection.py both sides of one connection, no I/O: ServerConnection and
                  ClientConnection (+ the subscription handle's shared half)
    server.py     threaded TCP transport around ServerConnection
    client.py     blocking transport around ClientConnection: pipelining
    aserver.py    asyncio transport around the same ServerConnection
    aclient.py    asyncio transport around the same ClientConnection
    remote.py     RemoteShardExecutor: ShardedIndex fan-out to shard servers

The invariant the whole package is built around: for any request, the
response produced over the wire is **byte-identical** (modulo volatile
latency stats — see :meth:`~repro.api.responses.Response.result_bytes`) to
the response produced by an in-process :class:`~repro.api.database.Session`
on the same database — whichever transport, frame format, and
pipelining depth carried it.
"""

from repro.api.aclient import AsyncClient, AsyncSubscription
from repro.api.aserver import AsyncDatabaseServer
from repro.api.client import Client, PendingReply, Subscription
from repro.api.database import CollectionInfo, Database, Session
from repro.api.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameError,
    FrameTooLargeError,
    HELLO_KIND,
    InboundFrame,
    PROTOCOL_VERSION,
    PUSH_KIND,
    SUPPORTED_VERSIONS,
    classify_frame,
    encode_frame,
    hello_payload,
    push_envelope,
    read_frame,
    request_envelope,
    response_envelope,
    write_frame,
)
from repro.api.remote import RemoteShardExecutor
from repro.api.requests import (
    ADMIN_ACTIONS,
    AdminRequest,
    BatchRequest,
    COLLECTION_ENGINES,
    DEFAULT_COLLECTION,
    METRICS_FORMATS,
    DeleteRequest,
    InsertRequest,
    KnnRequest,
    RangeQueryRequest,
    Request,
    SubscribeRequest,
    UnsubscribeRequest,
    UpsertRequest,
    parse_request,
)
from repro.api.responses import (
    MatchPayload,
    Response,
    ResponseError,
    canonical_json,
    error_response,
)
from repro.api.server import DEFAULT_HOST, DEFAULT_PORT, DatabaseServer
from repro.api.surface import ExecutorSurface

__all__ = [
    "ADMIN_ACTIONS",
    "AdminRequest",
    "AsyncClient",
    "AsyncDatabaseServer",
    "AsyncSubscription",
    "BatchRequest",
    "COLLECTION_ENGINES",
    "Client",
    "CollectionInfo",
    "DEFAULT_COLLECTION",
    "DEFAULT_HOST",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_PORT",
    "Database",
    "DatabaseServer",
    "DeleteRequest",
    "ExecutorSurface",
    "FrameError",
    "FrameTooLargeError",
    "HELLO_KIND",
    "InboundFrame",
    "InsertRequest",
    "KnnRequest",
    "METRICS_FORMATS",
    "MatchPayload",
    "PROTOCOL_VERSION",
    "PUSH_KIND",
    "PendingReply",
    "RangeQueryRequest",
    "RemoteShardExecutor",
    "Request",
    "Response",
    "ResponseError",
    "SUPPORTED_VERSIONS",
    "Session",
    "SubscribeRequest",
    "Subscription",
    "UnsubscribeRequest",
    "UpsertRequest",
    "canonical_json",
    "classify_frame",
    "encode_frame",
    "error_response",
    "hello_payload",
    "parse_request",
    "push_envelope",
    "read_frame",
    "request_envelope",
    "response_envelope",
    "write_frame",
]
