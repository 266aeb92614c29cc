"""The protocol state machines on their own: no socket, no thread, no loop.

:class:`~repro.api.connection.ServerConnection` is fed ``(shape, payload)``
tuples — exactly what ``read_frame_any`` yields — and answers with bytes
and flags; :class:`~repro.api.connection.ClientConnection` turns requests
into bytes and routes what comes back.  Every protocol rule both server
transports and both clients obey is pinned here once, and the two cores
talk to each other over in-memory bytes.  The socket-level suites
(``test_api_server``, ``test_api_protocol_v2``, ``test_sub_wire``) stay
transport-parametrised and check that the bytes really move.
"""

from __future__ import annotations

import io
import itertools
import time

import pytest

from repro.api import (
    Database,
    RangeQueryRequest,
    Response,
    SubscribeRequest,
    Subscription,
    hello_payload,
    push_envelope,
    request_envelope,
    response_envelope,
)
from repro.api.connection import ClientConnection, Reply, ServerConnection, ServerMetrics
from repro.api.protocol import FrameError, FrameTooLargeError, hello_data, read_frame_any
from repro.codec import wire
from repro.core.ranking import RankingSet
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sub.delta import EVENT_DELTA, EVENT_ERROR, PushDelta

LIMIT = 1 << 20
RANKINGS = [[1, 2, 3, 4], [1, 2, 4, 3], [2, 1, 3, 4], [7, 8, 9, 10], [1, 3, 2, 4]]


@pytest.fixture()
def metrics():
    previous = set_registry(MetricsRegistry())
    try:
        yield ServerMetrics("threaded")
    finally:
        set_registry(previous)


@pytest.fixture()
def database():
    database = Database()
    database.create_static("news", RankingSet.from_lists(RANKINGS))
    # 24 mutually close rankings: one query's answer outgrows a small frame
    database.create_static(
        "wide", RankingSet.from_lists([list(p) for p in itertools.permutations([1, 2, 3, 4])])
    )
    live = database.create_live("updates")
    for items in RANKINGS:
        live.insert(items)
    yield database
    database.close()


def _connect(database, metrics, limit=LIMIT):
    """A connection plus the list its pushes land in."""
    pushed: list[bytes] = []
    return ServerConnection(database, limit, metrics, pushed.append), pushed


def _frame(reply: Reply):
    """Decode the one frame a reply carries, as the client's reader would."""
    framed = read_frame_any(io.BytesIO(reply.data), LIMIT)
    assert framed is not None
    return framed


def _json(reply: Reply) -> dict:
    shape, payload = _frame(reply)
    assert shape == "json"
    return payload


def _ask(connection, request_id, payload, **envelope):
    return connection.receive("json", request_envelope(request_id, payload, **envelope))


RANGE = RangeQueryRequest(collection="news", items=(1, 2, 3, 4), theta=0.3).to_dict()
SUBSCRIBE = {
    "type": "subscribe", "collection": "updates", "mode": "range",
    "items": [1, 2, 3, 4], "theta": 0.3,
}


class TestHandshakeAndEnvelopes:
    def test_hello_advertises_one_version(self, database, metrics):
        connection, _ = _connect(database, metrics, limit=4096)
        reply = connection.receive("json", hello_payload(0))
        assert not reply.close and not reply.shutdown
        body = _json(reply)
        assert body["id"] == 0 and body["body"]["ok"] is True
        data = body["body"]["data"]
        assert data["version"] == 2 and data["versions"] == [2]
        assert data["max_frame_bytes"] == 4096 and "binary" in data["formats"]

    def test_request_before_hello_is_served(self, database, metrics):
        """Only subscriptions need the greeting; a plain request does not."""
        connection, _ = _connect(database, metrics)
        body = _json(_ask(connection, 5, RANGE))
        assert body["id"] == 5
        remote = Response.from_dict(body["body"])
        local = database.session().execute(RANGE)
        assert remote.result_bytes() == local.result_bytes()

    @pytest.mark.parametrize(
        "payload, complaint",
        [
            ({"id": None, "kind": "range", "body": {}}, "id"),
            ({"id": 1, "kind": 7, "body": {}}, "kind"),
            ({"id": 1, "kind": "range", "body": []}, "body"),
            ({"id": 1, "kind": "range", "body": {}, "trace": 5}, "trace"),
            ({"id": 1, "kind": "range", "body": {}, "junk": 1}, "envelope field"),
        ],
    )
    def test_malformed_envelope_is_answered_on_a_live_connection(
        self, database, metrics, payload, complaint
    ):
        connection, _ = _connect(database, metrics)
        reply = connection.receive("json", payload)
        assert not reply.close
        body = _json(reply)
        assert body["id"] == (payload["id"] if isinstance(payload["id"], int) else None)
        assert body["body"]["error"]["code"] == "invalid_request"
        assert complaint in body["body"]["error"]["message"]
        assert _json(_ask(connection, 2, {"type": "admin", "action": "ping"}))["body"]["ok"]

    def test_bare_v1_frame_is_refused_and_the_next_frame_served(self, database, metrics):
        connection, _ = _connect(database, metrics)
        reply = connection.receive("json", dict(RANGE))
        assert not reply.close
        refusal = _json(reply)
        assert "id" not in refusal and refusal["ok"] is False  # bare, like the frame
        assert refusal["error"]["code"] == "unsupported_protocol"
        assert "protocol v2" in refusal["error"]["message"]
        assert _json(_ask(connection, 1, RANGE))["body"]["ok"] is True

    def test_traced_request_carries_its_span_tree(self, database, metrics):
        connection, _ = _connect(database, metrics)
        body = _json(_ask(connection, 1, RANGE, trace="abc123"))["body"]
        assert body["trace"]["trace_id"] == "abc123"
        assert body["trace"]["spans"][0]["name"] == "request:range"
        assert "trace" not in _json(_ask(connection, 2, RANGE))["body"]


class TestBinaryFrames:
    def test_binary_request_gets_a_binary_reply(self, database, metrics):
        connection, _ = _connect(database, metrics)
        reply = connection.receive("binary", wire.encode_request(9, RANGE))
        shape, body = _frame(reply)
        assert shape == "binary"
        request_id, payload = wire.decode_response(body)
        assert request_id == 9
        local = database.session().execute(RANGE)
        assert Response.from_dict(payload).result_bytes() == local.result_bytes()

    def test_reply_without_a_binary_form_falls_back_to_json(self, database, metrics):
        connection, _ = _connect(database, metrics)
        reply = connection.receive(
            "binary", wire.encode_request(3, dict(RANGE, collection="nope"))
        )
        body = _json(reply)
        assert body["id"] == 3
        assert body["body"]["error"]["code"] == "unknown_collection"

    def test_binary_reply_over_the_limit_degrades_to_json_then_to_an_error(
        self, database, metrics
    ):
        """Binary too large -> the JSON envelope is tried; too large as well ->
        a small ``protocol`` error on the same id, and the connection lives on."""
        wide = dict(RANGE, collection="wide", theta=0.5)
        answer = database.session().execute(wide).to_dict()
        limit = len(wire.encode_response(1, answer)) - 1
        connection, _ = _connect(database, metrics, limit=limit)
        reply = connection.receive("binary", wire.encode_request(1, wide))
        assert not reply.close and len(reply.data) <= limit + 4
        body = _json(reply)
        assert body["id"] == 1
        assert body["body"]["error"]["code"] == "protocol"
        assert "frame limit" in body["body"]["error"]["message"]
        assert metrics.oversized.value == 1
        assert _json(_ask(connection, 2, {"type": "admin", "action": "ping"}))["body"]["ok"]

    def test_undecodable_binary_body_gets_the_final_envelope_and_close(
        self, database, metrics
    ):
        connection, _ = _connect(database, metrics)
        reply = connection.receive("binary", b"\x00\x01 not an RBF record")
        assert reply.close and not reply.shutdown
        final = _json(reply)
        assert "id" not in final and final["error"]["code"] == "protocol"


class TestReplyTooLarge:
    def test_unframeable_reply_closes_instead_of_going_silent(self, database, metrics):
        """64 bytes hold neither the hello reply nor the error about it."""
        connection, _ = _connect(database, metrics, limit=64)
        reply = connection.receive("json", hello_payload(0))
        assert reply == Reply(b"", close=True)

    def test_frame_error_is_one_bare_protocol_envelope_then_close(self, database, metrics):
        connection, _ = _connect(database, metrics)
        reply = connection.frame_error(FrameTooLargeError(10_000, 256))
        assert reply.close
        assert _json(reply)["error"]["code"] == "protocol"
        assert metrics.oversized.value == 1

    def test_counters_see_every_whole_frame_once(self, database, metrics):
        connection, _ = _connect(database, metrics)
        replies = [
            connection.receive("json", hello_payload(0)),
            _ask(connection, 1, RANGE),
            connection.receive("json", {"type": "admin", "action": "ping"}),
        ]
        assert metrics.frames_in.value == 3
        assert metrics.frames_out.value == 3
        assert metrics.bytes_out.value == sum(len(reply.data) for reply in replies)
        assert metrics.bytes_in.value == 0  # the transport's reader feeds this one


class TestSubscriptions:
    def _greeted(self, database, metrics):
        connection, pushed = _connect(database, metrics)
        connection.receive("json", hello_payload(0))
        return connection, pushed

    def test_subscribe_before_hello_is_refused(self, database, metrics):
        connection, _ = _connect(database, metrics)
        body = _json(_ask(connection, 1, SUBSCRIBE))
        assert body["id"] == 1
        assert body["body"]["error"]["code"] == "unsupported_protocol"
        assert "hello" in body["body"]["error"]["message"]
        assert database.subscriptions.active == 0

    def test_duplicate_static_and_unknown_ids_are_invalid_requests(self, database, metrics):
        connection, _ = self._greeted(database, metrics)
        assert _json(_ask(connection, 1, SUBSCRIBE))["body"]["ok"] is True
        duplicate = _json(_ask(connection, 1, SUBSCRIBE))["body"]
        assert duplicate["error"]["code"] == "invalid_request"
        assert "already registered" in duplicate["error"]["message"]
        static = _json(_ask(connection, 2, dict(SUBSCRIBE, collection="news")))["body"]
        assert static["error"]["code"] == "invalid_request"
        assert "live collection" in static["error"]["message"]
        unknown = _json(
            _ask(connection, 3, {"type": "unsubscribe", "collection": "updates",
                                 "subscription": 77})
        )["body"]
        assert unknown["error"]["code"] == "invalid_request"
        assert database.subscriptions.active == 1
        connection.close()

    def test_a_commit_is_pushed_through_send(self, database, metrics):
        connection, pushed = self._greeted(database, metrics)
        snapshot = _json(_ask(connection, 4, SUBSCRIBE))["body"]
        assert snapshot["ok"] is True and snapshot["data"]["subscription"] == 4
        frames_before = metrics.frames_out.value
        database.session().insert([1, 2, 3, 4], collection="updates")
        deadline = time.monotonic() + 10.0
        while not pushed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(pushed) == 1
        push = read_frame_any(io.BytesIO(pushed[0]), LIMIT)[1]
        assert push["id"] == 4 and push["kind"] == "push"
        assert push["body"]["event"] == EVENT_DELTA and push["body"]["entered"]
        assert metrics.frames_out.value == frames_before + 1
        connection.close()

    def test_push_encoding_binary_and_json(self, database, metrics):
        connection, _ = _connect(database, metrics)
        body = {"event": EVENT_DELTA, "version": 3, "entered": [], "moved": [], "left": [7]}
        shape, payload = read_frame_any(io.BytesIO(connection.encode_push(4, body, True)), LIMIT)
        assert shape == "binary" and wire.is_push_frame(payload)
        assert wire.decode_push(payload) == (4, body)
        shape, payload = read_frame_any(io.BytesIO(connection.encode_push(4, body, False)), LIMIT)
        assert shape == "json" and payload == {"id": 4, "kind": "push", "body": body}
        # a string id has no binary form: JSON on the same connection
        assert read_frame_any(io.BytesIO(connection.encode_push("s", body, True)), LIMIT)[0] == "json"

    def test_close_cancels_exactly_this_connections_subscriptions(self, database, metrics):
        mine, _ = self._greeted(database, metrics)
        other, _ = self._greeted(database, metrics)
        for request_id in (1, 2):
            assert _json(_ask(mine, request_id, SUBSCRIBE))["body"]["ok"] is True
        assert _json(_ask(other, 1, SUBSCRIBE))["body"]["ok"] is True
        assert database.subscriptions.active == 3
        mine.close()
        assert database.subscriptions.active == 1
        mine.close()  # idempotent
        other.close()
        assert database.subscriptions.active == 0

    def test_database_without_a_registry_refuses_subscribe(self, metrics):
        """What a served cluster coordinator looks like to a connection."""

        class Stateless:
            def session(self):
                return self

        connection, _ = _connect(Stateless(), metrics)
        connection.receive("json", hello_payload(0))
        body = _json(_ask(connection, 1, SUBSCRIBE))["body"]
        assert body["error"]["code"] == "invalid_request"
        assert "standing queries" in body["error"]["message"]
        connection.close()  # nothing registered: must not touch .subscriptions


class TestShutdown:
    def test_shutdown_flag_only_when_the_request_succeeded(self, database, metrics):
        connection, _ = _connect(database, metrics)
        refused = _ask(connection, 1, {"type": "admin", "action": "shutdown", "junk": 1})
        assert _json(refused)["body"]["ok"] is False
        assert not refused.shutdown and not refused.close
        accepted = _ask(connection, 2, {"type": "admin", "action": "shutdown"})
        assert _json(accepted)["body"]["data"] == {"acknowledged": True}
        assert accepted.shutdown and accepted.close


# -- the client side ---------------------------------------------------------------


def _hello_reply(request_id=0, **data):
    """A server's handshake answer, as the client's frame reader yields it."""
    data = {**hello_data(LIMIT), **data}
    return "json", response_envelope(request_id, {"ok": True, "data": data})


def _client(binary=False, **data) -> ClientConnection:
    core = ClientConnection(LIMIT, binary=binary)
    core.hello()
    core.handshake(_hello_reply(**data))
    return core


def _reply(request_id, body):
    return "json", response_envelope(request_id, body)


DELTA = {"event": EVENT_DELTA, "version": 3, "entered": [], "moved": [], "left": [7]}
PING_OK = {"ok": True, "data": {"pong": True}}


class TestClientHandshake:
    def test_accepted_hello_records_the_server(self):
        core = ClientConnection(LIMIT)
        shape, hello = read_frame_any(io.BytesIO(core.hello()), LIMIT)
        assert shape == "json" and hello == hello_payload(0)
        core.handshake(_hello_reply())
        assert core.server_info == _hello_reply()[1]["body"]["data"]
        assert core.server_info["versions"] == [2]
        assert not core.binary and not core.closed
        assert core.allocate() == 1  # the hello took id 0

    @pytest.mark.parametrize(
        "framed, complaint",
        [
            (None, "closed the connection"),
            (("json", {"ok": False, "error": {"code": "x", "message": "?"}}), "protocol v2"),
            (("binary", b"\x00"), "protocol v2"),
            (
                _reply(0, {"ok": False, "error": {"code": "protocol", "message": "no"}}),
                "handshake rejected",
            ),
            (_reply(0, {"ok": True, "matches": [{"rid": 1}]}), "malformed reply"),
        ],
        ids=["eof", "no-envelope", "binary", "rejected", "malformed"],
    )
    def test_refused_handshakes_raise_connection_error(self, framed, complaint):
        core = ClientConnection(LIMIT)
        core.hello()
        with pytest.raises(ConnectionError, match=complaint):
            core.handshake(framed)
        assert core.server_info is None

    def test_frame_limit_clamps_down_to_the_server_never_up(self):
        assert _client(max_frame_bytes=1024).max_frame_bytes == 1024
        assert _client(max_frame_bytes=LIMIT * 4).max_frame_bytes == LIMIT

    @pytest.mark.parametrize(
        "offer, formats, negotiated",
        [(True, ["json", "binary"], True), (True, ["json"], False),
         (True, None, False), (False, ["json", "binary"], False)],
    )
    def test_binary_needs_the_offer_and_the_advert(self, offer, formats, negotiated):
        assert _client(binary=offer, formats=formats).binary is negotiated


class TestClientEncoding:
    def test_binary_request_when_negotiated(self):
        core = _client(binary=True)
        request_id = core.allocate()
        frame = core.encode(request_id, RangeQueryRequest.from_dict(RANGE))
        shape, body = read_frame_any(io.BytesIO(frame), LIMIT)
        assert shape == "binary"
        assert wire.decode_request(body) == (request_id, RANGE)

    def test_traced_request_falls_back_to_json(self):
        core = _client(binary=True)
        shape, envelope = read_frame_any(io.BytesIO(core.encode(5, RANGE, trace=True)), LIMIT)
        assert shape == "json" and envelope["trace"] is True and envelope["id"] == 5

    def test_shape_without_a_binary_form_falls_back_to_json(self):
        core = _client(binary=True)
        frame = core.encode(6, {"type": "admin", "action": "ping"})
        assert read_frame_any(io.BytesIO(frame), LIMIT) == (
            "json", request_envelope(6, {"type": "admin", "action": "ping"})
        )

    @pytest.mark.parametrize("binary", [False, True])
    def test_subscribe_asks_for_binary_deltas_only_on_a_binary_connection(self, binary):
        frame = _client(binary=binary).encode(1, SubscribeRequest.from_dict(SUBSCRIBE))
        shape, envelope = read_frame_any(io.BytesIO(frame), LIMIT)
        assert shape == "json"  # subscribe has no binary request form
        assert envelope["body"]["format"] == ("binary" if binary else None)

    def test_oversized_request_is_refused_before_an_id_is_registered(self):
        core = _client(max_frame_bytes=64)
        request_id = core.allocate()
        with pytest.raises(FrameTooLargeError):
            core.encode(request_id, dict(RANGE, items=list(range(1, 100))))
        assert core.receive(*_reply(request_id, PING_OK)) is None  # nobody waits
        assert core.fail_all(ConnectionError("done")) == ([], [])


class TestClientRouting:
    def test_reply_is_routed_to_its_waiter_once(self):
        core = _client()
        request_id = core.allocate()
        core.expect(request_id, "waiter")
        routed = core.receive(*_reply(request_id, PING_OK))
        assert routed == ("waiter", Response.from_dict(PING_OK), False)
        assert core.receive(*_reply(request_id, PING_OK)) is None

    def test_late_reply_to_an_abandoned_id_is_dropped(self):
        core = _client()
        request_id = core.allocate()
        core.expect(request_id, "waiter")
        core.abandon(request_id)
        assert core.receive(*_reply(request_id, PING_OK)) is None
        assert not core.closed

    def test_push_to_an_unknown_id_is_dropped(self):
        core = _client()
        assert core.receive("json", push_envelope(42, DELTA)) is None

    def test_push_reaches_the_handle_registered_with_the_subscribe(self):
        core = _client()
        subscription_id = core.allocate()
        core.expect(subscription_id, "subscribe", "handle")
        routed = core.receive("json", push_envelope(subscription_id, DELTA))
        assert routed == ("handle", ("delta", PushDelta.from_dict(DELTA)), True)

    def test_terminal_push_releases_its_subscription(self):
        core = _client()
        core.expect(3, "subscribe", "handle")
        error = {"code": "subscription_overflow", "message": "slow consumer"}
        routed = core.receive("json", push_envelope(3, {"event": EVENT_ERROR, "error": error}))
        handle, (kind, response), push = routed
        assert push and handle == "handle" and kind == "error"
        assert response.error.code == "subscription_overflow"
        assert core.release(3) is None
        assert core.receive("json", push_envelope(3, DELTA)) is None

    def test_binary_reply_and_push_are_decoded(self, database):
        core = _client(binary=True)
        core.expect(1, "range", "handle")
        answer = database.session().execute(RANGE)
        routed = core.receive("binary", wire.encode_response(1, answer.to_dict()))
        waiter, response, push = routed
        assert waiter == "range" and not push
        assert response.result_bytes() == answer.result_bytes()
        routed = core.receive("binary", wire.encode_push(1, DELTA))
        assert routed == ("handle", ("delta", PushDelta.from_dict(DELTA)), True)

    @pytest.mark.parametrize(
        "shape, payload",
        [
            ("json", {"body": PING_OK}),
            ("json", {"id": [1], "body": PING_OK}),
            ("json", {"id": 1, "body": "not an object"}),
            ("json", response_envelope(1, {"ok": True, "matches": [{"rid": 1}]})),
            ("json", response_envelope(1, {"ok": False, "error": 5})),
            ("json", push_envelope(1, {"event": EVENT_DELTA, "version": "x"})),
            ("json", push_envelope(1, {"event": "surprise"})),
            ("binary", b"\x00\x01 not an RBF record"),
        ],
        ids=["no-id", "list-id", "no-body", "reply-keyerror", "reply-bad-error",
             "bad-delta", "unknown-event", "binary-garbage"],
    )
    def test_uncorrelatable_or_undecodable_frames_raise(self, shape, payload):
        """Even for an id nobody waits on: the stream itself is untrustworthy."""
        core = _client()
        core.expect(1, "waiter", "handle")
        with pytest.raises(FrameError):
            core.receive(shape, payload)


class TestClientTeardown:
    def test_fail_all_returns_every_waiter_and_handle_once(self):
        core = _client()
        core.expect(1, "one")
        core.expect(2, "two", "handle")
        waiters, handles = core.fail_all(ConnectionError("connection failed: gone"))
        assert sorted(waiters) == ["one", "two"] and handles == ["handle"]
        assert core.closed
        assert core.fail_all(ConnectionError("again")) == ([], [])
        for call in (core.allocate, lambda: core.expect(3, "late")):
            with pytest.raises(ConnectionError, match="gone"):
                call()


class TestInMemoryExchange:
    @pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
    def test_client_and_server_cores_over_bytes_match_a_session(
        self, database, metrics, binary
    ):
        """hello, a range query, a subscribe and one delta — with no socket."""
        pushed: list[bytes] = []
        server = ServerConnection(database, LIMIT, metrics, pushed.append)
        client = ClientConnection(LIMIT, binary=binary)
        session = database.session()

        def over_the_wire(frame: bytes):
            reply = server.receive(*read_frame_any(io.BytesIO(frame), LIMIT))
            assert not reply.close
            return read_frame_any(io.BytesIO(reply.data), LIMIT)

        client.handshake(over_the_wire(client.hello()))
        assert client.binary is binary

        query = RangeQueryRequest.from_dict(RANGE)
        request_id = client.allocate()
        client.expect(request_id, "range")
        waiter, response, _ = client.receive(*over_the_wire(client.encode(request_id, query)))
        assert waiter == "range"
        assert response.result_bytes() == session.execute(query).result_bytes()

        handle = Subscription(None, "updates")
        handle.id = client.allocate()
        client.expect(handle.id, "subscribe", handle)
        subscribe = SubscribeRequest.from_dict(SUBSCRIBE)
        _, snapshot, _ = client.receive(*over_the_wire(client.encode(handle.id, subscribe)))
        handle._open(snapshot.raise_for_error())
        standing = dict(RANGE, collection="updates")
        assert handle.result_bytes() == Response(
            ok=True, matches=session.execute(standing).matches
        ).result_bytes()

        session.insert([1, 2, 3, 4], collection="updates")
        deadline = time.monotonic() + 10.0
        while not pushed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(pushed) == 1
        shape, push = read_frame_any(io.BytesIO(pushed[0]), LIMIT)
        assert shape == ("binary" if binary else "json")
        waiter, event, is_push = client.receive(shape, push)
        assert is_push and waiter is handle
        handle._absorb(event)
        assert handle.get(timeout=0).entered
        assert handle.result_bytes() == Response(
            ok=True, matches=session.execute(standing).matches
        ).result_bytes()
        server.close()
