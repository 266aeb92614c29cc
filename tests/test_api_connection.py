"""The protocol state machine on its own: no socket, no thread, no loop.

:class:`~repro.api.connection.ServerConnection` is fed ``(shape, payload)``
tuples — exactly what ``read_frame_any`` yields — and answers with bytes
and flags, so every protocol rule both transports obey is pinned here
once.  The socket-level suites (``test_api_server``, ``test_api_protocol_v2``,
``test_sub_wire``) stay transport-parametrised and check that the bytes
really move.
"""

from __future__ import annotations

import io
import itertools
import time

import pytest

from repro.api import Database, RangeQueryRequest, Response, hello_payload, request_envelope
from repro.api.connection import Reply, ServerConnection, ServerMetrics
from repro.api.protocol import FrameTooLargeError, read_frame_any
from repro.codec import wire
from repro.core.ranking import RankingSet
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sub.delta import EVENT_DELTA

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
