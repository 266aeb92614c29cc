"""Standing queries over the wire: equivalence, safety, teardown.

The headline contract: a subscription's snapshot plus its accumulated
deltas is **byte-identical** (``result_bytes``) to re-running the query
after every single commit — across inserts, upserts, deletes, a memtable
flush, and a compaction; on the threaded and the asyncio transport; with
JSON and RBF binary delta frames; from the blocking and the asyncio
client.

The safety contracts around it: subscribing with a bare protocol v1
frame or before the hello fails with a typed ``unsupported_protocol``
envelope on a connection that stays healthy; unsubscribe ends the stream cleanly and
is idempotent; a dropped connection tears down every subscription it
registered.
"""

from __future__ import annotations

import asyncio
import socket
import time
from contextlib import contextmanager

import pytest

from repro.api import (
    AsyncClient,
    AsyncDatabaseServer,
    Client,
    Database,
    DatabaseServer,
    Response,
    read_frame,
    request_envelope,
    write_frame,
)
from repro.core.ranking import RankingSet
from repro.datasets.nyt import nyt_like_dataset
from repro.datasets.queries import sample_queries

THETA = 0.25
K = 8


@pytest.fixture(scope="module")
def rankings() -> RankingSet:
    return nyt_like_dataset(n=120, k=K, seed=23)


def _make_database(rankings) -> Database:
    database = Database()
    live = database.create_live("updates")
    for ranking in list(rankings)[:50]:
        live.insert(ranking.items)
    return database


@contextmanager
def _served(database, transport: str):
    server_cls = DatabaseServer if transport == "threaded" else AsyncDatabaseServer
    with server_cls(database, port=0) as server:
        yield server.address


def _result_bytes(response) -> bytes:
    return Response(ok=True, matches=tuple(response.matches or ())).result_bytes()


def _wait_equivalent(subscription, session, query, *, timeout: float = 15.0) -> None:
    """Consume deltas until the handle equals re-running the query now."""
    expected = _result_bytes(session.range_query(query, THETA, collection="updates"))
    deadline = time.monotonic() + timeout
    while subscription.result_bytes() != expected:
        assert time.monotonic() < deadline, "deltas never converged to the fresh answer"
        try:
            subscription.get(timeout=0.5)
        except TimeoutError:
            pass
    assert subscription.result_bytes() == expected


def _churn(client, session, subscription, query, rankings) -> None:
    """Mutate the collection every which way, checking equivalence per commit."""
    perturbed = list(query)
    perturbed[0], perturbed[-1] = perturbed[-1], perturbed[0]
    keys = []
    for items in (list(query), perturbed, list(rankings)[60].items):
        keys.append(client.insert(items, collection="updates"))
        _wait_equivalent(subscription, session, query)
    client.upsert(keys[1], list(query), collection="updates")
    _wait_equivalent(subscription, session, query)
    client.delete(keys[0], collection="updates")
    _wait_equivalent(subscription, session, query)
    client.flush("updates")
    _wait_equivalent(subscription, session, query)
    for ranking in list(rankings)[61:66]:
        keys.append(client.insert(ranking.items, collection="updates"))
        _wait_equivalent(subscription, session, query)
    client.compact("updates")
    _wait_equivalent(subscription, session, query)
    client.delete(keys[-1], collection="updates")
    _wait_equivalent(subscription, session, query)


class TestEquivalence:
    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    @pytest.mark.parametrize("wire_format", ["json", "binary"])
    def test_snapshot_plus_deltas_equals_rerun(self, rankings, transport, wire_format):
        database = _make_database(rankings)
        query = sample_queries(rankings, 1, seed=5)[0].items
        session = database.session()
        try:
            with _served(database, transport) as address:
                with Client(*address, wire_format=wire_format) as client:
                    assert client.wire_format == wire_format  # negotiated
                    subscription = client.subscribe(
                        query, collection="updates", theta=THETA
                    )
                    local = session.range_query(query, THETA, collection="updates")
                    assert subscription.result_bytes() == _result_bytes(local)
                    _churn(client, session, subscription, query, rankings)
                    subscription.unsubscribe()
        finally:
            database.close()

    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_knn_subscription_tracks_the_neighbourhood(self, rankings, transport):
        database = _make_database(rankings)
        query = sample_queries(rankings, 1, seed=7)[0].items
        session = database.session()
        try:
            with _served(database, transport) as address:
                with Client(*address) as client:
                    subscription = client.subscribe(
                        query, collection="updates", mode="knn", k=5
                    )
                    local = session.knn(query, 5, collection="updates")
                    assert subscription.result_bytes() == _result_bytes(local)
                    # a perfect-match insert must displace the 5th neighbour
                    client.insert(list(query), collection="updates")
                    deadline = time.monotonic() + 15.0
                    expected = _result_bytes(
                        session.knn(query, 5, collection="updates")
                    )
                    while subscription.result_bytes() != expected:
                        assert time.monotonic() < deadline
                        try:
                            subscription.get(timeout=0.5)
                        except TimeoutError:
                            pass
                    subscription.unsubscribe()
        finally:
            database.close()

    def test_async_client_subscription_equivalence(self, rankings):
        database = _make_database(rankings)
        query = sample_queries(rankings, 1, seed=5)[0].items
        session = database.session()

        async def scenario(address):
            async with await AsyncClient.connect(*address) as client:
                subscription = await client.subscribe(
                    query, collection="updates", theta=THETA
                )
                local = session.range_query(query, THETA, collection="updates")
                assert subscription.result_bytes() == _result_bytes(local)
                key = await client.insert(list(query), collection="updates")
                expected = _result_bytes(
                    session.range_query(query, THETA, collection="updates")
                )
                deadline = time.monotonic() + 15.0
                while subscription.result_bytes() != expected:
                    assert time.monotonic() < deadline
                    try:
                        await subscription.get(timeout=0.5)
                    except TimeoutError:
                        pass
                delivered = []
                # deleting the perfect match guarantees exactly one more delta
                await client.delete(key, collection="updates")
                # async iteration is the same stream: one more commit, and
                # the loop ends when unsubscribe's reply lands
                async for delta in subscription:
                    delivered.append(delta)
                    await subscription.unsubscribe()
                assert delivered  # the delete produced a delta
                final = _result_bytes(
                    session.range_query(query, THETA, collection="updates")
                )
                assert subscription.result_bytes() == final

        try:
            with AsyncDatabaseServer(database, port=0) as server:
                asyncio.run(scenario(server.address))
        finally:
            database.close()


class TestProtocolSafety:
    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_v1_subscribe_gets_a_typed_error_on_a_healthy_connection(
        self, rankings, transport
    ):
        database = _make_database(rankings)
        try:
            with _served(database, transport) as address:
                with socket.create_connection(address, timeout=10.0) as raw:
                    stream = raw.makefile("rwb")
                    write_frame(
                        stream,
                        {
                            "type": "subscribe",
                            "collection": "updates",
                            "mode": "range",
                            "items": [1, 2, 3, 4],
                            "theta": 0.2,
                        },
                    )
                    response = Response.from_dict(read_frame(stream))  # bare, like the frame
                    assert not response.ok
                    assert response.error.code == "unsupported_protocol"
                    # the connection survives: a follow-up request answers
                    write_frame(stream, request_envelope(1, {"type": "admin", "action": "ping"}))
                    assert read_frame(stream)["body"]["ok"] is True
        finally:
            database.close()

    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_pre_hello_v2_subscribe_is_refused_then_hello_still_works(
        self, rankings, transport
    ):
        database = _make_database(rankings)
        try:
            with _served(database, transport) as address:
                with socket.create_connection(address, timeout=10.0) as raw:
                    stream = raw.makefile("rwb")
                    envelope = request_envelope(
                        1,
                        {
                            "type": "subscribe",
                            "collection": "updates",
                            "mode": "range",
                            "items": [1, 2, 3, 4],
                            "theta": 0.2,
                        },
                    )
                    write_frame(stream, envelope)
                    reply = read_frame(stream)
                    assert reply["id"] == 1
                    assert reply["body"]["ok"] is False
                    assert reply["body"]["error"]["code"] == "unsupported_protocol"
                    assert "hello" in reply["body"]["error"]["message"]
                    # same socket, proper handshake: the connection is healthy
                    write_frame(stream, {"id": 2, "kind": "hello", "body": {"version": 2}})
                    hello = read_frame(stream)
                    assert hello["id"] == 2 and hello["body"]["ok"] is True
        finally:
            database.close()

    def test_in_process_session_refuses_subscriptions(self, rankings):
        database = _make_database(rankings)
        try:
            session = database.session()
            response = session.execute(
                {
                    "type": "subscribe",
                    "collection": "updates",
                    "mode": "range",
                    "items": [1, 2, 3, 4],
                    "theta": 0.2,
                }
            )
            assert not response.ok
            assert response.error.code == "unsupported_protocol"
        finally:
            database.close()


class TestLifecycle:
    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_unsubscribe_ends_the_stream_and_is_idempotent(self, rankings, transport):
        database = _make_database(rankings)
        query = sample_queries(rankings, 1, seed=5)[0].items
        try:
            with _served(database, transport) as address:
                with Client(*address) as client:
                    subscription = client.subscribe(
                        query, collection="updates", theta=THETA
                    )
                    assert database.subscriptions.active == 1
                    subscription.unsubscribe()
                    assert subscription.get(timeout=5.0) is None  # clean end
                    assert subscription.ended
                    subscription.unsubscribe()  # second call is a no-op
                    deadline = time.monotonic() + 10.0
                    while database.subscriptions.active != 0:
                        assert time.monotonic() < deadline
                        time.sleep(0.02)
                    # the connection still serves ordinary requests
                    assert client.ping()
        finally:
            database.close()

    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_unknown_unsubscribe_is_invalid_request(self, rankings, transport):
        database = _make_database(rankings)
        try:
            with _served(database, transport) as address:
                with Client(*address) as client:
                    response = client.execute(
                        {"type": "unsubscribe", "collection": "updates",
                         "subscription": 99}
                    )
                    assert not response.ok
                    assert response.error.code == "invalid_request"
        finally:
            database.close()

    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_disconnect_tears_down_every_subscription(self, rankings, transport):
        database = _make_database(rankings)
        query = sample_queries(rankings, 1, seed=5)[0].items
        try:
            with _served(database, transport) as address:
                client = Client(*address)
                client.subscribe(query, collection="updates", theta=THETA)
                client.subscribe(query, collection="updates", mode="knn", k=3)
                assert database.subscriptions.active == 2
                client.close()  # drops the socket with both subscriptions live
                deadline = time.monotonic() + 10.0
                while database.subscriptions.active != 0:
                    assert time.monotonic() < deadline, "teardown never happened"
                    time.sleep(0.02)
        finally:
            database.close()

    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_subscribing_to_a_static_collection_is_refused(self, rankings, transport):
        database = _make_database(rankings)
        database.create_static("news", rankings)
        try:
            with _served(database, transport) as address:
                with Client(*address) as client:
                    with pytest.raises(Exception, match="live"):
                        client.subscribe([1, 2, 3, 4], collection="news", theta=0.2)
                    assert database.subscriptions.active == 0
        finally:
            database.close()
