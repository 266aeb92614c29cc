"""The wire protocol: envelopes, handshake, pipelining, both transports.

The contracts under test:

* **one protocol** — a bare protocol v1 frame is refused with a typed
  ``unsupported_protocol`` envelope on a connection that stays usable, a
  client refuses a peer that does not answer the handshake with an
  envelope, and ``Client(protocol=1)`` no longer exists;
* **correlation** — responses match requests by ``id`` even when the
  server answers out of order, and a timed-out request fails alone while
  its late reply is silently discarded;
* **equivalence** — a 100-deep pipelined mixed query+mutation stream is
  byte-identical (``result_bytes``) to the same stream executed
  sequentially in-process, on the threaded *and* the asyncio transport.
"""

from __future__ import annotations

import asyncio
import inspect
import socket
import struct
import threading
import time

import pytest

from repro.core.ranking import RankingSet
from repro.api import (
    AsyncClient,
    AsyncDatabaseServer,
    Client,
    Database,
    DatabaseServer,
    classify_frame,
    hello_payload,
    request_envelope,
    response_envelope,
)
from repro.api.protocol import (
    BINARY_FRAME_FLAG,
    PROTOCOL_VERSION,
    read_frame,
    read_frame_any,
    write_frame,
)
from repro.api.requests import (
    DeleteRequest,
    InsertRequest,
    KnnRequest,
    RangeQueryRequest,
    UpsertRequest,
)
from repro.api.surface import ConnectionSurface, ExecutorSurface
from repro.codec import wire
from repro.datasets.nyt import nyt_like_dataset
from repro.datasets.queries import sample_queries
from repro.obs import names as metric_names
from repro.obs.metrics import MetricsRegistry, set_registry

THETA = 0.25
K = 8


@pytest.fixture(scope="module")
def rankings() -> RankingSet:
    return nyt_like_dataset(n=120, k=K, seed=11)


def _make_database(rankings) -> Database:
    database = Database()
    database.create_static("news", rankings, num_shards=2)
    live = database.create_live("updates")
    for ranking in list(rankings)[:40]:
        live.insert(ranking.items)
    return database


def _server_type(transport: str):
    return DatabaseServer if transport == "threaded" else AsyncDatabaseServer


@pytest.fixture(params=["threaded", "asyncio"])
def served(request, rankings):
    """Both transports behind one fixture: the contracts must hold on each."""
    database = _make_database(rankings)
    with _server_type(request.param)(database, port=0) as server:
        yield server, database
    database.close()


class _FakeV1Server:
    """A PR 4-style server: bare frames, no envelopes, no handshake.

    Exercises the "old server" half of the interop matrix without keeping
    dead server code around: it answers exactly like the PR 4 loop did —
    ``session.execute`` on every frame payload, bare response envelope back.
    """

    def __init__(self, database: Database) -> None:
        self._session = database.session()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()
        return host, port

    def _serve(self) -> None:
        try:
            while True:
                connection, _ = self._listener.accept()
                with connection:
                    stream = connection.makefile("rwb")
                    while True:
                        payload = read_frame(stream)
                        if payload is None:
                            break
                        write_frame(stream, self._session.execute(payload).to_dict())
        except OSError:
            return  # listener closed

    def close(self) -> None:
        self._listener.close()


class _ScriptedServer:
    """Reads v2 envelopes off one connection and replies per a script."""

    def __init__(self, script) -> None:
        """``script(stream)`` drives one accepted connection."""
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._script = script
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()
        return host, port

    def _serve(self) -> None:
        try:
            connection, _ = self._listener.accept()
        except OSError:
            return
        with connection:
            stream = connection.makefile("rwb")
            try:
                self._script(stream)
            except (OSError, ValueError):
                pass

    def close(self) -> None:
        self._listener.close()


def _answer_hello(stream) -> None:
    frame = read_frame(stream)
    assert frame is not None and frame.get("kind") == "hello"
    write_frame(
        stream,
        response_envelope(
            frame["id"],
            {"ok": True, "data": {"version": 2, "versions": [2], "max_frame_bytes": 2**20}},
        ),
    )


class TestClassifyFrame:
    def test_v1_payloads_are_bare_and_not_dispatchable(self):
        frame = classify_frame({"type": "range", "collection": "news", "items": [1], "theta": 0.1})
        assert frame.bare and frame.payload is None
        assert frame.error is not None and "protocol v2" in frame.error

    def test_v2_envelope_unwraps_to_v1_payload(self):
        frame = classify_frame(request_envelope(7, {"type": "knn", "items": [1, 2], "k": 3}))
        assert not frame.bare and frame.request_id == 7 and frame.kind == "knn"
        assert frame.payload == {"type": "knn", "items": [1, 2], "k": 3}

    def test_hello_is_recognised(self):
        frame = classify_frame(hello_payload(0))
        assert frame.is_hello and frame.payload is None

    @pytest.mark.parametrize(
        "payload, complaint",
        [
            ({"id": True, "kind": "range", "body": {}}, "id"),
            ({"id": 1.5, "kind": "range", "body": {}}, "id"),
            ({"kind": "range", "body": {}}, "id"),
            ({"id": 1, "kind": "", "body": {}}, "kind"),
            ({"id": 1, "body": {}}, "kind"),
            ({"id": 1, "kind": "range", "body": []}, "body"),
            ({"id": 1, "kind": "range", "body": {}, "extra": 1}, "envelope field"),
            ({"id": 1, "kind": "range", "body": {"type": "knn"}}, "type"),
        ],
    )
    def test_malformed_envelopes_are_reported_not_fatal(self, payload, complaint):
        frame = classify_frame(payload)
        assert not frame.bare
        assert frame.error is not None and complaint in frame.error

    def test_admin_create_payload_is_not_mistaken_for_an_envelope(self):
        # the DDL field is deliberately named 'engine', not 'kind' — a bare
        # admin/create frame must classify as bare, not as a broken envelope
        payload = {"type": "admin", "action": "create", "collection": "x",
                   "engine": "live", "num_shards": 1}
        assert classify_frame(payload).bare


class TestHandshake:
    def test_negotiated_client_lands_on_v2(self, served):
        server, _ = served
        with Client(*server.address) as client:
            assert client.server_info is not None
            assert client.server_info["version"] == PROTOCOL_VERSION
            assert client.server_info["versions"] == [PROTOCOL_VERSION]
            assert client.ping() is True

    def test_protocol_1_is_gone_from_the_client(self):
        """The constructor refuses before it touches the network."""
        with pytest.raises(ValueError, match="protocol=1 was removed"):
            Client("127.0.0.1", 1, protocol=1)
        with pytest.raises(ValueError, match="None or 2"):
            Client("127.0.0.1", 1, protocol=3)

    def test_raw_v1_frame_is_refused_then_hello_succeeds(self, served, rankings):
        """A bare frame gets one bare typed refusal; the stream stays usable."""
        server, _ = served
        query = list(rankings)[0].items
        with socket.create_connection(server.address, timeout=10.0) as raw:
            stream = raw.makefile("rwb")
            write_frame(stream, {"type": "range", "collection": "news",
                                 "items": list(query), "theta": THETA})
            reply = read_frame(stream)
            assert reply is not None and "id" not in reply  # nothing to correlate on
            assert reply["ok"] is False
            assert reply["error"]["code"] == "unsupported_protocol"
            assert "protocol v2" in reply["error"]["message"]
            write_frame(stream, hello_payload(1))
            hello = read_frame(stream)
            assert hello["id"] == 1 and hello["body"]["ok"] is True
            assert hello["body"]["data"]["versions"] == [PROTOCOL_VERSION]
            write_frame(stream, request_envelope(2, {"type": "admin", "action": "ping"}))
            assert read_frame(stream)["body"]["ok"] is True

    def test_protocol_2_refuses_a_v1_server(self, rankings):
        """No fallback: a peer answering the hello with a bare frame is refused
        (``protocol=2`` is still accepted, and selects nothing)."""
        database = _make_database(rankings)
        fake = _FakeV1Server(database)
        try:
            for pinned in (None, 2):
                with pytest.raises(ConnectionError, match="does not speak protocol v2"):
                    Client(*fake.address, protocol=pinned)
        finally:
            fake.close()
            database.close()

    def test_malformed_envelope_gets_correlated_error_and_connection_survives(self, served):
        server, _ = served
        with socket.create_connection(server.address, timeout=10.0) as raw:
            stream = raw.makefile("rwb")
            write_frame(stream, {"id": 9, "kind": "range", "body": [], "junk": 1})
            reply = read_frame(stream)
            assert reply is not None and reply["id"] == 9
            assert reply["body"]["ok"] is False
            assert reply["body"]["error"]["code"] == "invalid_request"
            # the stream is still synchronised: a follow-up request answers
            write_frame(stream, request_envelope(10, {"type": "admin", "action": "ping"}))
            reply = read_frame(stream)
            assert reply["id"] == 10 and reply["body"]["ok"] is True


class TestTransportParity:
    """Both transports feed one ``ServerConnection``: same frames, same end."""

    @pytest.mark.parametrize("transport", ["threaded", "asyncio"])
    def test_unframeable_reply_closes_instead_of_hanging(self, rankings, transport):
        """A 64-byte limit fits neither the hello reply nor the error about
        it: the server must hang up, not leave the client waiting."""
        database = _make_database(rankings)
        try:
            with _server_type(transport)(database, port=0, max_frame_bytes=64) as server:
                with socket.create_connection(server.address, timeout=2.0) as raw:
                    stream = raw.makefile("rwb")
                    write_frame(stream, hello_payload(0))
                    started = time.monotonic()
                    assert read_frame(stream) is None  # closed, and at once
                    assert time.monotonic() - started < 1.5
        finally:
            database.close()

    def _scripted_exchange(self, rankings, transport: str) -> dict:
        """One fixed conversation; returns the server's wire counters after it.

        Every JSON reply in it is free of volatile fields (latency stats), so
        byte counts are exact: the one query travels binary, which drops them.
        """
        query = RangeQueryRequest(collection="news", items=list(rankings)[0].items, theta=THETA)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        database = _make_database(rankings)
        try:
            with _server_type(transport)(database, port=0) as server:
                with socket.create_connection(server.address, timeout=10.0) as raw:
                    stream = raw.makefile("rwb")
                    for frame in (
                        hello_payload(0),
                        request_envelope(1, {"type": "admin", "action": "ping"}),
                        query.to_dict(),  # bare: refused, connection lives
                        {"id": 2, "kind": "range", "body": []},  # malformed envelope
                    ):
                        write_frame(stream, frame)
                        assert read_frame(stream) is not None
                    body = wire.encode_request(3, query.to_dict())
                    stream.write(struct.pack("!I", len(body) | BINARY_FRAME_FLAG) + body)
                    stream.flush()
                    assert read_frame_any(stream)[0] == "binary"
                    garbage = b"not json"  # a whole frame the server cannot parse
                    stream.write(struct.pack("!I", len(garbage)) + garbage)
                    stream.flush()
                    assert read_frame(stream)["error"]["code"] == "protocol"
                    assert read_frame(stream) is None
        finally:
            database.close()
            set_registry(previous)
        counters = {}
        for direction in ("in", "out"):
            for name in (metric_names.SERVER_FRAMES_TOTAL, metric_names.SERVER_BYTES_TOTAL):
                counters[name, direction] = registry.counter(
                    name, transport=transport, direction=direction
                ).value
        return counters

    def test_wire_counters_agree_across_transports(self, rankings):
        threaded = self._scripted_exchange(rankings, "threaded")
        assert threaded[metric_names.SERVER_FRAMES_TOTAL, "in"] == 5  # the garbage is no frame
        assert threaded[metric_names.SERVER_FRAMES_TOTAL, "out"] == 6
        assert threaded[metric_names.SERVER_BYTES_TOTAL, "in"] > 0
        assert threaded == self._scripted_exchange(rankings, "asyncio")


class TestCorrelation:
    def test_out_of_order_replies_reach_the_right_callers(self):
        """The server may answer later requests first; ids route the replies."""

        def script(stream) -> None:
            _answer_hello(stream)
            first = read_frame(stream)
            second = read_frame(stream)
            for frame in (second, first):  # reversed on purpose
                write_frame(
                    stream,
                    response_envelope(
                        frame["id"], {"ok": True, "data": {"echo": frame["body"]["action"]}}
                    ),
                )

        fake = _ScriptedServer(script)
        try:
            with Client(*fake.address) as client:
                early = client.submit({"type": "admin", "action": "ping"})
                late = client.submit({"type": "admin", "action": "collections"})
                assert late.result(5.0).data == {"echo": "collections"}
                assert early.result(5.0).data == {"echo": "ping"}
        finally:
            fake.close()

    def test_timeout_fails_only_its_own_id(self):
        """A timed-out request leaves the connection healthy; the late
        reply is discarded instead of poisoning later correlated replies."""
        release = threading.Event()

        def script(stream) -> None:
            _answer_hello(stream)
            slow = read_frame(stream)
            fast = read_frame(stream)
            write_frame(stream, response_envelope(fast["id"], {"ok": True, "data": {"x": 1}}))
            release.wait(timeout=10.0)
            # the late answer to the abandoned id, then a healthy follow-up
            write_frame(stream, response_envelope(slow["id"], {"ok": True, "data": {"late": 1}}))
            follow_up = read_frame(stream)
            write_frame(stream, response_envelope(follow_up["id"], {"ok": True, "data": {"y": 2}}))

        fake = _ScriptedServer(script)
        try:
            with Client(*fake.address) as client:
                slow = client.submit({"type": "admin", "action": "stats"})
                fast = client.submit({"type": "admin", "action": "ping"})
                assert fast.result(5.0).data == {"x": 1}
                with pytest.raises(TimeoutError, match="only this request"):
                    slow.result(0.2)
                assert not client.closed  # the connection survived the timeout
                release.set()
                follow_up = client.submit({"type": "admin", "action": "ping"})
                assert follow_up.result(5.0).data == {"y": 2}
        finally:
            release.set()
            fake.close()

    def test_v2_timeout_against_real_server_does_not_poison(self, served):
        """Same contract end to end: a too-tight timeout, then normal use."""
        server, _ = served
        with Client(*server.address) as client:
            pending = client.submit(RangeQueryRequest(collection="news", items=(1, 2), theta=0.3))
            try:
                pending.result(0.0)  # zero-second wait: may or may not make it
            except TimeoutError:
                pass
            assert not client.closed
            assert client.ping() is True


def _mixed_stream(rankings, queries) -> list:
    """A deterministic 100-deep mixed query+mutation request stream."""
    requests = []
    base = 50_000
    for index in range(100):
        step = index % 5
        query = queries[index % len(queries)]
        if step == 0:
            requests.append(
                InsertRequest(collection="updates", items=tuple(base + index * K + i for i in range(K)))
            )
        elif step == 1:
            requests.append(RangeQueryRequest(collection="news", items=query, theta=THETA))
        elif step == 2:
            requests.append(KnnRequest(collection="updates", items=query, k=3))
        elif step == 3:
            # upsert the key the step-0 insert four steps earlier created;
            # live keys are assigned sequentially from the seed inserts
            requests.append(
                UpsertRequest(
                    collection="updates",
                    key=40 + index // 5,
                    items=tuple(base + index * K + i for i in range(K)),
                )
            )
        else:
            requests.append(DeleteRequest(collection="updates", key=40 + index // 5))
    return requests


class TestMalformedReplyBody:
    """A reply body that does not decode is a protocol violation: both
    clients fail every pending request at once and say the connection is
    gone, instead of losing their reader and timing out one by one."""

    @pytest.mark.parametrize("client_kind", ["threaded", "asyncio"])
    @pytest.mark.parametrize(
        "body",
        [{"ok": True, "matches": [{"rid": 1}]}, {"ok": False, "error": 5}],
        ids=["match-without-distance", "error-not-an-object"],
    )
    def test_malformed_reply_fails_the_connection_at_once(self, client_kind, body):
        def script(stream) -> None:
            _answer_hello(stream)
            request = read_frame(stream)
            write_frame(stream, response_envelope(request["id"], body))
            while read_frame(stream) is not None:  # stay open: the client hangs up
                pass

        async def asyncio_client(address) -> None:
            client = await AsyncClient.connect(*address, timeout=5.0)
            with pytest.raises(ConnectionError, match="malformed reply"):
                await client.ping()
            assert client.closed
            with pytest.raises(ConnectionError):
                await client.ping()
            await client.close()  # must not re-raise anything from the reader

        fake = _ScriptedServer(script)
        started = time.monotonic()
        try:
            if client_kind == "asyncio":
                asyncio.run(asyncio_client(fake.address))
            else:
                client = Client(*fake.address, timeout=5.0)
                with pytest.raises(ConnectionError, match="malformed reply"):
                    client.ping()
                assert client.closed
                with pytest.raises(ConnectionError):
                    client.ping()
                client.close()
        finally:
            fake.close()
        assert time.monotonic() - started < 4.0  # failed at once, not by timeout


class TestConnectTimeout:
    def test_both_clients_bound_the_connect_with_timeout(self):
        """A listener with a full backlog never completes a connect: both
        clients give up after ``timeout`` with the same ``TimeoutError``."""
        listener = socket.socket()
        fillers = []
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            address = listener.getsockname()
            for _ in range(8):
                filler = socket.socket()
                filler.setblocking(False)
                filler.connect_ex(address)
                fillers.append(filler)
            started = time.monotonic()
            try:
                socket.create_connection(address, timeout=0.5).close()
            except TimeoutError:
                pass
            if time.monotonic() - started < 0.4:
                pytest.skip("connects to a full backlog do not stall on this platform")

            started = time.monotonic()
            with pytest.raises(TimeoutError):
                Client(*address, timeout=0.5)
            assert time.monotonic() - started < 2.0

            async def scenario() -> None:
                await asyncio.wait_for(AsyncClient.connect(*address, timeout=0.5), 4.0)

            started = time.monotonic()
            with pytest.raises(TimeoutError):
                asyncio.run(scenario())
            assert time.monotonic() - started < 2.0  # its own bound, not the outer one
        finally:
            for filler in fillers:
                filler.close()
            listener.close()


class TestPipelinedEquivalence:
    def test_pipelined_stream_matches_sequential_execution(self, served, rankings):
        """100 deep, mixed mutations+queries, byte-identical to sequential."""
        server, _ = served
        queries = sample_queries(rankings, 6, seed=3)
        requests = _mixed_stream(rankings, queries)

        twin = _make_database(rankings)  # same seed state, executed in-process
        twin_session = twin.session()
        try:
            with Client(*server.address) as client:
                pipelined = client.pipeline(requests, timeout=60.0)
            sequential = [twin_session.execute(request) for request in requests]
            assert len(pipelined) == len(requests)
            for position, (remote, local) in enumerate(zip(pipelined, sequential)):
                assert remote.result_bytes() == local.result_bytes(), (
                    f"request {position} diverged: {requests[position]}"
                )
        finally:
            twin.close()

    def test_interleaved_pipelined_clients_stay_correct(self, served, rankings):
        """Concurrent pipelined clients on disjoint key spaces converge to
        the same logical collection a sequential run produces."""
        server, database = served
        queries = sample_queries(rankings, 4, seed=7)
        n_clients = 4
        errors: list = []
        barrier = threading.Barrier(n_clients)

        def worker(worker_id: int) -> None:
            try:
                with Client(*server.address) as client:
                    barrier.wait(timeout=10.0)
                    for round_number in range(5):
                        items = tuple(
                            90_000 + worker_id * 1_000 + round_number * K + offset
                            for offset in range(K)
                        )
                        insert, query_reply = client.pipeline(
                            [
                                InsertRequest(collection="updates", items=items),
                                RangeQueryRequest(
                                    collection="news",
                                    items=queries[round_number % len(queries)],
                                    theta=THETA,
                                ),
                            ],
                            timeout=30.0,
                        )
                        assert insert.ok and query_reply.ok
                        assert client.execute(
                            DeleteRequest(collection="updates", key=insert.key)
                        ).ok
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append((worker_id, error))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors

        # every transient insert was deleted: remote answers equal in-process
        session = database.session()
        with Client(*server.address) as client:
            for query in queries:
                remote = client.knn(query, 5, collection="updates")
                local = session.knn(query, 5, collection="updates")
                assert remote.result_bytes() == local.result_bytes()


class TestAsyncClient:
    def test_gather_pipelines_and_matches_in_process(self, rankings):
        database = _make_database(rankings)
        queries = sample_queries(rankings, 8, seed=5)
        session = database.session()

        async def scenario(address):
            async with await AsyncClient.connect(*address) as client:
                assert await client.ping() is True
                burst = await asyncio.gather(
                    *(client.range_query(query, THETA, collection="news") for query in queries)
                )
                key = await client.insert(list(range(1, K + 1)), collection="updates")
                await client.upsert(key, list(range(K, 0, -1)), collection="updates")
                await client.delete(key, collection="updates")
                names = [info["name"] for info in await client.collections()]
                return burst, names

        with AsyncDatabaseServer(database, port=0) as server:
            burst, names = asyncio.run(scenario(server.address))
        assert names == ["news", "updates"]
        for query, remote in zip(queries, burst):
            local = session.range_query(query, THETA, collection="news")
            assert remote.result_bytes() == local.result_bytes()
        database.close()

    #: One call per public surface verb (request builders aside).
    VERB_ARGS = {
        "subscribe": ([1, 2],),
        "shutdown_server": (),
        "range_query": ([1, 2], 0.1),
        "knn": ([1, 2], 3),
        "batch": ([[1, 2]], 0.1),
        "insert": ([1, 2],),
        "delete": (1,),
        "upsert": (1, [1, 2]),
        "ping": (),
        "collections": (),
        "create_collection": ("x", "live"),
        "drop_collection": ("x",),
        "stats": (),
        "metrics": (),
        "slow_queries": (),
        "flush": (),
        "compact": (),
        "snapshot": (),
    }

    def test_every_surface_verb_is_awaitable(self):
        """The async client inherits the whole surface through one ``_call``."""
        builders = {"execute", "subscribe_request", "unsubscribe_request"}
        verbs = {
            name
            for surface in (ExecutorSurface, ConnectionSurface)
            for name, value in vars(surface).items()
            if callable(value) and not name.startswith("_")
        }
        assert verbs - builders == set(self.VERB_ARGS)
        client = AsyncClient(None, None)  # nothing below touches the streams
        for name, args in self.VERB_ARGS.items():
            pending = getattr(client, name)(*args)
            assert inspect.isawaitable(pending), name
            pending.close()

    def test_flush_and_stats_round_trip_on_a_live_collection(self, rankings):
        database = _make_database(rankings)

        async def scenario(address):
            async with await AsyncClient.connect(*address) as client:
                before = await client.stats("updates")
                await client.insert(list(range(1, K + 1)), collection="updates")
                segment = await client.flush("updates")
                return before, segment, await client.stats("updates")

        try:
            with AsyncDatabaseServer(database, port=0) as server:
                before, segment, after = asyncio.run(scenario(server.address))
            assert isinstance(segment, int)
            assert after["layers"]["memtable"] == 0
            assert after["layers"]["segments"] == before["layers"]["segments"] + 1
            assert after == database.session().stats("updates")
        finally:
            database.close()

    def test_async_client_requires_v2(self, rankings):
        database = _make_database(rankings)
        fake = _FakeV1Server(database)

        async def scenario(address):
            await AsyncClient.connect(*address)

        try:
            with pytest.raises(ConnectionError, match="protocol v2"):
                asyncio.run(scenario(fake.address))
        finally:
            fake.close()
            database.close()

    def test_async_timeout_fails_only_one_request(self, rankings):
        """Slow first request times out; a second request still answers."""
        database = _make_database(rankings)

        async def scenario(address):
            async with await AsyncClient.connect(*address) as client:
                request = RangeQueryRequest(
                    collection="news", items=list(range(1, K + 1)), theta=0.3
                )
                with pytest.raises(TimeoutError, match="only this request"):
                    # zero timeout: the reply cannot possibly arrive in time
                    await client.execute(request, timeout=0.0)
                assert not client.closed
                response = await client.range_query(
                    list(range(1, K + 1)), 0.3, collection="news"
                )
                assert response.ok

        with AsyncDatabaseServer(database, port=0) as server:
            asyncio.run(scenario(server.address))
        database.close()


class TestAsyncServer:
    def test_shutdown_request_stops_the_async_server(self, rankings):
        database = _make_database(rankings)
        server = AsyncDatabaseServer(database, port=0)
        host, port = server.start()
        with Client(host, port) as client:
            response = client.shutdown_server()
            assert response.ok and response.data == {"acknowledged": True}
        server.wait(timeout=10.0)
        server.close()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)
        database.close()

    def test_many_concurrent_connections_on_one_loop(self, rankings):
        database = _make_database(rankings)
        queries = sample_queries(rankings, 4, seed=2)
        errors: list = []
        with AsyncDatabaseServer(database, port=0) as server:

            def worker(worker_id: int) -> None:
                try:
                    with Client(*server.address) as client:
                        for query in queries:
                            assert client.range_query(query, THETA, collection="news").ok
                except Exception as error:  # noqa: BLE001
                    errors.append((worker_id, error))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not errors, errors
        database.close()

    def test_frame_error_answers_protocol_envelope_then_closes(self, rankings):
        database = _make_database(rankings)
        with AsyncDatabaseServer(database, port=0) as server:
            with socket.create_connection(server.address, timeout=5.0) as raw:
                stream = raw.makefile("rwb")
                body = b"definitely not json"
                stream.write(struct.pack("!I", len(body)) + body)
                stream.flush()
                reply = read_frame(stream)
                assert reply is not None and reply["ok"] is False
                assert reply["error"]["code"] == "protocol"
                assert read_frame(stream) is None
        database.close()


class TestAsyncServerBoot:
    def test_bind_failure_surfaces_as_oserror(self, rankings):
        """serve --async on a taken port must fail like the threaded server
        does (an OSError the CLI turns into 'error: ...'), not a raw
        RuntimeError traceback."""
        database = _make_database(rankings)
        blocker = socket.create_server(("127.0.0.1", 0))
        try:
            port = blocker.getsockname()[1]
            with pytest.raises(OSError):
                AsyncDatabaseServer(database, port=port).start()
        finally:
            blocker.close()
            database.close()
