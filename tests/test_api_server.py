"""The wire layer: framing, the TCP server, and remote/in-process parity.

The headline guarantee under test: for range, k-NN, and batch queries over
both static and live collections, the envelope a remote client receives is
byte-identical (``result_bytes``) to the envelope an in-process session
produces on the same database — including under concurrent mixed
query + mutation load from multiple clients.
"""

from __future__ import annotations

import io
import socket
import struct
import threading

import pytest

from repro.core.ranking import RankingSet
from repro.api import Client, Database, DatabaseServer
from repro.api.protocol import (
    FrameError,
    FrameTooLargeError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.cli import main as cli_main
from repro.datasets.nyt import nyt_like_dataset
from repro.datasets.queries import sample_queries

THETA = 0.25
K = 8


@pytest.fixture(scope="module")
def rankings() -> RankingSet:
    return nyt_like_dataset(n=150, k=K, seed=23)


@pytest.fixture()
def served(rankings):
    """A running server plus the database behind it."""
    database = Database()
    database.create_static("news", rankings, num_shards=2)
    live = database.create_live("updates")
    for ranking in list(rankings)[:60]:
        live.insert(ranking.items)
    with DatabaseServer(database, port=0) as server:
        yield server, database
    database.close()


class TestFraming:
    def test_frame_round_trip(self):
        stream = io.BytesIO()
        write_frame(stream, {"type": "admin", "action": "ping"})
        stream.seek(0)
        assert read_frame(stream) == {"type": "admin", "action": "ping"}
        assert read_frame(stream) is None  # clean EOF between frames

    def test_torn_frame_raises(self):
        stream = io.BytesIO(encode_frame({"ok": True})[:-2])
        with pytest.raises(FrameError, match="mid-frame"):
            read_frame(stream)

    def test_header_without_payload_raises(self):
        stream = io.BytesIO(struct.pack("!I", 12))
        with pytest.raises(FrameError):
            read_frame(stream)

    def test_not_json_raises(self):
        body = b"\xff\xfe not json"
        stream = io.BytesIO(struct.pack("!I", len(body)) + body)
        with pytest.raises(FrameError, match="JSON"):
            read_frame(stream)

    def test_non_object_payload_raises(self):
        body = b"[1,2,3]"
        stream = io.BytesIO(struct.pack("!I", len(body)) + body)
        with pytest.raises(FrameError, match="object"):
            read_frame(stream)

    def test_oversized_frames_rejected_both_ways(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"blob": "x" * 100}, max_frame_bytes=50)
        stream = io.BytesIO(struct.pack("!I", 10_000) + b"x" * 10_000)
        with pytest.raises(FrameTooLargeError):
            read_frame(stream, max_frame_bytes=100)


class TestServerRoundTrips:
    def test_remote_equals_in_process_for_every_query_kind(self, served, rankings):
        server, database = served
        session = database.session()
        host, port = server.address
        queries = sample_queries(rankings, 6, seed=5)
        with Client(host, port) as client:
            for collection in ("news", "updates"):
                for query in queries:
                    remote = client.range_query(query, THETA, collection=collection)
                    local = session.range_query(query, THETA, collection=collection)
                    assert remote.ok
                    assert remote.result_bytes() == local.result_bytes()

                    remote = client.knn(query, 5, collection=collection)
                    local = session.knn(query, 5, collection=collection)
                    assert remote.ok
                    assert remote.result_bytes() == local.result_bytes()

                remote = client.batch(queries[:3], THETA, collection=collection)
                local = session.batch(queries[:3], THETA, collection=collection)
                assert remote.ok
                assert remote.result_bytes() == local.result_bytes()

    def test_remote_typed_errors_keep_their_attributes(self, served):
        """A remote UnknownKeyError carries .key just like the local one."""
        from repro.core.errors import UnknownKeyError

        server, _ = served
        with Client(*server.address) as client:
            with pytest.raises(UnknownKeyError) as caught:
                client.delete(424_242, collection="updates")
            assert caught.value.key == 424_242

    def test_aborted_client_does_not_crash_the_handler(self, served, capsys):
        """A mid-frame disconnect is a clean close, not a stderr traceback."""
        server, _ = served
        host, port = server.address
        raw = socket.create_connection((host, port), timeout=5.0)
        raw.sendall(struct.pack("!I", 64) + b"partial")  # torn frame, then RST
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()
        # the server stays healthy for the next client
        with Client(host, port) as client:
            assert client.ping() is True
        assert "Traceback" not in capsys.readouterr().err

    def test_remote_mutations_are_visible_in_process(self, served):
        server, database = served
        with Client(*server.address) as client:
            key = client.insert(list(range(1, K + 1)), collection="updates")
            assert database.engine("updates").collection.get(key) is not None
            client.upsert(key, list(range(K, 0, -1)), collection="updates")
            assert database.engine("updates").collection.get(key).items[0] == K
            client.delete(key, collection="updates")
            assert key not in database.engine("updates").collection

    def test_error_envelopes_cross_the_wire(self, served):
        server, _ = served
        with Client(*server.address) as client:
            response = client.execute(
                {"type": "range", "collection": "nope", "items": [1, 2], "theta": 0.1}
            )
            assert not response.ok and response.error.code == "unknown_collection"
            response = client.execute({"type": "warp", "collection": "news"})
            assert not response.ok and response.error.code == "invalid_request"
            # the connection survives request-level errors
            assert client.ping() is True

    def test_admin_surface_over_the_wire(self, served):
        server, _ = served
        with Client(*server.address) as client:
            names = [info["name"] for info in client.collections()]
            assert names == ["news", "updates"]
            stats = client.stats("news")
            assert stats["kind"] == "static"
            assert client.flush("updates") is not None

    def test_ddl_round_trips_over_the_wire(self, served, rankings):
        """create -> query -> drop entirely from the client side."""
        server, database = served
        with Client(*server.address) as client:
            created = client.create_collection(
                "wire-born",
                "static",
                rankings=[ranking.items for ranking in list(rankings)[:25]],
                num_shards=2,
            )
            assert created == {"created": "wire-born", "engine": "static", "size": 25}
            assert "wire-born" in database.names()  # visible in-process too
            query = list(rankings)[0].items
            remote = client.range_query(query, THETA, collection="wire-born")
            local = database.session().range_query(query, THETA, collection="wire-born")
            assert remote.result_bytes() == local.result_bytes()
            assert client.drop_collection("wire-born") == {"dropped": "wire-born"}
            assert "wire-born" not in database.names()

    def test_malformed_frame_gets_protocol_envelope_then_close(self, served):
        server, _ = served
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as raw:
            stream = raw.makefile("rwb")
            body = b"this is not json"
            stream.write(struct.pack("!I", len(body)) + body)
            stream.flush()
            reply = read_frame(stream)
            assert reply is not None and reply["ok"] is False
            assert reply["error"]["code"] == "protocol"
            assert read_frame(stream) is None  # server closed the connection

    def test_oversized_frame_gets_protocol_envelope_then_close(self, rankings):
        database = Database()
        database.create_static("news", rankings)
        with DatabaseServer(database, port=0, max_frame_bytes=256) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as raw:
                stream = raw.makefile("rwb")
                huge = encode_frame({"type": "insert", "collection": "x",
                                     "items": list(range(1000))})
                stream.write(huge)
                stream.flush()
                reply = read_frame(stream)
                assert reply["ok"] is False and reply["error"]["code"] == "protocol"
                assert "maximum" in reply["error"]["message"]
                assert read_frame(stream) is None
        database.close()

    def test_client_refuses_oversized_request_locally(self, served):
        # 512 bytes: room for the handshake reply, not for a 199-item query
        server, _ = served
        with Client(*server.address, max_frame_bytes=512) as client:
            with pytest.raises(FrameTooLargeError):
                client.execute(
                    {"type": "range", "collection": "news",
                     "items": list(range(1, 200)), "theta": 0.1}
                )
            # refused before touching the wire: nothing is pending, nothing broke
            assert client.ping() is True

    def test_oversized_response_gets_protocol_envelope(self, rankings):
        """A too-large *answer* is reported, not a silent connection drop."""
        database = Database()
        database.create_static("news", rankings)
        # requests fit comfortably; a broad range answer does not
        with DatabaseServer(database, port=0, max_frame_bytes=1024) as server:
            with Client(*server.address) as client:
                response = client.range_query(
                    list(rankings[0].items), 0.9, collection="news"
                )
                assert not response.ok
                assert response.error.code == "protocol"
                assert "frame limit" in response.error.message
                # a paginated retry fits
                with Client(*server.address) as retry:
                    page = retry.range_query(
                        list(rankings[0].items), 0.9, collection="news", limit=2
                    )
                    assert page.ok and len(page.matches) == 2
        database.close()

    def test_negotiating_client_fails_fast_on_unresponsive_server(self):
        """The handshake itself times out instead of hanging the constructor."""
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            host, port = listener.getsockname()
            with pytest.raises(ConnectionError, match="handshake failed"):
                Client(host, port, timeout=0.2)
        finally:
            listener.close()

    def test_close_without_serving_does_not_hang(self, rankings):
        """shutdown()/close() must return even if the loop never started."""
        database = Database()
        database.create_static("news", rankings)
        server = DatabaseServer(database, port=0)
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive(), "close() deadlocked on a never-started server"
        database.close()

    def test_shutdown_request_stops_the_server(self, rankings):
        database = Database()
        database.create_static("news", rankings)
        server = DatabaseServer(database, port=0)
        host, port = server.start()
        with Client(host, port) as client:
            response = client.shutdown_server()
            assert response.ok and response.data == {"acknowledged": True}
        server.wait(timeout=5.0)  # the serve loop exits by itself
        server.close()
        with pytest.raises(OSError):
            Client(host, port, timeout=0.5)
        database.close()


class TestConcurrentClients:
    N_CLIENTS = 6
    REQUESTS_PER_CLIENT = 12

    def test_concurrent_mixed_load_stays_byte_identical(self, served, rankings):
        """>= 4 concurrent clients, mixed queries + mutations, no divergence."""
        server, database = served
        host, port = server.address
        queries = sample_queries(rankings, 8, seed=9)
        errors: list = []
        barrier = threading.Barrier(self.N_CLIENTS)

        def worker(worker_id: int) -> None:
            try:
                with Client(host, port) as client:
                    barrier.wait(timeout=10.0)
                    for round_number in range(self.REQUESTS_PER_CLIENT):
                        query = queries[(worker_id + round_number) % len(queries)]
                        response = client.range_query(query, THETA, collection="news")
                        assert response.ok
                        response = client.knn(query, 3, collection="updates")
                        assert response.ok
                        # mutate: insert then delete a private ranking
                        items = [10_000 + worker_id * 1000 + round_number * K + offset
                                 for offset in range(K)]
                        key = client.insert(items, collection="updates")
                        client.delete(key, collection="updates")
            except Exception as error:  # noqa: BLE001 - surfaced to the main thread
                errors.append((worker_id, error))

        threads = [
            threading.Thread(target=worker, args=(worker_id,))
            for worker_id in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors

        # all transient inserts were deleted: the logical collection is back
        # to its pre-test state, so remote answers equal in-process answers
        session = database.session()
        with Client(host, port) as client:
            for query in queries:
                for collection in ("news", "updates"):
                    remote = client.range_query(query, THETA, collection=collection)
                    local = session.range_query(query, THETA, collection=collection)
                    assert remote.result_bytes() == local.result_bytes()
                remote = client.knn(query, 5, collection="updates")
                local = session.knn(query, 5, collection="updates")
                assert remote.result_bytes() == local.result_bytes()

    def test_one_client_shared_by_threads_serialises(self, served, rankings):
        server, _ = served
        queries = sample_queries(rankings, 4, seed=2)
        errors: list = []
        with Client(*server.address) as client:

            def worker(worker_id: int) -> None:
                try:
                    for query in queries:
                        assert client.range_query(query, THETA, collection="news").ok
                except Exception as error:  # noqa: BLE001
                    errors.append((worker_id, error))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not errors, errors


class TestCliServeAndClient:
    def test_emptied_durable_state_is_not_reseeded(self, tmp_path, capsys):
        """Restarting serve with the TSV must not resurrect deleted data."""
        from repro.live import LiveCollection

        dataset = tmp_path / "rankings.tsv"
        assert cli_main(["generate", str(dataset), "--n", "20", "--k", "5"]) == 0
        state_dir = tmp_path / "state"
        with LiveCollection.open(state_dir) as collection:
            key = collection.insert([1, 2, 3, 4, 5])
            collection.delete(key)  # operator emptied the collection
        capsys.readouterr()
        ready_file = tmp_path / "ready.txt"
        thread = threading.Thread(
            target=cli_main,
            args=(["serve", str(dataset), "--live", "--dir", str(state_dir),
                   "--port", "0", "--ready-file", str(ready_file)],),
        )
        thread.start()
        try:
            for _ in range(100):
                if ready_file.exists() and ready_file.read_text().strip():
                    break
                thread.join(timeout=0.05)
            host, port = ready_file.read_text().split()
            with Client(host, int(port)) as client:
                assert client.collections()[0]["size"] == 0  # still empty
                client.shutdown_server()
        finally:
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert "opened existing live state (0 rankings" in capsys.readouterr().out

    def test_cli_round_trip(self, tmp_path, capsys):
        dataset = tmp_path / "rankings.tsv"
        assert cli_main(["generate", str(dataset), "--n", "60", "--k", "6"]) == 0
        ready_file = tmp_path / "ready.txt"
        serve_result: dict = {}

        state_dir = tmp_path / "state"

        def run_server() -> None:
            serve_result["code"] = cli_main(
                ["serve", str(dataset), "--port", "0", "--live",
                 "--dir", str(state_dir), "--ready-file", str(ready_file)]
            )

        thread = threading.Thread(target=run_server)
        thread.start()
        try:
            for _ in range(100):
                if ready_file.exists() and ready_file.read_text().strip():
                    break
                thread.join(timeout=0.05)
            host, port = ready_file.read_text().split()
            with open(dataset, encoding="utf-8") as handle:
                first_items = ",".join(handle.readline().split())
            base = ["client", "--host", host, "--port", port]
            assert cli_main([*base, "--query", first_items, "--theta", "0.3"]) == 0
            assert "rid=" in capsys.readouterr().out
            assert cli_main([*base, "--query", first_items, "--knn", "2"]) == 0
            assert cli_main([*base, "--insert", "901,902,903,904,905,906"]) == 0
            assert "inserted key=" in capsys.readouterr().out
            assert cli_main([*base, "--admin", "collections"]) == 0
            assert cli_main([*base, "--delete", "99999"]) == 1  # unknown key
            # durable serving: snapshot works because --dir attached a WAL
            assert cli_main([*base, "--admin", "snapshot"]) == 0
            assert "manifest.rbf" in capsys.readouterr().out
            assert (state_dir / "manifest.rbf").exists()
            assert (state_dir / "wal.rbf").exists()
            assert cli_main([*base, "--admin", "shutdown"]) == 0
        finally:
            thread.join(timeout=10.0)
        assert not thread.is_alive(), "serve command did not stop after shutdown"
        assert serve_result.get("code") == 0

        # restart from the durable state alone — no rankings file needed
        ready_file.unlink()
        restart_result: dict = {}

        def run_restart() -> None:
            restart_result["code"] = cli_main(
                ["serve", "--live", "--dir", str(state_dir), "--port", "0",
                 "--ready-file", str(ready_file)]
            )

        thread = threading.Thread(target=run_restart)
        thread.start()
        try:
            for _ in range(100):
                if ready_file.exists() and ready_file.read_text().strip():
                    break
                thread.join(timeout=0.05)
            host, port = ready_file.read_text().split()
            base = ["client", "--host", host, "--port", port]
            assert cli_main([*base, "--query", "901,902,903,904,905,906", "--theta", "0.01"]) == 0
            out = capsys.readouterr().out
            assert "opened existing live state" in out
            assert "1 match(es)" in out  # the pre-restart insert survived
            assert cli_main([*base, "--admin", "shutdown"]) == 0
        finally:
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert restart_result.get("code") == 0
