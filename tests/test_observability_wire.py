"""Observability over the wire: trace propagation and the admin surfaces.

The contracts under test:

* **opt-in** — a request is traced only when its envelope carries the
  ``trace`` field; untraced requests pay nothing and return no trace;
* **validation** — an *invalid* trace value gets a correlated
  ``invalid_request`` envelope on a connection that stays healthy;
* **propagation** — a traced query through :class:`RemoteShardExecutor`
  comes back with one span tree spanning the coordinator and every shard
  server, each graft carrying the propagated trace id;
* **admin** — ``admin metrics`` serves the process registry (JSON or
  Prometheus text) and ``admin slow_queries`` the database's slow log,
  in-process and over both transports.
"""

from __future__ import annotations

import asyncio
import re
import socket

import pytest

from repro.core.ranking import RankingSet
from repro.api import (
    AsyncClient,
    AsyncDatabaseServer,
    Client,
    Database,
    DatabaseServer,
    RemoteShardExecutor,
)
from repro.api.protocol import read_frame, request_envelope, write_frame
from repro.api.requests import AdminRequest, KnnRequest, RangeQueryRequest
from repro.datasets.nyt import nyt_like_dataset
from repro.datasets.queries import sample_queries
from repro.service import partition_rankings
from repro.service.engine import QueryEngine

THETA = 0.25
K = 8


@pytest.fixture(scope="module")
def rankings() -> RankingSet:
    return nyt_like_dataset(n=120, k=K, seed=17)


@pytest.fixture(scope="module")
def queries(rankings):
    return sample_queries(rankings, 5, seed=7)


@pytest.fixture()
def served(rankings):
    database = Database()
    database.create_static("news", rankings, num_shards=2)
    with DatabaseServer(database, port=0) as server:
        yield server, database
    database.close()


def _span_names(trace_block: dict) -> set[str]:
    names: set[str] = set()

    def walk(span: dict) -> None:
        names.add(span.get("name", "?"))
        for child in span.get("children", []):
            walk(child)

    for root in trace_block.get("spans", []):
        walk(root)
    return names


def _find_spans(trace_block: dict, name: str) -> list[dict]:
    found: list[dict] = []

    def walk(span: dict) -> None:
        if span.get("name") == name:
            found.append(span)
        for child in span.get("children", []):
            walk(child)

    for root in trace_block.get("spans", []):
        walk(root)
    return found


class TestTracePropagation:
    def test_untraced_requests_return_no_trace(self, served, queries):
        server, _ = served
        with Client(*server.address) as client:
            response = client.range_query(queries[0], THETA, collection="news")
            assert response.ok and response.trace is None

    def test_trace_opt_in_returns_a_span_tree(self, served, queries):
        server, _ = served
        request = RangeQueryRequest(collection="news", items=queries[0], theta=THETA)
        with Client(*server.address) as client:
            response = client.execute(request, trace=True)
        assert response.ok
        assert response.trace is not None
        assert re.fullmatch(r"[0-9a-f]{16}", response.trace["trace_id"])
        names = _span_names(response.trace)
        assert "request:range" in names
        assert "plan" in names and "fanout" in names

    def test_client_supplied_trace_id_is_echoed(self, served, queries):
        server, _ = served
        request = KnnRequest(collection="news", items=queries[0], k=3)
        with Client(*server.address) as client:
            response = client.execute(request, trace="cafe0123deadbeef")
        assert response.ok
        assert response.trace["trace_id"] == "cafe0123deadbeef"

    def test_trace_does_not_change_the_answer(self, served, queries):
        server, _ = served
        request = RangeQueryRequest(collection="news", items=queries[0], theta=THETA)
        with Client(*server.address) as client:
            plain = client.execute(request)
            traced = client.execute(request, trace=True)
        assert traced.result_bytes() == plain.result_bytes()

    def test_invalid_trace_value_is_an_envelope_error_not_fatal(self, served):
        server, _ = served
        with socket.create_connection(server.address, timeout=10.0) as raw:
            stream = raw.makefile("rwb")
            write_frame(
                stream,
                {"id": 1, "kind": "request", "trace": 123,
                 "body": {"type": "admin", "action": "ping"}},
            )
            reply = read_frame(stream)
            assert reply is not None and reply["id"] == 1
            assert reply["body"]["ok"] is False
            assert reply["body"]["error"]["code"] == "invalid_request"
            assert "trace" in reply["body"]["error"]["message"]
            # the connection survives: the next (valid) envelope answers
            write_frame(stream, request_envelope(2, {"type": "admin", "action": "ping"}))
            reply = read_frame(stream)
            assert reply["id"] == 2 and reply["body"]["ok"] is True

    def test_overlong_trace_id_is_rejected(self, served):
        server, _ = served
        with socket.create_connection(server.address, timeout=10.0) as raw:
            stream = raw.makefile("rwb")
            write_frame(
                stream,
                {"id": 1, "kind": "request", "trace": "x" * 65,
                 "body": {"type": "admin", "action": "ping"}},
            )
            reply = read_frame(stream)
            assert reply["body"]["error"]["code"] == "invalid_request"

    def test_pipelined_traces_get_unique_ids(self, served, queries):
        server, _ = served
        requests = [
            RangeQueryRequest(collection="news", items=query, theta=THETA)
            for query in queries
        ] * 3
        with Client(*server.address) as client:
            responses = client.pipeline(requests, trace=True)
        assert all(response.ok for response in responses)
        trace_ids = [response.trace["trace_id"] for response in responses]
        assert len(set(trace_ids)) == len(requests)

    def test_async_transport_traces_identically(self, rankings, queries):
        database = Database()
        database.create_static("news", rankings, num_shards=2)
        request = RangeQueryRequest(collection="news", items=queries[0], theta=THETA)

        async def run(address):
            client = await AsyncClient.connect(*address)
            try:
                return await client.execute(request, trace="feedbeefcafe0123")
            finally:
                await client.close()

        with AsyncDatabaseServer(database, port=0) as server:
            response = asyncio.run(run(server.address))
        database.close()
        assert response.ok
        assert response.trace["trace_id"] == "feedbeefcafe0123"
        assert "request:range" in _span_names(response.trace)


class TestRemoteFanOutTracing:
    @pytest.fixture()
    def coordinator(self, rankings):
        """Two shard servers (one asyncio) behind a served coordinator."""
        shards = partition_rankings(rankings, 2)
        shard_servers, shard_databases = [], []
        for index, shard in enumerate(shards):
            database = Database()
            database.create_static("default", shard)
            server_type = AsyncDatabaseServer if index == 1 else DatabaseServer
            server = server_type(database, port=0)
            server.start()
            shard_servers.append(server)
            shard_databases.append(database)
        executor = RemoteShardExecutor([server.address for server in shard_servers])
        front = Database()
        front.attach(
            "news", QueryEngine(rankings, num_shards=2, executor=executor)
        )
        with DatabaseServer(front, port=0) as server:
            yield server
        front.close()
        executor.close()
        for server in shard_servers:
            server.close()
        for database in shard_databases:
            database.close()

    def test_traced_knn_spans_every_process(self, coordinator, queries):
        request = KnnRequest(collection="news", items=queries[0], k=5)
        with Client(*coordinator.address) as client:
            response = client.execute(request, trace=True)
        assert response.ok
        trace_id = response.trace["trace_id"]
        for shard in (0, 1):
            # the executor's graft carries the remote trace id; the local
            # per-shard latency spans share the name but not the attribute
            grafts = [
                span
                for span in _find_spans(response.trace, f"shard-{shard}")
                if "trace_id" in span.get("attrs", {})
            ]
            assert len(grafts) == 1, f"expected one graft for shard {shard}"
            (graft,) = grafts
            # the graft is the shard *server's* tree, correlated by the
            # propagated id — not a span invented by the coordinator
            assert graft["attrs"]["trace_id"] == trace_id
            assert graft["attrs"]["shard"] == shard
            assert "request:knn" in _span_names({"spans": graft.get("children", [])})

    def test_remote_fanout_metrics_reach_the_admin_surface(self, coordinator, queries):
        with Client(*coordinator.address) as client:
            assert client.range_query(queries[0], THETA, collection="news").ok
            exposition = client.metrics(format="prometheus")["exposition"]
        assert re.search(r'repro_remote_fanout_seconds_count\{shard="0"\} [1-9]', exposition)
        assert re.search(r'repro_remote_fanout_seconds_count\{shard="1"\} [1-9]', exposition)


class TestAdminObservability:
    def test_metrics_snapshot_shape_in_process(self, rankings, queries):
        database = Database()
        database.create_static("news", rankings, num_shards=2)
        session = database.session()
        assert session.range_query(queries[0], THETA, collection="news").ok
        snapshot = session.metrics()
        families = {family["name"]: family for family in snapshot["metrics"]}
        assert "repro_request_seconds" in families
        kinds = {
            sample["labels"].get("kind")
            for sample in families["repro_request_seconds"]["samples"]
        }
        assert "range" in kinds
        assert "repro_shard_fanout_seconds" in families
        database.close()

    def test_prometheus_format_over_the_wire(self, served, queries):
        server, _ = served
        with Client(*server.address) as client:
            assert client.range_query(queries[0], THETA, collection="news").ok
            exposition = client.metrics(format="prometheus")["exposition"]
        assert '# TYPE repro_request_seconds histogram' in exposition
        assert re.search(
            r'repro_server_frames_total\{direction="in",transport="threaded"\} [1-9]',
            exposition,
        )
        sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")
        for line in exposition.splitlines():
            if line and not line.startswith("#"):
                assert sample.match(line), f"unparseable sample line: {line!r}"

    def test_metrics_format_is_validated(self):
        with pytest.raises(ValueError, match="format"):
            AdminRequest(action="metrics", format="xml")
        with pytest.raises(ValueError, match="format"):
            AdminRequest(action="stats", format="json")

    def test_slow_queries_surface(self, rankings, queries):
        database = Database()
        database.create_static("news", rankings, num_shards=2)
        session = database.session()
        for query in queries:
            assert session.range_query(query, THETA, collection="news").ok
        entries = session.slow_queries()
        assert entries
        walls = [entry["wall_seconds"] for entry in entries]
        assert walls == sorted(walls, reverse=True)
        assert {entry["kind"] for entry in entries} <= {"range", "knn", "batch"}
        assert all(entry["collection"] == "news" for entry in entries)
        database.close()

    def test_traced_slow_query_carries_its_span_tree(self, served, queries):
        server, _ = served
        request = KnnRequest(collection="news", items=queries[0], k=3)
        with Client(*server.address) as client:
            response = client.execute(request, trace="0123456789abcdef")
            assert response.ok
            entries = client.slow_queries()
        traced = [e for e in entries if e.get("trace_id") == "0123456789abcdef"]
        assert traced, "the traced request must appear in the slow log"
        assert traced[0]["kind"] == "knn"
        assert "request:knn" in _span_names(traced[0]["trace"])

    def test_slow_query_capacity_zero_disables_the_log(self, rankings, queries):
        database = Database(slow_query_capacity=0)
        database.create_static("news", rankings)
        session = database.session()
        assert session.range_query(queries[0], THETA, collection="news").ok
        assert session.slow_queries() == []
        database.close()

    def test_failed_requests_stay_out_of_the_slow_log(self, rankings, queries):
        database = Database()
        database.create_static("news", rankings)
        session = database.session()
        assert not session.range_query(queries[0], THETA, collection="nope").ok
        assert session.slow_queries() == []
        database.close()
