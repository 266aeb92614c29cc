"""``wire_hot``: the smallest-message regime, where the transport is the cost.

A child-process threaded ``DatabaseServer`` over a static collection (n=800)
with the default LRU; 64 distinct queries cycled so every timed request is a
cache hit.  One protocol-v2 JSON connection alternates serial passes (one
request in flight; four range queries to one k-NN) with pipelined passes
(bursts of 8 range queries).  The algorithms do ~nothing here, so a change to them must
show no change on this workload.
"""

from __future__ import annotations

import statistics
import time

from repro.api import Client, Database, KnnRequest, RangeQueryRequest
from repro.api.protocol import encode_binary_frame, encode_frame, response_envelope
from repro.codec import wire
from repro.core import Ranking
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

from harness import Phase, ServerProcess, Tracer, metric, per_item_us, timed_loop
from oracle import Oracle
from workloads.common import (
    COLLECTION,
    KNN_K,
    RANGE_THETA,
    Workload,
    generate_inputs,
    replay_wire_request,
    shuffled,
)

#: A round is this many serial passes then this many pipelined passes (about
#: half the time each), so both kinds are sampled across the whole run.
SERIAL_PASSES, PIPELINED_PASSES = 2, 25
PIPELINE_DEPTH = 8
DISTINCT_QUERIES = 64
#: In the serial phase every Nth request is a k-NN, the others range queries.
KNN_EVERY = 5

clock = time.perf_counter_ns


def bursts_of(requests: list) -> list[list]:
    return [requests[i:i + PIPELINE_DEPTH] for i in range(0, len(requests), PIPELINE_DEPTH)]


def pipelined_pass(client: Client, bursts: list[list], phase: Phase, checks) -> None:
    """Every burst of PIPELINE_DEPTH requests once, each burst timed as one call."""
    for burst in bursts:
        start = clock()
        responses = client.pipeline(burst)
        phase.add(clock() - start, len(burst))
        for response in responses:
            checks.op(response.ok, f"pipelined: {response.error}")


def pipelined(client: Client, requests: list, seconds: float, checks) -> Phase:
    """Pipelined passes over ``requests`` for ``seconds``."""
    bursts = bursts_of(requests)
    phase = Phase(len(bursts))
    timed_loop(seconds, lambda _: pipelined_pass(client, bursts, phase, checks))
    return phase


def in_process(session, requests: list, seconds: float) -> Phase:
    """The same requests through ``Session.execute``: the transport-free ceiling."""
    phase = Phase(len(requests))

    def one(index: int) -> None:
        request = requests[index % len(requests)]
        start = clock()
        session.execute(request)
        phase.add(clock() - start)

    timed_loop(seconds, one)
    return phase


class WireHot(Workload):
    name = "wire_hot"

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        super().__init__(seed, smoke, seconds)
        self.rankings, queries, _ = generate_inputs(300 if smoke else 800, DISTINCT_QUERIES)
        queries = shuffled(queries, seed)
        self.rows = [list(ranking.items) for ranking in self.rankings]
        self.oracle = Oracle(self.rankings.k, enumerate(self.rows))
        self.range_requests = [
            RangeQueryRequest(collection=COLLECTION, items=query, theta=RANGE_THETA)
            for query in queries
        ]
        self.knn_requests = [
            KnnRequest(collection=COLLECTION, items=query, k=KNN_K) for query in queries
        ]
        self.mirror: Database | None = None
        self.cache_window = (0, 0)

    def _spec(self, transport: str) -> dict:
        return {"kind": "static", "transport": transport, "rows": self.rows, "num_shards": 2}

    def _warm(self, client: Client) -> None:
        """Ask everything once: planner exploration runs and the LRU fills."""
        for request in self.range_requests + self.knn_requests:
            client.execute(request)

    def setup(self) -> None:
        self.server = ServerProcess(self._spec("threaded"), self.name, share_cpu=True)
        self.client = Client(*self.server.address, protocol=2)
        self._warm(self.client)

    def teardown(self) -> None:
        self.client.close()
        self.server.stop()
        if self.mirror is not None:
            self.mirror.close()
            self.mirror = None

    def peak_rss_mb(self) -> float:
        return self.server.rss_mb

    def _cache_counts(self) -> tuple[int, int]:
        cache = self.client.stats(COLLECTION)["engine"]["cache"]
        return cache["hits"], cache["misses"]

    def _mirror_session(self):
        """An in-process twin of the served collection, warmed the same way."""
        if self.mirror is None:
            self.mirror = Database()
            self.mirror.create_static(COLLECTION, self.rankings, num_shards=2)
            session = self.mirror.session()
            for request in self.range_requests + self.knn_requests:
                session.execute(request)
        return self.mirror.session()

    def run(self, seconds: float, tracer: Tracer | None = None) -> dict[str, Phase]:
        # one serial pass = every query asked (KNN_EVERY - 1) times as a range, once
        # as a k-NN; a phase's cycle is one round's block of passes
        bursts = bursts_of(self.range_requests)
        phases = {
            "range": Phase(DISTINCT_QUERIES * (KNN_EVERY - 1) * SERIAL_PASSES),
            "knn": Phase(DISTINCT_QUERIES * SERIAL_PASSES),
            "pipelined": Phase(len(bursts) * PIPELINED_PASSES),
        }
        client = self.client
        deferred = []
        mirror = self._mirror_session() if tracer is not None else None
        before = self._cache_counts()

        def one_serial(index: int) -> None:
            slot = index // KNN_EVERY % DISTINCT_QUERIES
            is_knn = index % KNN_EVERY == KNN_EVERY - 1
            request = (self.knn_requests if is_knn else self.range_requests)[slot]
            start = clock()
            response = client.execute(request)
            end = clock()
            phases["knn" if is_knn else "range"].add(end - start)
            if not self.check_response(response, "serial"):
                return
            if self.due_for_oracle():
                deferred.append((request, response))
            if self.due_for_trace(tracer):
                self._replay(tracer, mirror, request, response, start, end)

        serial_pass = DISTINCT_QUERIES * KNN_EVERY

        def serial_block() -> None:
            for index in range(SERIAL_PASSES * serial_pass):
                one_serial(index)

        def pipelined_block() -> None:
            for _ in range(PIPELINED_PASSES):
                pipelined_pass(client, bursts, phases["pipelined"], self.checks)

        def one_round(_: int) -> None:
            serial_block()
            pipelined_block()

        timed_loop(seconds, one_round)
        after = self._cache_counts()
        self.cache_window = (after[0] - before[0], after[1] - before[1])
        for request, response in deferred:
            if isinstance(request, KnnRequest):
                self.check_knn(self.oracle, request.items, KNN_K, response)
            else:
                self.check_range(self.oracle, request.items, RANGE_THETA, response)
        return phases

    def _replay(self, tracer: Tracer, mirror, request, response, start: int, end: int) -> None:
        parent = tracer.request("Client.execute", "api", start, end)
        dispatch = replay_wire_request(tracer, parent, request, response, session=mirror)
        if isinstance(request, RangeQueryRequest):
            engine = self.mirror.engine(COLLECTION)
            answered = tracer.stage(
                "QueryEngine.query", "service", dispatch,
                engine.query, Ranking(request.items), request.theta,
            )
            tracer.count(parent, "QueryStats", {"cache_hit": answered.stats.cache_hit})

    def end_to_end(self, phases: dict[str, Phase]) -> dict[str, dict]:
        return {
            "range_qps": phases["pipelined"].rate(),
            "range_p50_ms": phases["range"].p50(),
            "knn_qps": phases["knn"].rate(),
            "knn_p50_ms": phases["knn"].p50(),
        }

    # -- per-layer ------------------------------------------------------------------

    def per_layer(self, untraced: dict[str, Phase], tracer: Tracer) -> dict[str, dict]:
        side = 0.3 if self.smoke else 1.0  # seconds per side measurement
        layer: dict[str, dict] = {}
        stages = tracer.stage_table()
        for name, span in (
            ("api.parse_request_us", "parse_request"),
            ("api.classify_frame_us", "classify_frame"),
            ("api.frame_decode_us", "decode_frame_body"),
            ("api.response_build_us", "Response.to_dict+response_envelope"),
            ("api.frame_encode_us", "encode_frame"),
            ("api.socket_self_us", "Client.execute"),
            ("service.cache.hit_us", "QueryEngine.query"),
        ):
            if span in stages:
                layer[name] = stages[span]
        if "client.encode" in stages and "client.decode" in stages:
            layer["api.client_us"] = metric(
                stages["client.encode"]["value"] + stages["client.decode"]["value"],
                "us", samples=stages["client.encode"]["samples"],
            )
        layer["api.serial_qps"] = untraced["range"].rate()
        layer["api.pipelined_qps.json"] = untraced["pipelined"].rate()
        layer["api.range_p99_ms"] = untraced["range"].tail()
        hits, misses = self.cache_window
        layer["service.cache.hit_rate"] = metric(
            hits / max(1, hits + misses), "ratio", samples=hits + misses
        )

        with Client(*self.server.address, protocol=2, wire_format="binary") as binary:
            layer["api.pipelined_qps.binary"] = pipelined(
                binary, self.range_requests, side, self.checks
            ).rate()
        other = ServerProcess(self._spec("asyncio"), f"{self.name}-async", share_cpu=True)
        try:
            with Client(*other.address, protocol=2) as client:
                self._warm(client)
                layer["api.async_pipelined_qps"] = pipelined(
                    client, self.range_requests, side, self.checks
                ).rate()
        finally:
            other.stop()

        inproc = in_process(self._mirror_session(), self.range_requests, side).rate()
        layer["api.inproc_qps"] = inproc
        layer["api.transport_share"] = metric(
            1.0 - layer["api.pipelined_qps.json"]["value"] / inproc["value"],
            "ratio", base_qps=inproc["value"],
        )
        layer["obs.overhead_ratio"] = self._obs_overhead(side)
        layer.update(self._codec_wire())
        return layer

    def _obs_overhead(self, seconds: float) -> dict:
        """In-process QPS with the metrics registry enabled / disabled.

        Metric handles bind at construction, so each mode builds its own
        database under its own registry; the process default is restored.
        """
        original = get_registry()
        rates = {}
        try:
            for enabled in (False, True):
                set_registry(MetricsRegistry(enabled=enabled))
                with Database() as database:
                    database.create_static(COLLECTION, self.rankings, num_shards=2)
                    session = database.session()
                    for request in self.range_requests:
                        session.execute(request)
                    rates[enabled] = in_process(session, self.range_requests, seconds).rate()
        finally:
            set_registry(original)
        return metric(
            rates[True]["value"] / rates[False]["value"], "ratio", base_qps=rates[False]["value"]
        )

    def _codec_wire(self) -> dict[str, dict]:
        """The RBF envelope codec on this workload's own requests and replies."""
        session = self._mirror_session()
        requests = [(i, request.to_dict()) for i, request in enumerate(self.range_requests)]
        replies = [(i, session.execute(payload).to_dict()) for i, payload in requests]
        request_bodies = [wire.encode_request(i, payload) for i, payload in requests]
        reply_bodies = [wire.encode_response(i, payload) for i, payload in replies]
        json_frames = [encode_frame(response_envelope(i, payload)) for i, payload in replies]
        binary_frames = [encode_binary_frame(body) for body in reply_bodies]
        return {
            "codec.wire.encode_request_us": per_item_us(
                lambda pair: wire.encode_request(*pair), requests
            ),
            "codec.wire.decode_request_us": per_item_us(wire.decode_request, request_bodies),
            "codec.wire.encode_response_us": per_item_us(
                lambda pair: wire.encode_response(*pair), replies
            ),
            "codec.wire.decode_response_us": per_item_us(wire.decode_response, reply_bodies),
            "api.reply_bytes.json": metric(
                statistics.fmean(len(frame) for frame in json_frames), "B"
            ),
            "api.reply_bytes.binary": metric(
                statistics.fmean(len(frame) for frame in binary_frames), "B"
            ),
        }
