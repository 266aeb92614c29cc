"""``serve_mixed``: the whole stack as a service user meets it.

A child-process threaded server over a durable live collection (2000 rows,
default caches).  Connection A (the main thread) cycles [1 insert that is a
one-transposition variant of a standing query, 4 distinct range queries,
1 k-NN]; connection B holds 32 standing range queries (theta=0.3) and drains
their pushes.  The query list exceeds the LRU and every commit invalidates it,
so writes, reads, pushes and cache invalidation contend on one server GIL.
Then a paced phase: inserts timed from their ack on A to the delta that
reflects them on B (the traced run repeats it with one standing query).
"""

from __future__ import annotations

import random
import threading
import time

from repro.api import Client, InsertRequest, KnnRequest, MatchPayload, RangeQueryRequest
from repro.obs import names as metric_names
from repro.sub.delta import diff_matches

from harness import (
    Phase,
    ServerProcess,
    Tracer,
    median_time,
    metric,
    scratch_dir,
    timed_loop,
)
from oracle import Oracle
from workloads.common import (
    COLLECTION,
    KNN_K,
    LIVE_OPTIONS,
    RANGE_THETA,
    Workload,
    generate_inputs,
    replay_wire_request,
    shuffled,
    transposed,
)

SUBSCRIPTIONS = 32
SUB_THETA = 0.3
RANGES_PER_CYCLE = 4
#: Distinct queries per pass.  Every cycle commits once, which empties the
#: result cache, and no query repeats inside a cycle: the pool need not exceed
#: the LRU for every timed read to be a miss.
PASS_CYCLES = 24
PACED_INSERTS = 80
#: A paced slice is this many inserts, and the paced inserts visit the standing
#: queries in bit-reversed order (0, 16, 8, 24, 4, ...): the dispatcher
#: recomputes the standing queries one after the other, so a delta is as late
#: as its query's place in that round, and any sixteen consecutive inserts of this
#: order are spread evenly over the round.
PACED_SLICE = 16
PACED_ORDER = sorted(range(SUBSCRIPTIONS), key=lambda i: f"{i:05b}"[::-1])
PACE_SECONDS = 0.005
PUSH_TIMEOUT = 10.0

clock = time.perf_counter_ns


class _Drain:
    """Connection B's one consumer thread: empties every subscription's queue
    and notes when each inserted rid first showed up in a delta."""

    def __init__(self, subscriptions: list) -> None:
        self.subscriptions = list(subscriptions)
        self.arrived: dict[int, int] = {}
        self.changed = threading.Condition()
        self.error: BaseException | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-drain", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                consumed = False
                for subscription in list(self.subscriptions):
                    while True:
                        try:
                            delta = subscription.get(timeout=0)
                        except TimeoutError:
                            break
                        if delta is None:
                            break
                        consumed = True
                        now = clock()
                        with self.changed:
                            for match in delta.entered:
                                self.arrived.setdefault(match.rid, now)
                            self.changed.notify_all()
                if not consumed:
                    time.sleep(0.001)
        except BaseException as error:  # surfaced by the workload as a failed run
            self.error = error
            raise

    def wait_for(self, rid: int, timeout: float) -> int | None:
        with self.changed:
            self.changed.wait_for(lambda: rid in self.arrived, timeout)
            return self.arrived.get(rid)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)


class ServeMixed(Workload):
    name = "serve_mixed"

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        super().__init__(seed, smoke, seconds)
        ranges = PASS_CYCLES * RANGES_PER_CYCLE
        rankings, queries, self.warm_up = generate_inputs(
            300 if smoke else 2000, ranges + PASS_CYCLES
        )
        # the same queries are ranges, and the same are k-NN, whatever the seed
        self.pools = {
            "range": shuffled(queries[:ranges], seed),
            "knn": shuffled(queries[ranges:], seed),
        }
        self.cursor = {"range": 0, "knn": 0}
        self.rows = [list(ranking.items) for ranking in rankings]
        step = len(self.rows) // SUBSCRIPTIONS
        self.standing = [tuple(self.rows[i * step]) for i in range(SUBSCRIPTIONS)]
        self.rng = random.Random(seed)
        self.inserted = 0
        self.window: dict[str, float] = {}

    def setup(self) -> None:
        spec = {
            "kind": "live",
            "transport": "threaded",
            "rows": self.rows,
            "dir": str(scratch_dir(f"{self.name}-data")),
            "live": LIVE_OPTIONS,
        }
        self.server = ServerProcess(spec, self.name)
        self.oracle = Oracle(len(self.rows[0]), enumerate(self.rows))
        self.client = Client(*self.server.address, protocol=2)
        self.watcher = Client(*self.server.address, protocol=2)
        self.subscriptions = [
            self.watcher.subscribe(query, collection=COLLECTION, theta=SUB_THETA)
            for query in self.standing
        ]
        self.drain = _Drain(self.subscriptions)
        for query in self.warm_up:
            self.client.range_query(query, RANGE_THETA, collection=COLLECTION)
            self.client.knn(query, KNN_K, collection=COLLECTION)

    def teardown(self) -> None:
        self.drain.stop()
        self.watcher.close()
        self.client.close()
        self.server.stop()

    def peak_rss_mb(self) -> float:
        return self.server.rss_mb

    # -- the mixed phase ------------------------------------------------------------

    def _insert_near(self, watched: int) -> tuple[InsertRequest, object, int, int]:
        """Insert a one-transposition variant of standing query ``watched``."""
        items = transposed(self.standing[watched % len(self.standing)], self.rng)
        request = InsertRequest(collection=COLLECTION, items=items)
        start = clock()
        response = self.client.execute(request)
        end = clock()
        if self.check_response(response, "insert"):
            self.oracle.put(response.key, request.items)
        return request, response, start, end

    def _server_counters(self) -> dict[str, float]:
        """The child's own counters, read over the wire like any operator would."""
        totals = {metric_names.SUB_PUSHES_TOTAL: 0.0, metric_names.SUB_COALESCED_TOTAL: 0.0}
        for family in self.client.metrics()["metrics"]:
            if family["name"] in totals:
                totals[family["name"]] = sum(sample["value"] for sample in family["samples"])
        cache = self.client.stats(COLLECTION)["engine"]["cache"]
        return {
            "pushes": totals[metric_names.SUB_PUSHES_TOTAL],
            "coalesced": totals[metric_names.SUB_COALESCED_TOTAL],
            "hits": cache["hits"],
            "misses": cache["misses"],
        }

    def run(self, seconds: float, tracer: Tracer | None = None) -> dict[str, Phase]:
        phases = {
            "write": Phase(PASS_CYCLES),
            "range": Phase(PASS_CYCLES * RANGES_PER_CYCLE),
            "knn": Phase(PASS_CYCLES),
        }
        before = self._server_counters()
        commits = 0

        def trace(request, response, start: int, end: int) -> None:
            if self.due_for_trace(tracer):
                parent = tracer.request(f"Client.execute({request.TYPE})", "api", start, end)
                replay_wire_request(tracer, parent, request, response)

        def one_cycle(index: int) -> None:
            nonlocal commits
            request, response, start, end = self._insert_near(self.inserted)
            self.inserted += 1
            phases["write"].add(end - start)
            if response.ok:
                commits += 1
                trace(request, response, start, end)
            for kind in ("range",) * RANGES_PER_CYCLE + ("knn",):
                pool = self.pools[kind]
                query = pool[self.cursor[kind] % len(pool)]
                self.cursor[kind] += 1
                if kind == "range":
                    request = RangeQueryRequest(
                        collection=COLLECTION, items=query, theta=RANGE_THETA
                    )
                else:
                    request = KnnRequest(collection=COLLECTION, items=query, k=KNN_K)
                start = clock()
                response = self.client.execute(request)
                end = clock()
                phases[kind].add(end - start)
                if not self.check_response(response, kind):
                    continue
                if self.due_for_oracle():
                    if kind == "range":
                        self.check_range(self.oracle, query, RANGE_THETA, response)
                    else:
                        self.check_knn(self.oracle, query, KNN_K, response)
                trace(request, response, start, end)

        timed_loop(seconds, one_cycle)
        after = self._server_counters()
        self.window = {key: after[key] - before[key] for key in after}
        self.window["commits"] = commits
        return phases

    def end_to_end(self, phases: dict[str, Phase]) -> dict[str, dict]:
        return {
            "range_qps": phases["range"].rate(),
            "range_p50_ms": phases["range"].p50(),
            "knn_qps": phases["knn"].rate(),
            "knn_p50_ms": phases["knn"].p50(),
            "write_ops_s": phases["write"].rate(),
        }

    def finish(self) -> None:
        """The paced phase, then every standing query must converge on what a
        fresh query would answer."""
        paced = self._paced(len(self.subscriptions))
        if paced.calls:
            self.final["push_p50_ms"] = paced.p50()
            self.final["sub.push_p95_ms"] = paced.tail(95.0)
        expected = [
            self.oracle.result_bytes(self.oracle.range(query, SUB_THETA))
            for query in self.standing
        ]
        deadline = time.monotonic() + PUSH_TIMEOUT
        pending = list(range(len(self.subscriptions)))
        while pending and time.monotonic() < deadline and self.drain.error is None:
            pending = [i for i in pending if self.subscriptions[i].result_bytes() != expected[i]]
            if pending:
                time.sleep(0.01)
        for i in range(len(self.subscriptions)):
            self.checks.oracle(i not in pending, f"standing query {i} never converged")
        if self.drain.error is not None:
            self.checks.fail(f"push drain died: {self.drain.error!r}")

    # -- per-layer ------------------------------------------------------------------

    def _paced(self, watched: int) -> Phase:
        """Insert, wait for the delta that reflects it; timed from ack to delta."""
        latencies = Phase(PACED_SLICE)
        for i in range(8 if self.smoke else PACED_INSERTS):
            _, response, _, acked = self._insert_near(PACED_ORDER[i % SUBSCRIPTIONS] % watched)
            if not response.ok:
                continue
            arrived = self.drain.wait_for(response.key, PUSH_TIMEOUT)
            self.checks.op(arrived is not None, f"no push for key {response.key}")
            if arrived is not None:
                latencies.add(max(0, arrived - acked))
            time.sleep(PACE_SECONDS)
        return latencies

    def per_layer(self, untraced: dict[str, Phase], tracer: Tracer) -> dict[str, dict]:
        layer = dict(self.final)
        layer["write_ops_s"] = untraced["write"].rate()
        layer["api.range_p99_ms"] = untraced["range"].tail()
        window = self.window
        commits = max(1, window["commits"])
        lookups = window["hits"] + window["misses"]
        layer["service.cache.hit_rate"] = metric(
            window["hits"] / max(1, lookups), "ratio", samples=int(lookups)
        )
        layer["sub.pushes_per_commit"] = metric(window["pushes"] / commits, "ratio", base=commits)
        layer["sub.coalesce_ratio"] = metric(window["coalesced"] / commits, "ratio", base=commits)

        before = {match.rid: match for match in self.subscriptions[0].matches}
        after = list(before.values()) + [
            MatchPayload(rid=-1, distance=0.0, items=self.standing[0])
        ]
        layer["sub.diff_us"] = median_time(lambda: diff_matches(before, after, 0), 200)

        for subscription in self.subscriptions[1:]:
            subscription.unsubscribe()
        self.drain.subscriptions = self.subscriptions[:1]
        one = self._paced(1)
        self.subscriptions = self.subscriptions[:1]
        if one.calls:
            layer["sub.push_p50_ms.subs1"] = one.p50()
        return layer
