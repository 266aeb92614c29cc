"""``core_cold``: the algorithms do all the work.

In-process ``Session`` over a static collection (n=5000, 2 shards) with the
result cache **off**; distinct range queries (theta=0.2) and k-NN (k=10) in
alternating passes, about 70% / 30% of the time.  ``api`` wire, ``codec``,
``live`` and ``sub`` do nothing here, so a change to any of them must show no
change on this workload.

The timed requests name their algorithm: F&V for range, the validation-bound
algorithm (1500 distance calls a query) and what the planner serves after a
cold start; AdaptSearch for k-NN.  The planner itself cannot be on a gated
path today: it keeps one moving average per algorithm, updates only the one
it serves and never re-explores, so a few costly queries or one stall send it
to another algorithm for hundreds or thousands of queries.  Explored cold it
read range_qps 134..885 across eight runs of one commit; explored honestly
(every candidate warmed with 32 pinned answers) still 383..965 across seven.
It is measured beside, in the traced run: ``service.planner.regret``,
``service.planner.choice.*`` and ``service.planner.plan_us``.  **A planner
change is invisible to the gate** until the planner holds still.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

from repro.algorithms import make_algorithm
from repro.algorithms.knn import RangeExpansionKNN
from repro.api import Database
from repro.core import Ranking, footrule_topk

from harness import Phase, Tracer, median_time, metric, timed_loop
from oracle import Oracle
from workloads.common import (
    COLLECTION,
    KNN_K,
    RANGE_THETA,
    Workload,
    generate_inputs,
    shuffled,
)

#: Distinct queries per pass.  A round is one range pass then one k-NN pass
#: (about 70% / 30% of the time), and a slice is one whole pass: every slice
#: times the same work, and both kinds are sampled across the whole run.
#: Pinned F&V answers ~130 q/s: seven passes of 200 fit a run, one of 3000 would not.
RANGE_POOL, KNN_POOL = 200, 100
#: What the timed requests pin.
RANGE_ALGORITHM, KNN_ALGORITHM = "F&V", "AdaptSearch"
#: The collection the free planner is measured on in the traced run.
FREE = "free"

#: Metric slug -> registry name of the seven pinned algorithms.
SLUGS = {
    "fv": "F&V",
    "fv_drop": "F&V+Drop",
    "listmerge": "ListMerge",
    "blocked_prune_drop": "Blocked+Prune+Drop",
    "coarse_drop": "Coarse+Drop",
    "adaptsearch": "AdaptSearch",
    "bktree": "BK-tree",
}
#: The planner's candidate set, by slug.
PLANNER_SLUGS = ("fv", "listmerge", "adaptsearch", "coarse_drop", "bktree")
COARSE_THETA_C = 0.06

clock = time.perf_counter_ns


class CoreCold(Workload):
    name = "core_cold"
    setup_repeats = 15  # a set-up takes 0.2 s here: five would time one second in all

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        super().__init__(seed, smoke, seconds)
        self.rankings, self.queries, self.warm_up = generate_inputs(600 if smoke else 5000, 400)
        self.pools = {
            "range": shuffled(self.queries[:RANGE_POOL], seed),
            "knn": shuffled(self.queries[RANGE_POOL:RANGE_POOL + KNN_POOL], seed),
        }
        self.oracle = Oracle(self.rankings.k, enumerate(r.items for r in self.rankings))

    def setup(self) -> None:
        self.database = Database()
        self.engine = self.database.create_static(
            COLLECTION, self.rankings, num_shards=2, cache_capacity=0
        )
        self.session = self.database.session()
        for query in self.warm_up:  # the lazy per-shard index builds
            self.session.range_query(
                query, RANGE_THETA, collection=COLLECTION, algorithm=RANGE_ALGORITHM
            )
            self.session.knn(query, KNN_K, collection=COLLECTION, algorithm=KNN_ALGORITHM)

    def teardown(self) -> None:
        self.database.close()

    def _next_query(self, kind: str) -> tuple[int, ...]:
        pool = self.pools[kind]
        query = pool[self.cursor[kind] % len(pool)]
        self.cursor[kind] += 1
        return query

    def run(self, seconds: float, tracer: Tracer | None = None) -> dict[str, Phase]:
        phases = {"range": Phase(RANGE_POOL), "knn": Phase(KNN_POOL)}
        self.cursor = {"range": 0, "knn": 0}  # every run starts on a pool boundary
        session = self.session
        # a static collection's answers do not age: check them after the timing
        deferred: list[tuple[str, tuple, object]] = []

        def one_range(index: int) -> None:
            query = self._next_query("range")
            start = clock()
            response = session.range_query(
                query, RANGE_THETA, collection=COLLECTION, algorithm=RANGE_ALGORITHM
            )
            end = clock()
            phases["range"].add(end - start)
            if not self.check_response(response, "range"):
                return
            if self.due_for_oracle():
                deferred.append(("range", query, response))
            if self.due_for_trace(tracer):
                self._replay(tracer, "range", query, start, end)

        def one_knn(index: int) -> None:
            query = self._next_query("knn")
            start = clock()
            response = session.knn(query, KNN_K, collection=COLLECTION, algorithm=KNN_ALGORITHM)
            end = clock()
            phases["knn"].add(end - start)
            if not self.check_response(response, "knn"):
                return
            if self.due_for_oracle():
                deferred.append(("knn", query, response))
            if self.due_for_trace(tracer):
                self._replay(tracer, "knn", query, start, end)

        def range_pass() -> None:
            for index in range(RANGE_POOL):
                one_range(index)

        def knn_pass() -> None:
            for index in range(KNN_POOL):
                one_knn(index)

        def one_round(_: int) -> None:
            range_pass()
            knn_pass()

        timed_loop(seconds, one_round)
        for kind, query, response in deferred:
            if kind == "range":
                self.check_range(self.oracle, query, RANGE_THETA, response)
            else:
                self.check_knn(self.oracle, query, KNN_K, response)
        return phases

    def _replay(self, tracer: Tracer, kind: str, items, start: int, end: int) -> None:
        """sharded fan-out -> per-shard search, under the measured request."""
        query = Ranking(items)
        sharded = self.engine.sharded_index
        parent = tracer.request(f"Session.{kind}", "api", start, end)
        if kind == "knn":
            result = tracer.stage(
                "ShardedIndex.knn", "service", parent, sharded.knn, query, KNN_K, KNN_ALGORITHM
            )
        else:
            result = tracer.stage(
                "ShardedIndex.range_query", "service", parent,
                sharded.range_query, query, RANGE_THETA, RANGE_ALGORITHM,
            )
            fanout = tracer.last
            for shard in range(sharded.num_shards):
                instance = sharded.shard_algorithm(shard, RANGE_ALGORITHM)
                tracer.stage(
                    "shard_algorithm.search", "algorithms", fanout,
                    instance.search, query, RANGE_THETA,
                )
        stats = result.stats
        tracer.count(
            parent, "SearchStats",
            {
                "distance_calls": stats.distance_calls,
                "postings_scanned": stats.postings_scanned,
                "candidates": stats.candidates,
            },
        )

    def end_to_end(self, phases: dict[str, Phase]) -> dict[str, dict]:
        return {
            "range_qps": phases["range"].rate(),
            "range_p50_ms": phases["range"].p50(),
            "knn_qps": phases["knn"].rate(),
            "knn_p50_ms": phases["knn"].p50(),
        }

    # -- per-layer ------------------------------------------------------------------

    def per_layer(self, untraced: dict[str, Phase], tracer: Tracer) -> dict[str, dict]:
        layer = self._pinned_algorithms()
        layer["core.footrule_us"] = self._footrule()
        layer["service.sharding.overhead_us"] = self._sharding_overhead()
        layer.update(self._free_planner(layer))
        cache = self.engine.stats().as_dict()["cache"]
        layer["service.cache.hit_rate"] = metric(cache["hit_rate"], "ratio")
        return layer

    def _free_planner(self, pinned: dict[str, dict]) -> dict[str, dict]:
        """The same collection with the planner left to choose.

        Exploration (the warm-up queries) then one pass over the range pool;
        regret is what a query costs through the engine over what the best
        pinned algorithm takes for it.
        """
        engine = self.database.create_static(
            FREE, self.rankings, num_shards=2, cache_capacity=0
        )
        for query in self.warm_up:
            self.session.range_query(query, RANGE_THETA, collection=FREE)
        phase = Phase()
        choices: Counter = Counter()
        for query in self.queries[: 40 if self.smoke else 400]:
            start = clock()
            response = self.session.range_query(query, RANGE_THETA, collection=FREE)
            phase.add(clock() - start)
            if self.check_response(response, "free range"):
                choices[response.stats["algorithm"]] += 1
        probe = Ranking(self.queries[0])
        layer = {
            "service.planner.plan_us": median_time(
                lambda: engine.planner.plan(probe, RANGE_THETA), 200
            )
        }
        engine_us = statistics.median(ns for ns, _ in phase.calls) / 1e3
        best = min(pinned[f"algorithms.{slug}.query_us"]["value"] for slug in SLUGS)
        layer["service.planner.regret"] = metric(
            engine_us / best, "ratio", base_us=best, samples=len(phase.calls)
        )
        total = max(1, sum(choices.values()))
        for slug in PLANNER_SLUGS:
            layer[f"service.planner.choice.{slug}"] = metric(
                choices[SLUGS[slug]] / total, "ratio", samples=total
            )
        return layer

    def _pinned_algorithms(self) -> dict[str, dict]:
        """Each algorithm alone, single index, on this collection's first queries.

        Distance calls and postings are the paper's machine-independent
        counters: exact, and asserted identical across two passes.
        """
        queries = [Ranking(items) for items in self.queries[: 40 if self.smoke else 400]]
        layer: dict[str, dict] = {}
        for slug, name in SLUGS.items():
            kwargs = {"theta_c": COARSE_THETA_C} if slug == "coarse_drop" else {}
            start = clock()
            algorithm = make_algorithm(name, self.rankings, **kwargs)
            algorithm.search(queries[0], RANGE_THETA)  # finishes whatever is built lazily
            build_s = (clock() - start) / 1e9
            times, calls, postings = [], [], []
            for query in queries:
                start = clock()
                result = algorithm.search(query, RANGE_THETA)
                times.append(clock() - start)
                calls.append(result.stats.distance_calls)
                postings.append(result.stats.postings_scanned)
            again = [
                algorithm.search(query, RANGE_THETA).stats.distance_calls
                for query in queries[: len(queries) // 4]
            ]
            self.checks.oracle(again == calls[: len(again)], f"{slug} distance_calls repeat")
            prefix = f"algorithms.{slug}"
            layer[f"{prefix}.query_us"] = metric(
                statistics.median(times) / 1e3, "us", samples=len(times)
            )
            layer[f"{prefix}.distance_calls"] = metric(statistics.fmean(calls), "count")
            layer[f"{prefix}.build_s"] = metric(build_s, "s")
            if slug in ("fv", "coarse_drop"):
                layer[f"{prefix}.postings_scanned"] = metric(statistics.fmean(postings), "count")
        # k-NN as the engine settles on it: radius expansion over AdaptSearch
        knn = RangeExpansionKNN(make_algorithm("AdaptSearch", self.rankings))
        times, calls = [], []
        for query in queries:
            start = clock()
            result = knn.search(query, KNN_K)
            times.append(clock() - start)
            calls.append(result.stats.distance_calls)
        layer["algorithms.knn.query_us"] = metric(
            statistics.median(times) / 1e3, "us", samples=len(times)
        )
        layer["algorithms.knn.distance_calls"] = metric(statistics.fmean(calls), "count")
        return layer

    def _footrule(self) -> dict:
        pairs = [
            (Ranking(self.queries[i % len(self.queries)]), self.rankings[i % len(self.rankings)])
            for i in range(5000)
        ]
        start = clock()
        for left, right in pairs:
            footrule_topk(left, right)
        return metric((clock() - start) / 1e3 / len(pairs), "us", samples=len(pairs))

    def _sharding_overhead(self) -> dict:
        """Fan-out over 2 shards pinned to F&V, minus the slower shard searched directly."""
        sharded = self.engine.sharded_index
        shards = [sharded.shard_algorithm(i, "F&V") for i in range(sharded.num_shards)]
        samples = []
        for items in self.queries[: 20 if self.smoke else 200]:
            query = Ranking(items)
            start = clock()
            sharded.range_query(query, RANGE_THETA, "F&V")
            fanned = clock() - start
            direct = []
            for shard in shards:
                start = clock()
                shard.search(query, RANGE_THETA)
                direct.append(clock() - start)
            samples.append(fanned - max(direct))
        return metric(statistics.median(samples) / 1e3, "us", samples=len(samples))
