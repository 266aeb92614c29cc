"""``live_churn``: the write path, and reads beside writes, in process.

A ``Session`` over a durable ``LiveCollection`` (binary format, group commit
of 64, memtable of 256, at most 4 segments) preloaded with 4000 rows runs a
**fixed schedule**: cycles of 20 mutations (50% insert / 30% upsert / 20%
delete) + 1 range probe + 1 k-NN probe.  Fixed count, not fixed time, so the
final state, the bytes on disk and the flush counts compare across commits.
Then a crash image (``sync()``, copy the directory while still open) is
reopened fifteen times; every acknowledged write must be there.  No wire, no
subscriptions.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import time
from pathlib import Path

from repro.api import (
    Database,
    DeleteRequest,
    InsertRequest,
    KnnRequest,
    RangeQueryRequest,
    UpsertRequest,
    parse_request,
)
from repro.codec import records as codec_records
from repro.core import Ranking
from repro.live import LiveCollection, WalRecord, WriteAheadLog
from repro.live.memtable import MemTable, scan_entries
from repro.live.segment import Segment

from harness import (
    Phase,
    Tracer,
    median_time,
    metric,
    per_item_us,
    scratch_dir,
)
from oracle import Oracle
from workloads.common import (
    COLLECTION,
    KNN_K,
    LIVE_OPTIONS,
    RANGE_THETA,
    Workload,
    generate_inputs,
    shuffled,
    transposed,
)

#: The schedule is sized from the requested run length: this many cycles per
#: second is what the seed commit sustains, so ``--seconds`` is roughly honoured.
CYCLES_PER_SECOND = 30
#: Every cycle applies exactly these mutations (50% / 30% / 20%), in an order
#: the seed picks, on keys the seed picks: the collection grows alike for every
#: seed, so flushes and compactions fall on the same cycles.
CYCLE_MUTATIONS = ("insert",) * 10 + ("upsert",) * 6 + ("delete",) * 4
#: Distinct probe queries; one per cycle, so a pass is this many cycles.
PROBE_POOL = 30
#: Reopens of the crash image: five striped slices of three.
RESTARTS = 15

clock = time.perf_counter_ns


def passes_for(seconds: float) -> int:
    """Whole passes (PROBE_POOL cycles each) the schedule has for a run length."""
    return max(1, round(seconds * CYCLES_PER_SECOND / PROBE_POOL))


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class LiveChurn(Workload):
    name = "live_churn"

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        super().__init__(seed, smoke, seconds)
        self.preload = 400 if smoke else 4000
        cycles = passes_for(seconds) * PROBE_POOL
        pool = self.preload + cycles * CYCLE_MUTATIONS.count("insert")
        rankings, queries, self.warm_up = generate_inputs(pool, PROBE_POOL)
        self.queries = shuffled(queries, seed)
        rows = [ranking.items for ranking in rankings]
        self.base_rows, self.fresh_rows = rows[: self.preload], rows[self.preload:]
        self.rng = random.Random(seed)
        self.cursor = 0
        self.history: list[tuple[str, int, tuple | None]] = []

    def setup(self) -> None:
        self.directory = scratch_dir(self.name)
        self.collection = LiveCollection.open(self.directory, **LIVE_OPTIONS)
        self.database = Database()
        self.engine = self.database.create_live(COLLECTION, self.collection)
        self.session = self.database.session()
        self.oracle = Oracle(len(self.base_rows[0]))
        self.keys: list[int] = []
        for row in self.base_rows:
            key = self.session.insert(row, collection=COLLECTION)
            self.oracle.put(key, row)
            self.keys.append(key)
        for query in self.warm_up:  # lazy per-layer index builds
            self.session.range_query(query, RANGE_THETA, collection=COLLECTION)
            self.session.knn(query, KNN_K, collection=COLLECTION)

    def teardown(self) -> None:
        self.database.close()

    # -- the schedule ---------------------------------------------------------------

    def _mutation(self, op: str):
        """One mutation of the seeded schedule, as a typed request."""
        if op == "insert":
            return InsertRequest(collection=COLLECTION, items=self.fresh_rows.pop())
        if op == "upsert":
            key = self.rng.choice(self.keys)
            items = transposed(self.oracle.rows[key], self.rng)
            return UpsertRequest(collection=COLLECTION, key=key, items=items)
        slot = self.rng.randrange(len(self.keys))
        self.keys[slot], self.keys[-1] = self.keys[-1], self.keys[slot]
        return DeleteRequest(collection=COLLECTION, key=self.keys.pop())

    def _acknowledged(self, request, response) -> None:
        """Mirror one acknowledged mutation into the oracle and the history."""
        key = response.key
        if isinstance(request, DeleteRequest):
            self.oracle.delete(key)
            self.history.append(("delete", key, None))
            return
        if isinstance(request, InsertRequest):
            self.keys.append(key)
        self.oracle.put(key, request.items)
        self.history.append((request.TYPE, key, request.items))

    def run(self, seconds: float, tracer: Tracer | None = None) -> dict[str, Phase]:
        # the collection grows under the schedule: stripe the passes over the slices
        phases = {
            "write": Phase(),
            "range": Phase(PROBE_POOL, striped=True),
            "knn": Phase(PROBE_POOL, striped=True),
        }
        session = self.session
        scratch = _ScratchWritePath(self.name) if tracer is not None else None
        for _ in range(passes_for(seconds) * PROBE_POOL):
            for op in self.rng.sample(CYCLE_MUTATIONS, len(CYCLE_MUTATIONS)):
                request = self._mutation(op)
                payload = request.to_dict()  # what a client would put on the wire
                start = clock()
                response = session.execute(payload)
                end = clock()
                phases["write"].add(end - start)
                if self.check_response(response, request.TYPE):
                    self._acknowledged(request, response)
                    if self.due_for_trace(tracer):
                        scratch.replay(
                            tracer, request, response.key, len(self.history), start, end
                        )
            query = self.queries[self.cursor % len(self.queries)]
            self.cursor += 1
            probes = {
                "range": RangeQueryRequest(
                    collection=COLLECTION, items=query, theta=RANGE_THETA
                ),
                "knn": KnnRequest(collection=COLLECTION, items=query, k=KNN_K),
            }
            for kind, request in probes.items():
                payload = request.to_dict()
                start = clock()
                response = session.execute(payload)
                end = clock()
                phases[kind].add(end - start)
                if not self.check_response(response, kind):
                    continue
                if self.due_for_oracle():
                    if kind == "range":
                        self.check_range(self.oracle, query, RANGE_THETA, response)
                    else:
                        self.check_knn(self.oracle, query, KNN_K, response)
                if self.due_for_trace(tracer):
                    self._replay_probe(tracer, kind, query, start, end)
        if scratch is not None:
            scratch.close()
        return phases

    def _replay_probe(self, tracer: Tracer, kind: str, items, start: int, end: int) -> None:
        parent = tracer.request(f"Session.execute({kind})", "api", start, end)
        if kind == "range":
            result = tracer.stage(
                "LiveCollection.range_query", "live", parent,
                self.collection.range_query, Ranking(items), RANGE_THETA,
            )
        else:
            result = tracer.stage(
                "LiveCollection.knn", "live", parent, self.collection.knn, Ranking(items), KNN_K
            )
        tracer.count(
            parent, "SearchStats",
            {"distance_calls": result.stats.distance_calls, **result.stats.extra},
        )

    def end_to_end(self, phases: dict[str, Phase]) -> dict[str, dict]:
        return {
            "range_qps": phases["range"].rate(),
            "range_p50_ms": phases["range"].p50(),
            "knn_qps": phases["knn"].rate(),
            "knn_p50_ms": phases["knn"].p50(),
            # 50 of the 9000 mutations (flushes, inline compactions) take 2/3 of the time
            "write_ops_s": phases["write"].overall_rate(),
        }

    # -- durability: the crash image ----------------------------------------------

    def finish(self) -> None:
        """Reopen a crash image RESTARTS times; lose no acknowledged write."""
        self.collection.sync()
        image = scratch_dir(f"{self.name}-image")
        shutil.copytree(self.directory, image, dirs_exist_ok=True)
        restarts, replayed = Phase(cycle=1, striped=True), 0
        for attempt in range(RESTARTS):
            copy = scratch_dir(f"{self.name}-restart")
            shutil.copytree(image, copy, dirs_exist_ok=True)
            # the collector runs now and is off while an open is timed: whether a collection
            # falls into it (+12 to +40 ms) is decided by what the harness allocated before
            gc.collect()
            gc.disable()
            start = clock()
            reopened = LiveCollection.open(copy, **LIVE_OPTIONS)
            restarts.add(clock() - start)
            gc.enable()
            replayed = reopened.stats().replayed
            with Database() as database:  # closing it closes the reopened collection
                database.create_live(COLLECTION, reopened, cache_capacity=0)
                if attempt == 0:
                    self._check_image(reopened, database.session())
        stats = self.collection.stats()
        self.final = {
            "restart_s": restarts.p50("s"),
            "disk_bytes_per_ranking": metric(
                directory_bytes(self.directory) / len(self.oracle), "B", rankings=len(self.oracle)
            ),
            "live.flushes": metric(stats.flushes, "count"),
            "live.compactions": metric(stats.compactions, "count"),
            "live.replayed_records": metric(replayed, "count"),
        }

    def _check_image(self, reopened: LiveCollection, session) -> None:
        lost = [
            key for key, items in self.oracle.rows.items()
            if (found := reopened.get(key)) is None or found.items != items
        ]
        self.checks.oracle(
            not lost and len(reopened) == len(self.oracle),
            f"crash image lost {len(lost)} acknowledged key(s), e.g. {lost[:5]}",
        )
        for query in self.queries[:10]:
            self.check_range(
                self.oracle, query, RANGE_THETA,
                session.range_query(query, RANGE_THETA, collection=COLLECTION),
            )

    # -- per-layer ------------------------------------------------------------------

    def per_layer(self, untraced: dict[str, Phase], tracer: Tracer) -> dict[str, dict]:
        layer = dict(self.final)
        write = untraced["write"]
        layer["write_ops_s"] = write.overall_rate()
        layer["live.write_p99_us"] = write.tail(99.0, scale=1e3, unit="us")
        layer["live.write_stall_max_ms"] = metric(
            max(ns for ns, _ in write.calls) / 1e6, "ms", samples=len(write.calls)
        )
        layer["live.range_p99_ms"] = untraced["range"].tail()
        cache = self.engine.stats().as_dict()["cache"]
        layer["service.cache.hit_rate"] = metric(cache["hit_rate"], "ratio")
        stages = tracer.stage_table()
        if "WriteAheadLog.append" in stages:
            layer["live.wal.append_us"] = stages["WriteAheadLog.append"]

        wal_records = [
            WalRecord(seq=seq, op=op, key=key, items=items)
            for seq, (op, key, items) in enumerate(self.history, start=1)
        ]
        encoded = [record.to_record() for record in wal_records]
        layer["live.wal.bytes_per_mutation"] = metric(
            sum(map(len, encoded)) / len(encoded), "B", samples=len(encoded)
        )
        inmem = self._in_memory_write_rate()
        layer["live.inmem_write_ops_s"] = inmem
        layer["live.wal_cost_ratio"] = metric(
            inmem["value"] / layer["write_ops_s"]["value"], "ratio",
            base_ops_s=layer["write_ops_s"]["value"],
        )
        start = clock()
        self.collection.compact()
        layer["live.compaction_s"] = metric((clock() - start) / 1e9, "s")
        layer.update(self._memtable_and_segments())
        layer.update(self._codec_records(wal_records))
        return layer

    def _in_memory_write_rate(self) -> dict:
        """The same preload and mutations on a directory-less collection: no WAL, no spill."""
        phase = Phase()
        with Database() as database:
            database.create_live(
                COLLECTION,
                LiveCollection(
                    memtable_threshold=LIVE_OPTIONS["memtable_threshold"],
                    max_segments=LIVE_OPTIONS["max_segments"],
                ),
            )
            session = database.session()
            for row in self.base_rows:
                session.insert(row, collection=COLLECTION)
            for op, key, items in self.history:
                if op == "insert":
                    request = InsertRequest(collection=COLLECTION, items=items)
                elif op == "upsert":
                    request = UpsertRequest(collection=COLLECTION, key=key, items=items)
                else:
                    request = DeleteRequest(collection=COLLECTION, key=key)
                payload = request.to_dict()
                start = clock()
                response = session.execute(payload)
                phase.add(clock() - start)
                self.checks.op(response.ok and response.key == key, f"in-memory {op} {key}")
        return phase.overall_rate()

    def _memtable_and_segments(self) -> dict[str, dict]:
        size = LIVE_OPTIONS["memtable_threshold"]
        entries = [(key, Ranking(items)) for key, items in list(self.oracle.rows.items())[:size]]
        queries = [Ranking(items) for items in self.queries[:50]]
        probe = iter(queries * 4)
        layer = {
            "live.memtable.scan_us": median_time(
                lambda: scan_entries(entries, next(probe), RANGE_THETA), len(queries) * 4
            )
        }
        path = scratch_dir(f"{self.name}-segment") / "segment-0.rbf"
        seal, save, load = [], [], []
        for _ in range(10):
            start = clock()
            segment = Segment.seal(entries)
            seal.append(clock() - start)
            start = clock()
            segment.save(path)
            save.append(clock() - start)
            start = clock()
            Segment.load(path)
            load.append(clock() - start)
        for name, samples in (("seal", seal), ("save", save), ("load", load)):
            layer[f"live.segment.{name}_ms"] = metric(
                statistics.median(samples) / 1e6, "ms", samples=len(samples)
            )
        return layer

    def _codec_records(self, wal_records: list[WalRecord]) -> dict[str, dict]:
        sample = wal_records[:2000]
        payloads = [
            codec_records.encode_wal_payload(r.seq, r.op, r.key, r.items) for r in sample
        ]
        size = LIVE_OPTIONS["memtable_threshold"]
        rows = list(self.oracle.rows.items())[:size]
        keys, items = [key for key, _ in rows], [list(row) for _, row in rows]
        run = codec_records.encode_run_payload(keys, items)
        return {
            "codec.records.wal_encode_us": per_item_us(
                lambda r: codec_records.encode_wal_payload(r.seq, r.op, r.key, r.items),
                sample, repeat=5,
            ),
            "codec.records.wal_decode_us": per_item_us(
                codec_records.decode_wal_payload, payloads, repeat=5
            ),
            "codec.records.run_encode_ms": median_time(
                lambda: codec_records.encode_run_payload(keys, items), 20, "ms"
            ),
            "codec.records.run_decode_ms": median_time(
                lambda: codec_records.decode_run_payload(run), 20, "ms"
            ),
        }


class _ScratchWritePath:
    """A WAL in the workload's own mode and a memtable, to replay mutations into."""

    def __init__(self, label: str) -> None:
        path = scratch_dir(f"{label}-scratch-wal") / "wal.rbf"
        self.wal = WriteAheadLog(path, commit_batch=LIVE_OPTIONS["commit_batch"])
        self.memtable = MemTable()

    def replay(self, tracer: Tracer, request, key: int, seq: int, start: int, end: int) -> None:
        """parse -> WAL append (-> its record encode) -> memtable put, under the measured call."""
        parent = tracer.request(f"Session.execute({request.TYPE})", "api", start, end)
        parsed = tracer.stage("parse_request", "api", parent, parse_request, request.to_dict())
        items = getattr(parsed, "items", None)
        record = WalRecord(seq=seq, op=request.TYPE, key=key, items=items)
        tracer.stage("WriteAheadLog.append", "live", parent, self.wal.append, record)
        # append() encodes the record itself: replay that part as its child
        tracer.stage("WalRecord.to_record", "codec", tracer.last, record.to_record)
        if items is not None:
            tracer.stage("MemTable.put", "live", parent, self.memtable.put, key, Ranking(items))

    def close(self) -> None:
        self.wal.close()
