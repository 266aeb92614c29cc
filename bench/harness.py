"""Measurement primitives shared by the four workloads.

Everything here measures the program *from outside*: phases time calls into
public functions, the tracer records spans around replayed calls, and the
server of the wire workloads is a child process this module starts and stops.
Nothing under ``src/repro`` is instrumented or patched.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Ranking length of every workload.
K = 10
#: Each measured phase is cut into this many equal consecutive slices.
SLICES = 5
#: The traced run replays every Nth request stage by stage.  A prime, so the
#: sample cannot lock onto a workload's own cycle (4 ranges + 1 k-NN would put
#: every 20th request on a k-NN).
TRACE_EVERY = 19
#: Every Nth query of every workload is checked against the oracle.
ORACLE_EVERY = 25
#: A tail percentile is reported only with this many samples beyond it.
TAIL_SUPPORT = 10
#: Set-up is repeated this often per run (a workload with a cheap set-up says
#: more); ``setup_s`` is the median.  A fixed count: peak RSS depends on it.
SETUP_REPEATS = 5

#: What a metric name may look like (BENCHMARK.json's own rule).
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- statistics -------------------------------------------------------------------------


def cut(samples: list, slices: int = SLICES) -> list[list]:
    """Cut ``samples`` into ``slices`` equal consecutive runs (empty ones dropped)."""
    n = len(samples)
    parts = [samples[i * n // slices:(i + 1) * n // slices] for i in range(slices)]
    return [part for part in parts if part]


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def supported_percentile(count: int, wanted: float = 99.0) -> float:
    """The highest percentile <= ``wanted`` with TAIL_SUPPORT samples beyond it."""
    if count <= TAIL_SUPPORT:
        return 50.0
    return max(50.0, min(wanted, 100.0 * (1.0 - TAIL_SUPPORT / count)))


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def metric(value: float, unit: str, **extra: Any) -> dict:
    """One reported number: its value, unit, and whatever explains its spread."""
    return {"value": value, "unit": unit, **extra}


def sliced_metric(per_slice: list[float], unit: str, samples: int) -> dict:
    """The median slice, with the slice values and their quartiles beside it."""
    q1, q3 = quartiles(per_slice)
    return metric(
        statistics.median(per_slice), unit, samples=samples, slices=per_slice, q1=q1, q3=q3
    )


#: Nanoseconds per reporting unit.
UNIT_NS = {"us": 1e3, "ms": 1e6, "s": 1e9}


class Phase:
    """Per-call wall times of one kind of operation inside one measured phase.

    ``cycle`` is the number of calls after which the workload repeats the
    same inputs.  Slices are then whole cycles, so every slice times exactly
    the same work and the slices differ only by what the machine did.
    ``striped`` is for a workload whose state grows under it: cycle ``i`` goes
    to slice ``i mod SLICES``, so every slice sees the same mix of states and
    the growth does not read as spread.
    """

    def __init__(self, cycle: int = 0, striped: bool = False) -> None:
        self.cycle = cycle
        self.striped = striped
        self.calls: list[tuple[int, int]] = []  # (nanoseconds, operations answered)

    def add(self, nanoseconds: int, operations: int = 1) -> None:
        self.calls.append((nanoseconds, operations))

    def __len__(self) -> int:
        return sum(operations for _, operations in self.calls)

    def slices(self) -> list[list[tuple[int, int]]]:
        """SLICES equal consecutive slices; of whole cycles when there is a cycle."""
        count = len(self.calls) // self.cycle if self.cycle else 0
        if count < 2:
            return cut(self.calls)
        cycles = [self.calls[i * self.cycle:(i + 1) * self.cycle] for i in range(count)]
        if count < SLICES:
            return cycles
        if self.striped:
            return [sum(cycles[stripe::SLICES], []) for stripe in range(SLICES)]
        size = count // SLICES  # the cycles left over at the end are not sliced
        return [sum(cycles[i * size:(i + 1) * size], []) for i in range(SLICES)]

    def rate(self) -> dict:
        """Operations per second of time spent *inside* the calls (median slice)."""
        per_slice = [
            sum(ops for _, ops in part) / (sum(ns for ns, _ in part) / 1e9)
            for part in self.slices()
        ]
        return sliced_metric(per_slice, "1/s", len(self))

    def overall_rate(self) -> dict:
        """Operations per second over the whole phase, unsliced.

        For a fixed schedule whose cost sits in a few stalls: any slice of it
        reads by how many of the stalls it happens to hold.
        """
        return metric(len(self) / (sum(ns for ns, _ in self.calls) / 1e9), "1/s", samples=len(self))

    def p50(self, unit: str = "ms") -> dict:
        """Median per-call latency (median slice of per-slice medians)."""
        per_slice = [
            statistics.median(ns for ns, _ in part) / UNIT_NS[unit] for part in self.slices()
        ]
        return sliced_metric(per_slice, unit, len(self.calls))

    def tail(self, wanted: float = 99.0, scale: float = 1e6, unit: str = "ms") -> dict:
        """The highest supported percentile <= ``wanted`` over the whole phase."""
        durations = [ns for ns, _ in self.calls]
        pct = supported_percentile(len(durations), wanted)
        return metric(
            percentile(durations, pct) / scale, unit, samples=len(durations), percentile=pct
        )


def timed_loop(seconds: float, body: Callable[[int], None]) -> int:
    """Closed loop: call ``body(i)`` back to back until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        body(index)
        index += 1
    return index


def median_time(function: Callable[[], Any], repeat: int, unit: str = "us") -> dict:
    """Median wall time of ``function()`` over ``repeat`` calls, in ``unit``."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(repeat):
        start = clock()
        function()
        samples.append(clock() - start)
    return metric(statistics.median(samples) / UNIT_NS[unit], unit, samples=repeat)


def per_item_us(function: Callable[[Any], Any], items: list, repeat: int = 30) -> dict:
    """Median over ``repeat`` sweeps of the mean microseconds ``function`` takes per item."""
    clock = time.perf_counter_ns
    sweeps = []
    for _ in range(repeat):
        start = clock()
        for item in items:
            function(item)
        sweeps.append((clock() - start) / 1e3 / len(items))
    return metric(statistics.median(sweeps), "us", samples=repeat * len(items))


# -- correctness accounting -----------------------------------------------------------


class Checks:
    """Attempted / failed operations and oracle comparisons of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.oracle_checks = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def oracle(self, same: bool, what: str) -> None:
        self.oracle_checks += 1
        if not same:
            self.fail(f"oracle mismatch: {what}")


# -- tracing ----------------------------------------------------------------------------


class Tracer:
    """Spans of replayed requests, kept in memory and written out at exit.

    A request's parent span is the request *as the workload measured it*;
    its children are the same request replayed stage by stage through the
    layers' public functions.  A span's self time is its duration minus its
    children's, so the parent's self time is what no replayed stage explains.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: list[dict] = []
        self.last = -1

    def request(self, name: str, layer: str, start_ns: int, end_ns: int) -> int:
        """Record the measured request; returns the id its stages hang off."""
        return self._add(name, layer, start_ns, end_ns, None, len(self.spans))

    def stage(self, name: str, layer: str, parent: int, function: Callable, *args, **kwargs):
        """Call ``function`` as one replayed stage under ``parent``; returns its result."""
        start = time.perf_counter_ns()
        result = function(*args, **kwargs)
        end = time.perf_counter_ns()
        self.last = self._add(name, layer, start, end, parent, self.spans[parent]["request_id"])
        return result

    def _add(self, name, layer, start_ns, end_ns, parent, request_id) -> int:
        self.spans.append(
            {
                "name": name,
                "layer": layer,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "parent": parent,
                "request_id": request_id,
            }
        )
        return len(self.spans) - 1

    def count(self, request_id: int, source: str, values: dict) -> None:
        """Sample the program's own counters at a span boundary."""
        self.counters.append({"request_id": request_id, "source": source, **values})

    def self_ns(self) -> dict[str, list[int]]:
        """Self time of every span, grouped by span name."""
        children = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end_ns"] - span["start_ns"]
        grouped: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            own = span["end_ns"] - span["start_ns"] - children[index]
            grouped.setdefault(span["name"], []).append(own)
        return grouped

    def stage_table(self) -> dict[str, dict]:
        """Median self time per span name, in microseconds, with sample counts."""
        return {
            name: metric(statistics.median(values) / 1e3, "us", samples=len(values))
            for name, values in self.self_ns().items()
        }

    def dump(self, path: Path, record: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"record": record, "spans": self.spans, "counters": self.counters})
        )


# -- run record and noise guard -------------------------------------------------------


def run_record(seed: int, seconds: float) -> dict:
    """Where and how this run was made; carried by every result file."""
    from repro.codec import using_numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "codec": "numpy" if using_numpy() else "pure",
        "seed": seed,
        "seconds": seconds,
        "loadavg_1m": load,
        # a busy box is said, not silently reported
        "noisy": load > nproc / 2,
    }


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB.

    ``VmHWM`` belongs to this address space; ``ru_maxrss`` survives ``exec``,
    so it starts at whatever the process that started this one weighed.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- scratch space and the server child ---------------------------------------------


def scratch_dir(label: str) -> Path:
    """A fresh directory under ``bench/out`` (the benchmark writes nowhere else)."""
    path = OUT_DIR / f"tmp-{os.getpid()}" / label
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_scratch() -> None:
    shutil.rmtree(OUT_DIR / f"tmp-{os.getpid()}", ignore_errors=True)


def split_cpus(share: bool) -> tuple[set[int], set[int]] | None:
    """The CPU of the load generator and the CPU of the server child, or ``None``.

    Unpinned, a request/reply ping-pong costs 0.27 ms when both ends stay put
    and 0.43 ms when the scheduler bounces them between the two cores, and
    which of the two a run gets is luck; each process is one GIL anyway, so
    one core each loses nothing.  ``share`` puts both on the *same* CPU, for
    ``wire_hot``: with requests of ~250 us, waking the other core is most of a
    round trip, and the host stretches that wake-up for minutes at a time
    (six alternating pairs of runs inside ten minutes: serial p50 0.31-0.44 ms
    on two cores, 0.23-0.25 ms on one).  On one core the round trip is the
    code of both ends and nothing else.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    return {allowed[0]}, {allowed[0] if share else allowed[-1]}


class ServerProcess:
    """The one child process of a wire workload: boot, address, stop, peak RSS.

    While a child runs, it and this process are each pinned to one CPU (see
    ``split_cpus``); ``stop`` gives this process its CPUs back.
    """

    #: Children not yet stopped, so a failed run can still stop and reap them.
    running: list["ServerProcess"] = []

    @classmethod
    def stop_all(cls) -> None:
        for server in list(cls.running):
            server.stop()

    def __init__(self, spec: dict, label: str, share_cpu: bool = False) -> None:
        self._affinity = None
        cpus = split_cpus(share_cpu)
        if cpus is not None:
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, cpus[0])
            spec = {**spec, "cpus": sorted(cpus[1])}
        spec_path = scratch_dir(label) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        self.rss_mb = 0.0
        self._process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "_server_main.py"), str(spec_path)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        ready = self._process.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            self._process.kill()
            self._process.wait()
            raise RuntimeError(f"server child did not come up: {ready!r}")
        self.address = ("127.0.0.1", int(ready[1]))
        ServerProcess.running.append(self)

    def stop(self) -> None:
        """Ask the child to shut down, wait for it, and read its peak RSS."""
        from repro.api import Client

        if self in ServerProcess.running:
            ServerProcess.running.remove(self)
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None
        if self._process.poll() is None:
            try:
                with Client(*self.address, timeout=10.0) as client:
                    client.shutdown_server()
            except (OSError, ConnectionError, TimeoutError):
                self._process.kill()
        try:
            output, _ = self._process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            output, _ = self._process.communicate()
        for line in output.splitlines():
            if line.startswith("RSS_KB "):
                self.rss_mb = int(line.split()[1]) / 1024.0
