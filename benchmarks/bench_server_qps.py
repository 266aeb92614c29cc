"""Served QPS over the wire: serial, pipelined, and asyncio-server variants.

Boots servers over the shared NYT-like collection and measures
queries-per-second along three axes:

* **concurrency** — client counts {1, 2, 4, 8}, each over its own
  connection (the PR 4 sweep);
* **pipelining** — one protocol v2 connection with ``--pipeline N``
  requests in flight: the wire carries the same frames but the client
  stops paying one round trip per request;
* **transport** — the threaded server vs the asyncio server
  (:class:`repro.api.aserver.AsyncDatabaseServer`), same dispatch code;
* **wire format** — the pipelined workload over JSON vs RBF binary frame
  bodies on the same connection.

The in-process :class:`~repro.api.database.Session` serving the identical
workload is the baseline — the gap is pure transport (framing + JSON +
loopback TCP), since the dispatch behind every path is the same code.

Run under pytest-benchmark as part of the suite, or standalone::

    PYTHONPATH=src python benchmarks/bench_server_qps.py
    PYTHONPATH=src python benchmarks/bench_server_qps.py --pipeline 8 --check
    PYTHONPATH=src python benchmarks/bench_server_qps.py --obs

``--check`` exits non-zero unless pipelined QPS reaches at least
``--check-tolerance`` (default 0.9) of the serial single-client path —
the CI smoke guarding the protocol v2 win, with slack for noisy shared
runners (both numbers are always printed).  ``--obs`` instead measures
the metrics-instrumentation overhead: the identical in-process workload
against an enabled vs a disabled registry (engines are built fresh under
each, since metric handles bind at construction), exiting non-zero when
the overhead exceeds 5%.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

import pytest

from repro.api import AsyncDatabaseServer, Client, Database, DatabaseServer, RangeQueryRequest

from _utils import run_once

#: Concurrent client connections the sweep exercises.
CLIENT_COUNTS = (1, 2, 4, 8)

#: Passes each client makes over the query workload.
PASSES = 2

#: Requests in flight per connection in the pipelined benchmarks.
PIPELINE_DEPTH = 8

THETA = 0.2


def _serve_clients(address, queries, n_clients: int) -> int:
    """Run the workload from ``n_clients`` concurrent connections."""
    host, port = address
    served = [0] * n_clients
    errors: list[Exception] = []

    def worker(worker_id: int) -> None:
        try:
            with Client(host, port) as client:
                for _ in range(PASSES):
                    for query in queries:
                        response = client.range_query(query, THETA, collection="news")
                        assert response.ok, response.error
                        served[worker_id] += 1
        except Exception as error:  # noqa: BLE001 - reported by the caller
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sum(served)


def _serve_pipelined(address, queries, depth: int, wire_format: str = "json") -> int:
    """Run the workload through one connection, ``depth`` requests in flight."""
    host, port = address
    requests = [
        RangeQueryRequest(collection="news", items=query, theta=THETA) for query in queries
    ]
    served = 0
    with Client(host, port, wire_format=wire_format) as client:
        assert client.wire_format == wire_format
        for _ in range(PASSES):
            for start in range(0, len(requests), depth):
                for response in client.pipeline(requests[start:start + depth]):
                    assert response.ok, response.error
                    served += 1
    return served


def _serve_in_process(session, queries) -> int:
    served = 0
    for _ in range(PASSES):
        for query in queries:
            response = session.range_query(query, THETA, collection="news")
            assert response.ok
            served += 1
    return served


@pytest.fixture(scope="module")
def served_database(nyt_setup):
    database = Database()
    database.create_static("news", nyt_setup.rankings, num_shards=2)
    with DatabaseServer(database, port=0) as server:
        # warm-up: planner exploration + cache fill happen untimed
        session = database.session()
        _serve_in_process(session, nyt_setup.queries)
        yield server, database
    database.close()


@pytest.fixture(scope="module")
def served_async_database(nyt_setup):
    database = Database()
    database.create_static("news", nyt_setup.rankings, num_shards=2)
    session = database.session()
    _serve_in_process(session, nyt_setup.queries)  # warm-up
    with AsyncDatabaseServer(database, port=0) as server:
        yield server, database
    database.close()


@pytest.mark.benchmark(group="server-qps")
def test_in_process_baseline(benchmark, served_database, nyt_setup):
    """The same dispatch without the wire: the transport-free ceiling."""
    _, database = served_database
    session = database.session()
    start = time.perf_counter()
    served = run_once(benchmark, _serve_in_process, session, nyt_setup.queries)
    elapsed = time.perf_counter() - start
    benchmark.extra_info["clients"] = 0
    benchmark.extra_info["requests"] = served
    benchmark.extra_info["qps"] = round(served / elapsed, 1) if elapsed > 0 else 0.0


@pytest.mark.benchmark(group="server-qps")
@pytest.mark.parametrize("n_clients", CLIENT_COUNTS)
def test_server_qps(benchmark, served_database, nyt_setup, n_clients):
    """Wire-served QPS for one concurrent-client count."""
    server, _ = served_database
    start = time.perf_counter()
    served = run_once(benchmark, _serve_clients, server.address, nyt_setup.queries, n_clients)
    elapsed = time.perf_counter() - start
    benchmark.extra_info["clients"] = n_clients
    benchmark.extra_info["requests"] = served
    benchmark.extra_info["qps"] = round(served / elapsed, 1) if elapsed > 0 else 0.0


@pytest.mark.benchmark(group="server-qps-pipelined")
def test_server_qps_pipelined(benchmark, served_database, nyt_setup):
    """One connection, PIPELINE_DEPTH requests in flight (protocol v2)."""
    server, _ = served_database
    start = time.perf_counter()
    served = run_once(
        benchmark, _serve_pipelined, server.address, nyt_setup.queries, PIPELINE_DEPTH
    )
    elapsed = time.perf_counter() - start
    benchmark.extra_info["pipeline_depth"] = PIPELINE_DEPTH
    benchmark.extra_info["requests"] = served
    benchmark.extra_info["qps"] = round(served / elapsed, 1) if elapsed > 0 else 0.0


@pytest.mark.benchmark(group="server-qps-wire-format")
@pytest.mark.parametrize("wire_format", ("json", "binary"))
def test_server_qps_wire_format(benchmark, served_database, nyt_setup, wire_format):
    """Pipelined QPS per wire format: JSON vs RBF binary frame bodies."""
    server, _ = served_database
    start = time.perf_counter()
    served = run_once(
        benchmark,
        _serve_pipelined,
        server.address,
        nyt_setup.queries,
        PIPELINE_DEPTH,
        wire_format,
    )
    elapsed = time.perf_counter() - start
    benchmark.extra_info["wire_format"] = wire_format
    benchmark.extra_info["pipeline_depth"] = PIPELINE_DEPTH
    benchmark.extra_info["requests"] = served
    benchmark.extra_info["qps"] = round(served / elapsed, 1) if elapsed > 0 else 0.0


@pytest.mark.benchmark(group="server-qps-async")
@pytest.mark.parametrize("n_clients", (1, 4))
def test_async_server_qps(benchmark, served_async_database, nyt_setup, n_clients):
    """The asyncio transport under the serial-client workload."""
    server, _ = served_async_database
    start = time.perf_counter()
    served = run_once(benchmark, _serve_clients, server.address, nyt_setup.queries, n_clients)
    elapsed = time.perf_counter() - start
    benchmark.extra_info["clients"] = n_clients
    benchmark.extra_info["requests"] = served
    benchmark.extra_info["qps"] = round(served / elapsed, 1) if elapsed > 0 else 0.0


@pytest.mark.benchmark(group="server-qps-async")
def test_async_server_qps_pipelined(benchmark, served_async_database, nyt_setup):
    """Pipelining against the asyncio transport."""
    server, _ = served_async_database
    start = time.perf_counter()
    served = run_once(
        benchmark, _serve_pipelined, server.address, nyt_setup.queries, PIPELINE_DEPTH
    )
    elapsed = time.perf_counter() - start
    benchmark.extra_info["pipeline_depth"] = PIPELINE_DEPTH
    benchmark.extra_info["requests"] = served
    benchmark.extra_info["qps"] = round(served / elapsed, 1) if elapsed > 0 else 0.0


def _timed_qps(function, *args) -> float:
    start = time.perf_counter()
    served = function(*args)
    elapsed = time.perf_counter() - start
    return served / elapsed if elapsed > 0 else float("inf")


#: Maximum tolerated slowdown from metrics instrumentation, in-process.
OBS_OVERHEAD_LIMIT = 0.05

#: Timed repetitions per registry mode in ``--obs``; best-of damps noise.
OBS_TRIALS = 3


def _measure_obs_overhead(rankings, queries) -> dict[str, float]:
    """Best-of QPS for the in-process workload with metrics on vs off.

    Metric handles bind at engine construction, so each mode installs its
    registry first and builds a fresh :class:`Database` under it — the
    "off" engines hold :class:`NullMetric` handles, the "on" engines the
    real ones.  The process-default registry is restored afterwards.
    """
    from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

    results: dict[str, float] = {}
    original = get_registry()
    try:
        for label, enabled in (("off", False), ("on", True)):
            set_registry(MetricsRegistry(enabled=enabled))
            database = Database()
            database.create_static("news", rankings, num_shards=2)
            session = database.session()
            _serve_in_process(session, queries)  # warm-up
            results[label] = max(
                _timed_qps(_serve_in_process, session, queries) for _ in range(OBS_TRIALS)
            )
            database.close()
    finally:
        set_registry(original)
    return results


def _run_obs_mode(rankings, queries, check: bool) -> int:
    """Report instrumentation overhead; under ``check``, enforce the limit."""
    qps = _measure_obs_overhead(rankings, queries)
    overhead = 1.0 - qps["on"] / qps["off"] if qps["off"] else 0.0
    print("in-process instrumentation overhead "
          f"(best of {OBS_TRIALS} trials per mode):")
    print(f"{'registry':>9s}  {'QPS':>9s}")
    print(f"{'off':>9s}  {qps['off']:>9.1f}")
    print(f"{'on':>9s}  {qps['on']:>9.1f}")
    print(f"overhead: {overhead:.1%} (limit {OBS_OVERHEAD_LIMIT:.0%})")
    if check and overhead > OBS_OVERHEAD_LIMIT:
        print(
            f"CHECK FAILED: instrumentation overhead {overhead:.1%} exceeds "
            f"{OBS_OVERHEAD_LIMIT:.0%} (on {qps['on']:.1f} QPS vs off {qps['off']:.1f} QPS)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    """Standalone report: QPS per client count, pipeline depth, and transport."""
    from repro.datasets.nyt import nyt_like_dataset
    from repro.datasets.queries import sample_queries

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pipeline", type=int, default=PIPELINE_DEPTH, metavar="N",
        help="requests in flight per connection in the pipelined rows",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless pipelined QPS >= --check-tolerance x serial QPS "
             "(or, with --obs, unless instrumentation overhead stays under "
             f"{OBS_OVERHEAD_LIMIT:.0%})",
    )
    parser.add_argument(
        "--check-tolerance", type=float, default=0.9, metavar="FACTOR",
        help="fraction of serial QPS the pipelined run must reach under --check "
             "(default 0.9 — slack for noisy shared runners)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="measure metrics-instrumentation overhead (registry on vs off, "
             "in-process) instead of the transport sweep",
    )
    args = parser.parse_args(argv)
    if args.pipeline <= 0:
        parser.error("--pipeline must be positive")
    if args.check_tolerance <= 0:
        parser.error("--check-tolerance must be positive")

    rankings = nyt_like_dataset(n=800, k=10)
    queries = sample_queries(rankings, 30, seed=3)
    if args.obs:
        return _run_obs_mode(rankings, queries, args.check)
    database = Database()
    database.create_static("news", rankings, num_shards=2)
    session = database.session()
    _serve_in_process(session, queries)  # warm-up
    print(f"server QPS on NYT-like n={len(rankings)}, k={rankings.k}, "
          f"{len(queries)} queries x {PASSES} passes, theta={THETA}")
    print(f"{'clients':>8s}  {'QPS':>9s}  note")
    baseline = _timed_qps(_serve_in_process, session, queries)
    print(f"{'-':>8s}  {baseline:>9.1f}  in-process session (no wire)")
    serial_qps = pipelined_qps = 0.0
    with DatabaseServer(database, port=0) as server:
        for n_clients in CLIENT_COUNTS:
            qps = _timed_qps(_serve_clients, server.address, queries, n_clients)
            if n_clients == 1:
                serial_qps = qps
            print(f"{n_clients:>8d}  {qps:>9.1f}  {qps / baseline:.0%} of baseline, threaded")
        pipelined_qps = _timed_qps(_serve_pipelined, server.address, queries, args.pipeline)
        print(f"{1:>8d}  {pipelined_qps:>9.1f}  pipelined depth={args.pipeline}, threaded")
    with AsyncDatabaseServer(database, port=0) as server:
        async_qps = _timed_qps(_serve_clients, server.address, queries, 1)
        print(f"{1:>8d}  {async_qps:>9.1f}  serial, asyncio transport")
        async_pipelined = _timed_qps(_serve_pipelined, server.address, queries, args.pipeline)
        print(f"{1:>8d}  {async_pipelined:>9.1f}  pipelined depth={args.pipeline}, asyncio")
    database.close()
    gain = pipelined_qps / serial_qps if serial_qps else float("inf")
    print(f"\npipelining gain (threaded, depth={args.pipeline}): {gain:.2f}x serial "
          f"(pipelined {pipelined_qps:.1f} QPS vs serial {serial_qps:.1f} QPS)")
    if args.check and pipelined_qps < args.check_tolerance * serial_qps:
        print(
            f"CHECK FAILED: pipelined {pipelined_qps:.1f} QPS < "
            f"{args.check_tolerance:.2f} x serial {serial_qps:.1f} QPS",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
