"""Command-line interface: ``repro-topk``.

Subcommands
-----------
``generate``
    Generate a synthetic dataset preset (NYT-like or Yago-like) and write it
    to a TSV/JSON file.
``query``
    Load a ranking file, build one of the registered algorithms, and answer a
    query supplied on the command line.
``compare``
    Run the full algorithm comparison on a dataset preset and print the
    resulting table (a small-scale Figure 8/9).
``batch-query``
    Serve a query workload through the sharded query engine (planner +
    result cache) and print per-request decisions plus throughput totals.
``ingest``
    Apply a JSONL mutation stream (insert/delete/upsert) to a live-update
    collection, optionally answering query probes mid-stream, and print
    mutation/flush/compaction statistics.  ``--fsync`` / ``--commit-batch``
    / ``--commit-interval`` pick the WAL durability mode and
    ``--snapshot-every`` tunes the automatic snapshot policy; the summary
    names the guarantee the run executed under.
``serve``
    Load a ranking file into a named collection (static, or live with
    ``--live``) and serve it over TCP until a client sends ``--admin
    shutdown`` (or Ctrl-C).  ``--async`` picks the asyncio transport;
    ``--shard I/N`` serves one round-robin shard of the file — boot N of
    these and point ``batch-query --remote-shards`` (or a
    ``RemoteShardExecutor``) at them for a scale-out topology.  ``--empty``
    serves a bare database with no collection — the blank node a cluster
    coordinator provisions over wire DDL.
``cluster``
    ``cluster up --shards N --replicas R`` spawns ``N*(1+R)`` empty shard
    servers, assembles them into a hash-routed, WAL-replicated cluster, and
    serves the coordinator (same wire protocol as ``serve``);
    ``cluster status`` prints membership, routing version, and replication
    lag; ``cluster reshard --moves 3:1,7:0`` migrates hash slots online.
``client``
    Connect to a running server and issue one request: a range query (``--query``), a
    k-NN query (``--query`` + ``--knn``), a mutation (``--insert`` /
    ``--delete`` / ``--upsert``), or an admin action (``--admin
    ping|collections|stats|metrics|slow_queries|create|drop|flush|compact|
    snapshot|shutdown`` — ``create`` takes ``--engine static|live`` plus
    optionally ``--rankings``, ``--shards``, ``--algorithm``).  ``--trace``
    asks the server to trace a query and prints the span tree it returns;
    ``--admin metrics --format prometheus`` prints scrape-ready text
    exposition; ``--admin slow_queries`` prints the N slowest requests
    with their span trees.  ``--query`` + ``--subscribe`` registers a
    standing query instead: the snapshot prints immediately, result deltas
    stream as the collection changes, and the client unsubscribes cleanly
    after ``--deltas N`` of them.
``figure`` / ``table``
    Regenerate one of the paper's figures or tables and print the report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections.abc import Sequence

from repro.analysis.report import format_table
from repro.api import (
    ADMIN_ACTIONS,
    AdminRequest,
    AsyncDatabaseServer,
    Client,
    COLLECTION_ENGINES,
    Database,
    DatabaseServer,
    PROTOCOL_VERSION,
    RemoteShardExecutor,
)
from repro.api.requests import KnnRequest, RangeQueryRequest
from repro.api.server import DEFAULT_HOST, DEFAULT_PORT
from repro.cluster import DEFAULT_NUM_SLOTS, Coordinator
from repro.core.errors import ReproError
from repro.obs.tracing import span_tree_lines
from repro.core.ranking import Ranking
from repro.algorithms.registry import (
    COMPARISON_ALGORITHMS,
    LIVE_ALGORITHMS,
    available_algorithms,
    make_algorithm,
)
from repro.datasets.loader import load_rankings, save_rankings
from repro.datasets.queries import sample_queries
from repro.live import DEFAULT_LIVE_ALGORITHM, LiveCollection, directory_has_state
from repro.service import QueryEngine, partition_rankings
from repro.datasets.nyt import nyt_like_dataset
from repro.datasets.yago import yago_like_dataset
from repro.experiments import figures as figure_module
from repro.experiments import tables as table_module
from repro.experiments.harness import ExperimentSetup, compare_algorithms

_FIGURES = {
    "3": lambda args: figure_module.figure3_cost_model(n=args.n, k=args.k, print_report=True),
    "5": lambda args: figure_module.figure5_metric_trees(n=args.n, print_report=True),
    "6": lambda args: figure_module.figure6_bktree_vs_invindex(n=args.n, print_report=True),
    "7": lambda args: figure_module.figure7_coarse_tradeoff(n=args.n, k=args.k, print_report=True),
    "8": lambda args: figure_module.figure8_nyt_comparison(n=args.n, print_report=True),
    "9": lambda args: figure_module.figure9_yago_comparison(n=args.n, print_report=True),
    "10": lambda args: figure_module.figure10_distance_calls(n=args.n, print_report=True),
}

_TABLES = {
    "5": lambda args: table_module.table5_model_accuracy(n=args.n, k=args.k, print_report=True),
    "6": lambda args: table_module.table6_index_build(n=args.n, k=args.k, print_report=True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-topk",
        description="Top-k-list similarity search (EDBT 2015 coarse-index reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset preset")
    generate.add_argument("output", help="output file (.tsv or .json)")
    generate.add_argument("--dataset", choices=("nyt", "yago"), default="nyt")
    generate.add_argument("--n", type=int, default=5000, help="number of rankings")
    generate.add_argument("--k", type=int, default=10, help="ranking size")

    query = subparsers.add_parser("query", help="answer one similarity query over a ranking file")
    query.add_argument("rankings", help="ranking file produced by 'generate' (or your own TSV)")
    query.add_argument("--algorithm", default="Coarse+Drop", choices=available_algorithms())
    query.add_argument("--query", required=True, help="comma-separated item ids, best first")
    query.add_argument("--theta", type=float, default=0.2, help="normalised distance threshold")
    query.add_argument("--theta-c", type=float, default=None, help="coarse partitioning threshold")
    query.add_argument("--limit", type=int, default=20, help="print at most this many matches")

    compare = subparsers.add_parser("compare", help="run the algorithm comparison on a preset")
    compare.add_argument("--dataset", choices=("nyt", "yago"), default="nyt")
    compare.add_argument("--n", type=int, default=1500)
    compare.add_argument("--k", type=int, default=10)
    compare.add_argument("--queries", type=int, default=30)
    compare.add_argument("--thetas", default="0.1,0.2,0.3", help="comma-separated thresholds")

    batch = subparsers.add_parser(
        "batch-query", help="serve a query workload through the sharded engine"
    )
    batch.add_argument("rankings", help="ranking file produced by 'generate' (or your own TSV)")
    batch.add_argument("--queries", type=int, default=50, help="queries sampled from the collection")
    batch.add_argument("--seed", type=int, default=3, help="query sampling seed")
    batch.add_argument("--theta", type=float, default=0.2, help="normalised distance threshold")
    batch.add_argument("--shards", type=int, default=2, help="number of index shards")
    batch.add_argument(
        "--algorithm",
        default=None,
        # Minimal F&V needs its oracle lists materialised per query and
        # cannot serve ad-hoc traffic, so it is not offered here.
        choices=[name for name in available_algorithms() if name != "MinimalF&V"],
        help="pin one algorithm instead of letting the planner choose",
    )
    batch.add_argument("--cache-capacity", type=int, default=1024, help="result-cache entries")
    batch.add_argument("--no-cache", action="store_true", help="disable the result cache")
    batch.add_argument(
        "--remote-shards", default=None,
        help="comma-separated host:port shard servers (protocol v2); overrides"
        " --shards and fans sub-queries out over the network",
    )
    batch.add_argument(
        "--remote-collection", default="default",
        help="collection name each shard server serves its shard under",
    )
    batch.add_argument(
        "--wire-format", choices=("json", "binary"), default="json",
        help="frame-body format for --remote-shards fan-out (negotiated at"
        " hello; binary moves sub-query replies as RBF columnar buffers)",
    )
    batch.add_argument(
        "--repeat", type=int, default=1, help="passes over the batch (later passes hit the cache)"
    )
    batch.add_argument(
        "--show", type=int, default=10, help="print the first N per-request planner decisions"
    )

    ingest = subparsers.add_parser(
        "ingest", help="apply a JSONL mutation stream to a live-update collection"
    )
    ingest.add_argument(
        "mutations",
        help='JSONL stream: {"op": "insert"|"delete"|"upsert", "items": [...], "key": ...}'
        " (one mutation per line; '-' reads stdin)",
    )
    ingest.add_argument(
        "--dir", default=None, help="persistence directory (WAL + snapshots); in-memory if omitted"
    )
    ingest.add_argument(
        "--memtable-threshold", type=int, default=256, help="memtable size sealed into a segment"
    )
    ingest.add_argument(
        "--max-segments", type=int, default=4, help="segment count that triggers compaction"
    )
    ingest.add_argument("--shards", type=int, default=1, help="shard count of the compacted base")
    ingest.add_argument(
        "--algorithm", default="F&V", choices=list(LIVE_ALGORITHMS),
        help="index algorithm for base and segment queries",
    )
    ingest.add_argument(
        "--query", default=None, help="comma-separated item ids probed during ingestion"
    )
    ingest.add_argument("--theta", type=float, default=0.2, help="probe threshold")
    ingest.add_argument("--knn", type=int, default=0, help="also probe k nearest neighbours")
    ingest.add_argument(
        "--probe-every", type=int, default=100, help="mutations between --query probes"
    )
    ingest.add_argument(
        "--snapshot", action="store_true", help="write a snapshot when the stream ends"
    )
    ingest.add_argument(
        "--fsync", action="store_true",
        help="fsync the WAL after every mutation (per-record durability; requires --dir)",
    )
    ingest.add_argument(
        "--commit-batch", type=int, default=None,
        help="group-commit: fsync the WAL once per this many mutations (requires --dir)",
    )
    ingest.add_argument(
        "--commit-interval", type=float, default=None,
        help="group-commit: fsync the WAL once a batch is this many seconds old (requires --dir)",
    )
    ingest.add_argument(
        "--snapshot-every", type=int, default=1024,
        help="auto-snapshot once this many WAL records accumulate (0 disables the policy)",
    )

    serve = subparsers.add_parser(
        "serve", help="serve a ranking file over TCP (length-prefixed JSON frames)"
    )
    serve.add_argument(
        "rankings", nargs="?", default=None,
        help="ranking file produced by 'generate' (or your own TSV); optional when"
        " '--live --dir' reopens existing durable state",
    )
    serve.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--name", default="default", help="collection name clients address requests to"
    )
    serve.add_argument(
        "--live", action="store_true",
        help="serve as a mutable live collection (accepts insert/delete/upsert)",
    )
    serve.add_argument(
        "--dir", default=None,
        help="persistence directory for --live (WAL + snapshots; enables"
        " '--admin snapshot'); in-memory if omitted",
    )
    serve.add_argument("--shards", type=int, default=1, help="number of index shards")
    serve.add_argument(
        "--shard", default=None, metavar="I/N",
        help="serve only shard I of an N-way round-robin partitioning (static"
        " only) — the building block of a remote shard topology",
    )
    serve.add_argument(
        "--async", dest="use_async", action="store_true",
        help="serve on the asyncio transport (one event loop, no thread per"
        " connection) instead of the threaded server",
    )
    serve.add_argument(
        "--algorithm", default=None, choices=list(LIVE_ALGORITHMS),
        help="pin one algorithm (static: pins the planner; live: index algorithm)",
    )
    serve.add_argument("--cache-capacity", type=int, default=1024, help="result-cache entries")
    serve.add_argument(
        "--fsync", action="store_true",
        help="fsync the WAL after every mutation (per-record durability; needs --live --dir)",
    )
    serve.add_argument(
        "--commit-batch", type=int, default=None,
        help="group-commit: fsync the WAL once per this many mutations (needs --live --dir)",
    )
    serve.add_argument(
        "--commit-interval", type=float, default=None,
        help="group-commit: fsync the WAL once a batch is this many seconds old"
        " (needs --live --dir)",
    )
    serve.add_argument(
        "--ready-file", default=None,
        help="write 'host port' here once listening (for scripts and CI)",
    )
    serve.add_argument(
        "--empty", action="store_true",
        help="serve an empty database with no collection; a cluster coordinator"
        " provisions it over wire DDL ('cluster up' spawns these)",
    )

    cluster = subparsers.add_parser(
        "cluster", help="assemble and operate a replicated, hash-routed cluster"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    up = cluster_sub.add_parser(
        "up",
        help="spawn empty shard servers, assemble them, and serve the coordinator",
    )
    up.add_argument("--shards", type=int, default=2, help="number of shards")
    up.add_argument("--replicas", type=int, default=1, help="replicas per shard")
    up.add_argument("--spares", type=int, default=0, help="extra unassigned nodes")
    up.add_argument("--collection", default="default", help="the clustered collection's name")
    up.add_argument(
        "--algorithm", default=None, choices=list(LIVE_ALGORITHMS),
        help="index algorithm for every shard's live collection",
    )
    up.add_argument(
        "--format", choices=("json", "binary"), default="json",
        help="wire format for coordinator-to-shard fan-out and replication"
        " shipping (negotiated at hello; binary moves sub-query replies as"
        " RBF frame bodies)",
    )
    up.add_argument("--host", default=DEFAULT_HOST, help="coordinator bind address")
    up.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="coordinator bind port (0 picks a free port)",
    )
    up.add_argument(
        "--slots", type=int, default=DEFAULT_NUM_SLOTS,
        help="hash slots in the routing table (resharding moves these)",
    )
    up.add_argument(
        "--heartbeat-interval", type=float, default=0.5,
        help="seconds between node health probes",
    )
    up.add_argument(
        "--node-timeout", type=float, default=10.0, help="per-node socket timeout (seconds)"
    )
    up.add_argument(
        "--state-file", default=None,
        help="write the topology here as JSON (addresses + node pids — lets"
        " scripts and chaos tests kill a specific node)",
    )
    up.add_argument(
        "--ready-file", default=None,
        help="write 'host port' of the coordinator here once serving",
    )
    for sub in ("status", "reshard"):
        sub_parser = cluster_sub.add_parser(
            sub,
            help="print membership, routing version, and replication lag"
            if sub == "status"
            else "move hash slots between shards online",
        )
        sub_parser.add_argument("--host", default=DEFAULT_HOST, help="coordinator address")
        sub_parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="coordinator port")
        sub_parser.add_argument("--collection", default="default", help="clustered collection")
        sub_parser.add_argument(
            "--timeout", type=float, default=10.0, help="socket timeout (seconds)"
        )
        if sub == "reshard":
            sub_parser.add_argument(
                "--moves", required=True,
                help="comma-separated slot:shard pairs, e.g. '3:1,7:0'",
            )

    client = subparsers.add_parser("client", help="issue one request to a running server")
    client.add_argument("--host", default=DEFAULT_HOST, help="server address")
    client.add_argument("--port", type=int, default=DEFAULT_PORT, help="server port")
    client.add_argument("--collection", default="default", help="collection to address")
    operation = client.add_mutually_exclusive_group(required=True)
    operation.add_argument("--query", help="comma-separated item ids, best first")
    operation.add_argument("--insert", help="comma-separated item ids to insert")
    operation.add_argument("--delete", type=int, default=None, help="logical key to delete")
    operation.add_argument("--upsert", type=int, default=None, help="logical key to upsert")
    operation.add_argument("--admin", choices=list(ADMIN_ACTIONS), help="admin action")
    client.add_argument("--items", default=None, help="item ids for --upsert")
    client.add_argument(
        "--engine", choices=list(COLLECTION_ENGINES), default=None,
        help="for '--admin create': the collection engine (static or live)",
    )
    client.add_argument(
        "--rankings", default=None,
        help="for '--admin create': ranking file whose rows become the"
        " collection's data (static) or seed (live)",
    )
    client.add_argument(
        "--shards", type=int, default=None,
        help="for '--admin create': shard count of the new collection",
    )
    client.add_argument(
        "--wire-format", choices=("json", "binary"), default=None,
        help="ask for RBF binary frame bodies on hot request shapes"
        " (negotiated at hello; falls back to json when the server lacks it)",
    )
    client.add_argument(
        "--subscribe", action="store_true",
        help="register --query as a standing query: print the snapshot, then"
        " stream result deltas as the collection changes",
    )
    client.add_argument(
        "--deltas", type=int, default=1,
        help="with --subscribe: unsubscribe after this many deltas (0 streams"
        " until the server ends the subscription)",
    )
    client.add_argument("--theta", type=float, default=0.2, help="range-query threshold")
    client.add_argument(
        "--knn", type=int, default=0, help="answer --query as a k-NN query for this k"
    )
    client.add_argument(
        "--algorithm", default=None, help="pin the serving algorithm for this request"
    )
    client.add_argument("--limit", type=int, default=20, help="print at most this many matches")
    client.add_argument("--timeout", type=float, default=10.0, help="socket timeout (seconds)")
    client.add_argument(
        "--trace", action="store_true",
        help="ask the server to trace the request and print its span tree",
    )
    client.add_argument(
        "--format", choices=("json", "prometheus"), default=None,
        help="for '--admin metrics': structured JSON (default) or Prometheus"
        " text exposition",
    )
    client.add_argument(
        "--cluster", action="store_true",
        help="for '--admin metrics' against a coordinator: merge every cluster"
        " node's metrics into one node-labelled exposition",
    )

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("number", choices=sorted(_FIGURES))
    figure.add_argument("--n", type=int, default=1000)
    figure.add_argument("--k", type=int, default=10)

    table = subparsers.add_parser("table", help="regenerate one of the paper's tables")
    table.add_argument("number", choices=sorted(_TABLES))
    table.add_argument("--n", type=int, default=1000)
    table.add_argument("--k", type=int, default=10)

    lint = subparsers.add_parser(
        "lint", help="run the project's static-analysis rules over a source tree"
    )
    lint.add_argument(
        "paths", nargs="*", help="files or directories to lint (default: <root>/src)"
    )
    lint.add_argument(
        "--root", default=".", help="repository root (default: cwd)"
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="lint_format",
        help="report format (default: text)",
    )
    lint.add_argument("--rules", default=None, help="comma-separated rule ids to run")
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    if args.dataset == "nyt":
        rankings = nyt_like_dataset(n=args.n, k=args.k)
    else:
        rankings = yago_like_dataset(n=args.n, k=args.k)
    fmt = "json" if args.output.endswith(".json") else "tsv"
    path = save_rankings(rankings, args.output, fmt=fmt)
    print(f"wrote {len(rankings)} rankings (k={rankings.k}) to {path}")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    rankings = load_rankings(args.rankings)
    try:
        items = [int(token) for token in args.query.split(",") if token.strip()]
    except ValueError:
        print("error: --query must be a comma-separated list of integer item ids", file=sys.stderr)
        return 2
    query = Ranking(items)
    kwargs = {}
    if args.theta_c is not None and args.algorithm in ("Coarse", "Coarse+Drop"):
        kwargs["theta_c"] = args.theta_c
    algorithm = make_algorithm(args.algorithm, rankings, **kwargs)
    if args.algorithm == "MinimalF&V":
        algorithm.prepare(query, args.theta)
    result = algorithm.search(query, args.theta)
    print(f"{len(result)} rankings within theta={args.theta} ({args.algorithm})")
    for match in list(result)[: args.limit]:
        print(f"  rid={match.rid}  distance={match.distance:.4f}  items={list(match.ranking.items)}")
    stats = result.stats.as_dict()
    print(
        f"distance calls: {stats['distance_calls']:.0f}  "
        f"postings scanned: {stats['postings_scanned']:.0f}  "
        f"candidates: {stats['candidates']:.0f}"
    )
    return 0


def _command_batch_query(args: argparse.Namespace) -> int:
    if args.queries <= 0 or args.repeat <= 0:
        print("error: --queries and --repeat must be positive", file=sys.stderr)
        return 2
    if args.shards <= 0:
        print("error: --shards must be positive", file=sys.stderr)
        return 2
    if args.cache_capacity < 0:
        print("error: --cache-capacity must be non-negative", file=sys.stderr)
        return 2
    if not 0.0 <= args.theta < 1.0:
        print("error: --theta must lie in [0, 1)", file=sys.stderr)
        return 2
    rankings = load_rankings(args.rankings)
    queries = sample_queries(rankings, args.queries, seed=args.seed)
    algorithms = None if args.algorithm is None else [args.algorithm]
    capacity = 0 if args.no_cache else args.cache_capacity
    remote = None
    num_shards = args.shards
    if args.remote_shards is not None:
        addresses = [token.strip() for token in args.remote_shards.split(",") if token.strip()]
        if not addresses:
            print("error: --remote-shards must list host:port addresses", file=sys.stderr)
            return 2
        try:
            remote = RemoteShardExecutor(
                addresses,
                collection=args.remote_collection,
                wire_format=args.wire_format,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        num_shards = len(addresses)
        print(
            f"fanning out to {num_shards} remote shard server(s)"
            f" ({args.wire_format} wire format): "
            + ", ".join(f"{host}:{port}" for host, port in remote.addresses)
        )
    try:
        return _serve_batch_workload(args, rankings, queries, algorithms, capacity,
                                     num_shards, remote)
    except (ConnectionError, TimeoutError) as error:
        print(f"error: remote shard fan-out failed: {error}", file=sys.stderr)
        return 1
    except (ReproError, ValueError, KeyError) as error:
        # typed shard-server failures (unknown collection, ...) and topology
        # mismatches must exit like every other CLI error, not traceback
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if remote is not None:
            remote.close()


def _serve_batch_workload(
    args: argparse.Namespace, rankings, queries, algorithms, capacity, num_shards, executor
) -> int:
    with QueryEngine(
        rankings,
        num_shards=num_shards,
        algorithms=algorithms,
        cache_capacity=capacity,
        executor=executor,
    ) as engine:
        shown = 0
        start = time.perf_counter()
        for round_number in range(args.repeat):
            for response in engine.batch_query(queries, args.theta):
                stats = response.stats
                if shown < args.show:
                    shown += 1
                    origin = "cache" if stats.cache_hit else stats.planner_source
                    print(
                        f"  [{shown:3d}] {stats.algorithm:12s} via {origin:8s} "
                        f"results={stats.results:<4d} "
                        f"latency={stats.latency_seconds * 1000.0:7.2f}ms"
                    )
        elapsed = time.perf_counter() - start
        totals = engine.stats()
        requests = totals.requests
        qps = requests / elapsed if elapsed > 0 else float("inf")
        planner_names = ", ".join(engine.planner.candidates)
        print(
            f"\nserved {requests} requests in {elapsed:.3f}s over "
            f"{engine.num_shards} shard(s): {qps:.1f} QPS"
        )
        print(f"planner candidates: {planner_names}")
        picks = ", ".join(
            f"{name} x{count}" for name, count in sorted(totals.algorithm_counts.items())
        )
        print(f"algorithm picks: {picks or 'none (all cache hits)'}")
        cache_stats = totals.cache
        cache_state = "off" if capacity == 0 else f"capacity {capacity}"
        print(
            f"cache ({cache_state}): {cache_stats.hits} hits / {cache_stats.lookups} lookups "
            f"(hit rate {cache_stats.hit_rate:.1%})"
        )
        print(f"mean latency: {totals.mean_latency_seconds * 1000.0:.2f}ms")
    return 0


def _parse_query_items(text: str) -> list[int]:
    return [int(token) for token in text.split(",") if token.strip()]


def _run_ingest_probe(live: LiveCollection, args: argparse.Namespace, applied: int) -> None:
    query = Ranking(_parse_query_items(args.query))
    start = time.perf_counter()
    result = live.range_query(query, args.theta, algorithm=args.algorithm)
    elapsed = time.perf_counter() - start
    line = (
        f"  probe @{applied:>6d} mutations: {len(result):4d} results "
        f"in {elapsed * 1000.0:7.2f}ms"
    )
    if args.knn > 0:
        start = time.perf_counter()
        knn = live.knn(query, args.knn, algorithm=args.algorithm)
        knn_elapsed = time.perf_counter() - start
        line += f"  |  {args.knn}-NN in {knn_elapsed * 1000.0:7.2f}ms (best rid={knn.rids[0] if knn.rids else '-'})"
    print(line)


def _command_ingest(args: argparse.Namespace) -> int:
    if args.memtable_threshold <= 0 or args.max_segments <= 0 or args.shards <= 0:
        print(
            "error: --memtable-threshold, --max-segments and --shards must be positive",
            file=sys.stderr,
        )
        return 2
    if args.probe_every <= 0:
        print("error: --probe-every must be positive", file=sys.stderr)
        return 2
    if args.query is not None:
        try:
            _parse_query_items(args.query)
        except ValueError:
            print("error: --query must be a comma-separated list of integer item ids", file=sys.stderr)
            return 2
    if args.snapshot and args.dir is None:
        print("error: --snapshot requires --dir", file=sys.stderr)
        return 2
    durability_flags = args.fsync or args.commit_batch is not None or args.commit_interval is not None
    if durability_flags and args.dir is None:
        print("error: --fsync/--commit-batch/--commit-interval require --dir", file=sys.stderr)
        return 2
    if args.fsync and (args.commit_batch is not None or args.commit_interval is not None):
        print("error: --fsync conflicts with --commit-batch/--commit-interval", file=sys.stderr)
        return 2
    if args.commit_batch is not None and args.commit_batch <= 0:
        print("error: --commit-batch must be positive", file=sys.stderr)
        return 2
    if args.commit_interval is not None and args.commit_interval <= 0:
        print("error: --commit-interval must be positive", file=sys.stderr)
        return 2
    if args.snapshot_every < 0:
        print("error: --snapshot-every must be non-negative", file=sys.stderr)
        return 2
    if args.dir is not None:
        live = LiveCollection.open(
            args.dir,
            memtable_threshold=args.memtable_threshold,
            max_segments=args.max_segments,
            num_shards=args.shards,
            sync=args.fsync,
            commit_batch=args.commit_batch,
            commit_interval=args.commit_interval,
            snapshot_every=args.snapshot_every or None,
        )
        if live.stats().replayed:
            print(f"replayed {live.stats().replayed} WAL record(s) from {args.dir}")
    else:
        live = LiveCollection(
            memtable_threshold=args.memtable_threshold,
            max_segments=args.max_segments,
            num_shards=args.shards,
        )
    try:
        if args.mutations == "-":
            stream = sys.stdin
        else:
            stream = open(args.mutations, encoding="utf-8")
    except OSError as error:
        live.close()
        print(f"error: cannot read mutation stream: {error}", file=sys.stderr)
        return 2
    applied = 0
    errors = 0
    try:  # from here on the collection is always closed, even on a probe failure
        start = time.perf_counter()
        try:
            for line_number, line in enumerate(stream, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    payload = json.loads(line)
                    op = payload["op"]
                    if op == "insert":
                        live.insert(payload["items"])
                    elif op == "delete":
                        live.delete(int(payload["key"]))
                    elif op == "upsert":
                        live.upsert(int(payload["key"]), payload["items"])
                    else:
                        raise ValueError(f"unknown op {op!r}")
                except Exception as error:  # repro: noqa[no-bare-except] reported to stderr, counted, dirty streams continue
                    errors += 1
                    print(f"  line {line_number}: skipped ({error})", file=sys.stderr)
                    continue
                applied += 1
                if args.query is not None and applied % args.probe_every == 0:
                    _run_ingest_probe(live, args, applied)
        finally:
            if stream is not sys.stdin:
                stream.close()
        elapsed = time.perf_counter() - start
        if args.query is not None and applied % args.probe_every != 0:
            _run_ingest_probe(live, args, applied)
        stats = live.stats()
        rate = applied / elapsed if elapsed > 0 else float("inf")
        print(f"\napplied {applied} mutation(s) in {elapsed:.3f}s ({rate:.0f} mutations/s)"
              + (f", skipped {errors}" if errors else ""))
        print(
            f"  inserts={stats.inserts} deletes={stats.deletes} upserts={stats.upserts} "
            f"flushes={stats.flushes} compactions={stats.compactions} "
            f"snapshots={stats.snapshots}"
        )
        print(
            f"  live rankings: {len(live)}  memtable: {live.memtable_size}  "
            f"segments: {live.segment_count}  base: {live.base_size}  "
            f"tombstones: {live.tombstone_count}"
        )
        durability = stats.durability
        if durability == "group-commit":
            bounds = []
            if args.commit_batch is not None:
                bounds.append(f"batch={args.commit_batch}")
            if args.commit_interval is not None:
                bounds.append(f"interval={args.commit_interval}s")
            durability += f" ({', '.join(bounds)})"
        print(f"  durability: {durability}"
              + ("  (acknowledged writes may be lost on power loss)"
                 if stats.durability in ("in-memory", "no-sync") else ""))
        if args.snapshot:
            path = live.snapshot()
            print(f"snapshot written to {path}")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        live.close()
    return 0


def _parse_shard_spec(text: str) -> tuple[int, int]:
    index_text, separator, count_text = text.partition("/")
    try:
        if not separator:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"--shard must look like I/N (e.g. 0/2), got {text!r}") from None
    if count <= 0 or not 0 <= index < count:
        raise ValueError(f"--shard needs 0 <= I < N, got {text!r}")
    return index, count


def _command_serve(args: argparse.Namespace) -> int:
    if args.empty:
        if args.rankings is not None or args.live or args.shard is not None or args.dir:
            print(
                "error: --empty serves a bare database; drop rankings/--live/--shard/--dir",
                file=sys.stderr,
            )
            return 2
        return _serve_empty(args)
    if args.shards <= 0:
        print("error: --shards must be positive", file=sys.stderr)
        return 2
    shard_spec = None
    if args.shard is not None:
        if args.live:
            print("error: --shard partitions a static collection; drop --live", file=sys.stderr)
            return 2
        if args.rankings is None:
            print("error: --shard needs a rankings file to partition", file=sys.stderr)
            return 2
        try:
            shard_spec = _parse_shard_spec(args.shard)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.cache_capacity < 0:
        print("error: --cache-capacity must be non-negative", file=sys.stderr)
        return 2
    if args.dir is not None and not args.live:
        print("error: --dir requires --live", file=sys.stderr)
        return 2
    durability_flags = (
        args.fsync or args.commit_batch is not None or args.commit_interval is not None
    )
    if durability_flags and args.dir is None:
        print("error: --fsync/--commit-batch/--commit-interval require --dir", file=sys.stderr)
        return 2
    if args.fsync and (args.commit_batch is not None or args.commit_interval is not None):
        print("error: --fsync conflicts with --commit-batch/--commit-interval", file=sys.stderr)
        return 2
    if args.commit_batch is not None and args.commit_batch <= 0:
        print("error: --commit-batch must be positive", file=sys.stderr)
        return 2
    if args.commit_interval is not None and args.commit_interval <= 0:
        print("error: --commit-interval must be positive", file=sys.stderr)
        return 2
    if args.rankings is None and (not args.live or args.dir is None):
        print(
            "error: a rankings file is required unless '--live --dir' reopens existing state",
            file=sys.stderr,
        )
        return 2
    database = Database()
    try:
        if args.live:
            if args.dir is not None:
                # the state directory is self-contained: the TSV only seeds a
                # brand-new directory and is never re-read on restarts — an
                # existing (even emptied-out) state must not be re-seeded
                fresh = not directory_has_state(args.dir)
                collection = LiveCollection.open(
                    args.dir,
                    num_shards=args.shards,
                    sync=args.fsync,
                    commit_batch=args.commit_batch,
                    commit_interval=args.commit_interval,
                )
                if not fresh:
                    print(
                        f"opened existing live state ({len(collection)} rankings, "
                        f"{collection.stats().replayed} WAL record(s) replayed) from {args.dir}"
                    )
                elif args.rankings is not None:
                    for ranking in load_rankings(args.rankings):
                        collection.insert(ranking.items)
            else:
                collection = LiveCollection(
                    initial=load_rankings(args.rankings), num_shards=args.shards
                )
            database.create_live(
                args.name,
                collection,
                algorithm=args.algorithm or DEFAULT_LIVE_ALGORITHM,
                cache_capacity=args.cache_capacity,
            )
            size, k = len(collection), collection.k
        else:
            rankings = load_rankings(args.rankings)
            if shard_spec is not None:
                index, count = shard_spec
                shards = partition_rankings(rankings, count)
                if index >= len(shards):
                    raise ReproError(
                        f"shard {index}/{count} is empty: the collection has only"
                        f" {len(rankings)} ranking(s)"
                    )
                rankings = shards[index]
            algorithms = None if args.algorithm is None else [args.algorithm]
            database.create_static(
                args.name,
                rankings,
                num_shards=args.shards,
                algorithms=algorithms,
                cache_capacity=args.cache_capacity,
            )
            size, k = len(rankings), rankings.k
        server_type = AsyncDatabaseServer if args.use_async else DatabaseServer
        server = server_type(database, host=args.host, port=args.port)
        if args.use_async:
            server.start()
    except (ReproError, OSError, ValueError) as error:
        database.close()
        print(f"error: {error}", file=sys.stderr)
        return 1
    host, port = server.address
    kind = "live" if args.live else "static"
    transport = "asyncio" if args.use_async else "threaded"
    described = args.name if shard_spec is None else f"{args.name} (shard {args.shard})"
    print(
        f"serving {kind} collection {described!r} "
        f"({size} rankings, k={k}, {args.shards} shard(s), {transport}) on {host}:{port}"
    )
    if args.live:
        print(f"durability: {collection.durability}"
              + ("  (acknowledged writes may be lost on power loss)"
                 if collection.durability in ("in-memory", "no-sync") else ""))
    print("stop with a client '--admin shutdown' request or Ctrl-C")
    try:
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")
        if args.use_async:
            server.wait()  # the bridge thread exits on admin/shutdown
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        server.close()
        database.close()
    print("server stopped")
    return 0


def _serve_empty(args: argparse.Namespace) -> int:
    """Serve a database with no collections (a cluster node before DDL)."""
    database = Database()
    try:
        server_type = AsyncDatabaseServer if args.use_async else DatabaseServer
        server = server_type(database, host=args.host, port=args.port)
        if args.use_async:
            server.start()
    except (ReproError, OSError, ValueError) as error:
        database.close()
        print(f"error: {error}", file=sys.stderr)
        return 1
    host, port = server.address
    transport = "asyncio" if args.use_async else "threaded"
    print(f"serving empty database ({transport}) on {host}:{port}")
    print("stop with a client '--admin shutdown' request or Ctrl-C")
    try:
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")
        if args.use_async:
            server.wait()
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        server.close()
        database.close()
    print("server stopped")
    return 0


def _wait_node_ready(ready_file: str, process: subprocess.Popen, timeout: float) -> str:
    """Poll one node's ready file; returns its ``host:port``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(ready_file):
            with open(ready_file, encoding="utf-8") as handle:
                content = handle.read().split()
            if len(content) == 2:
                return f"{content[0]}:{content[1]}"
        if process.poll() is not None:
            raise ReproError(
                f"shard server (pid {process.pid}) exited with code"
                f" {process.returncode} before becoming ready"
            )
        time.sleep(0.05)
    raise ReproError(f"shard server (pid {process.pid}) not ready after {timeout:.0f}s")


def _command_cluster_up(args: argparse.Namespace) -> int:
    if args.shards <= 0 or args.replicas < 0 or args.spares < 0:
        print(
            "error: --shards must be positive; --replicas/--spares non-negative",
            file=sys.stderr,
        )
        return 2
    total = args.shards * (1 + args.replicas) + args.spares
    workdir = tempfile.mkdtemp(prefix="repro-cluster-")
    processes: list[subprocess.Popen] = []
    coordinator: Coordinator | None = None
    server: DatabaseServer | None = None
    exit_code = 0
    try:
        print(f"spawning {total} empty shard server(s)...")
        ready_files = []
        for index in range(total):
            ready = os.path.join(workdir, f"node-{index}.ready")
            ready_files.append(ready)
            processes.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.cli", "serve", "--empty",
                        "--host", args.host, "--port", "0", "--ready-file", ready,
                    ],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        addresses = [
            _wait_node_ready(ready, process, timeout=30.0)
            for ready, process in zip(ready_files, processes)
        ]
        coordinator = Coordinator(
            addresses,
            collection=args.collection,
            num_shards=args.shards,
            replicas=args.replicas,
            num_slots=args.slots,
            algorithm=args.algorithm,
            heartbeat_interval=args.heartbeat_interval,
            timeout=args.node_timeout,
            wire_format=args.format,
        )
        server = DatabaseServer(coordinator, host=args.host, port=args.port)
        host, port = server.address
        coordinator.address = f"{host}:{port}"
        coordinator.start()
        state = {
            "coordinator": f"{host}:{port}",
            "collection": args.collection,
            "shards": args.shards,
            "replicas": args.replicas,
            "nodes": [
                {"address": address, "pid": process.pid}
                for address, process in zip(addresses, processes)
            ],
        }
        if args.state_file:
            with open(args.state_file, "w", encoding="utf-8") as handle:
                json.dump(state, handle, indent=2)
                handle.write("\n")
        table = coordinator.routing_table
        print(
            f"cluster up: {args.shards} shard(s) x {1 + args.replicas} member(s)"
            f" (+{args.spares} spare(s)), {table.num_slots} slots,"
            f" routing v{table.version}"
        )
        for spec in table.shards:
            members = ", ".join(spec.replicas) or "none"
            print(f"  shard {spec.shard_id}: primary {spec.primary}  replicas: {members}")
        print(
            f"coordinator serving {args.collection!r} on {host}:{port}"
            f" ({args.format} wire format to shards)"
        )
        print("stop with a client '--admin shutdown' request or Ctrl-C")
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    except (ReproError, OSError, ValueError, ConnectionError) as error:
        print(f"error: {error}", file=sys.stderr)
        exit_code = 1
    finally:
        if coordinator is not None:
            coordinator.close()
        if server is not None:
            server.close()
        if coordinator is not None:
            coordinator.shutdown_nodes()
        for process in processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        shutil.rmtree(workdir, ignore_errors=True)
    print("cluster stopped")
    return exit_code


def _cluster_status_lines(status: dict) -> list[str]:
    lines = [
        f"collection {status.get('collection', '?')!r} — routing"
        f" v{status.get('version', '?')}, {status.get('num_slots', '?')} slots,"
        f" next key {status.get('next_key', '?')}"
    ]
    for shard in status.get("shards", []):
        primary_state = "alive" if shard.get("primary_alive") else "DEAD"
        lines.append(
            f"shard {shard.get('shard')}: primary {shard.get('primary')}"
            f" ({primary_state})  seq={shard.get('seq')}  log={shard.get('log_size')}"
        )
        for replica in shard.get("replicas", []):
            replica_state = "alive" if replica.get("alive") else "DEAD"
            lines.append(
                f"  replica {replica.get('address')} ({replica_state})"
                f"  applied={replica.get('applied_seq')}  lag={replica.get('lag')}"
            )
    spares = status.get("spares", [])
    if spares:
        lines.append("spares: " + ", ".join(spares))
    migrating = status.get("migrating", [])
    if migrating:
        lines.append(f"migrating slots: {migrating}")
    return lines


def _command_cluster_status(args: argparse.Namespace) -> int:
    try:
        with Client(args.host, args.port, timeout=args.timeout) as client:
            response = client.execute(
                AdminRequest(collection=args.collection, action="route")
            )
    except (OSError, ConnectionError) as error:
        print(f"error: cannot reach coordinator {args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    if not response.ok:
        print(f"error: {response.error.code}: {response.error.message}", file=sys.stderr)
        return 1
    for line in _cluster_status_lines((response.data or {}).get("status", {})):
        print(line)
    return 0


def _command_cluster_reshard(args: argparse.Namespace) -> int:
    moves: dict[int, int] = {}
    try:
        for pair in args.moves.split(","):
            if not pair.strip():
                continue
            slot, _, target = pair.partition(":")
            moves[int(slot)] = int(target)
    except ValueError:
        print("error: --moves must be comma-separated slot:shard pairs", file=sys.stderr)
        return 2
    if not moves:
        print("error: --moves lists no slot:shard pairs", file=sys.stderr)
        return 2
    try:
        with Client(args.host, args.port, timeout=args.timeout) as client:
            response = client.execute(
                AdminRequest(collection=args.collection, action="reshard", moves=moves)
            )
    except (OSError, ConnectionError) as error:
        print(f"error: cannot reach coordinator {args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    if not response.ok:
        print(f"error: {response.error.code}: {response.error.message}", file=sys.stderr)
        return 1
    print(json.dumps(response.data, indent=2, sort_keys=True))
    return 0


def _command_cluster(args: argparse.Namespace) -> int:
    if args.cluster_command == "up":
        return _command_cluster_up(args)
    if args.cluster_command == "status":
        return _command_cluster_status(args)
    return _command_cluster_reshard(args)


def _match_lines(response, limit: int) -> list[str]:
    matches = response.matches or ()
    lines = [
        f"  rid={match.rid}  distance={match.distance:.4f}  items={list(match.items)}"
        for match in list(matches)[:limit]
    ]
    stats = response.stats or {}
    if stats:
        lines.append(
            f"{len(matches)} match(es) via {stats.get('algorithm', '?')} "
            f"({'cache hit' if stats.get('cache_hit') else stats.get('planner_source', '?')}) "
            f"in {float(stats.get('latency_seconds', 0.0)) * 1000.0:.2f}ms"
        )
    else:
        lines.append(f"{len(matches)} match(es)")
    return lines


def _run_client_op(client: Client, args: argparse.Namespace) -> tuple[int, list[str]]:
    """Run the one requested operation; returns (exit code, stdout lines).

    Network I/O and envelope handling happen here; *stdout* output is
    returned for the caller to print once the connection is done, so a
    broken stdout pipe (e.g. ``| head``) can never be mistaken for — or
    mask — a server failure.  Error envelopes are reported to stderr
    immediately.
    """
    trace = True if args.trace else None
    if args.query is not None:
        items = _parse_query_items(args.query)
        if args.subscribe:
            return _run_subscribe(client, args, items)
        if args.knn > 0:
            request = KnnRequest(
                collection=args.collection, items=tuple(items), k=args.knn,
                algorithm=args.algorithm,
            )
        else:
            # server-side pagination: only the asked-for page crosses the wire
            request = RangeQueryRequest(
                collection=args.collection, items=tuple(items), theta=args.theta,
                algorithm=args.algorithm, limit=args.limit,
            )
        response = client.execute(request, trace=trace)
        if not response.ok:
            print(f"error: {response.error.code}: {response.error.message}", file=sys.stderr)
            return 1, []
        lines = _match_lines(response, args.limit)
        if response.cursor is not None:
            lines.append(f"... more matches beyond --limit {args.limit} (cursor={response.cursor})")
        if response.trace is not None:
            lines.extend(span_tree_lines(response.trace))
        return 0, lines
    if args.insert is not None:
        key = client.insert(_parse_query_items(args.insert), collection=args.collection)
        return 0, [f"inserted key={key}"]
    if args.delete is not None:
        client.delete(args.delete, collection=args.collection)
        return 0, [f"deleted key={args.delete}"]
    if args.upsert is not None:
        client.upsert(args.upsert, _parse_query_items(args.items), collection=args.collection)
        return 0, [f"upserted key={args.upsert}"]
    if args.admin == "create":
        seed = None
        if args.rankings is not None:
            seed = tuple(ranking.items for ranking in load_rankings(args.rankings))
        response = client.execute(
            AdminRequest(
                collection=args.collection,
                action="create",
                engine=args.engine,
                rankings=seed,
                algorithm=args.algorithm,
                num_shards=args.shards,
            )
        )
    elif args.admin == "metrics":
        response = client.execute(
            AdminRequest(
                collection=args.collection,
                action="metrics",
                format=args.format,
                scope="cluster" if args.cluster else None,
            ),
            trace=trace,
        )
    else:
        response = client.execute(
            {"type": "admin", "action": args.admin, "collection": args.collection}
        )
    if not response.ok:
        print(f"error: {response.error.code}: {response.error.message}", file=sys.stderr)
        return 1, []
    if args.admin == "metrics" and args.format == "prometheus":
        # scrape-ready output: the exposition text, nothing else
        return 0, [str((response.data or {}).get("exposition", ""))]
    if args.admin == "slow_queries":
        return 0, _slow_query_lines(response.data or {})
    if args.admin == "stats":
        # the wire format is negotiated client-side at hello, so only this
        # end of the connection can report which one is actually active
        data = dict(response.data or {})
        data["wire"] = {
            "format": client.wire_format,
            "protocol": PROTOCOL_VERSION,
        }
        return 0, [json.dumps(data, indent=2, sort_keys=True)]
    return 0, [json.dumps(response.data, indent=2, sort_keys=True)]


def _run_subscribe(client: Client, args: argparse.Namespace, items: list[int]) -> tuple[int, list[str]]:
    """Stream a standing query: snapshot, then deltas, then a clean unsubscribe.

    Unlike the one-shot operations this prints as events arrive (flushed, so
    a piped consumer sees each delta when it happens), because the whole
    point is watching the result set move.
    """
    mode = "knn" if args.knn > 0 else "range"
    subscription = client.subscribe(
        items,
        collection=args.collection,
        mode=mode,
        theta=0.0 if args.knn > 0 else args.theta,
        k=args.knn,
        algorithm=args.algorithm,
    )
    print(
        f"subscribed id={subscription.id} mode={mode}"
        f" snapshot={len(subscription.matches)} match(es)",
        flush=True,
    )
    for match in list(subscription.matches)[: args.limit]:
        print(
            f"  rid={match.rid}  distance={match.distance:.4f}  items={list(match.items)}",
            flush=True,
        )
    seen = 0
    while args.deltas <= 0 or seen < args.deltas:
        delta = subscription.get()
        if delta is None:
            break  # server ended the stream first
        seen += 1
        print(
            f"delta version={delta.version} entered={len(delta.entered)}"
            f" moved={len(delta.moved)} left={len(delta.left)}",
            flush=True,
        )
        for match in delta.entered:
            print(f"  +rid={match.rid}  distance={match.distance:.4f}", flush=True)
        for match in delta.moved:
            print(f"  ~rid={match.rid}  distance={match.distance:.4f}", flush=True)
        for rid in delta.left:
            print(f"  -rid={rid}", flush=True)
    subscription.unsubscribe()
    print("unsubscribed", flush=True)
    return 0, []


def _slow_query_lines(data: dict) -> list[str]:
    """Human-readable slow-query report: one header per entry + span trees."""
    entries = data.get("slow_queries", [])
    if not entries:
        return [f"slow-query log empty (capacity {data.get('capacity', '?')})"]
    lines = [f"{len(entries)} slow quer(ies), slowest first (capacity {data.get('capacity', '?')})"]
    for position, entry in enumerate(entries, start=1):
        header = (
            f"[{position:2d}] {entry.get('kind', '?'):6s} on {entry.get('collection', '?')!r}"
            f"  {float(entry.get('wall_seconds', 0.0)) * 1000.0:8.2f}ms"
            f"  results={entry.get('results', 0)}"
        )
        if entry.get("algorithm"):
            header += f"  via {entry['algorithm']} ({entry.get('planner_source') or '?'})"
        lines.append(header)
        if entry.get("trace"):
            lines.extend("  " + line for line in span_tree_lines(entry["trace"]))
    return lines


def _command_client(args: argparse.Namespace) -> int:
    for flag, text in (("--query", args.query), ("--insert", args.insert), ("--items", args.items)):
        if text is not None:
            try:
                _parse_query_items(text)
            except ValueError:
                print(
                    f"error: {flag} must be a comma-separated list of integer item ids",
                    file=sys.stderr,
                )
                return 2
    if args.upsert is not None and args.items is None:
        print("error: --upsert needs --items", file=sys.stderr)
        return 2
    if args.subscribe and args.query is None:
        print("error: --subscribe needs --query", file=sys.stderr)
        return 2
    if args.format is not None and args.admin != "metrics":
        print("error: --format only applies to '--admin metrics'", file=sys.stderr)
        return 2
    if args.cluster and args.admin != "metrics":
        print("error: --cluster only applies to '--admin metrics'", file=sys.stderr)
        return 2
    try:
        client = Client(
            args.host, args.port, timeout=args.timeout, wire_format=args.wire_format,
        )
    except (OSError, ConnectionError) as error:
        print(f"error: cannot connect to {args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    with client:
        try:
            exit_code, lines = _run_client_op(client, args)
        except (ReproError, ValueError, KeyError, RuntimeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except (ConnectionError, OSError) as error:
            print(f"error: connection failed: {error}", file=sys.stderr)
            return 1
    for line in lines:
        print(line)
    return exit_code


def _command_compare(args: argparse.Namespace) -> int:
    thetas = [float(token) for token in args.thetas.split(",") if token.strip()]
    setup = ExperimentSetup.create(
        dataset=args.dataset, n=args.n, k=args.k, num_queries=args.queries
    )
    measurements = compare_algorithms(
        setup, COMPARISON_ALGORITHMS, thetas, figure_module.DEFAULT_COARSE_KWARGS
    )
    rows = [measurement.as_row() for measurement in measurements]
    columns = ["algorithm", "theta", "wall_seconds", "distance_calls", "candidates", "results"]
    print(format_table(rows, columns=columns, title=f"Comparison on {args.dataset} (n={args.n}, k={args.k})"))
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import main as lint_main

    forwarded = list(args.paths) + ["--root", args.root, "--format", args.lint_format]
    if args.rules:
        forwarded += ["--rules", args.rules]
    if args.list_rules:
        forwarded.append("--list-rules")
    return lint_main(forwarded)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return _command_generate(args)
    if args.command == "query":
        return _command_query(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "batch-query":
        return _command_batch_query(args)
    if args.command == "ingest":
        return _command_ingest(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "cluster":
        return _command_cluster(args)
    if args.command == "client":
        return _command_client(args)
    if args.command == "figure":
        _FIGURES[args.number](args)
        return 0
    if args.command == "lint":
        return _command_lint(args)
    if args.command == "table":
        _TABLES[args.number](args)
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
