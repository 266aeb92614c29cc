"""One benchmark for the whole stack.

    python3 bench/run.py                       every workload, untraced then traced
    python3 bench/run.py --smoke               the same at ~2 s and tiny n
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying exactly the metrics
BENCHMARK.json names: the end-to-end ones with ``--trace 0``, the per-layer
ones with ``--trace 1``.  Exit code is non-zero on a wrong answer, a lost
acknowledged write, or any failed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
from workloads.core_cold import CoreCold  # noqa: E402
from workloads.live_churn import LiveChurn  # noqa: E402
from workloads.serve_mixed import ServeMixed  # noqa: E402
from workloads.wire_hot import WireHot  # noqa: E402

WORKLOADS = {cls.name: cls for cls in (CoreCold, WireHot, LiveChurn, ServeMixed)}
#: The traced run measures each half (untraced, then traced) at this share of the length.
TRACED_SHARE = 0.25
SMOKE_SECONDS = 2.0


def load_contract() -> dict:
    return json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up (``setup_repeats`` times), measure, check, tear down one workload."""
    record = harness.run_record(seed, seconds)
    workload = WORKLOADS[name](seed, smoke, seconds)
    setups = []
    try:
        for _ in range(workload.setup_repeats):
            if setups:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        # nothing built during set-up is garbage: keep the collector off it
        gc.collect()
        gc.freeze()
        if trace:
            tracer = harness.Tracer()
            untraced = workload.run(seconds * TRACED_SHARE, None)
            traced = workload.run(seconds * TRACED_SHARE, tracer)
            workload.finish()
            metrics = workload.per_layer(untraced, tracer)
            base = workload.end_to_end(untraced)["range_qps"]["value"]
            metrics["trace_overhead_ratio"] = harness.metric(
                workload.end_to_end(traced)["range_qps"]["value"] / base, "ratio", base_qps=base
            )
            tracer.dump(harness.OUT_DIR / f"trace-{name}.json", record)
            stages = tracer.stage_table()
        else:
            metrics = workload.end_to_end(workload.run(seconds, None))
            workload.finish()
            # what only this workload has of the end-to-end metrics (gated by compare.py)
            metrics.update(
                (extra, workload.final[extra])
                for extra in compare.WORKLOAD_GATES if extra in workload.final
            )
            stages = {}
    finally:
        workload.teardown()
        gc.unfreeze()
    if not trace:
        metrics["setup_s"] = harness.sliced_metric(setups, "s", len(setups))
        peak = workload.peak_rss_mb()  # the child's, read at its exit, for a wire workload
        if not peak > 0:
            raise RuntimeError(f"{name}: no peak RSS was read")
        metrics["peak_rss_mb"] = harness.metric(peak, "MB")
    checks = workload.checks
    return {
        "workload": name,
        "trace": trace,
        "record": record,
        "metrics": metrics,
        "stages": stages,
        "attempted": checks.attempted + checks.oracle_checks,
        "failed": checks.failed,
        "oracle_checks": checks.oracle_checks,
        "failures": checks.failures,
        "correct": checks.failed == 0 and checks.oracle_checks > 0,
    }


# -- output -----------------------------------------------------------------------------


def print_result(result: dict) -> None:
    record = result["record"]
    print(
        f"\n== {result['workload']}  seed={record['seed']}  seconds={record['seconds']}"
        f"  trace={'on' if result['trace'] else 'off'}"
        f"{'  NOISY (load %.2f)' % record['loadavg_1m'] if record['noisy'] else ''} =="
    )
    print(f"{'metric':44s} {'value':>14s} {'unit':6s} {'samples':>8s}  slice q1..q3")
    for name, entry in sorted(result["metrics"].items()):
        spread = f"{entry['q1']:.4g}..{entry['q3']:.4g}" if "q1" in entry else ""
        if "percentile" in entry:
            spread = f"p{entry['percentile']:.4g}"
        print(
            f"{name:44s} {entry['value']:14.4f} {entry['unit']:6s}"
            f" {entry.get('samples', ''):>8}  {spread}"
        )
    if result["stages"]:
        print(f"-- replayed stages, median self time ({result['workload']}) --")
        for name, entry in sorted(result["stages"].items()):
            print(f"{name:44s} {entry['value']:14.2f} us     {entry['samples']:>8}")
    attempted = max(1, result["attempted"])
    print(
        f"error_rate {result['failed'] / attempted:.6f}  attempted {result['attempted']}"
        f"  failed {result['failed']}  oracle_checks {result['oracle_checks']}"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def contract_line(result: dict, contract: dict) -> str:
    """The driver's last line: exactly the metrics BENCHMARK.json names.

    A per-layer metric this workload's path does not exercise is reported as
    0 (the contract wants every name on every run); the tables and result
    files leave it out instead.
    """
    wanted = contract["per_layer" if result["trace"] else "end_to_end"]
    metrics = {}
    for entry in wanted:
        measured = result["metrics"].get(entry["name"])
        if measured is None and not result["trace"]:
            raise RuntimeError(f"{result['workload']} did not measure {entry['name']}")
        value = measured["value"] if measured is not None else 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def result_document(result: dict) -> dict:
    """What ``--out`` keeps of one run: the run record and the workload's metrics."""
    kind, checked = ("per_layer", "traced") if result["trace"] else ("end_to_end", "untraced")
    checks = {key: result[key] for key in ("attempted", "failed", "oracle_checks", "correct")}
    return {
        "record": result["record"],
        "workloads": {result["workload"]: {kind: result["metrics"], "checks": {checked: checks}}},
    }


def run_everything(args, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process.

    A fresh process per run keeps one workload's heap, collector state and
    peak RSS out of the next one's numbers; it is also exactly how the driver
    runs them.
    """
    merged: dict = {"record": None, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        for trace in ([args.trace] if args.trace is not None else [0, 1]):
            part = harness.scratch_dir("parts") / f"{name}-{trace}.json"
            command = [
                sys.executable, __file__, "--workload", name, "--trace", str(trace),
                "--seed", str(args.seed), "--seconds", str(seconds), "--out", str(part),
            ]
            with subprocess.Popen(
                command + (["--smoke"] if args.smoke else []), stdout=subprocess.PIPE, text=True
            ) as run:
                try:
                    output, _ = run.communicate()
                except BaseException:
                    run.terminate()  # it stops its own server child and removes its scratch files
                    raise
            # everything but the driver's line, which is for one run only
            print("\n".join(output.splitlines()[:-1]), flush=True)
            status = status or run.returncode
            if part.exists():
                document = json.loads(part.read_text())
                merged["record"] = merged["record"] or document["record"]
                merged["record"]["noisy"] |= document["record"]["noisy"]
                for sections in document["workloads"].values():
                    entry = merged["workloads"].setdefault(name, {"checks": {}})
                    entry["checks"].update(sections.pop("checks"))
                    entry.update(sections)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(merged, indent=1))
    return status


# -- entry point ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this one")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured length of one run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, choices=(0, 1),
        help="1: the traced run (per-layer metrics); 0: end-to-end only; "
             "default: both when running every workload, 0 with --workload",
    )
    parser.add_argument("--smoke", action="store_true", help="~2 s per run, tiny n")
    parser.add_argument("--out", type=Path, help="write the result file here")
    args = parser.parse_args(argv)

    # a terminated run still stops its server child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else float(contract["run_seconds"]))
    try:
        if args.workload is None:
            return run_everything(args, seconds)
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        harness.ServerProcess.stop_all()
        harness.remove_scratch()
    print_result(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result_document(result), indent=1))
    print(contract_line(result, contract))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
