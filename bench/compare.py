"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

Per workload and end-to-end metric, B against A (the base), with the
direction and bound BENCHMARK.json fixes:

``better`` / ``worse``   B differs from A by more than the bound
``within bound``         it does not
``unresolved``           the slice quartiles of either side are further apart
                         than the bound, so this pair of runs cannot say
``missing``              a workload or metric the base has and the new file
                         has not, an end-to-end metric of BENCHMARK.json that
                         either lacks, or a value of 0; counts as worse

A run whose checks failed (a failed operation, a wrong answer, no oracle check
made: ``error_rate`` must be 0, absolutely) counts as worse too.  Every ratio
is printed with its base.  Per-layer metrics are listed with their change but
never gate.  Exit code is non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: End-to-end metrics only one or two workloads have.  BENCHMARK.json wants
#: every end-to-end metric on every workload, so it lists these as per-layer;
#: they are measured with tracing off at full length all the same, and gated
#: here, on the workloads whose base run has them.
WORKLOAD_GATES = {
    "write_ops_s": {"better": "higher", "bound": 0.25},
    "push_p50_ms": {"better": "lower", "bound": 0.25},
    "restart_s": {"better": "lower", "bound": 0.25},
    "disk_bytes_per_ranking": {"better": "lower", "bound": 0.02},
}


def slice_spread(entry: dict) -> float:
    """Distance between the slice quartiles as a share of the value (0 without slices)."""
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return abs(entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(base: dict | None, new: dict | None, better: str, bound: float) -> str:
    if not (base and new and base["value"] and new["value"]):
        return "missing"  # no gated metric is ever 0
    if max(slice_spread(base), slice_spread(new)) > bound:
        return "unresolved"
    change = new["value"] / base["value"] - 1.0
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within bound"


def failed_checks(document: dict, workload: str) -> list[str]:
    """One line per run of ``workload`` in ``document`` that was not correct."""
    checks = document["workloads"].get(workload, {}).get("checks", {})
    return [
        f"{which} run: failed={entry['failed']} of {entry['attempted']},"
        f" oracle_checks={entry['oracle_checks']}, correct={entry['correct']}"
        for which, entry in sorted(checks.items())
        if entry["failed"] or not entry["correct"]
    ]


def compare(base: dict, new: dict, contract: dict) -> tuple[list[str], int]:
    """The report lines and the number of ``worse`` verdicts."""
    lines = []
    worse = 0
    for name in (workload["name"] for workload in contract["workloads"]):
        a = base["workloads"].get(name)
        b = new["workloads"].get(name, {})
        lines.append(f"== {name} ==")
        if a is None:
            lines.append("not in the base: nothing to compare")
            continue
        for side, document in (("base", base), ("new", new)):
            for problem in failed_checks(document, name):
                worse += 1
                lines.append(f"{side} {problem}: worse")
        old_metrics, new_metrics = a.get("end_to_end", {}), b.get("end_to_end", {})
        gates = list(contract["end_to_end"]) + [
            {"name": extra, **gate} for extra, gate in WORKLOAD_GATES.items()
            if extra in old_metrics or extra in new_metrics
        ]
        for spec in gates:
            old, cur = old_metrics.get(spec["name"]), new_metrics.get(spec["name"])
            outcome = verdict(old, cur, spec["better"], spec["bound"])
            worse += outcome in ("worse", "missing")
            lines.append(
                f"{spec['name']:24s} {change(old, cur)}"
                f"  bound {spec['bound']:.2f} ({spec['better']} is better): {outcome}"
            )
        layers_a, layers_b = a.get("per_layer", {}), b.get("per_layer", {})
        for name_ in sorted(set(layers_a) & set(layers_b)):
            lines.append(f"  {name_:42s} {change(layers_a[name_], layers_b[name_])}")
    return lines, worse


def change(old: dict | None, cur: dict | None) -> str:
    """``old -> new unit xRATIO of BASE  spread A/B``: every ratio with its base."""
    if not (old and cur):
        return f"{'-' if not old else old['value']:>14} -> {'-' if not cur else cur['value']:>14}"
    ratio = f"x{cur['value'] / old['value']:.3f} of {old['value']:.4f}" if old["value"] else "-"
    text = f"{old['value']:14.4f} -> {cur['value']:14.4f} {cur['unit']:5s} {ratio}"
    if "q1" in old or "q1" in cur:
        text += f"  spread {slice_spread(old):.3f}/{slice_spread(cur):.3f}"
    return text


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in args)
    lines, worse = compare(base, new, json.loads(CONTRACT.read_text()))
    for noisy, path in ((base["record"]["noisy"], args[0]), (new["record"]["noisy"], args[1])):
        if noisy:
            lines.insert(0, f"NOTE: {path} was recorded on a busy machine (noisy: true)")
    print("\n".join(lines))
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
