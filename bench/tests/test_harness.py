"""The harness's own arithmetic, and that a smoke run emits the contract's names.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from oracle import Oracle  # noqa: E402

CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


# -- slices, medians, percentiles ---------------------------------------------------


def test_equal_slices_and_their_median():
    phase = harness.Phase()
    for slice_index in range(harness.SLICES):
        for _ in range(10):
            phase.add((slice_index + 1) * 1_000_000)  # slice i answers in (i+1) ms
    p50 = phase.p50()
    assert p50["slices"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert p50["value"] == 3.0 and p50["samples"] == 50
    rate = phase.rate()
    assert rate["slices"] == pytest.approx([1000.0, 500.0, 1000 / 3, 250.0, 200.0])
    assert rate["value"] == pytest.approx(1000 / 3)
    assert rate["q1"] <= rate["value"] <= rate["q3"]


def test_slices_are_whole_cycles_when_the_workload_cycles():
    phase = harness.Phase(cycle=4)
    for index in range(4 * 7 + 3):  # seven whole passes and a torn one
        phase.add(1_000 * (index % 4 + 1))
    slices = phase.slices()
    assert len(slices) == 5 and all(len(part) == 4 for part in slices)  # two passes left over
    # every slice timed the same work, so every slice reads the same
    assert len(set(phase.p50()["slices"])) == 1
    many = harness.Phase(cycle=2)
    for _ in range(2 * 23):
        many.add(1_000)
    assert [len(part) for part in many.slices()] == [8] * 5  # 4 cycles a slice, 3 left over
    few = harness.Phase(cycle=4)
    for index in range(7):  # less than two passes: five equal consecutive slices
        few.add(1_000)
    assert [len(part) for part in few.slices()] == [1, 1, 2, 1, 2]


def test_striped_slices_cancel_a_trend():
    phase = harness.Phase(cycle=2, striped=True)
    for cycle in range(50):  # each cycle slower than the one before
        phase.add((cycle + 1) * 1_000_000)
        phase.add((cycle + 1) * 1_000_000)
    assert [len(part) for part in phase.slices()] == [20] * 5
    consecutive = harness.Phase(cycle=2)
    consecutive.calls = list(phase.calls)

    def spread(entry):
        return (entry["q3"] - entry["q1"]) / entry["value"]
    assert spread(phase.p50()) < spread(consecutive.p50()) / 4


def test_a_burst_counts_its_operations():
    phase = harness.Phase()
    for _ in range(10):
        phase.add(2_000_000, operations=8)
    assert len(phase) == 80
    assert phase.rate()["value"] == pytest.approx(4000.0)
    phase.add(20_000_000, operations=8)  # one stall as long as everything before it
    assert phase.overall_rate()["value"] == pytest.approx(2200.0)
    assert phase.rate()["value"] == pytest.approx(4000.0)  # the median slice does not see it


@pytest.mark.parametrize(
    "count, wanted, expected",
    [(2000, 99.0, 99.0), (1000, 99.0, 99.0), (500, 99.0, 98.0), (100, 99.0, 90.0),
     (40, 95.0, 75.0), (15, 99.0, 50.0), (5, 99.0, 50.0)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(count, wanted, expected):
    assert harness.supported_percentile(count, wanted) == pytest.approx(expected)


def test_tail_reports_the_percentile_it_used():
    phase = harness.Phase()
    for nanoseconds in range(1, 101):
        phase.add(nanoseconds * 1_000_000)
    tail = phase.tail(99.0)
    assert tail["percentile"] == pytest.approx(90.0)
    assert tail["value"] == pytest.approx(90.0)  # exactly ten samples lie beyond it
    assert harness.percentile(list(range(1, 101)), 50.0) == 50


def test_tracer_self_time_is_span_minus_children():
    tracer = harness.Tracer()
    parent = tracer.request("request", "api", 0, 1000)
    tracer.stage("stage", "codec", parent, lambda: None)
    child = tracer.spans[tracer.last]
    own = tracer.self_ns()
    assert own["request"] == [1000 - (child["end_ns"] - child["start_ns"])]
    assert child["parent"] == parent and child["request_id"] == parent


# -- names ------------------------------------------------------------------------------


def test_contract_names_are_well_formed_and_unique():
    names = [entry["name"] for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [entry["name"] for entry in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert harness.METRIC_NAME.fullmatch(name), name
    assert not harness.METRIC_NAME.fullmatch("has space")
    assert not harness.METRIC_NAME.fullmatch(".leading-dot")
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert len(CONTRACT["per_layer"]) <= 128 and len(CONTRACT["end_to_end"]) <= 16


# -- compare.py verdicts ----------------------------------------------------------------


def _entry(value, spread=0.0):
    half = value * spread / 2
    return {"value": value, "unit": "x", "q1": value - half, "q3": value + half}


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        (_entry(100.0), _entry(105.0), "higher", "within bound"),
        (_entry(100.0), _entry(85.0), "higher", "worse"),
        (_entry(100.0), _entry(115.0), "higher", "better"),
        (_entry(10.0), _entry(11.5), "lower", "worse"),
        (_entry(10.0), _entry(8.0), "lower", "better"),
        (_entry(100.0, spread=0.3), _entry(80.0), "higher", "unresolved"),
        (_entry(100.0), _entry(100.0, spread=0.11), "lower", "unresolved"),
        (_entry(100.0), None, "higher", "missing"),
        (None, _entry(100.0), "higher", "missing"),
        (_entry(0.0), _entry(50.0), "lower", "missing"),  # a zero base is no base
        (_entry(50.0), _entry(0.0), "lower", "missing"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, better, bound=0.10) == expected


GATE_CONTRACT = {
    "workloads": [{"name": "w"}, {"name": "v"}],
    "end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}],
}


def _document(qps=100.0, layer=5.0, workloads=("w", "v"), failed=0, correct=True, **extra):
    checks = {"attempted": 10, "failed": failed, "oracle_checks": 3, "correct": correct}
    return {"workloads": {name: {
        "end_to_end": {"qps": _entry(qps), **{key: _entry(value) for key, value in extra.items()}},
        "per_layer": {"layer.us": {"value": layer, "unit": "us"}},
        "checks": {"untraced": dict(checks)},
    } for name in workloads}}


def test_compare_counts_worse_and_never_gates_on_layers():
    lines, worse = compare.compare(_document(), _document(qps=50.0, layer=500.0), GATE_CONTRACT)
    assert worse == 2 and any("x0.500 of 100.0000" in line for line in lines)
    _, worse = compare.compare(_document(), _document(qps=99.0, layer=500.0), GATE_CONTRACT)
    assert worse == 0  # a hundredfold layer change is listed, not gated


def test_compare_does_not_pass_a_broken_run():
    base = _document()
    _, worse = compare.compare(base, _document(workloads=("w",)), GATE_CONTRACT)
    assert worse == 1  # a workload the base has and the new file has not
    dropped = _document()
    del dropped["workloads"]["v"]["end_to_end"]["qps"]
    _, worse = compare.compare(base, dropped, GATE_CONTRACT)
    assert worse == 1  # a contract metric gone from one workload
    lines, worse = compare.compare(base, _document(failed=500, correct=False), GATE_CONTRACT)
    assert worse == 2 and any("failed=500" in line for line in lines)  # error_rate is not 0
    _, worse = compare.compare(base, _document(correct=False), GATE_CONTRACT)
    assert worse == 2  # nothing failed, but no oracle check ran either
    _, worse = compare.compare(_document(workloads=("w",)), _document(), GATE_CONTRACT)
    assert worse == 0  # a one-workload base compares that workload only
    _, worse = compare.compare(base, _document(qps=0.0), GATE_CONTRACT)
    assert worse == 2  # and a zero neither divides nor passes


def test_compare_gates_what_only_some_workloads_measure():
    base = _document(write_ops_s=1000.0, disk_bytes_per_ranking=100.0)
    _, worse = compare.compare(base, _document(write_ops_s=990.0, disk_bytes_per_ranking=101.0),
                               GATE_CONTRACT)
    assert worse == 0
    _, worse = compare.compare(base, _document(write_ops_s=700.0, disk_bytes_per_ranking=103.0),
                               GATE_CONTRACT)
    assert worse == 4  # both, on both workloads: the disk bound is 0.02
    _, worse = compare.compare(base, _document(), GATE_CONTRACT)
    assert worse == 4  # the base measured them and the new run does not
    assert set(compare.WORKLOAD_GATES) <= {entry["name"] for entry in CONTRACT["per_layer"]}


# -- the oracle agrees with the program on a small collection --------------------------


def test_oracle_matches_the_program_byte_for_byte():
    from repro.api import Database
    from workloads.common import generate_inputs

    rankings, queries, _ = generate_inputs(300, 20)
    oracle = Oracle(rankings.k, enumerate(ranking.items for ranking in rankings))
    with Database() as database:
        database.create_static("news", rankings, num_shards=2)
        session = database.session()
        for query in queries:
            for theta in (0.0, 0.2, 0.3):
                response = session.range_query(query, theta, collection="news")
                assert response.result_bytes() == oracle.result_bytes(oracle.range(query, theta))
            response = session.knn(query, 10, collection="news")
            assert [(m.rid, m.distance) for m in response.matches] == oracle.knn(query, 10)


# -- a smoke run emits exactly the contract's names -------------------------------------


@pytest.fixture(scope="module")
def smoke_results():
    results = {}
    try:
        for name in run.WORKLOADS:
            for trace in (False, True):
                results[name, trace] = run.run_workload(name, 1, run.SMOKE_SECONDS, trace, True)
    finally:
        harness.ServerProcess.stop_all()
        harness.remove_scratch()
    return results


def test_smoke_run_is_correct_and_checked(smoke_results):
    for (name, trace), result in smoke_results.items():
        assert result["correct"], (name, trace, result["failures"])
        assert result["failed"] == 0 and result["oracle_checks"] > 0
        assert 1 <= result["attempted"]


def test_every_workload_emits_every_end_to_end_metric(smoke_results):
    wanted = {entry["name"] for entry in CONTRACT["end_to_end"]}
    for name in run.WORKLOADS:
        metrics = smoke_results[name, False]["metrics"]
        assert wanted <= set(metrics) <= wanted | set(compare.WORKLOAD_GATES), name
        assert all(entry["value"] > 0 for entry in metrics.values()), name


def test_the_write_push_restart_and_disk_metrics_are_measured_untraced(smoke_results):
    extras = {
        name: set(smoke_results[name, False]["metrics"]) & set(compare.WORKLOAD_GATES)
        for name in run.WORKLOADS
    }
    assert extras == {
        "core_cold": set(),
        "wire_hot": set(),
        "live_churn": {"write_ops_s", "restart_s", "disk_bytes_per_ranking"},
        "serve_mixed": {"write_ops_s", "push_p50_ms"},
    }


def test_per_layer_names_match_the_contract_both_ways(smoke_results):
    emitted = set()
    for name in run.WORKLOADS:
        emitted |= set(smoke_results[name, True]["metrics"])
    assert emitted == {entry["name"] for entry in CONTRACT["per_layer"]}
    units = {entry["name"]: entry["unit"] for entry in CONTRACT["per_layer"]}
    for name in run.WORKLOADS:
        for metric_name, entry in smoke_results[name, True]["metrics"].items():
            assert entry["unit"] == units[metric_name], metric_name


def test_contract_line_carries_exactly_the_named_metrics(smoke_results):
    for (name, trace), result in smoke_results.items():
        line = json.loads(run.contract_line(result, CONTRACT))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        kind = "per_layer" if trace else "end_to_end"
        assert list(line["metrics"]) == [entry["name"] for entry in CONTRACT[kind]]
        assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())


def test_traced_run_wrote_its_spans(smoke_results):
    for name in run.WORKLOADS:
        trace = json.loads((harness.OUT_DIR / f"trace-{name}.json").read_text())
        assert trace["spans"], name
        fields = {"name", "layer", "start_ns", "end_ns", "parent", "request_id"}
        assert fields <= set(trace["spans"][0])
    stages = smoke_results["wire_hot", True]["stages"]
    assert stages["Client.execute"]["value"] >= 0  # replayed stages fit in the round trip
