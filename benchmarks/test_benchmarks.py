"""Self-tests of the benchmark harness (not of entlap).

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgauge  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _inputs(ops):
    return [(op.key, op.argv, None if op.array is None else op.array.tobytes()) for op in ops]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = _inputs(workloads.make_pass(workload, 7, tmp_path))
    again = _inputs(workloads.make_pass(workload, 7, tmp_path))
    other = _inputs(workloads.make_pass(workload, 8, tmp_path))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_setup_probe_runs_the_first_op_of_the_pass(workload, tmp_path):
    assert _inputs([workloads.first_op(workload, 7, tmp_path / "probe")]) == \
        _inputs(workloads.make_pass(workload, 7, tmp_path)[:1])


def test_pool_state_depends_only_on_its_class_and_index():
    a = workloads.make_state(2, 3, "sparse_disc", 5)
    assert np.array_equal(a, workloads.make_state(2, 3, "sparse_disc", 5))
    assert not np.array_equal(a, workloads.make_state(2, 3, "sparse_disc", 6))


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0, 0]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("root", 0, 100, None),
        _span("a", 10, 40, 0),
        _span("a.child", 20, 30, 1),
        _span("b", 50, 60, 0),
        _span("c", 55, 70, 0),  # overlaps b: the union 50..70 counts once
    ]
    assert tracing.self_times_ns(spans) == [100 - 30 - 20, 30 - 10, 10, 10, 15]


def test_covered_ns_clips_to_the_parent_interval():
    assert tracing.covered_ns([(-5, 5), (8, 20)], 0, 10) == 5 + 2
    assert tracing.covered_ns([], 0, 10) == 0


def test_latency_is_each_ops_median_and_rate_counts_every_run():
    ops = [workloads.Op("float", "a", "a"), workloads.Op("float", "b", "b")]
    phase = run.Phase(latencies=[0.001, 0.002, 0.009, 0.003, 0.003], indices=[0, 0, 0, 1, 1])
    setup = {"setup_s": 0.2, "setup_s_runs": [0.2]}
    e2e = run.end_to_end(ops, phase, setup)
    assert e2e["op_p50_ms"]["value"] == pytest.approx(2.5)  # medians 2 ms and 3 ms
    assert e2e["results_per_s"]["value"] == pytest.approx(5 / 0.018)

    ops = [workloads.Op("cli", "c", "c"), workloads.Op("sweep", "s", "s")]
    phase = run.Phase(latencies=[0.004, 0.5, 0.006, 0.3], indices=[0, 1, 0, 1],
                      first_results=[(0, "out\n"), (0, "a,b\n1,2\n3,4\n")])
    e2e = run.end_to_end(ops, phase, setup)
    assert e2e["op_p50_ms"]["value"] == pytest.approx(5.0)
    assert e2e["results_per_s"]["value"] == pytest.approx(2 * 2 / 0.8)


def _gauge(times, readings):
    gauge = loadgauge.LoadGauge(reference_s=1)
    gauge.times, gauge.readings = list(times), list(readings)
    return gauge


def test_gauge_load_is_the_windowed_median_over_the_reference_reading():
    gauge = _gauge(range(10), [1, 1, 1, 1, 1, 2, 2, 2, 2, 2])
    assert gauge.load(1.5, 2.0) == 1.0  # readings at 1..3
    assert gauge.load(7.0, 7.0) == 2.0  # readings at 6..8
    assert gauge.load(4.5, 4.5) == 1.5  # readings at 4, 5: widened to 2..7
    assert gauge.adjust([0.4, 0.4], [(1.5, 2.0), (7.0, 7.0)]) == [0.4, 0.2]


def test_gauge_adjusted_rate_and_latency():
    ops = [workloads.Op("float", "a", "a")]
    phase = run.Phase(latencies=[0.002, 0.004], indices=[0, 0], spans=[(0.0, 0.0), (9.0, 9.0)])
    gauge = _gauge(range(10), [1, 1, 1, 1, 1, 2, 2, 2, 2, 2])
    e2e = run.end_to_end(ops, phase, {"setup_s": 0.2, "setup_s_runs": [0.2]}, gauge)
    assert e2e["op_p50_ms"]["value"] == pytest.approx(2.0)
    assert e2e["results_per_s"]["value"] == pytest.approx(2 / 0.004)


def test_gauge_takes_readings_between_ops():
    gauge = loadgauge.LoadGauge(every_s=0.0)
    ops = workloads.make_pass("float_small", 1, None)[:3]
    phase = run.measure(ops, workloads.run_op, lambda op, res: None, 0, gauge=gauge)
    assert len(gauge.readings) == len(ops) == len(phase.spans)
    assert all(r > 0 for r in gauge.readings)


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def test_output_check_accepts_the_program_and_flags_an_altered_report(reference):
    op = workloads.make_pass("float_small", 3, None)[0]
    checker = workloads.Checker(reference)
    report = workloads.run_op(op)
    assert checker.check(op, report) is None

    good = workloads.report_summary(report)
    cid, verdict, scalars = good[3][0]
    name = next(iter(scalars))
    altered = []
    for path, value in [((0,), "NPT" if good[0] == "PPT" else "PPT"),
                        ((1,), good[1] + 1e-6),
                        ((2,), good[2] + ["THM3_SEP_2x2"]),
                        ((3, 0, 1), "INCONCLUSIVE" if verdict != "INCONCLUSIVE" else "PPT"),
                        ((3, 0, 2, name), scalars[name] * (1 + 1e-6) + 1e-9)]:
        bad = copy.deepcopy(good)
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        altered.append(bad)
    ref = reference["float"][op.key]
    for bad in altered:
        assert workloads.compare_summary(bad, ref) is not None, bad
    within = copy.deepcopy(good)
    within[3][0][2][name] = scalars[name] * (1 + 1e-12)
    assert workloads.compare_summary(within, ref) is None


def test_output_check_flags_altered_cli_output(reference, tmp_path):
    ops = workloads.make_pass("exact_corpus", 3, tmp_path)
    checker = workloads.Checker(reference)
    file_op = next(op for op in ops if op.file is not None)
    rc, text = workloads.run_op(file_op)
    assert checker.check(file_op, (rc, text)) is None
    assert checker.check(file_op, (rc, text.replace("PPT", "NPT", 1))) is not None
    assert checker.check(file_op, (2, text)) is not None
    assert checker.check(file_op, RuntimeError("boom")) is not None


def test_peres_check_flags_a_wrong_oracle_lambda():
    op = workloads.make_pass("float_small", 3, None)[0]
    summary = workloads.report_summary(workloads.run_op(op))
    assert workloads.peres_check(op, summary) is None
    summary[1] += 1e-6
    assert workloads.peres_check(op, summary) is not None


def _bindings():
    mods = tracing._entlap_modules()
    funcs = {(name, attr): value for name, mod in mods.items() for attr, value in vars(mod).items()
             if callable(value)}
    funcs["Exact.__init__"] = mods["entlap.exact"].Exact.__dict__["__init__"]
    return funcs


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    before = _bindings()
    ops = workloads.make_pass("float_small", 1, None)[:3]
    ops += [op for op in workloads.make_pass("exact_corpus", 1, tmp_path) if op.kind == "cli"][:4]
    tracer = tracing.Tracer()
    check = workloads.Checker(workloads.load_reference()).check
    untraced, traced = run.alternate(ops, workloads.run_op, check, 0, tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(untraced.latencies) == len(traced.latencies) == len(ops)
    assert untraced.failures == traced.failures == []
    totals, _ = tracing.aggregate(tracer)
    assert totals["criteria.classify"]["calls"] >= 3
    assert totals["cli.main"]["calls"] == 4
    assert totals["bench.op"]["created"] > 0
    assert tracer._restore == []
