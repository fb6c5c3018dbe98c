"""Run one entlap benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload float_small --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

With --trace 0 a run measures the end-to-end metrics with tracing off.  With
--trace 1 it alternates untraced and traced passes over the same ops, and
reports the per-layer metrics and the tracing overhead.
Op times are CPU time divided by the machine's load during the op, which a
load gauge (loadgauge.py) measures between ops; README.md explains why.
Metric names and units are read from BENCHMARK.json at the repository root.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `--workload all` runs every workload untraced and then
traced, each in its own process.  README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from benchenv import (BENCH_DIR, OUT_DIR, PROBE_WORK_DIR, ROOT, WORK_DIR, child_env, environment,
                      pin_blas_threads)

pin_blas_threads()
import numpy as np  # noqa: E402  (after the BLAS thread pin)

import tracing  # noqa: E402
from loadgauge import LoadGauge  # noqa: E402

SETUP_RUNS = 15
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 600
WORKLOAD_NAMES = ("float_small", "float_large", "exact_corpus")
# Functions whose call counts are reported as per-layer metrics.
COUNTED = ("laplacian.laplacian_of_density", "matops.partial_transpose", "matops.eigvals_sym",
           "wgraph.graph_from_laplacian", "wgraph.max_w", "wgraph.is_connected")


@dataclass
class Phase:
    """What repeating one pass of ops recorded.

    Op times are process CPU time (`time.process_time`, all threads of the
    process).  Each workload is one caller on one thread with one BLAS thread,
    so on an idle machine this equals wall time; on a shared machine wall time
    also counts the time other tenants held the CPU.  `spans` give the wall
    clock of each op run, where a `LoadGauge` looks up the load during it.
    Results are checked as they arrive and not kept, except those of the
    first pass, which give the input-property shares and the sweep row counts.
    """

    latencies: list = field(default_factory=list)  # CPU seconds, one per op run
    spans: list = field(default_factory=list)  # (start, end) perf_counter, one per op run
    indices: list = field(default_factory=list)  # op index within the pass, one per op run
    failures: list = field(default_factory=list)  # "key: problem", one per failed op run
    first_results: list = field(default_factory=list)
    passes: int = 0  # completed passes

    def extend(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.spans += other.spans
        self.indices += other.indices
        self.failures += other.failures
        self.first_results = self.first_results or other.first_results
        self.passes += other.passes

    def times(self, gauge: LoadGauge | None) -> list[float]:
        """Each op run's CPU time, divided by the load during it if a gauge is given."""
        return self.latencies if gauge is None else gauge.adjust(self.latencies, self.spans)

    def typical(self, gauge: LoadGauge | None) -> dict[int, float]:
        """Each op's median run, over all its runs in the phase."""
        runs: dict[int, list[float]] = {}
        for t, i in zip(self.times(gauge), self.indices):
            runs.setdefault(i, []).append(t)
        return {i: statistics.median(ts) for i, ts in runs.items()}


class SetupProbe:
    """Set-up time from fresh interpreters, each running `first_op.py`.

    The probes are spread evenly over the run's measuring time, which does not
    count the time they take.  Readings are process CPU time, divided like the
    op times by the load the gauge measured around each probe, and each metric
    is the median probe.
    """

    def __init__(self, workload: str, seed: int, seconds: float, runs: int = SETUP_RUNS):
        self.argv = [sys.executable, str(BENCH_DIR / "first_op.py"), workload, str(seed)]
        self.runs = runs
        self.interval = seconds / runs
        self.setup: list[float] = []  # CPU seconds from process start to first op returned
        self.imports: list[float] = []  # CPU seconds of `import entlap`
        self.spans: list[tuple[float, float]] = []  # perf_counter start and end of each probe
        self.spent = 0.0  # wall seconds spent in probes
        self.start = time.perf_counter()

    def run_due(self) -> None:
        """Run the next probe if its turn has come."""
        due = len(self.setup) * self.interval
        if len(self.setup) < self.runs and _measured_s(self.start, self, 0.0) >= due:
            self._run()

    def _run(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        t1 = time.perf_counter()
        self.spent += t1 - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup.append(stamps["first_op_s"])
        self.imports.append(stamps["entlap_s"] - stamps["numpy_s"])
        self.spans.append((t0, t1))

    def finish(self, gauge: LoadGauge) -> dict:
        """Run any probes not yet run; the median readings over load, and all unadjusted readings."""
        while len(self.setup) < self.runs:
            self._run()
        setup = gauge.adjust(self.setup, self.spans)
        imports = gauge.adjust(self.imports, self.spans)
        return {"setup_s": statistics.median(setup), "import_entlap_ms": 1e3 * statistics.median(imports),
                "setup_s_runs": self.setup, "import_entlap_s_runs": self.imports}


def _measured_s(start: float, probe, spent0: float) -> float:
    """Wall seconds since `start`, less those `probe` has spent in probes beyond `spent0`."""
    return time.perf_counter() - start - (probe.spent - spent0 if probe else 0.0)


def _timed(run_op, op):
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        res = run_op(op)
    except Exception as exc:  # a failed op is counted, not fatal
        res = exc
    return res, time.process_time() - c0, (w0, time.perf_counter())


def measure(ops, run_op, check, seconds: float, tracer=None, probe=None, gauge=None) -> Phase:
    """Closed loop, one caller: repeat the pass until `seconds` have elapsed, at least once.

    `check(op, result)` returns None or what is wrong; it runs outside the timed call.
    A `probe` runs its due set-up probes between ops, outside the `seconds`; a
    `gauge` takes its due readings between ops, inside them.
    """
    phase = Phase()
    start = time.perf_counter()
    spent0 = probe.spent if probe else 0.0
    while True:
        for i, op in enumerate(ops):
            if probe is not None:
                probe.run_due()
            if phase.passes and _measured_s(start, probe, spent0) >= seconds:
                return phase
            if gauge is not None:
                gauge.run_due()
            if tracer is None:
                res, cpu, span = _timed(run_op, op)
            else:
                with tracer.op(op.label):
                    res, cpu, span = _timed(run_op, op)
            phase.latencies.append(cpu)
            phase.spans.append(span)
            phase.indices.append(i)
            problem = check(op, res)
            if problem is not None:
                phase.failures.append(f"{op.key}: {problem}")
            if phase.passes == 0:
                phase.first_results.append(res)
        phase.passes += 1


def alternate(ops, run_op, check, seconds: float, tracer, probe=None,
              gauge=None) -> tuple[Phase, Phase]:
    """Untraced and traced passes in turn, so drift in machine speed hits both alike.

    A `probe` runs its due set-up probes during the untraced passes, outside the `seconds`.
    """
    untraced, traced = Phase(), Phase()
    start = time.perf_counter()
    spent0 = probe.spent if probe else 0.0
    while untraced.passes == 0 or _measured_s(start, probe, spent0) < seconds:
        untraced.extend(measure(ops, run_op, check, 0, probe=probe, gauge=gauge))
        tracer.install()
        try:
            traced.extend(measure(ops, run_op, check, 0, tracer, gauge=gauge))
        finally:
            tracer.uninstall()
    return untraced, traced


def end_to_end(ops, phase: Phase, setup: dict, gauge: LoadGauge | None = None) -> dict:
    """name -> {value, unit, alias, samples}; `alias` is the metric's name on this workload.

    Latency percentiles are over the ops of the pass, each op counting once
    with its median run.  The rate counts every run of the phase: results over
    the CPU time of the runs that produced them.  Times are CPU time, divided
    by the load during each run if a `gauge` is given.
    """
    times = phase.times(gauge)
    typical = phase.typical(gauge)
    timed = [i for i, op in enumerate(ops) if op.kind != "sweep"]
    lat_ms = [1e3 * typical[i] for i in timed]
    if ops[0].kind == "float":
        rate_samples = len(times)
        rate = rate_samples / sum(times)
        p_name, rate_name = "classify", "states_per_s"
    else:
        rows = {i: len(res[1].splitlines()) - 1 for i, res in enumerate(phase.first_results)
                if ops[i].kind == "sweep" and isinstance(res, tuple)}
        runs = [(rows[i], t) for t, i in zip(times, phase.indices) if i in rows]
        rate_samples = sum(r for r, _ in runs)
        rate = rate_samples / sum(t for _, t in runs)
        p_name, rate_name = "cli", "sweep_rows_per_s"
    return {
        "op_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms",
                      "alias": f"{p_name}_p50_ms", "samples": len(lat_ms)},
        "op_p90_ms": {"value": float(np.percentile(lat_ms, 90)), "unit": "ms",
                      "alias": f"{p_name}_p90_ms", "samples": len(lat_ms)},
        "results_per_s": {"value": rate, "unit": "1/s", "alias": rate_name,
                          "samples": rate_samples},
        "setup_s": {"value": setup["setup_s"], "unit": "s", "alias": "setup_s",
                    "samples": len(setup["setup_s_runs"])},
    }


def per_layer(tracer, untraced: Phase, traced: Phase, setup: dict, gauge: LoadGauge):
    """Per-op call counts and self times from the traced phase; also the per-label breakdown."""
    totals, by_label = tracing.aggregate(tracer)
    n_ops = len(tracer.ops)
    metrics = {}
    for mod, func in tracing.SPAN_TARGETS:
        name = f"{mod}.{func}"
        total = totals.get(name, {"calls": 0, "self_ns": 0})
        if name in COUNTED:
            metrics[f"{name}.calls"] = {"value": total["calls"] / n_ops, "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": total["self_ns"] / 1e6 / n_ops, "unit": "ms"}
    metrics[tracing.EXACT_CREATED] = {"value": totals[tracing.OP_SPAN]["created"] / n_ops,
                                      "unit": "count"}
    metrics["import.entlap_ms"] = {"value": setup["import_entlap_ms"], "unit": "ms"}
    traced_typ, untraced_typ = traced.typical(gauge), untraced.typical(gauge)
    overhead = 1e3 * statistics.fmean(traced_typ[i] - untraced_typ[i] for i in untraced_typ)
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    return metrics, by_label


def breakdown_lines(by_label: dict) -> list[str]:
    cols = COUNTED + ("criteria.classify",)
    short = ("laplacian", "ptrans", "eigvals", "graph", "max_w", "connected")
    lines = [f"  {'op class':<28} {'ops':>5} " + " ".join(f"{s:>9}" for s in short)
             + f" {'Exact/op':>9} {'in classify':>11}"]
    for label in sorted(by_label):
        row = by_label[label]
        k = row["ops"]
        counts = " ".join(f"{row.get(c, 0) / k:>9g}" for c in cols[:-1])
        lines.append(f"  {label:<28} {k:>5} {counts} {row[tracing.OP_SPAN + '.created'] / k:>9g}"
                     f" {row.get('criteria.classify.created', 0) / k:>11g}")
    return lines


def run_workload(args, spec: dict) -> int:
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    env = environment(args.workload, args.seed)
    work_dir = WORK_DIR / args.workload
    try:
        ops = workloads.make_pass(args.workload, args.seed, work_dir)
        check = workloads.Checker(reference).check
        probe = SetupProbe(args.workload, args.seed, args.seconds)
        gauge = LoadGauge()
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = alternate(ops, workloads.run_op, check, args.seconds, tracer, probe,
                                         gauge)
            phases = [untraced, traced]
        else:
            phases = [measure(ops, workloads.run_op, check, args.seconds, probe=probe, gauge=gauge)]
        setup = probe.finish(gauge)
        shares = workloads.shares(ops, phases[0].first_results)
    finally:
        for path in (work_dir, PROBE_WORK_DIR / args.workload):
            shutil.rmtree(path, ignore_errors=True)
        for path in (PROBE_WORK_DIR, WORK_DIR):
            if path.exists() and not any(path.iterdir()):
                path.rmdir()

    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.latencies) for p in phases)
    e2e = end_to_end(ops, phases[0], setup, gauge)
    raw = end_to_end(ops, phases[0], {**setup, "setup_s": statistics.median(setup["setup_s_runs"])})
    result = {"env": env, "seconds": args.seconds, "trace": args.trace, "ops_per_pass": len(ops),
              "passes": [p.passes for p in phases], "attempted": attempted,
              "failed": len(failures), "failed_frac": len(failures) / attempted,
              "failures": failures[:20], "shares": shares, "end_to_end": e2e,
              "end_to_end_unadjusted": raw, "gauge": gauge.summary(), "setup": setup}

    print(f"entlap benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items() if k not in ("workload", "seed")))
    print(f"inputs: {len(ops)} ops per pass, {shares['states']} states evaluated per pass; shares: "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares.items() if k != "states"))
    print(f"ops: {attempted} attempted, {len(failures)} failed, failed_frac "
          f"{len(failures) / attempted:.6g}, passes {result['passes']}")
    for line in failures[:5]:
        print(f"  FAILED {line}")
    g = result["gauge"]
    print(f"load gauge: {g['readings']} readings, fastest {g['fastest_ms']:.4g} ms, "
          f"median {g['median_ms']:.4g} ms, reference {g['reference_ms']:.4g} ms, "
          f"median load {g['median_load']:.4g}")
    print(f"{'untraced passes' if args.trace else 'end to end'} (CPU time over load; unadjusted CPU time):")
    for name, m in e2e.items():
        print(f"  {m['alias']:<18} {m['value']:>12.6g} {m['unit']:<4} {raw[name]['value']:>12.6g} "
              f"reported as {name}, n={m['samples']}")

    if args.trace:
        layers, by_label = per_layer(tracer, untraced, traced, setup, gauge)
        result["per_layer"] = layers
        result["by_label"] = by_label
        result["traced_end_to_end"] = end_to_end(ops, traced, setup, gauge)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        tracer.write(trace_path)
        print("traced passes (CPU time over load):")
        for name, m in result["traced_end_to_end"].items():
            if name != "setup_s":
                print(f"  {m['alias']:<18} {m['value']:>12.6g} {m['unit']:<4} (n={m['samples']})")
        print(f"per layer, per op ({len(tracer.ops)} traced ops, spans in {trace_path.relative_to(ROOT)}):")
        for name, m in layers.items():
            print(f"  {name:<40} {m['value']:>12.6g} {m['unit']}")
        print("calls per op by op class:")
        print("\n".join(breakdown_lines(by_label)))
        metrics_out, section = layers, "per_layer"
    else:
        metrics_out, section = e2e, "end_to_end"

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"result: {out_path.relative_to(ROOT)}")
    metrics = {m["name"]: {"value": metrics_out[m["name"]]["value"], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            last = json.loads(lines[-1])
            summary["correct"] &= last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            for name, m in last["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = m
            print()
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
