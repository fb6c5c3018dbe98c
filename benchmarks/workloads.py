"""The three workloads: seeded inputs, the op each one times, and the output check.

A workload's inputs for one run form a *pass*: a fixed list of ops that the
run repeats until its time is up.  `--seed` chooses which pool states (float
workloads) or which corpus parameters (exact_corpus) make up the pass; the
pools are fixed, so every op has a reference output recorded in
`reference.json` by `record_reference.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from benchenv import BENCH_DIR, import_entlap

entlap = import_entlap()
from entlap import cli as entlap_cli  # noqa: E402  (after the checkout-only import)

REFERENCE_PATH = BENCH_DIR / "reference.json"

# -- float workloads ---------------------------------------------------------

POOL_SEED = 220213963
POOL_PER_CLASS = 32
KINDS = ("dense", "rank2", "sparse_conn", "sparse_disc")
FLOAT_DIMS = {
    "float_small": ((2, 2), (2, 3), (3, 3)),  # the paper's iff dimensions
    "float_large": ((4, 8), (8, 8)),
}
# Pool states of each kind per dims in one pass: 2 dense, 2 rank-2, 2 sparse
# connected and 1 sparse disconnected, times a multiplier that gives each pass
# at least 100 ops, so a p90 over the ops of a pass has 10 ops beyond it.
# Latency differs by class; with this mix the median op of float_large falls
# inside the 4x8 rank-2 class and its p90 inside the 8x8 dense class, not on a
# class boundary where it would jump between two latencies from seed to seed.
BASE_MIX = {"dense": 2, "rank2": 2, "sparse_conn": 2, "sparse_disc": 1}
PASS_MULTIPLIER = {"float_small": 6, "float_large": 8}

# Output check tolerances for float scalars: |got - ref| <= ATOL + RTOL * |ref|.
SCALAR_RTOL = 1e-9
SCALAR_ATOL = 1e-12
# Independent Peres check: lambda_min(rho^TB) from plain numpy must agree to
# PERES_ATOL, and the oracle verdict must match when |lambda_min| > PERES_SURE.
PERES_ATOL = 1e-9
PERES_SURE = 1e-8
ORACLE_EPS = 1e-9  # classify's default decision band

# Properties behind the input-property shares.
RANK_TOL = 1e-9
EDGE_TOL = 1e-12


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _sparse_weights(rng, n: int, connected: bool) -> np.ndarray:
    """Complex off-diagonal weights on a random sparse graph.

    A random spanning tree on each part (one part if connected, two halves if
    not) plus n // 8 extra edges inside the parts, so the edge count depends
    only on n and connectivity.
    """
    order = rng.permutation(n)
    parts = [order] if connected else [order[: n // 2], order[n // 2:]]
    edges = set()
    for part in parts:
        for k in range(1, len(part)):
            edges.add(frozenset((int(part[k]), int(part[rng.integers(k)]))))
    target = len(edges) + n // 8
    while len(edges) < target:
        part = parts[rng.integers(len(parts))]
        if len(part) > 2:
            i, j = rng.choice(part, 2, replace=False)
            edges.add(frozenset((int(i), int(j))))
    w = np.zeros((n, n), dtype=complex)
    for i, j in sorted(tuple(sorted(e)) for e in edges):
        w[i, j] = rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.random())
        w[j, i] = np.conj(w[i, j])
    return w


def make_state(d1: int, d2: int, kind: str, index: int) -> np.ndarray:
    """Pool state `index` of one (dims, kind) class; depends only on its arguments."""
    n = d1 * d2
    rng = np.random.default_rng((POOL_SEED, d1, d2, KINDS.index(kind), index))
    if kind == "dense":
        a = _complex_normal(rng, (n, 2 * n))  # 2n columns keep lambda_min well above the rank tolerance
        rho = a @ a.conj().T
    elif kind == "rank2":
        a = _complex_normal(rng, (n, 2))
        rho = a @ a.conj().T
    else:
        w = _sparse_weights(rng, n, connected=(kind == "sparse_conn"))
        rho = w + np.diag(np.abs(w).sum(axis=1) + rng.uniform(0.5, 1.5, n))  # diagonally dominant
    return rho / np.trace(rho).real


def float_key(d1: int, d2: int, kind: str, index: int) -> str:
    return f"{d1}x{d2}/{kind}/{index}"


# -- exact_corpus workload ---------------------------------------------------

CORPUS_STATES = ("psi", "rho1", "rho2", "rho3", "rho5", "rho_ab", "rho6")
PARAM_POOLS = {
    "rho_ab": ("0.01", "0.02", "0.04", "0.06", "0.08", "0.1", "0.12", "0.14",
               "0.16", "0.17", "0.18", "0.2", "0.22", "0.24", "0.26", "0.28"),
    "rho6": ("0.01", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3", "0.4",
             "0.5", "0.6", "0.7", "0.75", "0.8", "0.9", "0.95", "1"),
}
SETS_PER_PASS = 4  # 112 non-sweep calls per pass
SWEEPS = (
    ("sweep", "--state", "rho6", "--param-name", "a", "--from", "0.01", "--to", "1", "--steps", "200"),
    ("sweep", "--state", "rho_ab", "--param-name", "x", "--from", "0", "--to", "0.283", "--steps", "200"),
)


def matrix_file_name(state: str, param: str | None) -> str:
    return f"{state}.txt" if param is None else f"{state}-{param}.txt"


# -- ops ---------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One timed call.  `kind` is "float", "cli" or "sweep"."""

    kind: str
    key: str  # reference key
    label: str  # class of op, for per-class breakdowns
    array: np.ndarray | None = field(default=None, compare=False)
    dims: object = None
    argv: tuple[str, ...] = ()
    state: tuple[str, str | None] | None = None  # corpus state behind a cli op
    file: str | None = None  # matrix file path in argv, normalised out of the output


def _shuffled_tail(rng, items: list) -> list:
    """`items` with all but the first in a seeded random order.

    The ops of one class then run spread over the pass, so their runs sample
    the machine's speed over the whole run rather than over one short stretch
    of each pass.  The first op stays first, so that set-up time, which runs
    until it returns, ends with the same class of op on every seed.
    """
    return items[:1] + [items[1 + k] for k in rng.permutation(len(items) - 1)]


def _float_draws(workload: str, seed: int) -> list[tuple[int, int, str, int]]:
    """(d1, d2, kind, index) of each pool state in the pass, in pass order."""
    rng = np.random.default_rng(seed)
    mix = {kind: k * PASS_MULTIPLIER[workload] for kind, k in BASE_MIX.items()}
    draws = [(d1, d2, kind, int(index))
             for d1, d2 in FLOAT_DIMS[workload]
             for kind in KINDS
             for index in sorted(rng.choice(POOL_PER_CLASS, mix[kind], replace=False))]
    return _shuffled_tail(rng, draws)


def _float_op(d1: int, d2: int, kind: str, index: int) -> Op:
    return Op("float", float_key(d1, d2, kind, index), f"{d1}x{d2} {kind}",
              array=make_state(d1, d2, kind, index), dims=entlap.BipartiteDims(d1, d2))


def run_cli(argv) -> tuple[int, str]:
    """entlap.cli.main in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = entlap_cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def emit_matrix_file(state: str, param: str | None, work_dir) -> str:
    path = work_dir / matrix_file_name(state, param)
    argv = ["corpus", "emit", state] + (["--param", param] if param is not None else [])
    rc, _ = run_cli(argv + ["--out", str(path)])
    if rc != 0:
        raise RuntimeError(f"corpus emit {state} {param} exited {rc}")
    return str(path)


def corpus_ops(state: str, param: str | None, path: str) -> list[Op]:
    """The non-sweep CLI calls on one corpus state; `path` is its matrix file."""
    args = ["--state", state] + (["--param", param] if param is not None else [])
    ops = [Op("cli", " ".join(argv), f"{argv[0]} --state {state}", argv=argv, state=(state, param))
           for argv in (("classify", *args, "--json"), ("graph", *args), ("laplacian", *args))]
    ops.append(Op("cli", f"classify {matrix_file_name(state, param)} --json", f"classify file {state}",
                  argv=("classify", path, "--json"), state=(state, param), file=path))
    return ops


def sweep_ops() -> list[Op]:
    return [Op("sweep", " ".join(argv), f"sweep {argv[2]}", argv=argv) for argv in SWEEPS]


def _corpus_pass(seed: int, work_dir) -> list[Op]:
    rng = np.random.default_rng(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    ops = []
    for _ in range(SETS_PER_PASS):
        params = {s: str(rng.choice(pool)) for s, pool in PARAM_POOLS.items()}
        for state in CORPUS_STATES:
            param = params.get(state)
            if (state, param) not in files:
                files[state, param] = emit_matrix_file(state, param, work_dir)
            ops += corpus_ops(state, param, files[state, param])
    return _shuffled_tail(rng, ops + sweep_ops())


def make_pass(workload: str, seed: int, work_dir) -> list[Op]:
    if workload == "exact_corpus":
        return _corpus_pass(seed, work_dir)
    return [_float_op(*draw) for draw in _float_draws(workload, seed)]


def first_op(workload: str, seed: int, work_dir) -> Op:
    """The pass's first op, with the set-up its workload needs and no more.

    A float workload's other states are benchmark input, not program set-up,
    so only the first is generated.  exact_corpus writes its matrix files with
    `corpus emit`, which is part of its set-up.
    """
    if workload == "exact_corpus":
        return _corpus_pass(seed, work_dir)[0]
    return _float_op(*_float_draws(workload, seed)[0])


def run_op(op: Op):
    """The timed call: classify(validate(array)) or one entlap.cli.main call."""
    if op.kind == "float":
        return entlap.classify(entlap.validate(op.array, op.dims))
    return run_cli(op.argv)


# -- output check ------------------------------------------------------------


def report_summary(report) -> list:
    """What the float check compares: oracle verdict and lambda, flags, verdicts, scalars."""
    return [
        report.oracle_verdict,
        float(report.oracle_lambda_min_ptb),
        [c.value for c in report.consistency_flags],
        [[r.criterion_id.value, r.verdict.value, {k: float(v) for k, v in r.scalars.items()}]
         for r in report.results],
    ]


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= SCALAR_ATOL + SCALAR_RTOL * abs(ref)


def compare_summary(got: list, ref: list) -> str | None:
    """None if `got` matches the reference summary, else what differs."""
    if got[0] != ref[0]:
        return f"oracle verdict {got[0]} != {ref[0]}"
    if not _close(got[1], ref[1]):
        return f"oracle lambda {got[1]!r} != {ref[1]!r}"
    if got[2] != ref[2]:
        return f"consistency flags {got[2]} != {ref[2]}"
    if [c[:2] for c in got[3]] != [c[:2] for c in ref[3]]:
        return f"verdicts {[c[:2] for c in got[3]]} != {[c[:2] for c in ref[3]]}"
    for (cid, _, scalars), (_, _, ref_scalars) in zip(got[3], ref[3]):
        if scalars.keys() != ref_scalars.keys():
            return f"{cid} scalar names {sorted(scalars)} != {sorted(ref_scalars)}"
        for name, value in scalars.items():
            if not _close(value, ref_scalars[name]):
                return f"{cid} {name} {value!r} != {ref_scalars[name]!r}"
    return None


def partial_transpose_np(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    n = d1 * d2
    return rho.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1).reshape(n, n)


def peres_check(op: Op, summary: list) -> str | None:
    """Independent Peres test: lambda_min(rho^TB) recomputed with plain numpy."""
    rho = op.array
    h = (rho + rho.conj().T) / 2
    lam = float(np.linalg.eigvalsh(partial_transpose_np(h, op.dims.d1, op.dims.d2))[0])
    if abs(summary[1] - lam) > PERES_ATOL:
        return f"oracle lambda {summary[1]!r} != numpy {lam!r}"
    if abs(lam) > PERES_SURE and summary[0] != ("NPT" if lam < -ORACLE_EPS else "PPT"):
        return f"oracle verdict {summary[0]} disagrees with numpy lambda_min {lam!r}"
    return None


def output_digest(op: Op, text: str) -> str:
    if op.file is not None:
        text = text.replace(op.file, op.file.rsplit("/", 1)[-1])
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Checker:
    """Compares op results with the recorded reference; caches per input."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._peres: dict[str, str | None] = {}

    def check(self, op: Op, result) -> str | None:
        if isinstance(result, BaseException):
            return f"raised {type(result).__name__}: {result}"
        if op.kind == "float":
            summary = report_summary(result)
            problem = compare_summary(summary, self.reference["float"][op.key])
            if problem is None and op.key not in self._peres:
                self._peres[op.key] = peres_check(op, summary)
            return problem or self._peres[op.key]
        rc, text = result
        ref = self.reference["cli"][op.key]
        if rc != ref["rc"]:
            return f"exit code {rc} != {ref['rc']}"
        if output_digest(op, text) != ref["sha256"]:
            return f"output differs from reference ({len(text.encode())} bytes, reference {ref['bytes']})"
        return None


# -- input-property shares ---------------------------------------------------


def properties(rho: np.ndarray) -> dict:
    """n, rank deficiency, sparsity (at most half the off-diagonal pairs are edges), connectivity."""
    n = rho.shape[0]
    h = (rho + rho.conj().T) / 2
    adj = np.abs(h) > EDGE_TOL
    np.fill_diagonal(adj, False)
    seen = {0}
    stack = [0]
    while stack:
        for v in np.flatnonzero(adj[stack.pop()]):
            if int(v) not in seen:
                seen.add(int(v))
                stack.append(int(v))
    return {
        "n": n,
        "rank_deficient": int(np.sum(np.linalg.eigvalsh(h) > RANK_TOL)) < n,
        "sparse": bool(adj.sum() / 2 <= n * (n - 1) / 4),
        "disconnected": len(seen) < n,
    }


def _items(op: Op, result) -> list[np.ndarray]:
    """The states an op evaluates: its input, or every row of a sweep."""
    if op.kind == "float":
        return [op.array]
    if op.kind == "cli":
        return [entlap.corpus.build(op.state[0], op.state[1]).array]
    if isinstance(result, BaseException):
        return []
    _, text = result
    state = op.argv[2]
    return [entlap.corpus.build(state, float(line.split(",", 1)[0])).array
            for line in text.splitlines()[1:]]


def shares(ops: list[Op], results: list) -> dict:
    """Share of evaluated states by n and by each property, over one pass."""
    props = [properties(a) for op, res in zip(ops, results) for a in _items(op, res)]
    total = len(props)
    out = {"states": total}
    for n in sorted({p["n"] for p in props}):
        out[f"n={n}"] = sum(p["n"] == n for p in props) / total
    for name in ("rank_deficient", "sparse", "disconnected"):
        out[name] = sum(p[name] for p in props) / total
    return out
