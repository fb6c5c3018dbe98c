"""Record the reference outputs that the benchmark checks every op against.

    python3 benchmarks/record_reference.py

Runs every op any seed can draw: classify on every float pool state, and
every exact_corpus CLI call on every pooled parameter.  It writes
`reference.json`.  The reference is the output of the code that defined the
benchmark, not of the paper, so it should only be re-recorded when a change
means to alter outputs, and that change then says so.
"""

from __future__ import annotations

import json
import shutil
import sys

from benchenv import WORK_DIR, pin_blas_threads

pin_blas_threads()
import workloads as wl  # noqa: E402


EXPECTED = {  # properties each kind is built to have
    "dense": {"rank_deficient": False, "sparse": False, "disconnected": False},
    "rank2": {"rank_deficient": True, "sparse": False, "disconnected": False},
    "sparse_conn": {"rank_deficient": False, "sparse": True, "disconnected": False},
    "sparse_disc": {"rank_deficient": False, "sparse": True, "disconnected": True},
}


def _rounded(summary: list) -> list:
    """13 significant digits: far inside the check's tolerance, and a smaller file."""
    def r(v: float) -> float:
        return float(f"{v:.13g}")

    verdict, lam, flags, criteria = summary
    return [verdict, r(lam), flags,
            [[cid, v, {k: r(x) for k, x in scalars.items()}] for cid, v, scalars in criteria]]


def float_reference() -> dict:
    out = {}
    for dims in wl.FLOAT_DIMS.values():
        for d1, d2 in dims:
            bd = wl.entlap.BipartiteDims(d1, d2)
            for kind in wl.KINDS:
                for index in range(wl.POOL_PER_CLASS):
                    rho = wl.make_state(d1, d2, kind, index)
                    props = wl.properties(rho)
                    if any(props[k] != v for k, v in EXPECTED[kind].items()):
                        raise RuntimeError(f"{wl.float_key(d1, d2, kind, index)} has {props}")
                    report = wl.entlap.classify(wl.entlap.validate(rho, bd))
                    out[wl.float_key(d1, d2, kind, index)] = _rounded(wl.report_summary(report))
    return out


def cli_reference(work_dir) -> dict:
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = [op for state in wl.CORPUS_STATES for param in wl.PARAM_POOLS.get(state, (None,))
           for op in wl.corpus_ops(state, param, wl.emit_matrix_file(state, param, work_dir))]
    out = {}
    for op in ops + wl.sweep_ops():
        rc, text = wl.run_op(op)
        if rc != 0:
            raise RuntimeError(f"{op.key} exited {rc}; the workload must not contain failing ops")
        out[op.key] = {"rc": rc, "sha256": wl.output_digest(op, text), "bytes": len(text.encode())}
    return out


def main() -> int:
    work_dir = WORK_DIR / "record_reference"
    try:
        reference = {"float": float_reference(), "cli": cli_reference(work_dir)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for s, section in enumerate(("float", "cli")):
            fh.write(f' "{section}": {{\n')
            items = list(reference[section].items())
            fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in items))
            fh.write("\n }" + ("," if s == 0 else "") + "\n")
        fh.write("}\n")
    print(f"wrote {len(reference['float'])} float and {len(reference['cli'])} cli references "
          f"to {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
