"""Every output the benchmark records is still produced, as the benchmark checks it.

`benchmarks/record_reference.py` records one reference output per op the
benchmark can draw: `classify` on each of the 640 float pool states, and each
exact-corpus CLI call (`classify`, `graph`, `laplacian` on every corpus state
and pooled parameter, `classify` of its matrix file, and the two 200-step
sweeps).  Here each of those ops runs through `workloads.run_op` and is
checked by `workloads.Checker` against `benchmarks/reference.json`, so a
change to any verdict, scalar, flag or CLI byte fails tier-1 without a
benchmark run.  `benchmarks/` is loaded, not modified.
"""

import pytest

from _bench import wl

REFERENCE = wl.load_reference()


def _float_ops():
    ops = []
    for key in REFERENCE["float"]:
        dims, kind, index = key.split("/")
        d1, d2 = map(int, dims.split("x"))
        ops.append(wl.Op("float", key, key, array=wl.make_state(d1, d2, kind, int(index)),
                         dims=wl.entlap.BipartiteDims(d1, d2)))
    return ops


def _cli_ops(work_dir):
    return [op for state in wl.CORPUS_STATES for param in wl.PARAM_POOLS.get(state, (None,))
            for op in wl.corpus_ops(state, param, wl.emit_matrix_file(state, param, work_dir))] + wl.sweep_ops()


@pytest.mark.parametrize("section", ["float", "cli"])
def test_every_recorded_output(section, tmp_path):
    ops = _float_ops() if section == "float" else _cli_ops(tmp_path)
    assert sorted(op.key for op in ops) == sorted(REFERENCE[section])  # every recorded op, once
    checker = wl.Checker(REFERENCE)
    problems = {op.key: problem for op in ops if (problem := checker.check(op, wl.run_op(op)))}
    assert not problems
