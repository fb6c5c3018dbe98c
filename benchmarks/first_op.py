"""Set-up probe: a fresh interpreter that prepares one workload and runs its first op.

    python3 benchmarks/first_op.py WORKLOAD SEED

Prints one JSON line of process CPU times, in seconds, read when `import numpy`
returned, when `import entlap` returned and when the first op returned.  The
process CPU time counts from process start, so it includes interpreter start-up.
"""

from __future__ import annotations

import json
import sys
import time

from benchenv import PROBE_WORK_DIR, import_entlap, pin_blas_threads

pin_blas_threads()
import numpy  # noqa: E402,F401  (timed on its own, before entlap)

numpy_s = time.process_time()
import_entlap()
entlap_s = time.process_time()

import workloads  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    op = workloads.first_op(workload, seed, PROBE_WORK_DIR / workload)
    result = workloads.run_op(op)
    first_op_s = time.process_time()
    if op.kind != "float" and result[0] != 0:
        print(f"first op exited {result[0]}", file=sys.stderr)
        return 1
    print(json.dumps({"numpy_s": numpy_s, "entlap_s": entlap_s, "first_op_s": first_op_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
