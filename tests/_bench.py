"""`benchmarks/workloads.py`, loaded once and read only: the benchmark's ops,
pool states and reference outputs, for the tests that check them."""

import importlib.util
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_workloads():
    """benchmarks/workloads.py, which imports its sibling benchenv as a top-level module."""
    sys.path.insert(0, str(_BENCH))
    try:
        spec = importlib.util.spec_from_file_location("_bench_workloads", _BENCH / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH))
    return module


wl = _load_workloads()


def pool_keys():
    """(d1, d2, kind, index) of every float pool state, in both float workloads."""
    return [(d1, d2, kind, index) for dims in wl.FLOAT_DIMS.values() for d1, d2 in dims
            for kind in wl.KINDS for index in range(wl.POOL_PER_CLASS)]
