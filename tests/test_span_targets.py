"""The benchmark's traced spans name functions that exist where it looks.

`benchmarks/tracing.py` wraps each (module, function) of SPAN_TARGETS in every
entlap module that binds the same function object, so a renamed or moved
kernel, or one that a module re-implements instead of importing, silently
drops out of the per-layer counts or breaks a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


SPAN_TARGETS = _span_targets()


@pytest.mark.parametrize("module, function", SPAN_TARGETS)
def test_span_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"entlap.{module}"), function))


@pytest.mark.parametrize("function", ["laplacian_of_density", "partial_transpose", "eigvals_sym",
                                      "graph_from_laplacian", "is_connected", "max_w"])
def test_states_binds_the_traced_kernel(function):
    (home,) = [module for module, name in SPAN_TARGETS if name == function]
    states = importlib.import_module("entlap.states")
    assert getattr(states, function) is getattr(importlib.import_module(f"entlap.{home}"), function)
