"""Load gauge: a fixed computation timed between ops, to take other tenants' load out of op times.

On a shared machine the CPU time of the same op rises and falls with the load
that other tenants put on the caches and memory they share, over stretches of
seconds to minutes.  The gauge runs a fixed computation of about 3 ms every
`EVERY_S` seconds of a run: exact rational arithmetic, a few hundred small
Python objects and small symmetric eigensolves, the kinds of work entlap's ops
do.  It does not call entlap, so a change to entlap leaves it unchanged.

The median of its readings within `WINDOW_S` of an op run, over
`REFERENCE_S`, is the machine's *load* during that run: how much slower it
was than the quiet machine the benchmark was defined on.  An op run's adjusted
time is its CPU time divided by that load, an estimate of its CPU time there.
`REFERENCE_S` is a constant, not the fastest reading of each run, because the
fastest of a run's few hundred readings itself varies by a few percent.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

EVERY_S = 0.05  # wall seconds between readings; they take 3% to 9% of a run
WINDOW_S = 1.0  # readings this close to an op run give its load
MIN_READINGS = 5  # fewer in the window: widen it to the nearest ones
# The gauge's fastest readings on the 2-vCPU virtual machine the benchmark was
# defined on (Linux x86_64, Python 3.11, numpy 2.4, OpenBLAS with 1 thread)
# were 2.94 to 3.39 ms, one fastest reading per 30 s run.
REFERENCE_S = 3.0e-3

_rng = np.random.default_rng(20220228)
_FLOATS = [float(x) for x in _rng.uniform(0.01, 1.0, 600)]
_SYM = _rng.standard_normal((32, 32))
_SYM = _SYM + _SYM.T
_SYM8 = _SYM[:8, :8].copy()


def reference_work():
    """The gauge's fixed computation."""
    total, best = Fraction(0), None
    for x in _FLOATS[:150]:
        total += Fraction(x)
        if best is None or total > best:
            best = total
    objects = {i: (Fraction(x), [x, -x]) for i, x in enumerate(_FLOATS)}
    for i in range(0, len(_FLOATS), 3):
        total += objects[i][0]
    acc = 0.0
    for _ in range(15):
        acc += float(np.linalg.eigvalsh(_SYM)[0]) + float(np.linalg.eigvalsh(_SYM8)[0])
    return best, total, acc


class LoadGauge:
    """Readings of `reference_work`, in CPU seconds, at wall-clock times."""

    def __init__(self, every_s: float = EVERY_S, reference_s: float = REFERENCE_S):
        self.every_s = every_s
        self.reference_s = reference_s
        self.times: list[float] = []  # perf_counter midpoint of each reading
        self.readings: list[float] = []  # CPU seconds of each reading
        self._last = float("-inf")

    def run_due(self) -> None:
        """Take a reading if `every_s` have passed since the last one."""
        if time.perf_counter() - self._last >= self.every_s:
            self.read()

    def read(self) -> None:
        w0 = time.perf_counter()
        c0 = time.process_time()
        reference_work()
        cpu = time.process_time() - c0
        self._last = time.perf_counter()
        self.times.append((w0 + self._last) / 2)
        self.readings.append(cpu)

    def load(self, start: float, end: float) -> float:
        """Median reading within WINDOW_S of [start, end], over the reference reading."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_READINGS and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return statistics.median(self.readings[lo:hi]) / self.reference_s

    def adjust(self, latencies: list[float], spans: list[tuple[float, float]]) -> list[float]:
        """Each op run's CPU time divided by the load during it."""
        return [t / self.load(*span) for t, span in zip(latencies, spans)]

    def summary(self) -> dict:
        median = statistics.median(self.readings)
        return {"readings": len(self.readings), "fastest_ms": 1e3 * min(self.readings),
                "median_ms": 1e3 * median, "reference_ms": 1e3 * self.reference_s,
                "median_load": median / self.reference_s}
