"""Built-in state corpus with exact rational / radical entries.

Every state that the classifiers and the CLI reference by name is constructed
here in exact arithmetic.  A state or family is a fixed int index pattern
(n x n) over a short tuple of its distinct values, slot 0 zero: rho6's 81
entries are five values (0, x, y, z, w), and psi's 16 are seven (0, 1/4, 1/8,
sqrt(7)/8, 1/16, sqrt(7)/16, 7/16), placed by its pattern.  Each value is
given once, as ints: (n, d) for n/d, or (n, d, k) for (n/d)*sqrt(k).  Its
float is n / d * sqrt(k), bit for bit the float of that value as an Exact.
A family reads its parameter as an exact ratio (p, q) of ints, checks it
against its domain by integer cross-multiplication, and gives its values
from (p, q).  The corpus places the floats by the pattern and `validate`
takes that float matrix; each value is built once per state as an Exact, the
first time the state's `exact` entries are read, and placed the same way, so
entries that share a slot share one Exact.
`build_stack` validates a family at many parameters as one stack of states:
the (b, k) values of its states under the family's one pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParameterOutOfDomain, UnknownState
from .exact import Exact
from .matops import BipartiteDims
from .states import DEFAULT_TOL, DensityMatrix, validate


def _ratio(value) -> tuple[int, int]:
    """`value` as the ratio (p, q) of ints in lowest terms, q > 0, of its exact
    value.  A float is read as its shortest decimal repr, so 0.1 is 1/10, not
    the raw binary; ValueError or OverflowError when it is not finite."""
    if isinstance(value, float):
        return Decimal(str(value)).as_integer_ratio()
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    if isinstance(value, str):
        return Fraction(value).as_integer_ratio()
    raise TypeError(f"unsupported parameter type {type(value)!r}")


def _pattern(diagonal, coherences) -> np.ndarray:
    """A read-only index pattern: slot diagonal[i] at (i, i), slot v at (i, j)
    and (j, i) for each (i, j, v) of `coherences`, and slot 0 elsewhere."""
    p = np.diag(diagonal)
    for i, j, v in coherences:
        p[i, j] = p[j, i] = v
    p.setflags(write=False)
    return p


# -- values ------------------------------------------------------------
# Each state's distinct values as (n, d) or (n, d, k), given a family's
# parameter as its ratio (p, q), in the slots its pattern places them from.


# psi: the two-qubit pure state with amplitudes (1/2, 1/2, 1/4, sqrt(7)/4),
# their outer product: slots 1/4, 1/8, sqrt(7)/8, 1/16, sqrt(7)/16 and 7/16.
_PSI = _pattern([1, 1, 4, 6], [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 2), (1, 3, 3), (2, 3, 5)])
# rho1: 2x4, uniform 1/8 diagonal with sparse 1/81 and 1/8 coherences.
_RHO1 = _pattern([1] * 8, [(0, 4, 2), (0, 7, 2), (1, 6, 2), (2, 5, 1), (3, 4, 2), (3, 7, 2)])
# rho2: 2x4, uniform 1/8 diagonal with four 1/81 coherences.
_RHO2 = _pattern([1] * 8, [(0, 4, 2), (0, 7, 2), (3, 4, 2), (3, 7, 2)])
# rho3: 2x2, every entry in tenths, the complete coherence graph; slot v is v/10.
_RHO3 = _pattern([4, 3, 2, 1], [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 2), (1, 3, 1), (2, 3, 1)])
# rho5: 2x2, 1/4 diagonal with three 1/20 coherences (a path graph).
_RHO5 = _pattern([1] * 4, [(0, 1, 2), (0, 3, 2), (2, 3, 2)])
# rho_ab: diag(0.1, 0.2, 0.4, 0.3) with inner-block coherence x in slot 5.
_RHO_AB = _pattern([1, 2, 3, 4], [(1, 2, 5)])
# rho6: diagonal x except two y slots, coherences z and w.
_RHO6 = _pattern([1, 1, 1, 1, 1, 1, 2, 1, 2],
                 [(0, 1, 3), (0, 8, 4), (1, 4, 3), (2, 3, 3), (3, 7, 3),
                  (4, 5, 3), (4, 8, 4), (5, 6, 3), (6, 7, 3)])

_EIGHTHS = ((0, 1), (1, 8), (1, 81))  # rho1 and rho2
_TENTHS = ((0, 1), (1, 10), (1, 5), (3, 10), (2, 5))  # rho3
_RHO_AB_DIAGONAL = ((0, 1), (1, 10), (1, 5), (2, 5), (3, 10))


def _rho_ab_values(p: int, q: int):
    """rho_ab at coherence x = p/q.

    PSD up to x = sqrt(0.08) = 0.2828...; the published domain endpoint 0.283
    overshoots that by 1.5e-4, hence the relaxed validation tolerance.
    """
    return _RHO_AB_DIAGONAL + ((p, q),)


def _rho6_values(p: int, q: int):
    """rho6 at a = p/q: N = 400a + 1, diagonal 50a except two (50a+1)/2 slots,
    coherences z = 1/100 and a, all over N.

    With m = 400p + q = qN: 50a/N = 50p/m, (50a+1)/2N = (50p+q)/2m, z/N =
    q/100m and a/N = p/m.
    """
    m = 400 * p + q
    return (0, 1), (50 * p, m), (50 * p + q, 2 * m), (q, 100 * m), (p, m)


# -- registry ----------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """A corpus state or family: `values` gives its distinct values as (n, d)
    for n/d or (n, d, k) for (n/d)*sqrt(k) (taking a family's parameter as
    its ratio (p, q)), which `pattern` places.  Validated with `tol`."""

    name: str
    dims: BipartiteDims
    parameter_name: str | None
    parameter_domain: tuple[float, float] | None
    description: str
    values: Callable[..., tuple]
    pattern: np.ndarray = field(repr=False, compare=False)
    tol: float = DEFAULT_TOL

    @cached_property
    def _bounds(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The parameter domain as exact decimal ratios."""
        return tuple(map(_ratio, self.parameter_domain))

    def exact_at(self, ratio: tuple[int, int] | None) -> list[Exact]:
        """The values at the parameter p/q of `ratio` (p, q), or a fixed state's at None, as Exact scalars."""
        return [Exact.radical(Fraction(n, d), *k) if k else Exact.of(Fraction(n, d))
                for n, d, *k in self.values(*ratio or ())]

    def floats_at(self, ratio: tuple[int, int] | None) -> list[float]:
        """The floats of `exact_at(ratio)`, bit for bit: int true division rounds
        correctly, as float(Fraction) does, and an Exact's float is float(n/d) * sqrt(k)."""
        # indexed, not unpacked as (n, d, *k): a sweep builds its floats point by point
        return [v[0] / v[1] if len(v) == 2 else v[0] / v[1] * math.sqrt(v[2]) for v in self.values(*ratio or ())]


_ENTRIES = (
    CorpusEntry("psi", BipartiteDims(2, 2), None, None,
                "two-qubit pure state with amplitudes (1/2, 1/2, 1/4, sqrt(7)/4)",
                lambda: ((0, 1), (1, 4), (1, 8), (1, 8, 7), (1, 16), (1, 16, 7), (7, 16)), _PSI),
    CorpusEntry("rho1", BipartiteDims(2, 4), None, None,
                "2x4 mixed state: uniform 1/8 diagonal with sparse 1/81 and 1/8 coherences",
                lambda: _EIGHTHS, _RHO1),
    CorpusEntry("rho_ab", BipartiteDims(2, 2), "x", (0.0, 0.283),
                "2x2 family diag(0.1,0.2,0.4,0.3) with coherence x; NPT exactly for x > sqrt(3)/10",
                _rho_ab_values, _RHO_AB, tol=5e-4),
    CorpusEntry("rho2", BipartiteDims(2, 4), None, None,
                "2x4 separable full-rank state: uniform 1/8 diagonal with four 1/81 coherences",
                lambda: _EIGHTHS, _RHO2),
    CorpusEntry("rho3", BipartiteDims(2, 2), None, None,
                "2x2 NPT entangled state with all entries in tenths (complete coherence graph)",
                lambda: _TENTHS, _RHO3),
    CorpusEntry("rho5", BipartiteDims(2, 2), None, None,
                "2x2 separable full-rank state: 1/4 diagonal with three 1/20 coherences",
                lambda: ((0, 1), (1, 4), (1, 20)), _RHO5),
    CorpusEntry("rho6", BipartiteDims(3, 3), "a", (0.01, 1.0),
                "3x3 full-rank PPT family over a in [0.01, 1] with N = 400a + 1", _rho6_values, _RHO6),
)


def list_entries() -> tuple[CorpusEntry, ...]:
    """Deterministic corpus listing."""
    return _ENTRIES


def get_entry(name: str) -> CorpusEntry:
    for entry in _ENTRIES:
        if entry.name == name:
            return entry
    raise UnknownState(f"unknown state {name!r}; known: {', '.join(e.name for e in _ENTRIES)}")


def build(name: str, parameter=None) -> DensityMatrix:
    """Build a corpus state by name, checking the parameter domain."""
    entry = get_entry(name)
    return _validate(entry, [_ratio_in_domain(entry, parameter)], one=True)


def build_stack(name: str, parameters) -> DensityMatrix:
    """The states of family `name` at each of `parameters`, validated as one
    stack: slice k of each of its values is that of `build(name, parameters[k])`.

    Each parameter is checked against the domain, and the stack raises the
    error that building its states one by one, in order, raises first.
    """
    entry = get_entry(name)
    ratios = []
    for parameter in parameters:
        try:
            ratios.append(_ratio_in_domain(entry, parameter))
        except ParameterOutOfDomain:
            if ratios:  # an earlier state's validation error comes first
                _validate(entry, ratios)
            raise
    return _validate(entry, ratios)


def _validate(entry: CorpusEntry, ratios: list, one: bool = False) -> DensityMatrix:
    """The stack of the entry's states at `ratios`, or with `one` the state at
    ratios[0]: validated from their float values, with their exact values
    built from the ratios only when their exact entries are first read."""
    rows = 0 if one else slice(None)

    def place(values):
        # take, unlike values[..., pattern], lays out each state's matrix contiguously,
        # so a stack's kernels add up each state's entries in the order they do alone
        return np.take(values[rows], entry.pattern, axis=-1)

    return validate(place(np.array([entry.floats_at(r) for r in ratios])), entry.dims, tol=entry.tol,
                    exact_values=lambda: place(np.array([entry.exact_at(r) for r in ratios], dtype=object)))


def _ratio_in_domain(entry: CorpusEntry, parameter) -> tuple[int, int] | None:
    """The entry's parameter as a ratio (p, q), checked against its domain;
    None for a state without a parameter."""
    name = entry.name
    if entry.parameter_name is None:
        if parameter is not None:
            raise ParameterOutOfDomain(f"state {name!r} takes no parameter")
        return None
    if parameter is None:
        raise ParameterOutOfDomain(f"state {name!r} requires parameter {entry.parameter_name!r}")
    try:
        p, q = _ratio(parameter)
    except (ValueError, OverflowError):
        raise ParameterOutOfDomain(
            f"{entry.parameter_name} = {parameter!r} is not a finite number for state {name!r}") from None
    (lo_p, lo_q), (hi_p, hi_q) = entry._bounds
    if not (lo_p * q <= p * lo_q and p * hi_q <= hi_p * q):  # lo <= p/q <= hi, every q positive
        lo, hi = entry.parameter_domain
        raise ParameterOutOfDomain(
            f"{entry.parameter_name} = {parameter} outside [{lo}, {hi}] for state {name!r}")
    return p, q
