"""Built-in state corpus with exact rational / radical entries.

Every state that the classifiers and the CLI reference by name is constructed
here, entry by entry, in exact arithmetic: rows of Fractions and int zeros
(psi: products of Exact amplitudes) that `validate` takes as given.  It reads
the float matrix off them, and Exact scalars are built only when the state's
`exact` is read.  `build_stack` validates a family at many parameters as one
stack of states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParameterOutOfDomain, UnknownState
from .exact import Exact
from .matops import BipartiteDims
from .states import DEFAULT_TOL, DensityMatrix, validate

F = Fraction


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # str() gives the shortest decimal repr, so 0.1 -> 1/10, not the raw binary
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"unsupported parameter type {type(value)!r}")


# -- entries ------------------------------------------------------------
# Each family's exact entries, given its parameter (if any) as a Fraction.


def _psi_entries():
    """Two-qubit pure state with amplitudes (1/2, 1/2, 1/4, sqrt(7)/4)."""
    amps = np.array([Exact.of(F(1, 2)), Exact.of(F(1, 2)), Exact.of(F(1, 4)), Exact.radical(F(1, 4), 7)],
                    dtype=object)
    return np.multiply.outer(amps, amps)


def _rho1_entries():
    """2x4 mixed state: uniform 1/8 diagonal with sparse 1/81 and 1/8 coherences."""
    n, e = 8, F(1, 81)
    rows = [[F(1, 8) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i, j, v in [(0, 4, e), (0, 7, e), (1, 6, e), (2, 5, F(1, 8)), (3, 4, e), (3, 7, e)]:
        rows[i][j] = rows[j][i] = v
    return rows


_RHO_AB_DIAGONAL = (F(1, 10), F(1, 5), F(2, 5), F(3, 10))  # built once, shared by every x


def _rho_ab_entries(x: Fraction):
    """2x2 state diag(0.1, 0.2, 0.4, 0.3) with inner-block coherence x.

    PSD up to x = sqrt(0.08) = 0.2828...; the published domain endpoint 0.283
    overshoots that by 1.5e-4, hence the relaxed validation tolerance.
    """
    d1, d2, d3, d4 = _RHO_AB_DIAGONAL
    return [[d1, 0, 0, 0], [0, d2, x, 0], [0, x, d3, 0], [0, 0, 0, d4]]



def _rho2_entries():
    """2x4 separable full-rank state: uniform 1/8 diagonal with four 1/81 coherences."""
    n, e = 8, F(1, 81)
    rows = [[F(1, 8) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i, j in [(0, 4), (0, 7), (3, 4), (3, 7)]:
        rows[i][j] = rows[j][i] = e
    return rows


def _rho3_entries():
    """2x2 NPT entangled state with all entries in tenths (complete coherence graph)."""
    t = [[4, 2, 1, 1], [2, 3, 2, 1], [1, 2, 2, 1], [1, 1, 1, 1]]
    return [[F(v, 10) for v in row] for row in t]


def _rho5_entries():
    """2x2 separable full-rank state: 1/4 diagonal with three 1/20 coherences (path graph)."""
    rows = [[F(1, 4) if i == j else F(0) for j in range(4)] for i in range(4)]
    for i, j in [(0, 1), (0, 3), (2, 3)]:
        rows[i][j] = rows[j][i] = F(1, 20)
    return rows


def _rho6_entries(a: Fraction):
    """3x3 full-rank PPT family: N = 400a + 1, diagonal 50a except two
    (50a+1)/2 slots, coherences z = 1/100 and a, all over N.

    Each of the four distinct entries is built once, from a = p/q and
    m = 400p + q = qN: 50a/N = 50p/m, (50a+1)/2N = (50p+q)/2m, z/N = q/100m
    and a/N = p/m.  Every other entry is 0.
    """
    p, q = a.numerator, a.denominator
    m = 400 * p + q
    x, y, z, w = F(50 * p, m), F(50 * p + q, 2 * m), F(q, 100 * m), F(p, m)
    diag = [x, x, x, x, x, x, y, x, y]
    rows = [[diag[i] if i == j else 0 for j in range(9)] for i in range(9)]
    for i, j, v in [(0, 1, z), (0, 8, w), (1, 4, z), (2, 3, z), (3, 7, z),
                    (4, 5, z), (4, 8, w), (5, 6, z), (6, 7, z)]:
        rows[i][j] = rows[j][i] = v
    return rows


# -- registry ----------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """A corpus state or family: `entries` gives its exact entries (taking the
    parameter as a Fraction for a family), validated with `tol`."""

    name: str
    dims: BipartiteDims
    parameter_name: str | None
    parameter_domain: tuple[float, float] | None
    description: str
    entries: Callable[..., object]
    tol: float = DEFAULT_TOL

    @cached_property
    def _bounds(self) -> tuple[Fraction, Fraction]:
        """The parameter domain as exact decimals."""
        return tuple(map(_to_fraction, self.parameter_domain))


_ENTRIES = (
    CorpusEntry("psi", BipartiteDims(2, 2), None, None,
                "two-qubit pure state with amplitudes (1/2, 1/2, 1/4, sqrt(7)/4)", _psi_entries),
    CorpusEntry("rho1", BipartiteDims(2, 4), None, None,
                "2x4 mixed state: uniform 1/8 diagonal with sparse 1/81 and 1/8 coherences",
                _rho1_entries),
    CorpusEntry("rho_ab", BipartiteDims(2, 2), "x", (0.0, 0.283),
                "2x2 family diag(0.1,0.2,0.4,0.3) with coherence x; NPT exactly for x > sqrt(3)/10",
                _rho_ab_entries, tol=5e-4),
    CorpusEntry("rho2", BipartiteDims(2, 4), None, None,
                "2x4 separable full-rank state: uniform 1/8 diagonal with four 1/81 coherences",
                _rho2_entries),
    CorpusEntry("rho3", BipartiteDims(2, 2), None, None,
                "2x2 NPT entangled state with all entries in tenths (complete coherence graph)",
                _rho3_entries),
    CorpusEntry("rho5", BipartiteDims(2, 2), None, None,
                "2x2 separable full-rank state: 1/4 diagonal with three 1/20 coherences",
                _rho5_entries),
    CorpusEntry("rho6", BipartiteDims(3, 3), "a", (0.01, 1.0),
                "3x3 full-rank PPT family over a in [0.01, 1] with N = 400a + 1", _rho6_entries),
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
    return validate(_entries(entry, parameter), entry.dims, tol=entry.tol)


def build_stack(name: str, parameters) -> DensityMatrix:
    """The states of family `name` at each of `parameters`, validated as one
    stack: `stack[k]` is the state `build(name, parameters[k])` builds.

    Each parameter is checked against the domain, and the stack raises the
    error that building its states one by one, in order, raises first.
    """
    entry = get_entry(name)
    states = []
    for p in parameters:
        try:
            states.append(_entries(entry, p))
        except ParameterOutOfDomain:
            if states:  # an earlier state's validation error comes first
                validate(np.array(states, dtype=object), entry.dims, tol=entry.tol)
            raise
    return validate(np.array(states, dtype=object), entry.dims, tol=entry.tol)


def _entries(entry: CorpusEntry, parameter):
    """The entry's exact entries at `parameter`, checked against its domain."""
    name = entry.name
    if entry.parameter_name is None:
        if parameter is not None:
            raise ParameterOutOfDomain(f"state {name!r} takes no parameter")
        return entry.entries()
    if parameter is None:
        raise ParameterOutOfDomain(f"state {name!r} requires parameter {entry.parameter_name!r}")
    try:
        p = _to_fraction(parameter)
    except ValueError:
        raise ParameterOutOfDomain(
            f"{entry.parameter_name} = {parameter!r} is not a finite number for state {name!r}") from None
    if not entry._bounds[0] <= p <= entry._bounds[1]:
        lo, hi = entry.parameter_domain
        raise ParameterOutOfDomain(
            f"{entry.parameter_name} = {parameter} outside [{lo}, {hi}] for state {name!r}")
    return entry.entries(p)
