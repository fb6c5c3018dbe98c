"""Built-in state corpus with exact rational / radical entries.

Every state that the classifiers and the CLI reference by name is constructed
here, entry by entry, in exact arithmetic: rows of Fractions (psi: products of
Exact amplitudes) that `validate` takes as given.  It reads the float matrix
off them, and Exact scalars are built only when the state's `exact` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ParameterOutOfDomain, UnknownState
from .exact import Exact
from .matops import BipartiteDims
from .states import DensityMatrix, validate

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


# -- builders ----------------------------------------------------------


def build_psi() -> DensityMatrix:
    """Two-qubit pure state with amplitudes (1/2, 1/2, 1/4, sqrt(7)/4)."""
    amps = np.array([Exact.of(F(1, 2)), Exact.of(F(1, 2)), Exact.of(F(1, 4)), Exact.radical(F(1, 4), 7)],
                    dtype=object)
    return validate(np.multiply.outer(amps, amps), BipartiteDims(2, 2))


def build_rho1() -> DensityMatrix:
    """2x4 mixed state: uniform 1/8 diagonal with sparse 1/81 and 1/8 coherences."""
    n, e = 8, F(1, 81)
    rows = [[F(1, 8) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i, j, v in [(0, 4, e), (0, 7, e), (1, 6, e), (2, 5, F(1, 8)), (3, 4, e), (3, 7, e)]:
        rows[i][j] = rows[j][i] = v
    return validate(rows, BipartiteDims(2, 4))


def build_rho_ab(x) -> DensityMatrix:
    """2x2 state diag(0.1, 0.2, 0.4, 0.3) with inner-block coherence x.

    PSD up to x = sqrt(0.08) = 0.2828...; the published domain endpoint 0.283
    overshoots that by 1.5e-4, hence the relaxed validation tolerance.
    """
    xf = _to_fraction(x)
    rows = [[F(1, 10), 0, 0, 0], [0, F(1, 5), xf, 0], [0, xf, F(2, 5), 0], [0, 0, 0, F(3, 10)]]
    return validate(rows, BipartiteDims(2, 2), tol=5e-4)


def build_rho2() -> DensityMatrix:
    """2x4 separable full-rank state: uniform 1/8 diagonal with four 1/81 coherences."""
    n, e = 8, F(1, 81)
    rows = [[F(1, 8) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i, j in [(0, 4), (0, 7), (3, 4), (3, 7)]:
        rows[i][j] = rows[j][i] = e
    return validate(rows, BipartiteDims(2, 4))


def build_rho3() -> DensityMatrix:
    """2x2 NPT entangled state with all entries in tenths (complete coherence graph)."""
    t = [[4, 2, 1, 1], [2, 3, 2, 1], [1, 2, 2, 1], [1, 1, 1, 1]]
    rows = [[F(v, 10) for v in row] for row in t]
    return validate(rows, BipartiteDims(2, 2))


def build_rho5() -> DensityMatrix:
    """2x2 separable full-rank state: 1/4 diagonal with three 1/20 coherences (path graph)."""
    rows = [[F(1, 4) if i == j else F(0) for j in range(4)] for i in range(4)]
    for i, j in [(0, 1), (0, 3), (2, 3)]:
        rows[i][j] = rows[j][i] = F(1, 20)
    return validate(rows, BipartiteDims(2, 2))


def build_rho6(a) -> DensityMatrix:
    """3x3 full-rank PPT family: N = 400a + 1, diagonal 50a except two
    (50a+1)/2 slots, coherences z = 1/100 and a."""
    af = _to_fraction(a)
    big_n = 400 * af + 1
    x = 50 * af
    y = (50 * af + 1) / 2
    z = F(1, 100)
    diag = [x, x, x, x, x, x, y, x, y]
    rows = [[diag[i] if i == j else F(0) for j in range(9)] for i in range(9)]
    for i, j, v in [(0, 1, z), (0, 8, af), (1, 4, z), (2, 3, z), (3, 7, z),
                    (4, 5, z), (4, 8, af), (5, 6, z), (6, 7, z)]:
        rows[i][j] = rows[j][i] = v
    rows = [[v / big_n for v in row] for row in rows]
    return validate(rows, BipartiteDims(3, 3))


# -- registry ----------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    dims: BipartiteDims
    parameter_name: str | None
    parameter_domain: tuple[float, float] | None
    description: str
    builder: Callable[..., DensityMatrix]


_ENTRIES = (
    CorpusEntry("psi", BipartiteDims(2, 2), None, None,
                "two-qubit pure state with amplitudes (1/2, 1/2, 1/4, sqrt(7)/4)", build_psi),
    CorpusEntry("rho1", BipartiteDims(2, 4), None, None,
                "2x4 mixed state: uniform 1/8 diagonal with sparse 1/81 and 1/8 coherences",
                build_rho1),
    CorpusEntry("rho_ab", BipartiteDims(2, 2), "x", (0.0, 0.283),
                "2x2 family diag(0.1,0.2,0.4,0.3) with coherence x; NPT exactly for x > sqrt(3)/10",
                build_rho_ab),
    CorpusEntry("rho2", BipartiteDims(2, 4), None, None,
                "2x4 separable full-rank state: uniform 1/8 diagonal with four 1/81 coherences",
                build_rho2),
    CorpusEntry("rho3", BipartiteDims(2, 2), None, None,
                "2x2 NPT entangled state with all entries in tenths (complete coherence graph)",
                build_rho3),
    CorpusEntry("rho5", BipartiteDims(2, 2), None, None,
                "2x2 separable full-rank state: 1/4 diagonal with three 1/20 coherences",
                build_rho5),
    CorpusEntry("rho6", BipartiteDims(3, 3), "a", (0.01, 1.0),
                "3x3 full-rank PPT family over a in [0.01, 1] with N = 400a + 1", build_rho6),
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
    if entry.parameter_name is None:
        if parameter is not None:
            raise ParameterOutOfDomain(f"state {name!r} takes no parameter")
        return entry.builder()
    if parameter is None:
        raise ParameterOutOfDomain(f"state {name!r} requires parameter {entry.parameter_name!r}")
    try:
        p = _to_fraction(parameter)
    except ValueError:
        raise ParameterOutOfDomain(
            f"{entry.parameter_name} = {parameter!r} is not a finite number for state {name!r}") from None
    lo, hi = entry.parameter_domain
    if not (_to_fraction(lo) <= p <= _to_fraction(hi)):
        raise ParameterOutOfDomain(
            f"{entry.parameter_name} = {parameter} outside [{lo}, {hi}] for state {name!r}")
    return entry.builder(p)
