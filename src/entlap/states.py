"""Density-matrix validation, the per-state analysis record, and purity / mixedness functionals.

A validated `DensityMatrix` is the one record every criterion reads.  `validate`
takes the state's entries as given: a float or complex array, or an object
matrix of exact entries (int, Fraction or Exact), whose float matrix it reads
off once and whose entries it keeps.  It solves rho's spectrum once and stores
it.  Every other derived matrix and spectrum (L_rho, rho^TB, L^TB,
phi(rho) - I; the spectra of rho^TB, L, L + rho^TB, L^TB and phi(rho) - I;
det(phi(rho) - I)), the coherence graph's total degree, connectivity and max W,
and the exact entries as Exact scalars are cached properties, computed the
first time they are read.  Criteria called one after another on the same state
share that work, and a criterion computes only what it reads.  Every decision
quantity is floating point, also for exact inputs: the Laplacian and the graph
are read off the float matrix, and no criterion reads an Exact.  `literal` is
the one place that picks a state's exact entries over its float ones, for what
is printed (matrix files, the Laplacian and graph the CLI writes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import AxiomViolation, DimensionMismatch, StateValidationError
from .exact import Exact
from .laplacian import laplacian_of_density
from .matops import BipartiteDims, as_matrix, determinant, eigvals_sym, partial_transpose
from .wgraph import graph_from_laplacian, is_connected, max_w

DEFAULT_TOL = 1e-9
RANK_TOL = 1e-9


# An exact entry as an Exact scalar, elementwise over an object array; zeros share Exact.of's one zero.
_to_exact = np.frompyfunc(lambda v: v if isinstance(v, Exact) else Exact.of(v), 1, 1)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated Hermitian, unit-trace, PSD matrix with bipartite dimensions.

    `spectrum` is rho's ascending spectrum, solved once by `validate`.
    `entries` is the read-only object matrix of exact entries the state was
    validated from, or None for a float or complex input; `array` was read off
    it.  `exact` turns it into Exact scalars the first time it is read, and
    `literal` is `exact` when the state has it and `array` otherwise.  States
    compare by identity.  Construct via `validate()`.
    """

    array: np.ndarray
    dims: BipartiteDims
    spectrum: np.ndarray = field(repr=False)
    validation_tolerance: float = DEFAULT_TOL
    entries: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return self.spectrum

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The float matrix, so a state passes wherever an array is taken."""
        return np.array(self.array, dtype=dtype, copy=copy)

    @property
    def literal(self) -> np.ndarray:
        """The entries to print: `exact` when the state has exact entries, else `array`."""
        return self.array if self.exact is None else self.exact

    # Derived matrices, spectra (ascending) and graph scalars, each computed
    # on first read and kept; all but `exact` are float.
    exact = cached_property(lambda self: None if self.entries is None else _read_only(_to_exact(self.entries)))
    laplacian = cached_property(lambda self: laplacian_of_density(self.array))  # L_rho
    ptb = cached_property(lambda self: partial_transpose(self.array, self.dims))  # rho^TB
    lap_ptb = cached_property(lambda self: partial_transpose(self.laplacian, self.dims))  # L^TB
    phi_minus_i = cached_property(lambda self: self.laplacian + self.array - np.eye(self.n))
    spec_ptb = cached_property(lambda self: eigvals_sym(self.ptb))
    spec_lap = cached_property(lambda self: eigvals_sym(self.laplacian))
    spec_l_plus_ptb = cached_property(lambda self: eigvals_sym(self.laplacian + self.ptb))
    spec_lap_ptb = cached_property(lambda self: eigvals_sym(self.lap_ptb))
    spec_phi_minus_i = cached_property(lambda self: eigvals_sym(self.phi_minus_i))
    det_phi_minus_i = cached_property(lambda self: determinant(self.phi_minus_i))
    total_degree = cached_property(lambda self: float(np.trace(self.laplacian)))  # d_G = Tr L_rho
    graph = cached_property(lambda self: graph_from_laplacian(self.laplacian))
    connected = cached_property(lambda self: is_connected(self.graph))
    # wgraph.max_w (EXCLUDED convention), or None when the graph has no edges
    max_w = cached_property(lambda self: max_w(self.graph) if self.graph.edge_count() else None)


@dataclass(frozen=True)
class PurityReport:
    purity: float
    linear_entropy: float
    rank: int


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate(raw, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Validate `raw` as a density matrix, or raise StateValidationError.

    `raw` is a float or complex matrix, or an object matrix of exact entries
    (int, Fraction or Exact; any other entry is a TypeError), whose float
    matrix is read off once and whose entries the state keeps.  The violated
    axioms are listed in order: DimensionMismatch or NotHermitian alone, else
    TraceNotOne and NotPSD.  Hermiticity is enforced exactly by averaging with
    the conjugate transpose once the asymmetry is known to be below `tol`; the
    averaged matrix's spectrum decides PSD and is stored in the state.
    """
    a = np.asarray(raw)
    entries = None
    if a.dtype == object:
        bad = [type(v).__name__ for v in a.flat if not isinstance(v, (int, Fraction, Exact))]
        if bad:
            raise TypeError(f"exact entries must be int, Fraction or Exact, got {bad[0]}")
        entries = _read_only(a.copy())
        a = a.astype(float)
    a = as_matrix(a)
    if a.shape[0] != dims.n:
        raise StateValidationError([AxiomViolation("DimensionMismatch", float(a.shape[0] - dims.n))])
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > tol:
        raise StateValidationError([AxiomViolation("NotHermitian", asym)])
    h = (a + a.conj().T) / 2
    if not np.iscomplexobj(h):
        h = h.astype(float)
    violations: list[AxiomViolation] = []
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > tol:
        violations.append(AxiomViolation("TraceNotOne", tr))
    spectrum = np.linalg.eigvalsh(h)
    if spectrum[0] < -tol:
        violations.append(AxiomViolation("NotPSD", float(spectrum[0])))
    if violations:
        raise StateValidationError(violations)
    return DensityMatrix(array=_read_only(h), dims=dims, spectrum=_read_only(spectrum),
                         validation_tolerance=tol, entries=entries)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    a = rho.array
    return float(np.trace(a @ a).real)


def linear_entropy(rho: DensityMatrix) -> float:
    """Mixedness on [0, 1]: (n/(n-1)) * (1 - Tr rho^2) for order n, exactly 1
    at the maximally mixed state."""
    n = rho.n
    if n < 2:
        raise DimensionMismatch("linear entropy needs order >= 2")
    return float(n / (n - 1.0) * (1.0 - purity(rho)))


def rank(rho: DensityMatrix) -> int:
    """Number of eigenvalues above RANK_TOL."""
    return int(np.sum(rho.spectrum > RANK_TOL))


def is_full_rank(rho: DensityMatrix) -> bool:
    return rank(rho) == rho.n


def purity_report(rho: DensityMatrix) -> PurityReport:
    return PurityReport(purity=purity(rho), linear_entropy=linear_entropy(rho), rank=rank(rho))
