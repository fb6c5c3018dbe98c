"""Density-matrix validation, the per-state analysis record, and purity / mixedness functionals.

A validated `DensityMatrix` is the one record every criterion reads.  `validate`
solves rho's spectrum once and stores it.  Every other derived matrix and
spectrum (L_rho, rho^TB, L^TB, phi(rho) - I; the spectra of rho^TB, L,
L + rho^TB, L^TB and phi(rho) - I; det(phi(rho) - I)) and the coherence graph's
total degree, connectivity and max W is a cached property, computed by the
`laplacian`, `matops` and `wgraph` kernels the first time it is read.  Criteria
called one after another on the same state share that work, and a criterion
computes only what it reads.  Every decision quantity is floating point, also
for exact inputs: the graph is read off the float Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AxiomViolation, DimensionMismatch, StateValidationError
from .laplacian import Laplacian, laplacian_of_density
from .matops import BipartiteDims, as_matrix, determinant, eigvals_sym, partial_transpose
from .wgraph import graph_from_laplacian, is_connected, max_w

DEFAULT_TOL = 1e-9
RANK_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Validated Hermitian, unit-trace, PSD matrix with bipartite dimensions.

    `spectrum` is rho's ascending spectrum, solved once by `validate`.  `exact`,
    when present, is a read-only object array of Exact scalars whose float
    values equal `array`; it rides along so that a Laplacian, graph or matrix
    file read off the state can be exact.  Construct via `validate()`.
    """

    array: np.ndarray
    dims: BipartiteDims
    spectrum: np.ndarray = field(compare=False, repr=False)
    validation_tolerance: float = DEFAULT_TOL
    exact: np.ndarray | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return self.spectrum

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The float matrix, so a state passes wherever an array is taken."""
        return np.array(self.array, dtype=dtype, copy=copy)

    # Derived matrices, spectra (ascending) and graph scalars, each computed
    # on first read and kept.  The graph is read off the float Laplacian.
    laplacian = cached_property(lambda self: laplacian_of_density(self))  # L_rho
    ptb = cached_property(lambda self: partial_transpose(self.array, self.dims))  # rho^TB
    lap_ptb = cached_property(lambda self: partial_transpose(self.laplacian.array, self.dims))  # L^TB
    phi_minus_i = cached_property(lambda self: self.laplacian.array + self.array - np.eye(self.n))
    spec_ptb = cached_property(lambda self: eigvals_sym(self.ptb))
    spec_lap = cached_property(lambda self: eigvals_sym(self.laplacian.array))
    spec_l_plus_ptb = cached_property(lambda self: eigvals_sym(self.laplacian.array + self.ptb))
    spec_lap_ptb = cached_property(lambda self: eigvals_sym(self.lap_ptb))
    spec_phi_minus_i = cached_property(lambda self: eigvals_sym(self.phi_minus_i))
    det_phi_minus_i = cached_property(lambda self: float(determinant(self.phi_minus_i).real))
    total_degree = cached_property(lambda self: self.laplacian.total_degree())  # d_G = Tr L_rho
    graph = cached_property(lambda self: graph_from_laplacian(Laplacian(self.laplacian.array)))
    connected = cached_property(lambda self: is_connected(self.graph))
    # wgraph.max_w (EXCLUDED convention), or None when the graph has no edges
    max_w = cached_property(lambda self: max_w(self.graph) if self.graph.edge_count() else None)


@dataclass(frozen=True)
class PurityReport:
    purity: float
    linear_entropy: float
    rank: int


def _exact_mismatch(a: np.ndarray, exact: np.ndarray) -> float:
    """Worst |float(exact_ij) - a_ij|; infinite when the shapes differ."""
    if exact.shape != a.shape:
        return float("inf")
    return float(np.max(np.abs(exact.astype(float) - a)))


def validate(raw, dims: BipartiteDims, tol: float = DEFAULT_TOL,
             exact: np.ndarray | None = None) -> DensityMatrix:
    """Validate `raw` as a density matrix, or raise StateValidationError.

    The violated axioms are listed in order: DimensionMismatch or NotHermitian
    alone, else TraceNotOne and NotPSD, else ExactMismatch.  Hermiticity is
    enforced exactly by averaging with the conjugate transpose once the
    asymmetry is known to be below `tol`; the averaged matrix's spectrum
    decides PSD and is stored in the state.  An exact companion must have
    `raw`'s shape and float values within `tol` of its entries.
    """
    a = as_matrix(raw)
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
    if exact is not None and not violations:
        exact = np.array(exact, dtype=object)
        exact.flags.writeable = False
        mismatch = _exact_mismatch(a, exact)
        if mismatch > tol:
            violations.append(AxiomViolation("ExactMismatch", mismatch))
    if violations:
        raise StateValidationError(violations)
    h.flags.writeable = False
    spectrum.flags.writeable = False
    return DensityMatrix(array=h, dims=dims, spectrum=spectrum, validation_tolerance=tol, exact=exact)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    a = rho.array
    return float(np.trace(a @ a).real)


def linear_entropy(rho: DensityMatrix, literal_normalization: bool = False) -> float:
    """Mixedness on [0, 1]: (n/(n-1)) * (1 - Tr rho^2) for order n.

    With `literal_normalization` the prefactor is n^2/(n^2-1) instead, which
    tops out below 1 at the maximally mixed state; the default normalisation
    reaches exactly 1 there.
    """
    n = rho.n
    if n < 2:
        raise DimensionMismatch("linear entropy needs order >= 2")
    p = purity(rho)
    factor = n * n / (n * n - 1.0) if literal_normalization else n / (n - 1.0)
    return float(factor * (1.0 - p))


def rank(rho: DensityMatrix, rank_tolerance: float = RANK_TOL) -> int:
    """Number of eigenvalues above `rank_tolerance`."""
    return int(np.sum(rho.spectrum > rank_tolerance))


def is_full_rank(rho: DensityMatrix, rank_tolerance: float = RANK_TOL) -> bool:
    return rank(rho, rank_tolerance) == rho.n


def purity_report(rho: DensityMatrix) -> PurityReport:
    return PurityReport(purity=purity(rho), linear_entropy=linear_entropy(rho), rank=rank(rho))
