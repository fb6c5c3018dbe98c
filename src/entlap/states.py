"""Density-matrix validation and purity / mixedness functionals."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AxiomViolation, DimensionMismatch, StateValidationError
from .matops import BipartiteDims, as_matrix, eigvals_sym

DEFAULT_TOL = 1e-9
RANK_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Validated Hermitian, unit-trace, PSD matrix with bipartite dimensions.

    `exact`, when present, is a read-only object array of Exact scalars whose
    float values equal `array`; it rides along so that a Laplacian, graph or
    matrix file read off the state can be exact.  Construct via `validate()`.
    """

    array: np.ndarray
    dims: BipartiteDims
    validation_tolerance: float = DEFAULT_TOL
    exact: np.ndarray | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return eigvals_sym(self.array, herm_tol=max(self.validation_tolerance, 1e-9))


@dataclass(frozen=True)
class PurityReport:
    purity: float
    linear_entropy: float
    rank: int


def check_axioms(raw, dims: BipartiteDims, tol: float = DEFAULT_TOL) -> list[AxiomViolation]:
    """Return the violated density-operator axioms (empty list if valid)."""
    a = as_matrix(raw)
    violations: list[AxiomViolation] = []
    if a.shape[0] != dims.n:
        violations.append(AxiomViolation("DimensionMismatch", float(a.shape[0] - dims.n)))
        return violations
    asym = float(np.max(np.abs(a - a.conj().T)))
    if asym > tol:
        violations.append(AxiomViolation("NotHermitian", asym))
        return violations
    h = (a + a.conj().T) / 2
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > tol:
        violations.append(AxiomViolation("TraceNotOne", tr))
    lam_min = float(np.linalg.eigvalsh(h)[0])
    if lam_min < -tol:
        violations.append(AxiomViolation("NotPSD", lam_min))
    return violations


def _exact_mismatch(a: np.ndarray, exact: np.ndarray) -> float:
    """Worst |float(exact_ij) - a_ij|; infinite when the shapes differ."""
    if exact.shape != a.shape:
        return float("inf")
    return float(np.max(np.abs(exact.astype(float) - a)))


def validate(raw, dims: BipartiteDims, tol: float = DEFAULT_TOL,
             exact: np.ndarray | None = None) -> DensityMatrix:
    """Validate `raw` as a density matrix, or raise StateValidationError.

    Hermiticity is enforced exactly by averaging with the conjugate transpose
    once the asymmetry is known to be below `tol`.  An exact companion must
    have `raw`'s shape and float values within `tol` of its entries.
    """
    violations = check_axioms(raw, dims, tol)
    a = np.asarray(raw)
    if exact is not None and not violations:
        exact = np.array(exact, dtype=object)
        exact.flags.writeable = False
        mismatch = _exact_mismatch(a, exact)
        if mismatch > tol:
            violations.append(AxiomViolation("ExactMismatch", mismatch))
    if violations:
        raise StateValidationError(violations)
    h = (a + a.conj().T) / 2
    if not np.iscomplexobj(h):
        h = h.astype(float)
    h.flags.writeable = False
    return DensityMatrix(array=h, dims=dims, validation_tolerance=tol, exact=exact)


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
    return int(np.sum(rho.eigenvalues() > rank_tolerance))


def is_full_rank(rho: DensityMatrix, rank_tolerance: float = RANK_TOL) -> bool:
    return rank(rho, rank_tolerance) == rho.n


def purity_report(rho: DensityMatrix) -> PurityReport:
    return PurityReport(purity=purity(rho), linear_entropy=linear_entropy(rho), rank=rank(rho))
