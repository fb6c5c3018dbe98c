"""Dense small-matrix kernels: eigendecomposition, determinant, partial transpose.

Everything downstream (Laplacians, graphs, classification criteria) is built on
these.  Matrices are plain numpy arrays; the design envelope is order <= ~64,
so no sparsity or blocking is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

HERM_TOL = 1e-9
SIGN_EPS = 1e-12


@dataclass(frozen=True)
class BipartiteDims:
    """Subsystem dimensions (d1, d2) of a bipartite system; order n = d1*d2."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 2 or self.d2 < 2:
            raise DimensionMismatch(f"subsystem dimensions must be >= 2, got {self.d1}x{self.d2}")

    @property
    def n(self) -> int:
        return self.d1 * self.d2

    def check_order(self, n: int) -> None:
        if self.n != n:
            raise DimensionMismatch(f"dims {self.d1}x{self.d2} incompatible with order {n}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues, aligned orthonormal eigenvectors, and the residual
    max_i ||M v_i - lambda_i v_i||_inf."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns aligned with eigenvalues
    residual: float = field(default=0.0)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def as_matrix(m) -> np.ndarray:
    """Validate an n x n matrix with finite entries."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        finite = np.all(np.isfinite(a.real))
        if np.iscomplexobj(a):
            finite = finite and np.all(np.isfinite(a.imag))
        if not finite:
            raise ValueError("matrix entries must be finite")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    return hermiticity_defect(m) <= tol


def _fix_eigenvector_signs(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above SIGN_EPS is real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > SIGN_EPS)
        if idx.size == 0:
            continue
        pivot = col[idx[0]]
        if np.iscomplexobj(col):
            out[:, j] = col * (abs(pivot) / pivot)
        elif pivot < 0:
            out[:, j] = -col
    return out


def eig_sym(m, herm_tol: float = HERM_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian (symmetric if real) matrix.

    Eigenvalues ascending; eigenvector signs fixed deterministically (first
    component above threshold made real positive).  Raises NotHermitian if the
    symmetry check fails, NoConvergence if the solver does.
    """
    a = as_matrix(m)
    defect = hermiticity_defect(a)
    if defect > herm_tol:
        raise NotHermitian(f"hermiticity defect {defect:.3g} exceeds tolerance {herm_tol:.3g}")
    h = (a + a.conj().T) / 2
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK practically never fails here
        raise NoConvergence(str(exc)) from exc
    vecs = _fix_eigenvector_signs(vecs)
    residual = float(np.max(np.abs(a @ vecs - vecs * vals))) if a.size else 0.0
    vals = vals.copy()
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs, residual=residual)


def eigvals_sym(m, herm_tol: float = HERM_TOL) -> np.ndarray:
    """Ascending eigenvalues only (cheaper path for the classifiers)."""
    a = as_matrix(m)
    defect = hermiticity_defect(a)
    if defect > herm_tol:
        raise NotHermitian(f"hermiticity defect {defect:.3g} exceeds tolerance {herm_tol:.3g}")
    return np.linalg.eigvalsh((a + a.conj().T) / 2)


def determinant(m):
    """Determinant via LU with partial pivoting.

    Returns a float for real or Hermitian input, complex otherwise.
    """
    a = as_matrix(m)
    d = np.linalg.det(a)
    if not np.iscomplexobj(a):
        return float(d)
    if is_hermitian(a):
        return float(d.real)
    return complex(d)


def partial_transpose(m: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Transpose the second-subsystem indices: P[(a,alpha),(b,beta)] = M[(a,beta),(b,alpha)].

    Row index convention r = a*d2 + alpha (subsystem B is the fast index).
    A reshape, so it works on float, complex and Exact object arrays alike.
    """
    n = m.shape[0]
    dims.check_order(n)
    return np.ascontiguousarray(
        m.reshape(dims.d1, dims.d2, dims.d1, dims.d2).transpose(0, 3, 2, 1).reshape(n, n)
    )


def wolkowicz_bounds(m, herm_tol: float = HERM_TOL) -> tuple[float, float]:
    """Bracket for the minimum eigenvalue of a Hermitian matrix:

        m_ - s*sqrt(n-1) <= lambda_min <= m_ - s/sqrt(n-1)

    with m_ = tr/n and s^2 = tr(M^2)/n - m_^2 (clamped at 0 against rounding).
    """
    a = as_matrix(m)
    n = a.shape[0]
    if n < 2:
        raise DimensionMismatch(f"order must be >= 2, got {n}")
    defect = hermiticity_defect(a)
    if defect > herm_tol:
        raise NotHermitian(f"hermiticity defect {defect:.3g} exceeds tolerance {herm_tol:.3g}")
    mean = float(np.trace(a).real) / n
    s2 = float(np.trace(a @ a).real) / n - mean * mean
    s = math.sqrt(max(s2, 0.0))
    root = math.sqrt(n - 1)
    return mean - s * root, mean - s / root
