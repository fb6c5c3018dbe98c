"""Dense small-matrix kernels: Hermitian spectra, determinant, partial transpose.

Everything downstream (Laplacians, graphs, classification criteria) is built on
these.  Matrices are plain numpy arrays; the design envelope is order <= ~64,
so no sparsity or blocking is attempted.  `eigvals_sym`, `determinant` and
`partial_transpose` also take a stack (..., n, n) of matrices and act on each,
with the same arithmetic per matrix as on that matrix alone.  A state reads
det(phi(rho) - I) off the spectrum it solves anyway; `determinant`, an LU, is
the reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# Entries per slice of a sliced kernel: 8192 items of 8 bytes are 64 KiB, below
# glibc's 128 KiB mmap threshold, so a slice reuses heap memory, not fresh pages.
SLICE_ENTRIES = 8192


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


def as_stack(m) -> np.ndarray:
    """Validate an n x n matrix, or a stack (..., n, n) of them, with finite entries."""
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():  # a complex entry is finite when both its parts are
        raise ValueError("matrix entries must be finite")
    return a


def eigvals_sym(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly Hermitian matrix, or of each matrix of
    a stack, read off the lower triangle unchecked: every matrix a validated
    state derives is exactly Hermitian.
    """
    return np.linalg.eigvalsh(m)


def determinant(m: np.ndarray) -> float | np.ndarray:
    """Determinant of a Hermitian matrix, or of each matrix of a stack, via LU
    with partial pivoting, unchecked: its real part, which is all of it for a
    Hermitian matrix.
    """
    return np.linalg.det(m).real


def partial_transpose(m: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Transpose the second-subsystem indices: P[(a,alpha),(b,beta)] = M[(a,beta),(b,alpha)].

    Row index convention r = a*d2 + alpha (subsystem B is the fast index).
    A reshape, so it works on float, complex and Exact object arrays alike, and
    on each matrix of a stack (..., n, n).
    """
    dims.check_order(m.shape[-1])
    blocks = m.reshape(*m.shape[:-2], dims.d1, dims.d2, dims.d1, dims.d2)
    return np.ascontiguousarray(blocks.swapaxes(-3, -1).reshape(m.shape))

