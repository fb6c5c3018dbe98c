"""Dense small-matrix kernels: Hermitian spectra, determinant, partial transpose.

Everything downstream (Laplacians, graphs, classification criteria) is built on
these.  Matrices are plain numpy arrays; the design envelope is order <= ~64,
so no sparsity or blocking is attempted.  `eigvals_sym`, `determinant` and
`partial_transpose` also take a stack (..., n, n) of matrices and act on each,
with the same arithmetic per matrix as on that matrix alone.  A state reads
det(phi(rho) - I) off the spectrum it solves anyway; `determinant`, an LU, is
the reference it is checked against.

`eigvals_sym` is the one Hermitian eigensolver of the package.  It calls the
LAPACK gufunc that `np.linalg.eigvalsh` dispatches to (`eigvalsh_lo` of
numpy's `_umath_linalg`, `_syevd`/`_heevd` on the lower triangle) directly,
with eigvalsh's signature, error mapping and result dtype but without its
Python-level checks and casts, a fixed cost per call that is a large share of
a small solve; a full-rank state solves six spectra.  The numpy error state it
solves under (non-convergence raised, overflow, division and underflow ignored)
is built once, at import, and each call only sets numpy's error-state context
variable to it for the solve, as `np.errstate` does on entry; numpy 1.x has no
such variable, and there each call enters `np.errstate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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


# The gufunc np.linalg.eigvalsh(m) calls with its default UPLO='L'.
_eigvalsh_lo = _umath_linalg.eigvalsh_lo


def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


# The error state of np.linalg.eigvalsh's solve: the gufunc signals LAPACK
# non-convergence as an invalid value.
_SOLVE_ERRORS = dict(call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore")

try:  # numpy >= 2: the context variable np.errstate sets, and its value built once
    from numpy._core.umath import UFUNC_BUFSIZE_DEFAULT, _extobj_contextvar, _make_extobj
except ImportError:  # numpy 1.x: each solve enters np.errstate(**_SOLVE_ERRORS)
    _SOLVE_EXTOBJ = None
else:
    _SOLVE_EXTOBJ = _make_extobj(bufsize=UFUNC_BUFSIZE_DEFAULT, **_SOLVE_ERRORS)


def eigvals_sym(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly Hermitian matrix, or of each matrix of
    a stack, read off the lower triangle unchecked: every matrix a validated
    state derives is exactly Hermitian.

    Bit for bit `np.linalg.eigvalsh(m)`: the same gufunc, solved in double
    precision ('D->d' for complex m, 'd->d' otherwise), with LAPACK's
    non-convergence, which the gufunc signals as an invalid value, raised as
    LinAlgError; the result is float32 for float32 and complex64 m, float64
    otherwise.  It solves under the error state `_SOLVE_EXTOBJ`, built once,
    or under `np.errstate` on numpy 1.x; the caller's error state is restored
    either way.
    """
    signature = "D->d" if m.dtype.kind == "c" else "d->d"
    if _SOLVE_EXTOBJ is None:
        with np.errstate(**_SOLVE_ERRORS):
            w = _eigvalsh_lo(m, signature=signature)
    else:
        token = _extobj_contextvar.set(_SOLVE_EXTOBJ)
        try:
            w = _eigvalsh_lo(m, signature=signature)
        finally:
            _extobj_contextvar.reset(token)
    return w.astype(np.float32) if m.dtype.char in "fF" else w


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

