"""The Laplacian construction L_A and the unital map phi(A) = L_A + A.

L_A takes its off-diagonal entries from the moduli of A's off-diagonal entries
(negated), and its diagonal from the row sums of those moduli, so it is a real
zero-row-sum matrix, and for a Hermitian A a symmetric PSD one: a
weighted-graph Laplacian.  The trace of L_rho equals the l1-norm of coherence
of rho (the graph total degree).  phi is this one construction plus A, on a
matrix or a stack, like every other kernel.

A Laplacian is a read-only array in its source's entry type: float for a float
or complex matrix or a DensityMatrix, Exact for an object array of Exact
entries.  One kernel builds both, so off the diagonal an exact Laplacian read
off a state's `exact` entries and the state's float `laplacian` agree bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

from .exact import ZERO, once_per_object
from .matops import as_stack


def laplacian_of_density(m) -> np.ndarray:
    """Read-only L with off-diagonal -|m_ij| and diagonal sum_j |m_ij| (j != i),
    in m's entry type: float for a float or complex array or a DensityMatrix
    (read as its float matrix), Exact for an Exact object array.  A stack
    (..., n, n) gives the stack of each matrix's Laplacian.

    Built as 0 - w with the row sums written onto the diagonal.  An exact
    Laplacian reuses one zero, and builds |v| once per distinct entry object and
    -|v| once per distinct off-diagonal modulus (a per-call memo keyed on id():
    corpus slots and parsed tokens share their objects), so beyond the row sums
    it constructs an Exact only for a distinct negative entry or non-zero modulus.
    """
    a = np.asarray(m)
    exact = a.dtype == object
    w = _once(abs)(a) if exact else np.abs(a)
    zero = ZERO if exact else 0.0
    diag = np.arange(w.shape[-1])
    w[..., diag, diag] = zero
    lap = _once(operator.neg)(w) if exact else zero - w
    lap[..., diag, diag] = w.sum(axis=-1)
    lap.flags.writeable = False
    return lap


def _once(f):
    """f elementwise over an object array, called once per distinct entry object."""
    return np.frompyfunc(once_per_object(f), 1, 1)


def phi(a) -> np.ndarray:
    """The unital map phi(A) = L_A + A, on a matrix or each matrix of a stack.

    A DensityMatrix passes as its float matrix.  L_A is laplacian_of_density's:
    its off-diagonal entries are -|a_ij| and its diagonal holds each row's sum
    of moduli, so for a non-Hermitian A it reads each row's moduli as they are
    and need not be symmetric.  phi(I) = I exactly: a diagonal matrix has
    L = 0 structurally.
    """
    m = as_stack(a)
    return laplacian_of_density(m) + m
