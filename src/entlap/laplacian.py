"""The Laplacian construction L_A and the unital map phi(A) = L_A + A.

L_A takes its off-diagonal entries from the moduli of A's off-diagonal entries
(negated), and its diagonal from the row sums of those moduli, so it is always
a real symmetric, zero-row-sum, PSD matrix: a weighted-graph Laplacian.  The
trace of L_rho equals the l1-norm of coherence of rho (the graph total degree).

A Laplacian is a read-only array in its source's entry type: float for a float
or complex matrix or a DensityMatrix, Exact for an object array of Exact
entries.  One kernel builds both, so off the diagonal an exact Laplacian read
off a state's `exact` entries and the state's float `laplacian` agree bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .exact import ZERO
from .matops import as_matrix, eig_sym

if TYPE_CHECKING:
    from .states import DensityMatrix


def laplacian_of_density(m) -> np.ndarray:
    """Read-only L with off-diagonal -|m_ij| and diagonal sum_j |m_ij| (j != i),
    in m's entry type: float for a float or complex array or a DensityMatrix
    (read as its float matrix), Exact for an Exact object array.  A stack
    (..., n, n) gives the stack of each matrix's Laplacian.

    Built as 0 - w with the row sums written onto the diagonal, so an exact
    Laplacian reuses one zero and constructs an Exact only for a non-zero entry.
    """
    w = np.abs(np.asarray(m))
    zero = ZERO if w.dtype == object else 0.0
    diag = np.arange(w.shape[-1])
    w[..., diag, diag] = zero
    lap = zero - w
    lap[..., diag, diag] = w.sum(axis=-1)
    lap.flags.writeable = False
    return lap


def laplacian_of_general(a) -> np.ndarray:
    """L with off-diagonal -(|a_ij| + |a_ji|)/2; equals laplacian_of_density's
    construction when the input is Hermitian."""
    absm = np.abs(as_matrix(a)).astype(float)
    return laplacian_of_density((absm + absm.T) / 2)


def phi(a) -> np.ndarray:
    """The unital map phi(A) = L_A + A, with L_A from the symmetrised moduli.

    A DensityMatrix passes as its array; on Hermitian input the Laplacian is
    laplacian_of_density's, bit for bit.  phi(I) = I exactly: a diagonal
    matrix has L = 0 structurally.
    """
    m = as_matrix(a)
    return laplacian_of_general(m) + m


def coherence_l1(rho: DensityMatrix) -> float:
    """Sum of off-diagonal moduli = Tr L_rho = graph total degree d_G."""
    return rho.total_degree


def kadison_defect(rho: DensityMatrix) -> float:
    """Diagnostic: lambda_min of phi(rho^2) - phi(rho)^2.

    For a positive unital *linear* map this would be >= 0 everywhere; phi is
    not linear (moduli), so the defect can be substantially negative even on
    pure states.  Reported, never assumed.
    """
    p = phi(rho)
    rho2 = rho.array @ rho.array
    p2 = laplacian_of_general(rho2) + rho2
    return eig_sym(p2 - p @ p, herm_tol=1e-8).lambda_min
