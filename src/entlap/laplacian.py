"""The Laplacian construction L_A and the unital map phi(A) = L_A + A.

L_A takes its off-diagonal entries from the moduli of A's off-diagonal entries
(negated), and its diagonal from the row sums of those moduli, so it is always
a real symmetric, zero-row-sum, PSD matrix: a weighted-graph Laplacian.  The
trace of L_rho equals the l1-norm of coherence of rho (the graph total degree).

One construction serves both entry types: `array` is the float Laplacian, and
for a state with exact entries `Laplacian.exact` applies the same kernel to the
state's Exact entries, only when it is first read; building L reads none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .exact import ZERO
from .matops import as_matrix, eig_sym

if TYPE_CHECKING:
    from .states import DensityMatrix


def _laplacian(m: np.ndarray) -> np.ndarray:
    """Read-only diag(w.sum(1)) - w over the off-diagonal moduli w_ij = |m_ij|,
    in m's entry type (float, or Exact in an object array).

    Built as 0 - w with the row sums written onto the diagonal, so an exact
    Laplacian reuses one zero and constructs an Exact only for a non-zero entry.
    """
    w = np.abs(m)
    zero = ZERO if w.dtype == object else 0.0
    np.fill_diagonal(w, zero)
    lap = zero - w
    np.fill_diagonal(lap, w.sum(axis=1))
    lap.flags.writeable = False
    return lap


@dataclass(frozen=True)
class Laplacian:
    """Real symmetric zero-row-sum PSD matrix read off a source matrix.

    `state`, when given, is the density matrix L was read off; `exact` is then
    the same Laplacian in Exact arithmetic over the state's exact entries,
    built the first time it is read, and None when the state has none.
    """

    array: np.ndarray
    state: DensityMatrix | None = field(default=None, compare=False, repr=False)

    @cached_property
    def exact(self) -> np.ndarray | None:
        exact = None if self.state is None else self.state.exact
        return None if exact is None else _laplacian(exact)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def total_degree(self) -> float:
        return float(np.trace(self.array))


def laplacian_of_density(rho: DensityMatrix) -> Laplacian:
    """L with off-diagonal -|rho_ij| and diagonal sum_j |rho_ij| (j != i)."""
    return Laplacian(_laplacian(rho.array), state=rho)


def laplacian_of_general(a) -> Laplacian:
    """L with off-diagonal -(|a_ij| + |a_ji|)/2; equals laplacian_of_density's
    construction when the input is Hermitian."""
    absm = np.abs(as_matrix(a)).astype(float)
    return Laplacian(_laplacian((absm + absm.T) / 2))


def phi(a) -> np.ndarray:
    """The unital map phi(A) = L_A + A, with L_A from the symmetrised moduli.

    A DensityMatrix passes as its array; on Hermitian input the Laplacian is
    laplacian_of_density's, bit for bit.  phi(I) = I exactly: a diagonal
    matrix has L = 0 structurally.
    """
    m = as_matrix(a)
    return laplacian_of_general(m).array + m


def coherence_l1(rho: DensityMatrix) -> float:
    """Sum of off-diagonal moduli = Tr L_rho = graph total degree d_G."""
    return laplacian_of_density(rho).total_degree()


def kadison_defect(rho: DensityMatrix) -> float:
    """Diagnostic: lambda_min of phi(rho^2) - phi(rho)^2.

    For a positive unital *linear* map this would be >= 0 everywhere; phi is
    not linear (moduli), so the defect can be substantially negative even on
    pure states.  Reported, never assumed.
    """
    p = phi(rho)
    rho2 = rho.array @ rho.array
    p2 = laplacian_of_general(rho2).array + rho2
    return eig_sym(p2 - p @ p, herm_tol=1e-8).lambda_min
