"""Density-matrix validation, the per-state analysis record, and purity / mixedness functionals.

A validated `DensityMatrix` is the one record every criterion reads.
`validate` takes the state's entries as given: a float or complex array, or
exact entries (int, Fraction or Exact) as an object matrix, whose float matrix
it reads off with one conversion per entry, and whose Exact entries it builds
one per distinct value.  A caller that has the float
matrix already (the corpus, the matrix-file parser) hands it over with a
function that builds the Exact entries.  Exact entries from a matrix file
or an object matrix are kept only when they are exactly symmetric: a state
that is Hermitian only within the tolerance is their average, and prints its
floats.  `validate` solves rho's spectrum once, with `eigvals_sym` like every
spectrum of the package, and stores it.  The state keeps its eigensolves and
the values two or more readers share.  Its `exact` entries, L_rho and rho^TB,
the spectra of rho^TB, L, L + rho^TB, L^TB and phi(rho) - I, the coherence
graph (its read-only weight array), its edge list and the graph's total
degree, connectivity and max W (NaN for a graph without edges, as
`wgraph.max_w` gives it) are computed the first time they are read.
L + rho^TB, L^TB and phi(rho) - I are built inside the read of their
spectrum, their one reader, and not kept; THM1 takes det(phi(rho) - I) as
the product of that spectrum (`criteria.thm1`).
The edge list (`edges`, one np.nonzero) has three readers: `connected`,
when the edge count does not answer it, `max_w`, only for a graph on 21 or
more vertices whose edges fit one slice of its kernel (see `wgraph`), and
the CLI's `graph`.  The first of them to need it finds it, and a state none
of them needs it for never lists its edges: on up to 20 vertices, a dense
state's edge count answers connectivity, and max W weighs all vertex pairs
at once.  The entries, L_rho, rho^TB, the graph, the spectra and the edge
list are read-only, since every later reader shares them: a caller that
writes into one gets a ValueError, and cannot change what the criteria read
next.
Criteria called one after another on the same state share that work, and a
criterion computes only what it reads.  Every decision quantity is
floating point, also for exact inputs: the Laplacian and the graph are read
off the float matrix, and no criterion reads an Exact.  `literal` is the one
place that picks a state's exact entries over its float ones, for what is
printed (matrix files, the Laplacian and graph the CLI writes).

A stack of states is one `DensityMatrix` whose arrays have a leading state
axis: `validate` takes a (b, n, n) stack and checks each state, and every
derived value of a stack is computed once for all b states by the same kernel
call as for one.  Slice k of a stack's value is what state k derives alone.
The readers of one state's scalars (`purity`, `rank`, ...) reject a stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import AxiomViolation, DimensionMismatch, StateValidationError
from .exact import Exact
from .laplacian import laplacian_of_density
from .matops import BipartiteDims, as_stack, eigvals_sym, partial_transpose
from .wgraph import WConvention, edges, graph_from_laplacian, is_connected, max_w

DEFAULT_TOL = 1e-9
RANK_TOL = 1e-9


# The entries an exact (object) matrix may hold.
_EXACT_TYPES = (int, Fraction, Exact)


def _to_exact(values: np.ndarray) -> np.ndarray:
    """An object array's exact entries as Exact scalars: an Exact as itself, and
    one Exact per distinct int or Fraction value, shared by its entries (a
    per-call memo keyed on the value); zeros share Exact.of's one zero."""
    of = functools.cache(Exact.of)
    return np.frompyfunc(lambda v: v if isinstance(v, Exact) else of(v), 1, 1)(values)


class _derived:
    """A derived value: `compute(rho)` on first read, then kept.  Like
    `cached_property`, without the lock that Python 3.11's takes on every first read."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, rho, owner=None):
        if rho is None:
            return self
        value = rho.__dict__[self.name] = self.compute(rho)  # shadows this non-data descriptor from now on
        return value


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated Hermitian, unit-trace, PSD matrix with bipartite dimensions,
    or a stack of them along a leading axis.

    `spectrum` is rho's ascending spectrum, solved once by `validate`.
    `exact` is the read-only object matrix of the Exact entries the state was
    validated from, or None for a float or complex input; `array` holds their
    float values.  `exact_source` builds them the first time `exact` is read,
    or gives None for entries that are not exactly symmetric (see
    `exact_if_symmetric`), and `literal` is `exact` when the state has it and
    `array` otherwise.
    States compare by identity.  Construct via `validate()`.
    """

    array: np.ndarray
    dims: BipartiteDims
    spectrum: np.ndarray = field(repr=False)
    validation_tolerance: float = DEFAULT_TOL
    exact_source: Callable[[], np.ndarray | None] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.array.shape[-1]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The float matrix, so a state passes wherever an array is taken."""
        return np.array(self.array, dtype=dtype, copy=copy)

    @property
    def literal(self) -> np.ndarray:
        """The entries to print: `exact` when the state has exact entries, else `array`."""
        return self.array if self.exact is None else self.exact

    # The Exact entries, then the shared matrices, spectra (ascending), the
    # graph, its edge list (index arrays) and graph scalars, each computed on
    # first read and kept, each array read-only, as every reader shares it;
    # all but the first and the edge list are float.
    exact = _derived(lambda self: None if self.exact_source is None else _read_only(self.exact_source()))
    laplacian = _derived(lambda self: laplacian_of_density(self.array))  # L_rho
    ptb = _derived(lambda self: _read_only(partial_transpose(self.array, self.dims)))  # rho^TB
    spec_ptb = _derived(lambda self: _spectrum(self.ptb))
    spec_lap = _derived(lambda self: _spectrum(self.laplacian))
    spec_l_plus_ptb = _derived(lambda self: _spectrum(self.laplacian + self.ptb))
    spec_lap_ptb = _derived(lambda self: _spectrum(partial_transpose(self.laplacian, self.dims)))  # of L^TB
    spec_phi_minus_i = _derived(lambda self: _spectrum(_minus_identity(self.laplacian + self.array)))
    rank = _derived(lambda self: (self.spectrum > RANK_TOL).sum(-1))  # eigenvalues above RANK_TOL
    total_degree = _derived(lambda self: self.laplacian.trace(axis1=-2, axis2=-1))  # d_G = Tr L_rho
    graph = _derived(lambda self: graph_from_laplacian(self.laplacian))
    edges = _derived(lambda self: tuple(map(_read_only, edges(self.graph))))  # one np.nonzero, see the module docstring
    connected = _derived(lambda self: is_connected(self.graph, lambda: self.edges))
    max_w = _derived(lambda self: max_w(self.graph, WConvention.EXCLUDED, lambda: self.edges))  # NaN without edges


def _read_only(a: np.ndarray | None) -> np.ndarray | None:
    """a, made read-only in place (`setflags`, which costs about half a write to
    `flags.writeable`), or None."""
    if a is not None:
        a.setflags(write=False)
    return a


def _spectrum(m: np.ndarray) -> np.ndarray:
    """The read-only ascending spectrum of m, or of each matrix of a stack m."""
    return _read_only(eigvals_sym(m))


def exact_if_symmetric(m: np.ndarray) -> np.ndarray | None:
    """The real exact matrix or stack m when it is exactly symmetric, else None.

    Exact entries from outside (a matrix file, an object matrix) pass `validate`
    when they are Hermitian within its tolerance, and the state is their average;
    entries that are not exactly symmetric are not that state's, so it prints
    its floats instead.
    """
    return m if (m == m.swapaxes(-1, -2)).all() else None


def _minus_identity(m: np.ndarray) -> np.ndarray:
    """m - I in place, for a fresh matrix or stack m: 1 off each diagonal entry, the rest as it is."""
    diagonal = np.einsum("...ii->...i", m)  # a writeable view of each matrix's diagonal, in any layout
    diagonal -= 1.0
    return m


def validate(raw, dims: BipartiteDims, tol: float = DEFAULT_TOL,
             exact_values: Callable[[], np.ndarray | None] | None = None) -> DensityMatrix:
    """Validate `raw` as a density matrix, or a (b, n, n) stack of them, or
    raise StateValidationError.

    `raw` is a real (float, int or bool) or complex matrix, or an object matrix
    of exact entries: int, Fraction or Exact, any other entry a TypeError.  The
    state's float matrix is read off the exact entries with each entry
    converted to float once; an entry too large for a float, like one that is
    not finite, is a ValueError.  A caller that has the float matrix already
    passes it as `raw`, and `exact_values`, which gives the object matrix of
    Exact entries it is the floats of, or None.  Either way the state's `exact`
    entries are built when first read; an object matrix's are dropped there
    unless they are exactly symmetric.  The violated axioms are listed in order:
    DimensionMismatch or NotHermitian alone, else TraceNotOne and NotPSD.
    Hermiticity is enforced exactly by averaging with the conjugate transpose
    once the asymmetry is known to be below `tol`; the averaged matrix's
    spectrum decides PSD and is stored in the state.  A stack raises the
    violations of its first failing state, as validating that state alone does.
    """
    a = np.asarray(raw)
    if exact_values is None and a.dtype == object:
        values = a.copy()  # the Exact entries are made from it later, and `raw` may change
        if not all(issubclass(t, _EXACT_TYPES) for t in set(map(type, values.flat))):
            bad = next(v for v in values.flat if not isinstance(v, _EXACT_TYPES))
            raise TypeError(f"exact entries must be int, Fraction or Exact, got {type(bad).__name__}")
        try:
            a = values.astype(float)
        except OverflowError:
            raise ValueError("matrix entries must be finite") from None
        exact_values = lambda: exact_if_symmetric(_to_exact(values))
    a = as_stack(a)
    if a.ndim > 3:
        raise DimensionMismatch(f"expected a matrix or a stack of them, got shape {a.shape}")
    if a.shape[-1] != dims.n:
        raise StateValidationError([AxiomViolation("DimensionMismatch", float(a.shape[-1] - dims.n))])
    stack = a.reshape(-1, dims.n, dims.n)  # one state is a stack of one
    if stack.dtype.kind != "c":  # real entries as float64: numpy's bool arithmetic is logical
        stack = stack.astype(float, copy=False)
    stack_h = stack.swapaxes(1, 2).conj()
    asym = np.abs(stack - stack_h).max(axis=(1, 2))
    h = (stack + stack_h) / 2
    tr = h.trace(axis1=1, axis2=2).real
    spectrum = eigvals_sym(h)
    for state in zip(asym.tolist(), tr.tolist(), spectrum[:, 0].tolist()):  # in stack order
        if violations := _violations(*state, tol):
            raise StateValidationError(violations)
    return DensityMatrix(array=_read_only(h.reshape(a.shape)), dims=dims,
                         spectrum=_read_only(spectrum.reshape(a.shape[:-1])), validation_tolerance=tol,
                         exact_source=exact_values)


def _violations(asym: float, tr: float, lambda_min: float, tol: float) -> list[AxiomViolation]:
    """The axioms one state violates: NotHermitian alone, else TraceNotOne and NotPSD."""
    if asym > tol:
        return [AxiomViolation("NotHermitian", asym)]
    violations = []
    if abs(tr - 1.0) > tol:
        violations.append(AxiomViolation("TraceNotOne", tr))
    if lambda_min < -tol:
        violations.append(AxiomViolation("NotPSD", lambda_min))
    return violations


def check_one_state(rho: DensityMatrix) -> None:
    """Raise DimensionMismatch when `rho` is a stack: the caller reads one state's scalars."""
    if rho.array.ndim == 3:
        raise DimensionMismatch(f"expected one state, got a stack of {len(rho.array)}")


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    check_one_state(rho)
    a = rho.array
    return float(np.trace(a @ a).real)


def linear_entropy(rho: DensityMatrix) -> float:
    """Mixedness on [0, 1]: (n/(n-1)) * (1 - Tr rho^2) for order n, exactly 1
    at the maximally mixed state."""
    n = rho.n
    return float(n / (n - 1.0) * (1.0 - purity(rho)))


def rank(rho: DensityMatrix) -> int:
    """Number of eigenvalues above RANK_TOL."""
    check_one_state(rho)
    return int(rho.rank)
