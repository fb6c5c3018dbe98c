"""Seeded random-state generators for the property and acceptance ensembles,
and the corpus states' sample points.

Each generator draws from a numpy Generator and returns a validated
DensityMatrix (or a unit vector), so an ensemble is fixed by its seed and size.
"""

from __future__ import annotations

import numpy as np

from entlap.corpus import list_entries
from entlap.matops import BipartiteDims
from entlap.states import DensityMatrix, validate


def corpus_points():
    """(name, parameter) of every corpus state, parameterised ones at both ends
    and the middle of their domain."""
    for entry in list_entries():
        if entry.parameter_domain is None:
            yield entry.name, None
        else:
            lo, hi = entry.parameter_domain
            yield from ((entry.name, p) for p in (lo, (lo + hi) / 2, hi))


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_density(rng: np.random.Generator, dims: BipartiteDims,
                   tol: float = 1e-9) -> DensityMatrix:
    """A A^dag / tr with independent complex standard-normal entries."""
    n = dims.n
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return validate(rho, dims, tol=tol)


def random_pure_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_pure_density(rng: np.random.Generator, dims: BipartiteDims) -> DensityMatrix:
    v = random_pure_vector(rng, dims.n)
    return validate(np.outer(v, v.conj()), dims)


def random_product_vector(rng: np.random.Generator, dims: BipartiteDims) -> np.ndarray:
    a = random_pure_vector(rng, dims.d1)
    b = random_pure_vector(rng, dims.d2)
    return np.kron(a, b)


def random_mixture_density(rng: np.random.Generator, dims: BipartiteDims) -> DensityMatrix:
    """Convex mixture of a random pure product state and a random pure state."""
    p = rng.random()
    va = random_product_vector(rng, dims)
    vb = random_pure_vector(rng, dims.n)
    rho = p * np.outer(va, va.conj()) + (1 - p) * np.outer(vb, vb.conj())
    return validate(rho, dims)
