from fractions import Fraction

import numpy as np
import pytest

from entlap.errors import DimensionMismatch, NotHermitian
from entlap.matops import BipartiteDims, as_stack, determinant, eig_sym, partial_transpose, wolkowicz_bounds

from _oracles import bf_partial_transpose, random_hermitian, random_psd


# A non-finite value, in the real part or in the imaginary part only.
_NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(0.5, -np.inf)]


def _with_entry(m, index, value):
    m = m.astype(complex if isinstance(value, complex) else m.dtype)
    m[index] = value
    return m


class TestAsStack:
    @pytest.mark.parametrize("bad", _NON_FINITE, ids=repr)
    def test_non_finite_entry_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_stack(_with_entry(np.eye(3), (2, 1), bad))

    @pytest.mark.parametrize("bad", _NON_FINITE, ids=repr)
    def test_one_non_finite_matrix_in_a_stack_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_stack(_with_entry(np.stack([np.eye(3)] * 4), (2, 0, 1), bad))

    @pytest.mark.parametrize("m", [np.eye(3, dtype=int), np.eye(3, dtype=bool), np.zeros((0, 0)),
                                   np.zeros((2, 0, 0)), np.empty((0, 0), dtype=object)],
                             ids=["int", "bool", "empty", "empty stack", "empty object"])
    def test_finite_int_bool_and_empty_input_is_accepted(self, m):
        assert as_stack(m) is m

    def test_object_array_of_fractions_is_a_type_error(self):
        with pytest.raises(TypeError):
            as_stack(np.array([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], dtype=object))


class TestEigSym:
    def test_identity(self):
        dec = eig_sym(np.eye(4))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4))
        assert dec.residual <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_ascending_order_and_extremes(self, rng):
        m = random_hermitian(rng, 7)
        dec = eig_sym(m)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert dec.lambda_min == dec.eigenvalues[0]
        assert dec.lambda_max == dec.eigenvalues[-1]

    def test_sign_convention_deterministic(self, rng):
        m = random_hermitian(rng, 5)
        d1, d2 = eig_sym(m), eig_sym(m.copy())
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)
        for j in range(5):
            col = d1.eigenvectors[:, j]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert first.real > 0
            assert abs(first.imag) < 1e-12

    def test_spectral_invariants_on_ensemble(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            m = random_hermitian(rng, n, complex_entries=bool(rng.integers(2)))
            dec = eig_sym(m)
            assert abs(dec.eigenvalues.sum() - np.trace(m).real) <= 1e-9 * max(1, n)
            recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.max(np.abs(recon - m)) <= 1e-8
            scale_ = max(1.0, float(np.max(np.abs(m))))
            assert dec.residual <= 1e-10 * scale_


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == pytest.approx(1.0)

    def test_real_for_hermitian_complex_input(self, rng):
        m = random_hermitian(rng, 5)
        d = determinant(m)
        assert isinstance(d, float)

    def test_matches_eigenvalue_product(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = random_hermitian(rng, n)
            d = determinant(m)
            prod = float(np.prod(eig_sym(m).eigenvalues))
            assert d == pytest.approx(prod, rel=1e-9, abs=1e-12)

    def test_singular_returns_zero(self):
        m = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert determinant(m) == pytest.approx(0.0, abs=1e-12)


class TestPartialTranspose:
    def test_diagonal_fixed(self, rng):
        d = np.diag(rng.random(6))
        np.testing.assert_array_equal(partial_transpose(d, BipartiteDims(2, 3)), d)

    def test_matches_bruteforce(self, rng):
        for d1, d2 in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]:
            m = rng.standard_normal((d1 * d2, d1 * d2)) + 1j * rng.standard_normal((d1 * d2, d1 * d2))
            got = partial_transpose(m, BipartiteDims(d1, d2))
            np.testing.assert_array_equal(got, bf_partial_transpose(m, d1, d2))

    def test_involutive_trace_and_hermiticity_preserving(self, rng):
        dims = BipartiteDims(2, 3)
        for _ in range(1000):
            m = random_hermitian(rng, 6)
            pt = partial_transpose(m, dims)
            np.testing.assert_array_equal(partial_transpose(pt, dims), m)
            assert np.trace(pt) == pytest.approx(np.trace(m))
            assert np.max(np.abs(pt - pt.conj().T)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_transpose(np.eye(5), BipartiteDims(2, 3))

    def test_exact_nested_lists(self):
        from fractions import Fraction

        from entlap.exact import Exact

        rows = np.array([[Exact.of(Fraction(i * 4 + j, 17)) for j in range(4)] for i in range(4)], dtype=object)
        pt = partial_transpose(rows, BipartiteDims(2, 2))
        assert pt[0][3] == rows[1][2]
        assert pt[1][2] == rows[0][3]
        back = partial_transpose(pt, BipartiteDims(2, 2))
        assert np.array_equal(back, rows)


class TestWolkowiczBounds:
    def test_identity_has_zero_spread(self):
        lo, hi = wolkowicz_bounds(np.eye(6))
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_rejects_order_one(self):
        with pytest.raises(DimensionMismatch):
            wolkowicz_bounds(np.eye(1))

    def test_brackets_lambda_min_on_ensemble(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            m = random_hermitian(rng, n)
            lo, hi = wolkowicz_bounds(m)
            lam_min = eig_sym(m).lambda_min
            assert lo - 1e-9 <= lam_min <= hi + 1e-9


class TestClassicalInequalities:
    def test_weyl_inequality(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            x, y = random_hermitian(rng, n), random_hermitian(rng, n)
            lx = eig_sym(x).eigenvalues
            ly = eig_sym(y).eigenvalues
            lxy = eig_sym(x + y).eigenvalues
            assert np.all(lx + ly[0] <= lxy + 1e-9)
            assert np.all(lxy <= lx + ly[-1] + 1e-9)

    def test_trace_inequality_hermitian_vs_psd(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            x = random_hermitian(rng, n)
            y = random_psd(rng, n)
            t = float(np.trace(x @ y).real)
            lam = eig_sym(x)
            ty = float(np.trace(y).real)
            assert lam.lambda_min * ty - 1e-9 <= t <= lam.lambda_max * ty + 1e-9
