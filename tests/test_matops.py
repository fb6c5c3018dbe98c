from fractions import Fraction

import numpy as np
import pytest

from entlap import matops
from entlap.errors import DimensionMismatch
from entlap.matops import BipartiteDims, as_stack, determinant, eigvals_sym, partial_transpose

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

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 2, 3)])
    def test_a_matrix_that_is_not_square_is_a_dimension_mismatch(self, shape):
        with pytest.raises(DimensionMismatch, match="^expected a square matrix or a stack of them"):
            as_stack(np.ones(shape))

    def test_object_array_of_fractions_is_a_type_error(self):
        with pytest.raises(TypeError):
            as_stack(np.array([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], dtype=object))


class TestEigSym:
    """Spectra of Hermitian matrices, and of stacks of them, through eigvals_sym."""

    def test_identity(self):
        np.testing.assert_array_equal(eigvals_sym(np.eye(4)), np.ones(4))

    def test_ascending_order_and_extremes(self, rng):
        m = random_hermitian(rng, 7)
        vals = eigvals_sym(m)
        assert np.all(np.diff(vals) >= 0)
        # every Rayleigh quotient lies between the first and the last eigenvalue
        for _ in range(100):
            x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            q = (x.conj() @ m @ x).real / (x.conj() @ x).real
            assert vals[0] - 1e-12 <= q <= vals[-1] + 1e-12

    def test_spectral_invariants_on_ensemble(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            m = random_hermitian(rng, n, complex_entries=bool(rng.integers(2)))
            vals = eigvals_sym(m)
            assert abs(vals.sum() - np.trace(m).real) <= 1e-9 * max(1, n)
            # each eigenvalue makes m - lambda I singular, to rounding
            scale_ = max(1.0, float(np.max(np.abs(m))))
            shifted = m - vals[:, None, None] * np.eye(n)
            assert np.linalg.svd(shifted, compute_uv=False)[:, -1].max() <= 1e-10 * scale_ * n
            # a stack gives each matrix's spectrum, bit for bit
            stack = np.stack([m, m.conj()])
            assert eigvals_sym(stack)[0].tobytes() == vals.tobytes()


class TestEigSymKernel:
    """eigvals_sym calls numpy's private LAPACK gufunc directly: it must stay
    np.linalg.eigvalsh bit for bit, dtype and errors included, on the numpy it runs on."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128],
                             ids=lambda t: t.__name__)
    @pytest.mark.parametrize("shape", [(), (5,), (0,)], ids=["one", "stack", "empty stack"])
    def test_parity_with_eigvalsh(self, rng, dtype, shape):
        n = 6
        complex_entries = np.dtype(dtype).kind == "c"
        m = np.array([random_hermitian(rng, n, complex_entries) for _ in range(int(np.prod(shape)))])
        m = m.reshape(shape + (n, n)).astype(dtype)
        got, want = eigvals_sym(m), np.linalg.eigvalsh(m)
        assert got.dtype == want.dtype and got.shape == want.shape == shape + (n,)
        assert np.array_equal(got, want)

    def test_non_convergence_is_a_lin_alg_error(self, monkeypatch):
        # the gufunc reports LAPACK non-convergence by setting the invalid flag
        def not_converging(m, signature):
            return np.sqrt(np.full(m.shape[:-1], -1.0))

        m = np.eye(3)
        monkeypatch.setattr(matops, "_eigvalsh_lo", not_converging)
        monkeypatch.setattr(np.linalg._umath_linalg, "eigvalsh_lo", not_converging)
        for solve in (np.linalg.eigvalsh, eigvals_sym):
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                solve(m)

    def test_the_callers_error_state_neither_reaches_the_solve_nor_changes(self, rng, monkeypatch):
        tiny = np.finfo(float).smallest_subnormal
        ms = [random_hermitian(rng, 6), random_hermitian(rng, 5, complex_entries=False),
              tiny * random_hermitian(rng, 4), np.diag([tiny, 3 * tiny, 1.0])]
        wants = [np.linalg.eigvalsh(m) for m in ms]

        def callers_handler(err, flag):
            raise AssertionError(f"the caller's error handler was called for {err}")

        def not_converging(m, signature):
            return np.sqrt(np.full(m.shape[:-1], -1.0))

        with np.errstate(all="raise", call=callers_handler):
            state = np.geterr(), np.geterrcall()
            for m, want in zip(ms, wants):
                assert eigvals_sym(m).tobytes() == want.tobytes()
                assert (np.geterr(), np.geterrcall()) == state
            with monkeypatch.context() as patch:
                patch.setattr(matops, "_eigvalsh_lo", not_converging)
                with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                    eigvals_sym(ms[0])
            assert (np.geterr(), np.geterrcall()) == state

    def test_spectra_do_not_move_with_the_buffer_size(self, rng):
        ms = [random_hermitian(rng, 6), random_hermitian(rng, 4, complex_entries=False).astype(np.float32),
              np.array([random_hermitian(rng, 5) for _ in range(3)]).astype(np.complex64)]
        wants = [np.linalg.eigvalsh(m) for m in ms]
        old = np.setbufsize(16)
        try:
            for m, want in zip(ms, wants):
                got = eigvals_sym(m)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert np.getbufsize() == 16
        finally:
            np.setbufsize(old)


class TestEigSymKernelErrstatePath(TestEigSymKernel):
    """The same tests on the path numpy 1.x takes: each solve enters np.errstate."""

    @pytest.fixture(autouse=True)
    def errstate_path(self, monkeypatch):
        monkeypatch.setattr(matops, "_SOLVE_EXTOBJ", None)


def test_numpy_2_solves_under_the_prebuilt_error_state():
    # a numpy release that moves the names it is built from fails here
    assert (matops._SOLVE_EXTOBJ is not None) == (np.lib.NumpyVersion(np.__version__) >= "2.0.0")


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
            prod = float(np.prod(eigvals_sym(m)))
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


class TestClassicalInequalities:
    def test_weyl_inequality(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            x, y = random_hermitian(rng, n), random_hermitian(rng, n)
            lx = eigvals_sym(x)
            ly = eigvals_sym(y)
            lxy = eigvals_sym(x + y)
            assert np.all(lx + ly[0] <= lxy + 1e-9)
            assert np.all(lxy <= lx + ly[-1] + 1e-9)

    def test_trace_inequality_hermitian_vs_psd(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            x = random_hermitian(rng, n)
            y = random_psd(rng, n)
            t = float(np.trace(x @ y).real)
            lam = eigvals_sym(x)
            ty = float(np.trace(y).real)
            assert lam[0] * ty - 1e-9 <= t <= lam[-1] * ty + 1e-9
