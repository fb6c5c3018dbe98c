import numpy as np
import pytest

from entlap.corpus import build, build_rho_ab, list_entries
from entlap.errors import StateValidationError
from entlap.matops import BipartiteDims
from entlap.states import linear_entropy, purity, purity_report, rank, validate

from _oracles import random_psd


def _dm(arr, d1, d2, tol=1e-9):
    return validate(np.asarray(arr, dtype=complex), BipartiteDims(d1, d2), tol=tol)


class TestValidate:
    def test_maximally_mixed_is_valid(self):
        rho = _dm(np.eye(4) / 4, 2, 2)
        assert rho.n == 4
        assert purity(rho) == pytest.approx(0.25)

    def test_pure_corpus_state_is_rank_one(self, psi):
        assert rank(psi) == 1
        assert purity(psi) == pytest.approx(1.0, abs=1e-12)

    def test_non_psd_rejected_with_magnitude(self):
        # inner-block coherence 0.3 pushes the smallest eigenvalue to 0.3 - sqrt(0.1)
        m = np.diag([0.1, 0.2, 0.4, 0.3])
        m[1, 2] = m[2, 1] = 0.3
        with pytest.raises(StateValidationError) as err:
            _dm(m, 2, 2)
        axioms = {v.axiom: v.magnitude for v in err.value.violations}
        assert set(axioms) == {"NotPSD"}
        assert axioms["NotPSD"] == pytest.approx(0.3 - np.sqrt(0.1), abs=1e-12)

    def test_trace_violation_reported(self):
        with pytest.raises(StateValidationError) as err:
            _dm(np.eye(4) / 5, 2, 2)
        assert [v.axiom for v in err.value.violations] == ["TraceNotOne"]
        assert str(err.value.violations[0]) == "TraceNotOne (0.8)"

    def test_hermiticity_violation_reported(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(StateValidationError) as err:
            _dm(m, 2, 2)
        assert [v.axiom for v in err.value.violations] == ["NotHermitian"]

    def test_dimension_mismatch_reported(self):
        with pytest.raises(StateValidationError) as err:
            _dm(np.eye(4) / 4, 2, 3)
        assert [v.axiom for v in err.value.violations] == ["DimensionMismatch"]

    def test_small_asymmetry_averaged_away(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-12
        rho = _dm(m, 2, 2)
        assert np.max(np.abs(rho.array - rho.array.conj().T)) == 0.0

    def test_idempotent(self, rng):
        a = random_psd(rng, 6)
        a = a / np.trace(a).real
        first = validate(a, BipartiteDims(2, 3))
        second = validate(first.array, BipartiteDims(2, 3))
        np.testing.assert_array_equal(first.array, second.array)


class TestExactCompanion:
    def test_every_corpus_state_revalidates_with_its_companion(self):
        for entry in list_entries():
            rho = build(entry.name, None if entry.parameter_domain is None else entry.parameter_domain[1])
            again = validate(rho.array, rho.dims, tol=rho.validation_tolerance, exact=rho.exact)
            assert np.array_equal(again.exact, rho.exact), entry.name

    def test_mismatched_companion_rejected_with_worst_difference(self, rho5):
        exact = rho5.exact.copy()
        exact[0, 1] = exact[1, 0] = exact[0, 1] * 2  # 1/20 -> 1/10
        with pytest.raises(StateValidationError) as err:
            validate(rho5.array, rho5.dims, exact=exact)
        (violation,) = err.value.violations
        assert violation.axiom == "ExactMismatch"
        assert violation.magnitude == pytest.approx(0.05, abs=1e-15)

    def test_wrong_shaped_companion_rejected(self, rho5):
        with pytest.raises(StateValidationError) as err:
            validate(rho5.array, rho5.dims, exact=rho5.exact[:3, :3])
        assert [v.axiom for v in err.value.violations] == ["ExactMismatch"]


class TestPurityFunctionals:
    def test_purity_of_maximally_mixed(self):
        assert purity(_dm(np.eye(4) / 4, 2, 2)) == pytest.approx(0.25)

    def test_purity_rho5(self, rho5):
        # exact value 1/4 + 6/400
        assert purity(rho5) == pytest.approx(0.265, abs=1e-12)

    def test_linear_entropy_normalisations(self):
        mixed = _dm(np.eye(4) / 4, 2, 2)
        assert linear_entropy(mixed) == pytest.approx(1.0, abs=1e-12)
        assert linear_entropy(mixed, literal_normalization=True) == pytest.approx(0.8, abs=1e-12)

    def test_linear_entropy_zero_iff_pure(self, psi, rho5, rng):
        assert linear_entropy(psi) == pytest.approx(0.0, abs=1e-9)
        assert linear_entropy(rho5) == pytest.approx((4 / 3) * (1 - 0.265), abs=1e-12)
        for _ in range(500):
            a = random_psd(rng, 4)
            rho = validate(a / np.trace(a).real, BipartiteDims(2, 2))
            s = linear_entropy(rho)
            assert -1e-9 <= s <= 1 + 1e-9
            assert (s <= 1e-9) == (rank(rho) == 1)

    def test_purity_bounds_on_random_states(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 4)) * 2
            a = random_psd(rng, n)
            rho = validate(a / np.trace(a).real, BipartiteDims(2, n // 2))
            assert 1 / n - 1e-9 <= purity(rho) <= 1 + 1e-9

    def test_report(self, rho5):
        rep = purity_report(rho5)
        assert rep.rank == 4
        assert rep.purity == pytest.approx(0.265, abs=1e-12)
        assert rep.linear_entropy == pytest.approx(0.98, abs=1e-12)


class TestRhoAbFamily:
    def test_rank_profile(self):
        assert rank(build_rho_ab(0.0)) == 4
        assert rank(build_rho_ab(0.1)) == 4

    def test_psd_boundary(self):
        # sqrt(0.08) is the exact PSD boundary; the published endpoint 0.283
        # sits 1.5e-4 past it and is admitted only by the relaxed tolerance
        rho = build_rho_ab(0.283)
        assert float(rho.eigenvalues()[0]) == pytest.approx(-1.48e-4, abs=2e-6)
        with pytest.raises(StateValidationError):
            m = build_rho_ab(0.283).array
            validate(m, BipartiteDims(2, 2), tol=1e-9)
