import math
from fractions import Fraction

import numpy as np
import pytest

from entlap.cli import main
from entlap.corpus import build, list_entries
from entlap.exact import Exact
from entlap.laplacian import laplacian_of_density, phi
from entlap.matops import BipartiteDims, eigvals_sym
from entlap.states import validate
from entlap.wgraph import edges, graph_from_laplacian

from _oracles import bf_laplacian, random_psd
from _sampling import corpus_points

S7 = math.sqrt(7.0)


def _random_density(rng, n, d1, d2):
    a = random_psd(rng, n)
    return validate(a / np.trace(a).real, BipartiteDims(d1, d2))


class TestLaplacianOfDensity:
    def test_diagonal_state_gives_zero(self):
        rho = validate(np.diag([0.1, 0.2, 0.3, 0.4]), BipartiteDims(2, 2))
        lap = laplacian_of_density(rho)
        assert np.all(lap == 0.0)

    def test_zero_matrix(self):
        assert np.all(laplacian_of_density(np.zeros((3, 3))) == 0.0)

    def test_pure_corpus_state_exact_entries(self, psi):
        lap = laplacian_of_density(psi.exact)
        # diagonal: 3/8 + sqrt(7)/8 twice, 1/4 + sqrt(7)/16, 5*sqrt(7)/16
        expected_diag = [
            Exact.of(Fraction(3, 8)) + Exact.radical(Fraction(1, 8), 7),
            Exact.of(Fraction(3, 8)) + Exact.radical(Fraction(1, 8), 7),
            Exact.of(Fraction(1, 4)) + Exact.radical(Fraction(1, 16), 7),
            Exact.radical(Fraction(5, 16), 7),
        ]
        for i in range(4):
            assert lap[i][i] == expected_diag[i]
        assert lap[0][1] == Exact.of(Fraction(-1, 4))
        assert lap[0][3] == Exact.radical(Fraction(-1, 8), 7)
        np.testing.assert_allclose(laplacian_of_density(psi), bf_laplacian(psi.array), atol=1e-15)

    def test_exact_laplacian_constructs_no_zero(self, monkeypatch):
        # every zero entry of an exact Laplacian reuses an existing zero, so a
        # sparse state's Laplacian costs only its non-zero entries
        built, zeros, zero_entries = 0, 0, 0
        original = Exact.__init__

        def counting(obj, *args, **kwargs):
            nonlocal built, zeros
            original(obj, *args, **kwargs)
            built += 1
            zeros += obj.is_zero()

        for entry in list_entries():
            params = [None] if entry.parameter_domain is None else [
                entry.parameter_domain[0], sum(entry.parameter_domain) / 2, entry.parameter_domain[1]]
            for param in params:
                rho = build(entry.name, param)
                monkeypatch.setattr(Exact, "__init__", counting)
                lap = laplacian_of_density(rho.exact)
                monkeypatch.undo()
                assert zeros == 0, (entry.name, param)
                np.testing.assert_allclose(lap.astype(float), bf_laplacian(rho.array), atol=1e-15)
                zero_entries += sum(not x for x in lap.flat)
        assert built > 0 and zero_entries > 0

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_exact_laplacian_builds_each_distinct_value_once(self, exact_created, name, param):
        # |v| once per distinct negative entry object, -|v| once per distinct
        # off-diagonal modulus, and one Exact per non-zero addend of a row sum
        # past its first: corpus slots share their objects, so repeats cost nothing
        rho = build(name, param)
        m, n = rho.exact, rho.n
        off = [m[i, j] for i in range(n) for j in range(n) if i != j and m[i, j]]
        negatives = {id(v) for v in off if v < 0}
        moduli = negatives | {id(v) for v in off if v > 0}
        row_sums = sum(max(sum(bool(v) for k, v in enumerate(row) if k != i) - 1, 0) for i, row in enumerate(m))
        with exact_created() as created:
            lap = laplacian_of_density(m)
        assert len(created) == len(negatives) + len(moduli) + row_sums
        assert not off or len(off) > len(moduli)  # every corpus state with edges repeats a coherence object
        np.testing.assert_allclose(lap.astype(float), bf_laplacian(rho.array), atol=1e-15)

    def test_cli_rho6_laplacian_builds_fifteen_exact(self, exact_created, capsys):
        # rho6's 4 distinct non-zero entries, -|v| of its 2 distinct coherences and 9 row sums
        with exact_created() as created:
            assert main(["laplacian", "--state", "rho6", "--param", "0.5"]) == 0
        assert len(created) == 15

    def test_matches_bruteforce_on_random_states(self, rng):
        for _ in range(200):
            rho = _random_density(rng, 6, 2, 3)
            lap = laplacian_of_density(rho)
            np.testing.assert_allclose(lap, bf_laplacian(rho.array), atol=1e-14)

    def test_invariants_on_random_states(self, rng):
        ones = {}
        for _ in range(1000):
            d1, d2 = [(2, 2), (2, 3), (3, 3)][int(rng.integers(3))]
            rho = _random_density(rng, d1 * d2, d1, d2)
            lap = laplacian_of_density(rho)
            n = lap.shape[0]
            assert np.max(np.abs(lap - lap.T)) == 0.0
            assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
            one = ones.setdefault(n, np.ones(n))
            assert np.max(np.abs(lap @ one)) <= 1e-9
            vals = eigvals_sym(lap)
            assert vals[0] >= -1e-9
            assert abs(vals[0]) <= 1e-9
            off = lap - np.diag(np.diag(lap))
            assert np.all(off <= 0.0)


class TestExactAndFloatAgree:
    """One kernel builds both entry types: off the diagonal, an exact Laplacian
    reads as the state's float Laplacian bit for bit, since float(-|e|) =
    -|float(e)|, so both give the same edges."""

    @pytest.mark.parametrize("name, param", list(corpus_points()))
    def test_off_diagonal_and_edges(self, name, param):
        rho = build(name, param)
        exact = laplacian_of_density(rho.exact)
        off = ~np.eye(rho.n, dtype=bool)
        assert exact.dtype == object
        assert exact.astype(float)[off].tobytes() == rho.laplacian[off].tobytes()
        exact_graph = graph_from_laplacian(exact)
        assert exact_graph.dtype == object
        assert np.array_equal(edges(exact_graph), edges(rho.graph))


class TestPhi:
    def test_unital_exactly(self):
        for n in range(2, 17):
            np.testing.assert_array_equal(phi(np.eye(n)), np.eye(n))

    def test_is_laplacian_plus_matrix_on_hermitian(self, rng):
        for _ in range(20):
            rho = _random_density(rng, 4, 2, 2)
            assert phi(rho).tobytes() == (rho.laplacian + rho.array).tobytes()

    def test_non_hermitian_reads_each_rows_moduli(self):
        # row 0's modulus is 1 and row 1's is 3: L is not symmetric
        out = phi(np.array([[0.0, 1.0], [-3.0, 0.0]]))
        np.testing.assert_array_equal(out, np.array([[1.0, 0.0], [-6.0, 3.0]]))

    def test_stack_is_each_matrix_alone(self, rng):
        stack = np.stack([_random_density(rng, 6, 2, 3).array for _ in range(3)])
        out = phi(stack)
        for k in range(3):
            assert out[k].tobytes() == phi(stack[k]).tobytes()

    def test_diagonal_fixed_point(self):
        rho = validate(np.diag([0.4, 0.3, 0.2, 0.1]), BipartiteDims(2, 2))
        np.testing.assert_array_equal(phi(rho), rho.array)

    def test_on_pure_corpus_state(self, psi):
        # all entries of the state are non-negative, so phi(rho) is diagonal
        # with entries amplitude_i * sum(amplitudes)
        out = phi(psi)
        amps = np.array([0.5, 0.5, 0.25, S7 / 4])
        np.testing.assert_allclose(out, np.diag(amps * amps.sum()), atol=1e-14)

    def test_positivity_p3_on_random_psd(self, rng):
        for _ in range(1000):
            d1, d2 = [(2, 2), (2, 3)][int(rng.integers(2))]
            rho = _random_density(rng, d1 * d2, d1, d2)
            lam_phi = eigvals_sym(phi(rho))[0]
            lam_rho = float(rho.spectrum[0])
            assert lam_phi >= lam_rho - 1e-9

    def test_restricted_additivity(self, rng):
        # additivity holds when both operands have off-diagonals of one sign
        for sign in (1.0, -1.0):
            for _ in range(200):
                n = int(rng.integers(2, 7))
                a1 = sign * rng.random((n, n))
                a2 = sign * rng.random((n, n))
                for a in (a1, a2):
                    np.fill_diagonal(a, rng.standard_normal(n))
                lhs = phi(a1 + a2)
                rhs = phi(a1) + phi(a2)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_mixed_sign_additivity_fails(self):
        # |a + b| != |a| + |b| for opposite signs, so phi cannot be additive
        a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        a2 = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert np.max(np.abs(phi(a1 + a2) - (phi(a1) + phi(a2)))) > 1.0


class TestCoherence:
    """The l1-norm of coherence is the state's total degree, Tr L_rho."""

    def test_diagonal_state_zero(self):
        rho = validate(np.diag([0.25] * 4), BipartiteDims(2, 2))
        assert rho.total_degree == 0.0

    def test_pure_corpus_state(self, psi):
        assert psi.total_degree == pytest.approx(1 + 5 * S7 / 8, abs=1e-12)

    def test_rho2(self, rho2):
        assert rho2.total_degree == pytest.approx(8 / 81, abs=1e-15)

    def test_equals_offdiagonal_modulus_sum(self, rng):
        for _ in range(200):
            rho = _random_density(rng, 6, 2, 3)
            direct = float(sum(abs(rho.array[i, j]) for i in range(6) for j in range(6) if i != j))
            assert rho.total_degree == pytest.approx(direct, abs=1e-12)


class TestKadisonDiagnostic:
    def test_defect_on_pure_corpus_state(self, psi):
        # phi(rho) is diagonal with an entry 7/16 + 5*sqrt(7)/16 = 1.264 > 1,
        # so phi(rho^2) - phi(rho)^2 has the negative eigenvalue x - x^2;
        # the inequality expected of positive unital linear maps fails here
        # because phi is not linear.
        x = 7 / 16 + 5 * S7 / 16
        p = phi(psi)
        defect = eigvals_sym(phi(psi.array @ psi.array) - p @ p)[0]
        assert defect == pytest.approx(x - x * x, abs=1e-9)
        assert defect < -0.3
