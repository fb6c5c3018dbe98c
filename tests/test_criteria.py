from collections import Counter

import numpy as np
import pytest

import entlap.states
from entlap.corpus import build
from entlap import criteria
from entlap.criteria import (
    ORACLE_VERDICTS,
    CriterionId,
    DecisionTolerance,
    Verdict,
    classify,
    cor4a,
    cor4a_nptes,
    cor6,
    cor6_ppt,
    oracle,
    ppt_oracle,
    purity_test,
    thm1,
    thm3,
    thm3_separability,
    thm3a,
    thm3a_bounds,
    thm3b,
    thm3b_check,
    thm4a,
    thm4a_check,
    thm5,
    thm5_ppt,
    thm6,
    thm6_ppt,
)
from entlap.errors import WrongDimensions
from entlap.exact import Exact
from entlap.matops import BipartiteDims
from entlap.states import validate

from _oracles import bf_connected, bf_edges, bf_laplacian, bf_max_w, bf_partial_transpose
from _sampling import corpus_points, make_rng, random_density, random_mixture_density, random_pure_density


def _dm(arr, d1, d2):
    return validate(np.asarray(arr, dtype=float), BipartiteDims(d1, d2))


def _standalone_results(rho):
    """Every criterion classify runs on rho, each called on its own."""
    results = [purity_test(rho), thm3_separability(rho), thm5_ppt(rho), thm6_ppt(rho),
               thm3b_check(rho), thm4a_check(rho), cor4a_nptes(rho), cor6_ppt(rho)]
    if (rho.dims.d1, rho.dims.d2) == (2, 2):
        results.append(thm3a_bounds(rho))
    return {r.criterion_id: r for r in results}


def _corpus_states():
    return [build(*point) for point in corpus_points()]


def _seeded_ensemble():
    rng = make_rng(17)
    states = []
    for dims in (BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3), BipartiteDims(2, 4)):
        for _ in range(10):
            states += [random_density(rng, dims), random_pure_density(rng, dims),
                       random_mixture_density(rng, dims)]
    return states


def _lifting_counterexample(p=0.2):
    """NPT mixture of the uniformly coherent product state and a maximally
    entangled state; the Laplacian lifts the negative direction, so the
    lambda_min(L + rho^TB) sign test misses the entanglement."""
    plus = np.full(4, 0.5)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = (1 - p) * np.outer(plus, plus) + p * np.outer(bell, bell)
    return _dm(rho, 2, 2)


class TestPptOracle:
    def test_rho2_ppt(self, rho2):
        verdict, lam = ppt_oracle(rho2)
        assert verdict == "PPT"
        assert lam == pytest.approx(65 / 648, abs=1e-12)

    def test_rho3_npt(self, rho3):
        verdict, lam = ppt_oracle(rho3)
        assert verdict == "NPT"
        assert lam == pytest.approx(-0.0118559, abs=1e-6)

    def test_family_threshold(self):
        x_star = np.sqrt(3) / 10
        assert ppt_oracle(build("rho_ab", x_star - 1e-6))[0] == "PPT"
        assert ppt_oracle(build("rho_ab", x_star + 1e-6))[0] == "NPT"


class TestPurityTest:
    def test_pure_corpus_state(self, psi):
        res = purity_test(psi)
        assert res.verdict == Verdict.CONSISTENT_WITH_PURE
        assert res.scalars["det"] == pytest.approx(-0.00027059, abs=1e-6)
        assert res.scalars["negative_eigenvalue_count"] == 3

    def test_mixed_corpus_state(self, rho1):
        res = purity_test(rho1)
        assert res.verdict == Verdict.MIXED
        assert res.scalars["det"] == pytest.approx(0.2188278, abs=5e-4)
        assert res.scalars["negative_eigenvalue_count"] == 8

    def test_maximally_mixed_is_mixed(self):
        # L = 0 for a diagonal state and det(I/4 - I) = (3/4)^4 > 0
        rho = validate(np.eye(4) / 4, BipartiteDims(2, 2))
        res = purity_test(rho)
        assert res.verdict == Verdict.MIXED

    def test_known_false_positive_on_pure_state(self):
        # amplitudes (0.7, 0.7, 0.1, 0.1): phi(rho)-I is diagonal with entries
        # a_i*S - 1, two of which are positive, so the determinant criterion
        # wrongly reports MIXED for a pure state; kept as a regression pin of
        # the criterion's one-sidedness
        v = np.array([0.7, 0.7, 0.1, 0.1])
        v /= np.linalg.norm(v)
        rho = _dm(np.outer(v, v), 2, 2)
        res = purity_test(rho)
        assert res.verdict == Verdict.MIXED
        assert res.scalars["det"] > 0


class TestThm3Separability:
    def test_family_separable_region(self):
        res = thm3_separability(build("rho_ab", 0.1))
        assert res.criterion_id == CriterionId.THM3_SEP_2x2
        assert res.verdict == Verdict.SEPARABLE
        assert res.scalars["lambda_min_l_plus_ptb"] == pytest.approx(0.2 - np.sqrt(2) / 10, abs=1e-12)

    def test_family_entangled_region(self):
        res = thm3_separability(build("rho_ab", 0.25))
        assert res.verdict == Verdict.ENTANGLED_NPT

    def test_large_dims_uses_cor4_id(self, rho2):
        res = thm3_separability(rho2)
        assert res.criterion_id == CriterionId.COR4_NPTES
        assert res.verdict == Verdict.INCONCLUSIVE
        assert res.scalars["lambda_min_l_plus_ptb"] > 0

    def test_misses_lifted_npt_state(self):
        # documented failure of the claimed iff: state is NPT by the oracle
        # but mu stays positive
        rho = _lifting_counterexample(0.2)
        assert ppt_oracle(rho)[0] == "NPT"
        res = thm3_separability(rho)
        assert res.verdict == Verdict.SEPARABLE
        assert res.scalars["lambda_min_l_plus_ptb"] == pytest.approx(0.7, abs=1e-12)


class TestThm5Thm6:
    def test_rho2_satisfies_both(self, rho2):
        res5, res6 = thm5_ppt(rho2), thm6_ppt(rho2)
        assert res5.verdict == Verdict.PPT
        assert res5.scalars["lambda_min_rho"] == pytest.approx(65 / 648, abs=1e-12)
        assert res5.scalars["laplacian_ptb_spread"] == pytest.approx(4 / 81, abs=1e-12)
        assert res6.verdict == Verdict.PPT
        assert res6.scalars["lambda_max_laplacian"] == pytest.approx(4 / 81, abs=1e-12)

    def test_family_threshold_at_x_005(self):
        for x, expected in [(0.04, Verdict.PPT), (0.05, Verdict.PPT), (0.051, Verdict.INCONCLUSIVE), (0.1, Verdict.INCONCLUSIVE)]:
            assert thm5_ppt(build("rho_ab", x)).verdict == expected, x
            assert thm6_ppt(build("rho_ab", x)).verdict == expected, x

    def test_rank_precondition(self, psi):
        assert thm5_ppt(psi).verdict == Verdict.PRECONDITION_FAILED
        assert thm6_ppt(psi).verdict == Verdict.PRECONDITION_FAILED

    def test_diagonal_full_rank_ppt(self):
        rho = _dm(np.diag([0.4, 0.3, 0.2, 0.1]), 2, 2)
        assert thm6_ppt(rho).verdict == Verdict.PPT


class TestThm3a:
    def test_wrong_dims_raises(self, rho2):
        with pytest.raises(WrongDimensions):
            thm3a_bounds(rho2)

    def test_family(self):
        assert thm3a_bounds(build("rho_ab", 0.1)).verdict == Verdict.SEPARABLE
        assert thm3a_bounds(build("rho_ab", 0.25)).verdict == Verdict.ENTANGLED_NPT

    def test_rho5(self, rho5):
        res = thm3a_bounds(rho5)
        assert res.verdict == Verdict.SEPARABLE
        assert res.scalars["total_degree"] == pytest.approx(0.3, abs=1e-12)


class TestThm3b:
    def test_rho3(self, rho3):
        res = thm3b_check(rho3)
        assert res.verdict == Verdict.INCONCLUSIVE
        assert res.scalars["lambda_min_l_plus_ptb"] == pytest.approx(0.376393, abs=1e-5)
        assert res.scalars["half_max_w"] == pytest.approx(0.5, abs=1e-12)

    def test_disconnected_precondition(self, rho2):
        assert thm3b_check(rho2).verdict == Verdict.PRECONDITION_FAILED

    def test_necessity_on_random_npt_states(self):
        # the necessity chain lambda_min(L + rho^TB) < lambda_max(L) <= W/2 is
        # a theorem only under the INCLUSIVE convention; the default-convention
        # bound is slightly smaller and fails on rare states (1 in 500 here)
        from entlap.laplacian import laplacian_of_density
        from entlap.wgraph import WConvention, graph_from_laplacian, max_w

        rng = make_rng(7)
        checked = 0
        excluded_violations = 0
        while checked < 500:
            rho = random_density(rng, BipartiteDims(2, 2))
            if ppt_oracle(rho)[0] != "NPT":
                continue
            res = thm3b_check(rho)
            if res.verdict == Verdict.PRECONDITION_FAILED:
                continue
            checked += 1
            g = graph_from_laplacian(laplacian_of_density(rho))
            half_inclusive = float(max_w(g, WConvention.INCLUSIVE)) / 2
            assert res.scalars["lambda_min_l_plus_ptb"] <= half_inclusive + 1e-9
            if res.scalars["lambda_min_l_plus_ptb"] > res.scalars["half_max_w"] + 1e-9:
                excluded_violations += 1
        assert excluded_violations <= 3  # measured: 1 for this seed


class TestThm4a:
    def test_rho2(self, rho2):
        res = thm4a_check(rho2)
        assert res.verdict == Verdict.INCONCLUSIVE
        assert res.scalars["one_plus_total_degree"] == pytest.approx(1 + 8 / 81, abs=1e-12)

    def test_maximally_mixed(self):
        res = thm4a_check(validate(np.eye(4) / 4, BipartiteDims(2, 2)))
        assert res.scalars["one_plus_total_degree"] == pytest.approx(1.0)
        assert res.scalars["lambda_min_l_plus_ptb"] == pytest.approx(0.25, abs=1e-12)

    def test_rho5(self, rho5):
        res = thm4a_check(rho5)
        assert res.scalars["one_plus_total_degree"] == pytest.approx(1.3, abs=1e-12)
        assert res.verdict == Verdict.INCONCLUSIVE


class TestCor4a:
    def test_rho3_fires_with_caveat(self, rho3):
        res = cor4a_nptes(rho3)
        assert res.verdict == Verdict.ENTANGLED_NPT
        assert "direction disputed" in res.caveat
        assert res.scalars["one_plus_total_degree"] == pytest.approx(2.6, abs=1e-12)
        assert res.scalars["lambda_max_ptb"] == pytest.approx(0.700948, abs=1e-5)
        assert res.scalars["one_plus_total_degree"] < res.scalars["rhs"]

    def test_disconnected_precondition(self, rho2):
        assert cor4a_nptes(rho2).verdict == Verdict.PRECONDITION_FAILED

    def test_fires_on_ppt_state_and_is_flagged(self, rho5):
        # the direction caveat in action: a PPT state satisfying the inequality
        res = cor4a_nptes(rho5)
        assert res.verdict == Verdict.ENTANGLED_NPT
        report = classify(rho5, state_id="rho5")
        assert CriterionId.COR4A_NPTES in report.consistency_flags


class TestCor6:
    def test_rho5_upgraded_to_separable(self, rho5):
        res = cor6_ppt(rho5)
        assert res.verdict == Verdict.SEPARABLE
        assert res.scalars["lambda_min_rho"] == pytest.approx(0.1691, abs=1e-4)
        assert res.scalars["half_max_w"] == pytest.approx(0.15, abs=1e-12)

    def test_rho6_grid_stays_ppt(self):
        for a in np.linspace(0.01, 1.0, 25):
            res = cor6_ppt(build("rho6", float(a)))
            assert res.verdict == Verdict.PPT, a

    def test_rho3_inconclusive(self, rho3):
        assert cor6_ppt(rho3).verdict == Verdict.INCONCLUSIVE

    def test_preconditions(self, psi, rho2):
        assert cor6_ppt(psi).verdict == Verdict.PRECONDITION_FAILED  # rank 1
        assert cor6_ppt(rho2).verdict == Verdict.PRECONDITION_FAILED  # disconnected


class TestClassify:
    def test_family_entangled_point(self):
        report = classify(build("rho_ab", 0.2), state_id="rho_ab(0.2)")
        assert report.oracle_verdict == "NPT"
        by_id = {r.criterion_id: r for r in report.results}
        assert by_id[CriterionId.THM3_SEP_2x2].verdict == Verdict.ENTANGLED_NPT
        assert not report.consistency_flags

    def test_rho2_report(self, rho2):
        report = classify(rho2, state_id="rho2")
        assert report.oracle_verdict == "PPT"
        by_id = {r.criterion_id: r for r in report.results}
        assert by_id[CriterionId.THM5_PPT].verdict == Verdict.PPT
        assert by_id[CriterionId.THM6_PPT].verdict == Verdict.PPT
        assert by_id[CriterionId.COR4_NPTES].verdict == Verdict.INCONCLUSIVE
        assert CriterionId.THM3A_BOUNDS not in by_id  # 2x4 state

    def test_rho5_report(self, rho5):
        report = classify(rho5, state_id="rho5")
        by_id = {r.criterion_id: r for r in report.results}
        assert report.oracle_verdict == "PPT"
        assert by_id[CriterionId.COR6_PPT].verdict == Verdict.SEPARABLE
        assert by_id[CriterionId.THM3A_BOUNDS].verdict == Verdict.SEPARABLE

    def test_results_ordered_by_criterion_id(self, rho3):
        report = classify(rho3)
        order = {cid: k for k, cid in enumerate(CriterionId)}
        ranks = [order[r.criterion_id] for r in report.results]
        assert ranks == sorted(ranks)

    def test_flags_thm3_on_lifted_counterexample(self):
        report = classify(_lifting_counterexample(0.2), state_id="lifted")
        assert report.oracle_verdict == "NPT"
        assert CriterionId.THM3_SEP_2x2 in report.consistency_flags

    def test_every_flag_contradicts_oracle(self):
        rng = make_rng(11)
        contradicting = {Verdict.SEPARABLE, Verdict.PPT, Verdict.ENTANGLED_NPT}
        for _ in range(100):
            rho = random_mixture_density(rng, BipartiteDims(2, 2))
            report = classify(rho)
            by_id = {r.criterion_id: r for r in report.results}
            for cid in report.consistency_flags:
                verdict = by_id[cid].verdict
                assert verdict in contradicting
                if report.oracle_verdict == "NPT":
                    assert verdict in (Verdict.SEPARABLE, Verdict.PPT)
                else:
                    assert verdict == Verdict.ENTANGLED_NPT


def _fresh(rho):
    """A copy of rho validated anew from its entries, with nothing derived from it computed yet."""
    return validate(rho.array if rho.entries is None else rho.entries, rho.dims, tol=rho.validation_tolerance)


def _count_kernel_calls(monkeypatch, names):
    """Count calls to each named kernel where `entlap.states` binds it."""
    calls = Counter()
    for name in names:
        original = getattr(entlap.states, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(entlap.states, name, counting)
    return calls


class TestSharedAnalysis:
    """Criteria read the state's derived values, each computed once on first read."""

    @pytest.mark.parametrize("states", [_corpus_states, _seeded_ensemble], ids=["corpus", "seeded"])
    def test_report_equals_standalone_calls(self, states):
        for rho in states():
            report = classify(rho)
            assert (report.oracle_verdict, report.oracle_lambda_min_ptb) == ppt_oracle(_fresh(rho))
            assert {r.criterion_id: r for r in report.results} == _standalone_results(_fresh(rho))

    @pytest.mark.parametrize("states", [_corpus_states, _seeded_ensemble], ids=["corpus", "seeded"])
    def test_scalars_match_bruteforce(self, states):
        # an independent route to every scalar a report carries, so a criterion
        # reading the wrong field of the shared record fails here
        for rho in states():
            m, n = rho.array, rho.n
            lap = bf_laplacian(m)
            ptb = bf_partial_transpose(m, rho.dims.d1, rho.dims.d2)
            spec_ptb = np.linalg.eigvalsh(ptb)
            spec_lap_ptb = np.linalg.eigvalsh(bf_partial_transpose(lap, rho.dims.d1, rho.dims.d2))
            phi_minus_i = lap + m - np.eye(n)
            edges = bf_edges(lap)
            half = bf_max_w(n, edges, inclusive=False) / 2 if edges else None
            expected = {
                "lambda_min_l_plus_ptb": np.linalg.eigvalsh(lap + ptb)[0],
                "lambda_min_rho": np.linalg.eigvalsh(m)[0],
                "lambda_max_laplacian": np.linalg.eigvalsh(lap)[-1],
                "laplacian_ptb_spread": spec_lap_ptb[-1] - spec_lap_ptb[0],
                "lambda_max_ptb": spec_ptb[-1],
                "total_degree": np.trace(lap),
                "one_plus_total_degree": 1 + np.trace(lap),
                "half_max_w": half,
                "rhs": (n - 1) * (half + spec_ptb[-1]) if edges else None,
                "det": np.linalg.det(phi_minus_i).real,
                "negative_eigenvalue_count": np.sum(np.linalg.eigvalsh(phi_minus_i) < -1e-9),
                "rank": np.sum(np.linalg.eigvalsh(m) > 1e-9),
            }
            report = classify(rho)
            assert report.oracle_lambda_min_ptb == pytest.approx(spec_ptb[0], abs=1e-12)
            for r in report.results:
                for name, value in r.scalars.items():
                    assert value == pytest.approx(expected[name], abs=1e-12), (r.criterion_id, name)

    def test_one_pass_per_classify(self, monkeypatch, rho2):
        calls = _count_kernel_calls(monkeypatch, ("laplacian_of_density", "partial_transpose",
                                                  "graph_from_laplacian", "is_connected", "max_w"))
        rng = make_rng(23)
        states = [_fresh(rho2), _lifting_counterexample(0.2), _dm(np.diag([0.1, 0.2, 0.3, 0.4]), 2, 2),
                  random_density(rng, BipartiteDims(2, 3))] + [
            random_mixture_density(rng, dims) for dims in (BipartiteDims(2, 2), BipartiteDims(3, 3))]
        kinds = set()
        for rho in states:
            full_rank = bool(np.all(np.linalg.eigvalsh(rho.array) > 1e-9))
            connected = bf_connected(rho.n, bf_edges(bf_laplacian(rho.array)))
            kinds.add((full_rank, connected))
            calls.clear()
            classify(rho)
            assert calls == Counter(laplacian_of_density=1, partial_transpose=1 + full_rank,
                                    graph_from_laplacian=1, is_connected=1, max_w=int(connected))
            calls.clear()
            classify(rho)
            assert not calls
        assert kinds == {(True, True), (True, False), (False, True)}

    def test_ppt_oracle_reads_only_the_partial_transpose(self, monkeypatch, rho3):
        calls = _count_kernel_calls(monkeypatch, ("eigvals_sym", "laplacian_of_density",
                                                  "graph_from_laplacian"))
        for rho in (_fresh(rho3), _lifting_counterexample(0.2)):
            calls.clear()
            ppt_oracle(rho)
            assert calls == {"eigvals_sym": 1}

    def test_classify_creates_no_exact(self, monkeypatch):
        # verdicts run in float: an exact state's Exact entries are never read,
        # so no Exact scalar may be built inside classify
        created = 0
        original = Exact.__init__

        def counting(obj, *args, **kwargs):
            nonlocal created
            created += 1
            original(obj, *args, **kwargs)

        for rho in _corpus_states():
            monkeypatch.setattr(Exact, "__init__", counting)
            created = 0
            classify(rho)
            monkeypatch.undo()
            assert rho.exact is not None and created == 0

    def test_build_and_classify_create_no_exact(self, exact_created):
        # a rational state's entries stay Fractions until its exact entries are read
        for name, param in corpus_points():
            if name == "psi":  # built from Exact amplitudes
                continue
            with exact_created() as created:
                classify(build(name, param))
            assert not created, (name, param)

    @pytest.mark.parametrize("states", [_corpus_states, _seeded_ensemble], ids=["corpus", "seeded"])
    def test_every_eigensolve_gets_an_exactly_hermitian_matrix(self, monkeypatch, states):
        # eigvals_sym reads only the lower triangle and checks nothing, so every
        # matrix a validated state derives must be exactly Hermitian
        solved = []
        original = entlap.states.eigvals_sym

        def recording(m):
            solved.append(bool(np.array_equal(m, m.conj().T)))
            return original(m)

        monkeypatch.setattr(entlap.states, "eigvals_sym", recording)
        for rho in states():
            classify(rho)
        assert solved and all(solved)


# -- columns over a stack --------------------------------------------------

_COLUMN_DIMS = (BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3), BipartiteDims(2, 4),
                BipartiteDims(4, 4))


def _werner(d, p):
    """The Werner state a I + b V on C^d x C^d (V the swap): full rank, its
    coherence graph the matching (ij)-(ji), NPT iff p > 1/2."""
    a = p / (d * (d - 1)) + (1 - p) / (d * (d + 1))
    b = (1 - p) / (d * (d + 1)) - p / (d * (d - 1))
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return a * np.eye(d * d) + b * swap


def _column_ensemble(dims, seed=29):
    """Raw states for one stack: Hilbert-Schmidt random (mostly NPT), pure
    (rank 1, NPT when entangled), pure-product mixtures (rank 2), weak-coherence
    mixtures with the maximally mixed state (full rank, where THM5, THM6 and
    COR6 fire), block-diagonal pinchings of those and of pure states
    (disconnected; rank 2 for a pure one), diagonal states (no edges) and,
    for d x d, Werner states (at d = 4, p = 13/25 THM6 certifies PPT on an
    NPT state)."""
    rng = make_rng(seed)
    n, half = dims.n, dims.n // 2
    raws = []
    for _ in range(6):
        hs = random_density(rng, dims).array
        raws += [hs, random_pure_density(rng, dims).array, random_mixture_density(rng, dims).array]
        raws += [(1 - t) * np.eye(n) / n + t * hs for t in (0.02, 0.1, 0.3)]
        pinched, pinched_pure = hs.copy(), random_pure_density(rng, dims).array.copy()
        for m in (pinched, pinched_pure):
            m[:half, half:] = m[half:, :half] = 0
        raws += [pinched, pinched_pure, np.diag(rng.dirichlet(np.ones(n))).astype(complex)]
    if dims.d1 == dims.d2:
        raws += [_werner(dims.d1, p).astype(complex) for p in (0.3, 13 / 25, 0.8)]
    return raws


# Each criterion, written once over a state or a stack, and the public
# function that reads its result on one state.
_CRITERIA = {"thm1": (thm1, purity_test), "thm3": (thm3, thm3_separability), "thm5": (thm5, thm5_ppt),
             "thm6": (thm6, thm6_ppt), "thm3a": (thm3a, thm3a_bounds), "thm3b": (thm3b, thm3b_check),
             "thm4a": (thm4a, thm4a_check), "cor4a": (cor4a, cor4a_nptes), "cor6": (cor6, cor6_ppt)}


def _names(dims):
    """The oracle and the criteria that run in dims (THM3A only in 2x2)."""
    return ["oracle"] + [name for name in _CRITERIA if name != "thm3a" or (dims.d1, dims.d2) == (2, 2)]


def _identity(result):
    """What must agree bit for bit: id, verdict, scalar names in order with their bits, caveat."""
    return (result.criterion_id, result.verdict, [(k, float(v).hex()) for k, v in result.scalars.items()],
            result.caveat)


def _stack_rows(name, stack, tol):
    """Each row's outcome, read off the codes and scalars of the whole stack."""
    if name == "oracle":
        codes, lam = oracle(stack, tol.eps)
        assert codes.dtype == np.int8
        return [(ORACLE_VERDICTS[code], float(x).hex()) for code, x in zip(codes, lam)]
    table, codes, scalars = _CRITERIA[name][0](stack, tol.eps)
    assert codes.dtype == np.int8 and codes.shape == stack.array.shape[:1]
    return [_identity(criteria._result(stack[k], table, code, {s: v[k] for s, v in scalars.items()}))
            for k, code in enumerate(codes)]


def _alone_rows(name, states, tol):
    """Each state's outcome, by the public function on the state validated alone."""
    if name == "oracle":
        return [(verdict, lam.hex()) for verdict, lam in (ppt_oracle(rho, tol) for rho in states)]
    return [_identity(_CRITERIA[name][1](rho, tol)) for rho in states]


def _outcome(row):
    """The verdict of a row, with its caveat for a criterion (THM3B's verdict never changes)."""
    return row[0] if len(row) == 2 else (row[1], row[3])


# Per threshold: a state's margin to the band edge, the eps at which its
# outcome flips (not positive: it never flips).  THM4A never fires, since
# lambda_min(L + rho^TB) is at most the mean eigenvalue (1 + d_G) / n, so every
# margin of it is negative.
_THRESHOLDS = {
    "oracle": lambda r: -r.spec_ptb[0],
    "thm1": lambda r: abs(r.det_phi_minus_i),
    "thm3": lambda r: -r.spec_l_plus_ptb[0],
    "thm5": lambda r: r.spec_lap_ptb[-1] - r.spec_lap_ptb[0] - r.spectrum[0] if r.rank == r.n else 0.0,
    "thm6": lambda r: r.spec_lap[-1] - r.spectrum[0] if r.rank == r.n else 0.0,
    "thm3a": lambda r: -r.spec_l_plus_ptb[0],
    "thm3b": lambda r: r.spec_l_plus_ptb[0] - r.max_w / 2.0 if r.connected else 0.0,
    "thm4a": lambda r: r.spec_l_plus_ptb[0] - (1.0 + r.total_degree),
    "cor4a": lambda r: ((r.n - 1) * (r.max_w / 2.0 + r.spec_ptb[-1]) - (1.0 + r.total_degree)
                        if r.connected else 0.0),
    "cor6": lambda r: r.spectrum[0] - r.max_w / 2.0 if r.rank == r.n and r.connected else 0.0,
}


class TestStackColumns:
    """Row k of the oracle's and each criterion's codes over a stack is the
    result of the state validated alone."""

    @pytest.mark.parametrize("dims", _COLUMN_DIMS, ids=str)
    def test_columns_are_the_scalar_criteria(self, dims):
        raws = _column_ensemble(dims)
        alone = [validate(raw, dims) for raw in raws]
        stack = validate(np.stack(raws), dims)
        tol = DecisionTolerance()
        rows = {name: _stack_rows(name, stack, tol) for name in _names(dims)}
        for name, column in rows.items():
            assert column == _alone_rows(name, alone, tol), name
        outcomes = {name: {_outcome(row) for row in column} for name, column in rows.items()}
        assert outcomes["oracle"] == {"NPT", "PPT"}
        assert {Verdict.PPT, Verdict.INCONCLUSIVE, Verdict.PRECONDITION_FAILED} <= {v for v, _ in outcomes["thm5"]}
        assert {(Verdict.INCONCLUSIVE, None), (Verdict.PRECONDITION_FAILED, "state is not full rank"),
                (Verdict.PRECONDITION_FAILED, "coherence graph is not connected")} <= outcomes["cor6"]
        assert len(outcomes["thm3b"]) == 3 and len(outcomes["cor4a"]) == 3
        assert np.isnan(cor6(stack, tol.eps)[2]["half_max_w"]).any()  # the diagonal states have no edges
        if dims == BipartiteDims(4, 4):  # THM6's refutation: PPT certified on an NPT Werner state
            pairs = {(o[0], _outcome(t)) for o, t in zip(rows["oracle"], rows["thm6"])}
            assert ("NPT", (Verdict.PPT, None)) in pairs

    @pytest.mark.parametrize("dims", _COLUMN_DIMS, ids=str)
    def test_columns_at_the_band_edges(self, dims):
        # eps at each threshold's smallest margin and its float neighbours puts
        # that state on, just inside and just outside the band's edge
        raws = _column_ensemble(dims)
        alone = [validate(raw, dims) for raw in raws]
        stack = validate(np.stack(raws), dims)
        for name in _names(dims):
            margins = [float(_THRESHOLDS[name](rho)) for rho in alone]
            flips = name != "thm4a"
            # the smallest positive margin (every threshold but THM4A's must have
            # one); THM4A never flips, so the state nearest its band
            m, k = min((m, k) for k, m in enumerate(margins) if m > 0) if flips else \
                min((-m, k) for k, m in enumerate(margins))
            seen = set()
            for eps in (m / 2, np.nextafter(m, 0), m, np.nextafter(m, np.inf), 2 * m):
                tol = DecisionTolerance(float(eps))
                rows = _stack_rows(name, stack, tol)
                assert rows == _alone_rows(name, alone, tol), (name, eps)
                seen.add(_outcome(rows[k]))
            assert len(seen) == (2 if flips else 1), name  # the band's edge passed over state k
