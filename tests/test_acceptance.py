"""Acceptance suite: reference-value checks and seeded property ensembles.

Each test prints one [PASS]/[FAIL] line per checked item (run with -s to see
them).  Seven tests reproduce the documented paper discrepancies (README "Known
discrepancies"): the four `reference_*` tests and the three `criterion_08`
claim tests (purity soundness, sign-test/oracle agreement, THM6 on the 4x4
Werner state).  Each asserts the proven fact that refutes the quoted figure
or claim, by closed forms and by the independent routes in `_oracles.py`, and
prints the quoted value next to the reproduced one.  All seven must pass;
none may be xfailed, skipped or loosened.  Reproduce the table with

    pytest tests/test_acceptance.py -s -k "reference_ or purity_soundness or sign_test or thm6_werner"
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from entlap.corpus import build
from entlap.criteria import (
    CriterionId,
    Verdict,
    classify,
    cor4a_nptes,
    cor6_ppt,
    ppt_oracle,
    purity_test,
    thm3_separability,
    thm5_ppt,
    thm6_ppt,
)
from entlap.exact import Exact
from entlap.laplacian import laplacian_of_density, phi
from entlap.matops import BipartiteDims, determinant, eigvals_sym, partial_transpose
from entlap.states import validate
from entlap.wgraph import WConvention, edge_w, graph_from_laplacian, is_connected, max_w

from _oracles import (
    bf_edge_w,
    bf_laplacian,
    bf_max_w,
    bf_partial_transpose,
    random_hermitian,
    random_psd,
)
from _sampling import make_rng, random_density, random_mixture_density, random_pure_density

EPS = 1e-9
S7 = math.sqrt(7.0)


def check(name: str, condition: bool, detail: str = "") -> bool:
    tag = "PASS" if condition else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    return condition


def _all(checks: list[bool]) -> None:
    assert all(checks), "see [FAIL] lines above"


def _exact_edges(rho) -> dict[tuple[int, int], Fraction]:
    """Coherence-graph edges {(i, j): |rho_ij|}, i < j, read off a rational corpus state."""
    n = rho.n
    return {(i, j): abs(rho.exact[i][j].as_fraction())
            for i in range(n) for j in range(i + 1, n) if not rho.exact[i][j].is_zero()}


def _bare_sum(g, i: int, j: int) -> Exact:
    """d_i + d_j: the endpoint weights of edge (i, j) without W's cross sums."""
    return g[i].sum() + g[j].sum()


# ----------------------------------------------------------------- 1


def test_criterion_01_pure_state_determinant(psi):
    op = phi(psi) - np.eye(4)
    det = determinant(op)
    # independent closed form: phi(rho)-I is diagonal with entries a_i*S - 1
    amps = np.array([0.5, 0.5, 0.25, S7 / 4])
    expected = float(np.prod(amps * amps.sum() - 1))
    neg = int(np.sum(eigvals_sym(op) < -EPS))
    checks = [
        check("1. det(phi(psi)-I) = -0.00027059 within 1e-6", abs(det - (-0.00027059)) <= 1e-6, f"det={det:.10g}"),
        check("1. det matches independent closed form", abs(det - expected) <= 1e-12),
        check("1. exactly three negative eigenvalues", neg == 3, f"count={neg}"),
        check("1. purity test returns CONSISTENT_WITH_PURE",
              purity_test(psi).verdict == Verdict.CONSISTENT_WITH_PURE),
    ]
    _all(checks)


# ----------------------------------------------------------------- 2


def test_criterion_02_mixed_state_determinant(rho1):
    op = phi(rho1) - np.eye(8)
    det = determinant(op)
    # independent closed form: diagonal entries are rho_ii + degree_i - 1
    expected = float(
        Fraction(551, 648) ** 4 * Fraction(559, 648) ** 2 * Fraction(3, 4) ** 2
    )
    spectrum = eigvals_sym(op)
    res = purity_test(rho1)
    checks = [
        check("2. det(phi(rho1)-I) = 0.2188278 within 5e-4", abs(det - 0.2188278) <= 5e-4, f"det={det:.10g}"),
        check("2. det matches exact closed form", abs(det - expected) <= 1e-12),
        check("2. all 8 eigenvalues negative", bool(np.all(spectrum < 0))),
        check("2. verdict MIXED", res.verdict == Verdict.MIXED),
    ]
    _all(checks)


# ----------------------------------------------------------------- 3


def _bisect_flip(flip_fn, lo: float, hi: float, iters: int = 60) -> float:
    assert flip_fn(lo) is False and flip_fn(hi) is True
    for _ in range(iters):
        mid = (lo + hi) / 2
        if flip_fn(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_criterion_03_coherence_family(rho5):
    x_star = math.sqrt(3) / 10
    flip_oracle = _bisect_flip(lambda x: ppt_oracle(build("rho_ab", x))[0] == "NPT", 0.1, 0.25)
    flip_thm3 = _bisect_flip(
        lambda x: thm3_separability(build("rho_ab", x)).verdict == Verdict.ENTANGLED_NPT, 0.1, 0.25)
    checks = [
        check("3. oracle flips at sqrt(3)/10", abs(flip_oracle - x_star) <= 1e-6, f"{flip_oracle:.8f}"),
        check("3. sign test flips at sqrt(3)/10", abs(flip_thm3 - x_star) <= 1e-6, f"{flip_thm3:.8f}"),
    ]
    lap_ok, lap_pt_ok = True, True
    for x in (0.04, 0.1, 0.17, 0.25):
        rho = build("rho_ab", x)
        lap = laplacian_of_density(rho)
        vals = eigvals_sym(lap)
        lap_ok &= bool(np.max(np.abs(vals - np.array([0, 0, 0, 2 * x]))) <= 1e-12)
        vals_pt = eigvals_sym(partial_transpose(lap, rho.dims))
        lap_pt_ok &= bool(np.max(np.abs(vals_pt - np.array([-x, x, x, x]))) <= 1e-12)
    checks += [
        check("3. Laplacian spectrum {0,0,0,2x} within 1e-12", lap_ok),
        check("3. transposed-Laplacian spectrum {-x,x,x,x} within 1e-12", lap_pt_ok),
    ]
    boundary_ok = True
    for x in np.arange(0.005, 0.15, 0.005):
        expected = Verdict.PPT if x <= 0.05 + EPS else Verdict.INCONCLUSIVE
        boundary_ok &= thm5_ppt(build("rho_ab", float(x))).verdict == expected
        boundary_ok &= thm6_ppt(build("rho_ab", float(x))).verdict == expected
    checks.append(check("3. spectral PPT tests hold exactly for x <= 0.05", boundary_ok))
    _all(checks)


# ----------------------------------------------------------------- 4


def test_criterion_04_separable_2x4_state(rho2):
    vals = rho2.spectrum
    lap_vals = eigvals_sym(laplacian_of_density(rho2))
    expected_lap = np.array([0, 0, 0, 0, 0, 2 / 81, 2 / 81, 4 / 81])
    res5 = thm5_ppt(rho2)
    pt = partial_transpose(rho2.array, rho2.dims)
    pt_exact = partial_transpose(rho2.exact, rho2.dims)
    checks = [
        check("4. lambda_min = 65/648 within 1e-12", abs(vals[0] - 65 / 648) <= 1e-12),
        check("4. lambda_max = 97/648 within 1e-12", abs(vals[-1] - 97 / 648) <= 1e-12),
        check("4. Laplacian spectrum {0^5, 2/81, 2/81, 4/81} within 1e-12",
              bool(np.max(np.abs(lap_vals - expected_lap)) <= 1e-12)),
        check("4. spectral inequality 65/648 > 4/81 verified",
              res5.verdict == Verdict.PPT
              and res5.scalars["lambda_min_rho"] > res5.scalars["laplacian_ptb_spread"]),
        check("4. partial transpose is a bit-exact fixed point",
              bool(np.array_equal(pt, rho2.array))
              and all(pt_exact[i][j] == rho2.exact[i][j] for i in range(8) for j in range(8))),
    ]
    _all(checks)


# ----------------------------------------------------------------- 5


def test_criterion_05_npt_state_scalars(rho3):
    lap = laplacian_of_density(rho3)
    ptb = partial_transpose(rho3.array, rho3.dims)
    mu = float(eigvals_sym(lap + ptb)[0])
    spectrum = eigvals_sym(ptb)
    checks = [
        check("5. lambda_min(L + rho3^TB) = 0.3763 within 1e-4", abs(mu - 0.3763) <= 1e-4, f"{mu:.6f}"),
        check("5. transposed spectrum sums exactly to 1", abs(spectrum.sum() - 1.0) <= 1e-12),
        check("5. oracle says NPT", ppt_oracle(rho3)[0] == "NPT"),
    ]
    _all(checks)


def test_criterion_05_reference_ptb_spectrum(rho3):
    """Quoted spectrum of rho3^TB: {0.7, 0.16, 0.14, -0.01}.

    rho3^TB has entries in tenths; its characteristic polynomial, scaled by
    5000, is 5000 l^4 - 5000 l^3 + 1150 l^2 - 70 l - 1, with roots -0.0118560,
    0.1454624, 0.1654458 and 0.7009478.  The quoted figures are these roots
    truncated toward zero to two decimals, not rounded: they sum to 0.99, not
    to tr rho3^TB = 1, and 0.1454624 and 0.1654458 sit 0.00546 and 0.00545
    from their figures, outside the 0.005 a rounding allows.  Asserted: the
    spectrum matches the brute-force transpose and the polynomial's roots to
    1e-12, each eigenvalue truncates to its quoted figure, and the worst
    deviation exceeds 0.005.
    """
    spectrum = eigvals_sym(partial_transpose(rho3.array, rho3.dims))
    brute = np.linalg.eigvalsh(bf_partial_transpose(rho3.array, 2, 2))
    roots = np.sort_complex(np.roots([5000, -5000, 1150, -70, -1]))
    quoted_hundredths = [-1, 14, 16, 70]
    truncated = [math.trunc(v * 100) for v in spectrum]
    worst = float(np.max(np.abs(spectrum - np.array(quoted_hundredths) / 100)))
    reproduced = ", ".join(f"{v:.7f}" for v in spectrum)
    checks = [
        check("5. rho3^TB spectrum matches the brute-force transpose within 1e-12",
              bool(np.max(np.abs(spectrum - brute)) <= 1e-12)),
        check("5. rho3^TB spectrum matches the roots of 5000l^4-5000l^3+1150l^2-70l-1 within 1e-12",
              bool(np.max(np.abs(spectrum - roots)) <= 1e-12), reproduced),
        check("5. quoted {-0.01, 0.14, 0.16, 0.7} are the eigenvalues truncated to two decimals",
              truncated == quoted_hundredths,
              f"quoted -0.01, 0.14, 0.16, 0.7; reproduced {reproduced}"),
        check("5. quoted figures miss by more than a rounding's 0.005", worst > 5e-3,
              f"worst |diff| = {worst:.5f}"),
    ]
    _all(checks)


def test_criterion_05_reference_max_w(rho3):
    """Quoted max W = 0.9 for the complete coherence graph of rho3.

    0.9 is the bare endpoint sum max(d_i + d_j), reached on edges 1-2 and 2-3,
    with W's cross sums dropped.  No value below 7/5 can be max W where the
    spectral bound lambda_max(L) <= max W / 2 holds, since lambda_max(L) = 7/10.
    The edge functional gives max W = 1 (EXCLUDED) and 7/5 (INCLUSIVE, the
    convention under which the bound is a theorem; it is tight here).
    Asserted: both values exactly and against the brute-force functional, the
    tight bound, and that 0.9 is the bare sum and breaks the bound.
    """
    g = graph_from_laplacian(laplacian_of_density(rho3.exact))
    edges = _exact_edges(rho3)
    excluded, inclusive = max_w(g), max_w(g, WConvention.INCLUSIVE)
    lam_max = float(np.linalg.eigvalsh(bf_laplacian(rho3.array))[-1])
    quoted = Exact.of(Fraction(9, 10))
    bare = {(i, j): _bare_sum(g, i, j) for i, j in edges}
    bare_max = max(bare.values())
    checks = [
        check("5. max W (EXCLUDED) = 1 exactly, equal to the brute-force functional",
              excluded == Exact.of(1) == Exact.of(bf_max_w(4, edges, inclusive=False)),
              f"quoted 0.9; reproduced {excluded!r}"),
        check("5. max W (INCLUSIVE) = 7/5 exactly, equal to the brute-force functional",
              inclusive == Exact.of(Fraction(7, 5)) == Exact.of(bf_max_w(4, edges, inclusive=True)),
              f"quoted 0.9; reproduced {inclusive!r}"),
        check("5. spectral bound tight: lambda_max(L) = 7/10 = INCLUSIVE max W / 2 within 1e-12",
              abs(lam_max - 0.7) <= 1e-12 and abs(lam_max - float(inclusive) / 2) <= 1e-12,
              f"lambda_max(L) = {lam_max:.12f}"),
        check("5. quoted 0.9 is the bare sum max(d_i + d_j), reached on edges 1-2 and 2-3",
              bare_max == quoted
              and {e for e, v in bare.items() if v == bare_max} == {(0, 1), (1, 2)},
              f"quoted 0.9; bare sum {bare_max!r}"),
        check("5. quoted 0.9 < 2 lambda_max(L), so it breaks lambda_max(L) <= max W / 2",
              float(quoted) < 2 * lam_max, f"2 lambda_max(L) = {2 * lam_max:.12g}"),
    ]
    _all(checks)


# ----------------------------------------------------------------- 6


def test_criterion_06_path_state(rho5):
    spectrum = np.sort(rho5.spectrum)[::-1]
    expected = np.array([0.3309, 0.2809, 0.2191, 0.1691])
    g = graph_from_laplacian(laplacian_of_density(rho5.exact))
    res = cor6_ppt(rho5)
    checks = [
        check("6. spectrum {0.3309, 0.2809, 0.2191, 0.1691} within 1e-4",
              bool(np.max(np.abs(spectrum - expected)) <= 1e-4)),
        check("6. W[3,4] = 1/5 exactly", edge_w(g, 2, 3) == Exact.of(Fraction(1, 5))),
        check("6. full-rank graph verdict SEPARABLE", res.verdict == Verdict.SEPARABLE),
        check("6. verdict scalars 0.1691 > 0.15",
              abs(res.scalars["lambda_min_rho"] - 0.1691) <= 1e-4
              and abs(res.scalars["half_max_w"] - 0.15) <= 1e-12),
    ]
    _all(checks)


def test_criterion_06_reference_w_triplet(rho5):
    """Quoted W[1,2] = 3/10 and W[1,4] = 1/5 on rho5's path graph 2-1-4-3.

    All three edge weights are 1/20, so the swap 1<->4, 2<->3 preserves every
    weight and maps edge (1,2) onto (4,3): W[1,2] = W[3,4] under any
    functional of the weights.  The paper's own W[3,4] = 1/5 (pinned in
    test_criterion_06_path_state) then forces W[1,2] = 1/5, not 3/10.
    Asserted: the swap is a weight automorphism; W[1,2] = W[3,4] = 1/5 and
    W[1,4] = 3/10 exactly, each equal to the brute-force functional; and the
    computed multiset equals the quoted {3/10, 1/5, 1/5}, so the quoted triplet
    has the labels (1,2) and (1,4) transposed.
    """
    g = graph_from_laplacian(laplacian_of_density(rho5.exact))
    edges = _exact_edges(rho5)
    swap = (3, 2, 1, 0)
    swapped = {tuple(sorted((swap[i], swap[j]))): w for (i, j), w in edges.items()}
    expected = {(0, 1): Fraction(1, 5), (2, 3): Fraction(1, 5), (0, 3): Fraction(3, 10)}
    computed = {e: edge_w(g, *e) for e in edges}
    quoted = [Fraction(1, 5), Fraction(1, 5), Fraction(3, 10)]
    checks = [
        check("6. swap 1<->4, 2<->3 preserves every edge weight of the path 2-1-4-3",
              swapped == edges),
        check("6. W[1,2] = W[3,4] = 1/5, W[1,4] = 3/10 exactly, equal to the brute-force functional",
              set(computed) == set(expected)
              and all(computed[e] == Exact.of(expected[e])
                      == Exact.of(bf_edge_w(4, edges, *e, inclusive=False)) for e in expected),
              f"quoted W[1,2] = 3/10, W[1,4] = 1/5; reproduced W[1,2] = {computed[0, 1]!r}, "
              f"W[1,4] = {computed[0, 3]!r}"),
        check("6. computed multiset equals the quoted {3/10, 1/5, 1/5}",
              sorted(w.as_fraction() for w in computed.values()) == quoted),
    ]
    _all(checks)


# ----------------------------------------------------------------- 7


def _rho6_reference_forms(a: Fraction) -> dict[tuple[int, int], Fraction]:
    """The seven reproducible closed forms of the nine quoted W values (0-based)."""
    z = Fraction(1, 100)
    n_const = 400 * a + 1
    return {
        (0, 1): (2 * a + 4 * z) / n_const,
        (0, 8): (4 * a + 2 * z) / n_const,
        (1, 4): (2 * a + 6 * z) / n_const,
        (4, 5): (2 * a + 6 * z) / n_const,
        (5, 6): 6 * z / n_const,
        (6, 7): 6 * z / n_const,
        (4, 8): (4 * a + 4 * z) / n_const,
    }


def test_criterion_07_parameterised_family_grid():
    ok_max, ok_margin, ok_forms = True, True, True
    for a_float in np.linspace(0.01, 1.0, 100):
        a = Fraction(str(float(a_float)))
        rho = build("rho6", a)
        g = graph_from_laplacian(laplacian_of_density(rho.exact))
        n_const = 400 * a + 1
        expected_max = (4 * a + Fraction(1, 25)) / n_const
        got_max = max_w(g)
        ok_max &= abs(float(got_max) - float(expected_max)) <= 1e-12
        lam_min = float(rho.spectrum[0])
        ok_margin &= lam_min > float(got_max) / 2
        for (i, j), form in _rho6_reference_forms(a).items():
            ok_forms &= edge_w(g, i, j) == Exact.of(form)
    checks = [
        check("7. max W = (4a+0.04)/(400a+1) within 1e-12 on 100-point grid", ok_max),
        check("7. lambda_min above max W / 2 at every grid point", ok_margin),
        check("7. seven reproducible W closed forms exact on the grid", ok_forms),
    ]
    _all(checks)


def test_criterion_07_reference_w34_w48():
    """Quoted W[3,4] = 0.03/N and W[4,8] = 0.04/N for rho6 at a = 1/2, N = 201.

    Edges (4,8), (6,7) and (7,8) each join two degree-2 vertices whose four
    incident weights are all z = 1/100 (over N) and which share no neighbour,
    so every functional of the local weights gives them one value; the paper
    itself gives W[6,7] = W[7,8] = 0.06/N (pinned in the grid test), so
    W[4,8] = 0.06/N.  The paper's own W[1,2] = (2a+4z)/N adds the
    outside-neighbour weights to d_1 + d_2 = (a+3z)/N; the same reading gives
    W[3,4] = 0.04/N.  Both quoted values are the bare sums d_i + d_j.
    Asserted: the local isomorphism, each W exactly and against the
    brute-force functional, and that each quoted value is its bare sum.
    """
    a = Fraction(1, 2)
    z = Fraction(1, 100)
    n_const = 400 * a + 1
    rho = build("rho6", a)
    g = graph_from_laplacian(laplacian_of_density(rho.exact))
    edges = _exact_edges(rho)
    nbrs: dict[int, dict[int, Fraction]] = {v: {} for v in range(rho.n)}
    for (i, j), w in edges.items():
        nbrs[i][j] = nbrs[j][i] = w

    def local_twin(i: int, j: int) -> bool:
        return (len(nbrs[i]) == len(nbrs[j]) == 2 and not (set(nbrs[i]) & set(nbrs[j]))
                and set(nbrs[i].values()) | set(nbrs[j].values()) == {z / n_const})

    def exact_w(i: int, j: int, value: Fraction) -> bool:
        return edge_w(g, i, j) == Exact.of(value) == Exact.of(bf_edge_w(rho.n, edges, i, j, inclusive=False))

    twins = [(3, 7), (5, 6), (6, 7)]
    w34, w48 = edge_w(g, 2, 3), edge_w(g, 3, 7)
    quoted34, quoted48 = Fraction(3, 100) / n_const, Fraction(4, 100) / n_const
    checks = [
        check("7. edges (4,8), (6,7), (7,8) join degree-2 vertices with weights z/N and no common neighbour",
              all(local_twin(i, j) for i, j in twins)),
        check("7. W[4,8] = W[6,7] = W[7,8] = 0.06/N exactly, equal to the brute-force functional",
              all(exact_w(i, j, 6 * z / n_const) for i, j in twins),
              f"quoted W[4,8] = 0.04/N; reproduced W[4,8]*N = {float(w48) * float(n_const):.4f}"),
        check("7. W[1,2] = (2a+4z)/N adds the outside neighbours to d_1 + d_2 = (a+3z)/N",
              exact_w(0, 1, (2 * a + 4 * z) / n_const)
              and _bare_sum(g, 0, 1) == Exact.of((a + 3 * z) / n_const)),
        check("7. the same reading gives W[3,4] = 0.04/N exactly, equal to the brute-force functional",
              exact_w(2, 3, 4 * z / n_const),
              f"quoted W[3,4] = 0.03/N; reproduced W[3,4]*N = {float(w34) * float(n_const):.4f}"),
        check("7. quoted W[3,4] = 0.03/N and W[4,8] = 0.04/N are the bare sums d_i + d_j",
              _bare_sum(g, 2, 3) == Exact.of(quoted34) and _bare_sum(g, 3, 7) == Exact.of(quoted48)),
    ]
    _all(checks)


# ----------------------------------------------------------------- 8


def test_criterion_08_laplacian_invariants():
    rng = make_rng(101)
    ok = True
    for k in range(1000):
        dims = [BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3)][k % 3]
        rho = random_density(rng, dims)
        lap = laplacian_of_density(rho)
        n = lap.shape[0]
        ok &= float(np.max(np.abs(lap.sum(axis=1)))) <= 1e-12
        ok &= float(np.max(np.abs(lap @ np.ones(n)))) <= 1e-9
        vals = eigvals_sym(lap)
        ok &= vals[0] >= -1e-9 and abs(vals[0]) <= 1e-9
    _all([check("8. Laplacian invariants on 1000 random states", ok)])


def test_criterion_08_weyl_inequality():
    rng = make_rng(102)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        x, y = random_hermitian(rng, n), random_hermitian(rng, n)
        lx, ly, lxy = eigvals_sym(x), eigvals_sym(y), eigvals_sym(x + y)
        ok &= bool(np.all(lx + ly[0] <= lxy + EPS) and np.all(lxy <= lx + ly[-1] + EPS))
    _all([check("8. Weyl inequality on 1000 random Hermitian pairs", ok)])


def test_criterion_08_trace_inequality():
    rng = make_rng(103)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        x, y = random_hermitian(rng, n), random_psd(rng, n)
        t = float(np.trace(x @ y).real)
        ty = float(np.trace(y).real)
        vals = eigvals_sym(x)
        ok &= vals[0] * ty - EPS <= t <= vals[-1] * ty + EPS
    _all([check("8. trace inequality on 1000 Hermitian/PSD pairs", ok)])


def test_criterion_08_spectral_graph_bound(psi, rho3, rho5):
    """lambda_max(L) <= max W / 2 on connected graphs.

    Asserted with the self-inclusive convention, under which the bound is a
    theorem (exactly tight on single edges and on rho3's complete graph); the
    default-convention violation count is reported as a diagnostic.
    """
    rng = make_rng(105)
    ok = True
    excluded_violations = 0
    checked = 0
    corpus_states = [psi, rho3, rho5] + [build("rho6", a) for a in (0.01, 0.25, 1.0)]
    states = iter(corpus_states)
    while checked < 1000 + len(corpus_states):
        rho = next(states, None)
        if rho is None:
            dims = [BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3)][checked % 3]
            rho = random_density(rng, dims)
        g = graph_from_laplacian(laplacian_of_density(rho.literal))
        if not g.any() or not is_connected(g):
            continue
        checked += 1
        lam_max = float(eigvals_sym(laplacian_of_density(rho))[-1])
        ok &= lam_max <= float(max_w(g, WConvention.INCLUSIVE)) / 2 + EPS
        if lam_max > float(max_w(g)) / 2 + EPS:
            excluded_violations += 1
    print(f"      diagnostic: default-convention violations {excluded_violations}/{checked} "
          f"(includes the rho3/rho5 corpus graphs)")
    _all([check("8. spectral bound (inclusive form) on corpus + 1000 random connected graphs", ok)])


def test_criterion_08_unitality_and_positivity():
    rng = make_rng(106)
    unital = all(np.array_equal(phi(np.eye(n)), np.eye(n)) for n in range(2, 17))
    ok_pos = True
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        m = random_psd(rng, n)
        lam_in = float(eigvals_sym(m)[0])
        lam_out = float(eigvals_sym(phi(m))[0])
        ok_pos &= lam_out >= lam_in - EPS
    _all([
        check("8. map is exactly unital for orders 2..16", unital),
        check("8. map preserves positivity on 1000 random PSD matrices", ok_pos),
    ])


def test_criterion_08_purity_soundness_on_pure_states():
    """Claimed soundness: the determinant purity test never calls a pure state MIXED.

    The claim is false.  For a pure state with non-negative real amplitudes a,
    phi(rho) - I = diag(a_i * sum(a) - 1); for a = (7, 7, 1, 1)/10, which is
    exactly normalised, that is diag(0.12, 0.12, -0.84, -0.84), with det
    0.12^2 * 0.84^2 = 0.01016064 > 0 and an even negative count, so the
    documented rule (purity_test's docstring) says MIXED.  Asserted: that
    verdict and determinant; and on 500 seeded pure states, that every verdict
    equals the documented rule applied to a brute-force determinant and
    negative-eigenvalue count, so the MIXED verdicts on pure states come from
    the criterion, not from arithmetic.
    """
    amps = np.array([7, 7, 1, 1]) / 10
    res = purity_test(validate(np.outer(amps, amps), BipartiteDims(2, 2)))
    det_closed = float(Fraction(12, 100) ** 2 * Fraction(84, 100) ** 2)
    rng = make_rng(107)
    agree = mixed = 0
    for k in range(500):
        dims = [BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3)][k % 3]
        rho = random_pure_density(rng, dims)
        op = bf_laplacian(rho.array) + rho.array - np.eye(rho.n)
        det = float(np.linalg.det(op).real)
        neg = int(np.sum(np.linalg.eigvalsh(op) < -EPS))
        if det > EPS or (abs(det) > EPS and neg % 2 == 0):
            rule = Verdict.MIXED
        elif det < -EPS and neg % 2 == 1:
            rule = Verdict.CONSISTENT_WITH_PURE
        else:
            rule = Verdict.INCONCLUSIVE
        agree += purity_test(rho).verdict == rule
        mixed += rule == Verdict.MIXED
    checks = [
        check("8. pure state a = (7,7,1,1)/10 is reported MIXED, det = 0.01016064 within 1e-12",
              res.verdict == Verdict.MIXED and abs(res.scalars["det"] - det_closed) <= 1e-12,
              f"quoted: never MIXED on a pure state; reproduced {res.verdict.value}, "
              f"det = {res.scalars['det']:.8f}"),
        check("8. verdicts on 500 random pure states follow the documented rule on a brute-force det",
              agree == 500, f"{agree}/500 agree"),
        check("8. the documented rule calls random pure states MIXED", mixed > 0,
              f"quoted 0/500 MIXED; measured {mixed}/500"),
    ]
    _all(checks)


def test_criterion_08_sign_test_oracle_agreement(rho3):
    """Claimed equivalence of the 2x2 sign test (mu < 0) with the transpose oracle.

    Only one direction holds.  L is positive semi-definite, so by Weyl's
    inequality lambda_min(rho^TB) <= mu = lambda_min(L + rho^TB): mu < 0
    implies NPT, but the Laplacian can lift the negative eigenvalue of rho^TB,
    so an NPT state can have mu >= 0.  rho3 is one: oracle NPT with
    mu = 0.3764.  Asserted, on 1000 seeded 2x2 states with rho^TB from the
    brute-force transpose: the Weyl bound on every state; every ENTANGLED_NPT
    verdict is oracle-NPT and the verdict fires more than 50 times; every
    disagreement is an oracle-NPT state called SEPARABLE, which classify flags
    as THM3_SEP_2x2; and classify flags rho3 the same way.
    """
    rng = make_rng(108)
    weyl_ok = sound_ok = flagged_ok = True
    fired = disagree = 0
    for k in range(1000):
        rho = random_density(rng, BipartiteDims(2, 2)) if k % 2 == 0 else random_mixture_density(
            rng, BipartiteDims(2, 2))
        res = thm3_separability(rho)
        mu = res.scalars["lambda_min_l_plus_ptb"]
        lam_ptb = float(np.linalg.eigvalsh(bf_partial_transpose(rho.array, 2, 2))[0])
        weyl_ok &= lam_ptb <= mu + EPS
        if abs(mu) <= EPS:
            continue
        oracle_npt = lam_ptb < -EPS
        if res.verdict == Verdict.ENTANGLED_NPT:
            fired += 1
            sound_ok &= oracle_npt
        if oracle_npt != (res.verdict == Verdict.ENTANGLED_NPT):
            disagree += 1
            flagged_ok &= (oracle_npt and res.verdict == Verdict.SEPARABLE
                           and CriterionId.THM3_SEP_2x2 in classify(rho).consistency_flags)
    rho3_mu = thm3_separability(rho3).scalars["lambda_min_l_plus_ptb"]
    rho3_lam_ptb = float(np.linalg.eigvalsh(bf_partial_transpose(rho3.array, 2, 2))[0])
    checks = [
        check("8. Weyl bound lambda_min(rho^TB) <= lambda_min(L + rho^TB) on 1000 random 2x2 states",
              weyl_ok),
        check("8. every ENTANGLED_NPT sign-test verdict is oracle-NPT, over 50 firings",
              sound_ok and fired > 50, f"fired {fired} times"),
        check("8. every disagreement is an oracle-NPT state called SEPARABLE and flagged THM3_SEP_2x2",
              flagged_ok and disagree > 0,
              f"quoted 0/1000 disagreements; measured {disagree}/1000"),
        check("8. rho3 is oracle-NPT with mu > 0, and classify flags THM3_SEP_2x2",
              rho3_lam_ptb < -EPS and rho3_mu > EPS
              and CriterionId.THM3_SEP_2x2 in classify(rho3).consistency_flags,
              f"mu = {rho3_mu:.4f}, lambda_min(rho3^TB) = {rho3_lam_ptb:.4f}"),
    ]
    _all(checks)


def test_criterion_08_soundness_of_spectral_ppt_tests():
    """Whenever a spectral PPT criterion fires, the oracle must agree.

    The ensemble mixes dense random states with weak-coherence states
    ((1-t) I/n + t rho) so the criteria actually fire a meaningful number of
    times rather than passing vacuously.
    """
    rng = make_rng(109)
    fired5 = fired6 = fired_c6 = 0
    ok = True
    for k in range(1500):
        dims = [BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3)][k % 3]
        rho = random_density(rng, dims)
        if k % 2 == 0:
            t = rng.uniform(0.02, 0.4)
            blend = (1 - t) * np.eye(dims.n) / dims.n + t * rho.array
            rho = validate(blend, dims)
        if rho.rank != rho.n:
            continue
        oracle_ppt = ppt_oracle(rho)[0] == "PPT"
        if thm5_ppt(rho).verdict == Verdict.PPT:
            fired5 += 1
            ok &= oracle_ppt
        if thm6_ppt(rho).verdict == Verdict.PPT:
            fired6 += 1
            ok &= oracle_ppt
        if cor6_ppt(rho).verdict in (Verdict.PPT, Verdict.SEPARABLE):
            fired_c6 += 1
            ok &= oracle_ppt
    checks = [
        check("8. spectral-spread PPT test sound whenever it fires", ok and fired5 > 50,
              f"fired {fired5} times"),
        check("8. Laplacian-max PPT test sound whenever it fires", ok and fired6 > 50,
              f"fired {fired6} times"),
        check("8. graph-functional PPT test sound whenever it fires", ok and fired_c6 > 50,
              f"fired {fired_c6} times"),
    ]
    _all(checks)


def _is_zero(m) -> bool:
    return all(v == 0 for v in m.flat)


def test_criterion_08_thm6_werner_4x4_refutation():
    """Claimed: THM6, lambda_min(rho) >= lambda_max(L_rho), certifies PPT.

    It certifies an NPT state in 4x4.  The Werner state rho = a I + b V on
    C^4 (x) C^4, V the swap, at p = 13/25 has a = p/12 + (1-p)/20 = 101/1500
    and b = (1-p)/20 - p/12 = -29/1500.  V squares to I, so rho has the two
    eigenvalues a + b (symmetric vectors) and a - b (antisymmetric ones), and
    b < 0 makes lambda_min(rho) = a + b = 6/125.  The coherence graph is the
    matching (ij)-(ji), i != j, with weight |b|, so L has the eigenvalues 0
    and 2|b|: lambda_max(L) = 29/750 <= 6/125, and THM6 fires.  But
    rho^TB = a I + b d P_Phi, with d P_Phi = sum_ij |ii><jj| of eigenvalues d
    and 0, so lambda_min(rho^TB) = a + 4b = -1/100: the state is NPT.
    Asserted in Fraction arithmetic, rho^TB by the brute-force transpose: the
    closed forms of a, b, rho^TB and L (L cross-checked against the
    brute-force Laplacian in floats), each value by its eigenvector and each
    two-level spectrum by its minimal polynomial; and that classify reports
    THM6_PPT = PPT with the oracle NPT and THM6_PPT in consistency_flags.
    """
    d, p = 4, Fraction(13, 25)
    a = p / (d * (d - 1)) + (1 - p) / (d * (d + 1))
    b = (1 - p) / (d * (d + 1)) - p / (d * (d - 1))
    n = d * d
    eye = np.array([[Fraction(int(r == c)) for c in range(n)] for r in range(n)], dtype=object)
    # V|ij> = |ji>; sum_ij |ii><jj| = d P_Phi; u = |01> - |10> is antisymmetric
    swap = np.array([[Fraction(int(c == (r % d) * d + r // d)) for c in range(n)] for r in range(n)],
                    dtype=object)
    d_p_phi = np.array([[Fraction(int(r % (d + 1) == 0 and c % (d + 1) == 0)) for c in range(n)]
                        for r in range(n)], dtype=object)
    e_00, phi = eye[:, 0], np.array([Fraction(int(r % (d + 1) == 0)) for r in range(n)], dtype=object)
    u = eye[:, 1] - eye[:, d]
    rho = a * eye + b * swap
    lam_rho, lam_l, lam_ptb = a + b, 2 * abs(b), a + d * b
    lap = sum(abs(b) * np.outer(eye[:, i * d + j] - eye[:, j * d + i], eye[:, i * d + j] - eye[:, j * d + i])
              for i in range(d) for j in range(i + 1, d))
    ptb = bf_partial_transpose(rho, d, d)
    state = validate(rho, BipartiteDims(d, d))
    report = classify(state)
    thm6 = next(r for r in report.results if r.criterion_id == CriterionId.THM6_PPT)
    checks = [
        check("8. Werner d = 4, p = 13/25: a = 101/1500, b = -29/1500, trace 1",
              (a, b, sum(rho[k, k] for k in range(n))) == (Fraction(101, 1500), Fraction(-29, 1500), 1)),
        check("8. lambda_min(rho) = a + b = 6/125: rho e_00 = (a+b) e_00, rho u = (a-b) u, "
              "(rho - (a+b)I)(rho - (a-b)I) = 0",
              lam_rho == Fraction(6, 125) and np.array_equal(rho @ e_00, lam_rho * e_00)
              and np.array_equal(rho @ u, (a - b) * u)
              and _is_zero((rho - lam_rho * eye) @ (rho - (a - b) * eye)) and lam_rho < a - b),
        check("8. L is the matching (ij)-(ji) with weight |b| (cross-checked in floats against bf_laplacian)",
              np.array_equal(bf_laplacian(rho), lap.astype(float))),
        check("8. lambda_max(L) = 2|b| = 29/750: L u = 2|b| u, L (L - 2|b| I) = 0",
              lam_l == Fraction(29, 750) and np.array_equal(lap @ u, lam_l * u)
              and _is_zero(lap @ (lap - lam_l * eye))),
        check("8. rho^TB = a I + b d P_Phi by the brute-force transpose",
              np.array_equal(ptb, a * eye + b * d_p_phi)),
        check("8. lambda_min(rho^TB) = a + 4b = -1/100: rho^TB phi = (a+4b) phi, rho^TB u = a u, "
              "(rho^TB - aI)(rho^TB - (a+4b)I) = 0",
              lam_ptb == Fraction(-1, 100) and np.array_equal(ptb @ phi, lam_ptb * phi)
              and np.array_equal(ptb @ u, a * u) and _is_zero((ptb - a * eye) @ (ptb - lam_ptb * eye))),
        check("8. THM6 fires on an NPT state: lambda_min(rho) >= lambda_max(L) and lambda_min(rho^TB) < 0",
              lam_rho >= lam_l and lam_ptb < 0,
              f"quoted: THM6 certifies PPT; reproduced {lam_rho} >= {lam_l}, lambda_min(rho^TB) = {lam_ptb}"),
        check("8. classify reports THM6_PPT = PPT, the oracle NPT, and flags THM6_PPT",
              thm6.verdict == Verdict.PPT and report.oracle_verdict == "NPT"
              and CriterionId.THM6_PPT in report.consistency_flags,
              f"lambda_min(rho^TB) = {report.oracle_lambda_min_ptb:.6f}"),
    ]
    _all(checks)


def test_criterion_08_necessity_bounds():
    """Necessary bounds on oracle-filtered ensembles.

    The graph bounds are asserted with the self-inclusive convention (the form
    that is a theorem); default-convention violation counts are reported.
    """
    rng = make_rng(110)
    ok_3b = ok_7 = ok_4a = True
    excl_3b = excl_7 = 0
    npt_checked = 0
    while npt_checked < 500:
        rho = random_density(rng, BipartiteDims(2, 2))
        lap = laplacian_of_density(rho)
        g = graph_from_laplacian(lap)
        if ppt_oracle(rho)[0] != "NPT" or not g.any() or not is_connected(g):
            continue
        npt_checked += 1
        half_inc = float(max_w(g, WConvention.INCLUSIVE)) / 2
        half_exc = float(max_w(g)) / 2
        mu = float(eigvals_sym(lap + partial_transpose(rho.array, rho.dims))[0])
        ok_3b &= mu <= half_inc + EPS
        excl_3b += mu > half_exc + EPS
        if rho.rank == rho.n:
            lam_min = float(rho.spectrum[0])
            ok_7 &= lam_min <= half_inc + EPS
            excl_7 += lam_min > half_exc + EPS
    ppt_checked = 0
    while ppt_checked < 500:
        # rank-2 mixtures are almost never PPT, so filter the full-rank ensemble
        rho = random_density(rng, BipartiteDims(2, 2))
        if ppt_oracle(rho)[0] != "PPT":
            continue
        ppt_checked += 1
        lap = laplacian_of_density(rho)
        mu = float(eigvals_sym(lap + partial_transpose(rho.array, rho.dims))[0])
        ok_4a &= mu <= 1.0 + float(np.trace(lap)) + EPS
    print(f"      diagnostic: default-convention necessity violations: "
          f"npt-bound {excl_3b}/500, min-eigenvalue bound {excl_7}/500")
    _all([
        check("8. NPT bound (inclusive form) holds on 500 oracle-NPT states", ok_3b),
        check("8. min-eigenvalue bound (inclusive form) holds on oracle-NPT full-rank states", ok_7),
        check("8. degree bound holds on 500 oracle-PPT states", ok_4a),
    ])


# ----------------------------------------------------------------- 9


def test_criterion_09_direction_audit(rho3):
    """The disputed NPT test is reported, not asserted: count how many
    oracle-PPT states satisfy its inequality, and pin the rho3 instance."""
    rng = make_rng(111)
    ppt_total = ppt_satisfying = 0
    while ppt_total < 500:
        rho = random_density(rng, BipartiteDims(2, 2))
        if ppt_oracle(rho)[0] != "PPT":
            continue
        res = cor4a_nptes(rho)
        if res.verdict == Verdict.PRECONDITION_FAILED:
            continue
        ppt_total += 1
        if res.verdict == Verdict.ENTANGLED_NPT:
            ppt_satisfying += 1
    print(f"      audit: {ppt_satisfying}/{ppt_total} oracle-PPT states satisfy the "
          f"disputed inequality (each is flagged in its report)")
    res = cor4a_nptes(rho3)
    checks = [
        check("9. audit counted without assertion", ppt_total == 500),
        check("9. rho3 lhs = 1 + d_G = 2.6 exactly",
              abs(res.scalars["one_plus_total_degree"] - 2.6) <= 1e-12),
        check("9. rho3 lambda_max(rho^TB) = 0.7 within 5e-3",
              abs(res.scalars["lambda_max_ptb"] - 0.7) <= 5e-3),
        check("9. rho3 inequality satisfied, stated verdict ENTANGLED_NPT with caveat",
              res.verdict == Verdict.ENTANGLED_NPT and "direction disputed" in res.caveat),
        check("9. rho3 stated verdict matches the oracle", ppt_oracle(rho3)[0] == "NPT"),
    ]
    print(f"      note: rhs evaluates to {res.scalars['rhs']:.4f} with the documented "
          f"functional (a 3.45 figure corresponds to the irreproducible max W = 0.9)")
    _all(checks)


def test_criterion_09_total_degree_equals_coherence(rho3, rho2, psi):
    for rho, expected in [(rho3, 1.6), (rho2, 8 / 81), (psi, 1 + 5 * S7 / 8)]:
        coherence = sum(abs(rho.array[i, j]) for i in range(rho.n) for j in range(rho.n) if i != j)
        assert coherence == pytest.approx(expected, abs=1e-12)
        assert rho.total_degree == pytest.approx(coherence, abs=1e-12)
        lap = laplacian_of_density(rho)
        assert float(np.trace(lap)) == pytest.approx(coherence, abs=1e-12)
