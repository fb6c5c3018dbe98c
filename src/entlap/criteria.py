"""Detection criteria, the brute-force PPT oracle, and the report assembler.

The oracle and every criterion take a validated DensityMatrix and read the
matrices, spectra and graph scalars it computes on first read and keeps (see
`entlap.states`), so `classify`, which runs them all on one state, computes
each of those once, and a criterion called alone computes only what it reads.
Every decision runs in floating point, also for exact inputs.

Each criterion is tagged internally with its logical strength and only ever
asserts what that strength licenses:

  * iff claims (THM3_SEP_2x2, THM3A_BOUNDS) are emitted as stated, but the
    classifier cross-checks every verdict against the partial-transpose oracle
    and records contradictions in `consistency_flags` — the sufficiency
    direction of those claims fails on a large fraction of NPT states (the
    Laplacian can lift the negative eigenvalue of rho^TB).
  * sufficient-for-NPT tests (COR4) and sufficient-for-PPT tests (THM5, THM6,
    COR6) report their verdict only when the inequality fires; otherwise
    INCONCLUSIVE.
  * necessary conditions (THM3B, THM4A) stay INCONCLUSIVE and expose their
    scalars; COR4A additionally carries a permanent direction caveat.

Every inequality is evaluated with a symmetric eps band (DecisionTolerance);
inside the band the verdict is INCONCLUSIVE rather than a coin flip.  Each
band comparison is written once (`_below`, `_at_least`, `_above`) for numbers
and arrays alike: `stack_columns` gives the oracle and the sweep's criteria
over a whole stack of states as columns, by the same comparisons on the
stack's arrays, so a criterion on `rho[k]` and entry k of its column agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import WrongDimensions
from .matops import BipartiteDims
from .states import DensityMatrix, rank


class CriterionId(str, Enum):
    THM1_PURITY = "THM1_PURITY"
    THM3_SEP_2x2 = "THM3_SEP_2x2"
    COR4_NPTES = "COR4_NPTES"
    THM5_PPT = "THM5_PPT"
    THM6_PPT = "THM6_PPT"
    THM3A_BOUNDS = "THM3A_BOUNDS"
    THM3B_NPTES_BOUND = "THM3B_NPTES_BOUND"
    THM4A_BOUND = "THM4A_BOUND"
    COR4A_NPTES = "COR4A_NPTES"
    COR6_PPT = "COR6_PPT"


class Verdict(str, Enum):
    SEPARABLE = "SEPARABLE"
    ENTANGLED_NPT = "ENTANGLED_NPT"
    PPT = "PPT"
    MIXED = "MIXED"
    CONSISTENT_WITH_PURE = "CONSISTENT_WITH_PURE"
    INCONCLUSIVE = "INCONCLUSIVE"
    PRECONDITION_FAILED = "PRECONDITION_FAILED"


@dataclass(frozen=True)
class DecisionTolerance:
    """Half-width of the indeterminate band around every inequality threshold."""

    eps: float = 1e-9

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class CriterionResult:
    criterion_id: CriterionId
    verdict: Verdict
    scalars: dict[str, float] = field(default_factory=dict)
    caveat: str | None = None


@dataclass(frozen=True)
class ClassificationReport:
    state_id: str
    dims: BipartiteDims
    oracle_verdict: str  # "PPT" | "NPT"
    oracle_lambda_min_ptb: float
    results: tuple[CriterionResult, ...]
    consistency_flags: tuple[CriterionId, ...]


DIRECTION_CAVEAT = (
    "direction disputed: the underlying derivation makes this inequality a necessary "
    "consequence of a negative partial transpose, not a sufficient test for it"
)

_IFF_DIMS = {(2, 2), (2, 3), (3, 2)}


def _is_small_dims(dims: BipartiteDims) -> bool:
    return (dims.d1, dims.d2) in _IFF_DIMS


# -- band comparisons ---------------------------------------------------
# Each on numbers or, elementwise, on arrays.


def _below(a, b, eps):
    """a < b - eps: below the band around b."""
    return a < b - eps


def _at_least(a, b, eps):
    """a >= b - eps: not below the band around b."""
    return a >= b - eps


def _above(a, b, eps):
    """a > b + eps: above the band around b."""
    return a > b + eps


def _not_full_rank(cid: CriterionId, rho: DensityMatrix) -> CriterionResult | None:
    r = rank(rho)
    if r < rho.n:
        return CriterionResult(cid, Verdict.PRECONDITION_FAILED, {"rank": float(r)},
                               caveat="state is not full rank")


def _disconnected(cid: CriterionId, rho: DensityMatrix) -> CriterionResult | None:
    if not rho.connected:
        return CriterionResult(cid, Verdict.PRECONDITION_FAILED, caveat="coherence graph is not connected")


# -- oracle ------------------------------------------------------------


def ppt_oracle(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> tuple[str, float]:
    """Peres ground truth: NPT iff lambda_min(rho^TB) < -eps."""
    lam = float(rho.spec_ptb[0])
    return ("NPT" if _below(lam, 0.0, tol.eps) else "PPT"), lam


# -- criteria ----------------------------------------------------------


def purity_test(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """Determinant / negative-eigenvalue-count purity check on phi(rho) - I.

    det > eps or an even negative count reports MIXED; det < -eps with odd
    count reports CONSISTENT_WITH_PURE; the band is INCONCLUSIVE.  Caution:
    this test misfires on a sizeable fraction of genuinely pure states (see
    package docs); the classifier's oracle cross-check does not cover it since
    purity is orthogonal to the PPT question.
    """
    det = rho.det_phi_minus_i
    neg = int(np.sum(rho.spec_phi_minus_i < -tol.eps))
    scalars = {"det": det, "negative_eigenvalue_count": float(neg)}
    if det > tol.eps or (abs(det) > tol.eps and neg % 2 == 0):
        return CriterionResult(CriterionId.THM1_PURITY, Verdict.MIXED, scalars)
    if det < -tol.eps and neg % 2 == 1:
        return CriterionResult(CriterionId.THM1_PURITY, Verdict.CONSISTENT_WITH_PURE, scalars)
    return CriterionResult(CriterionId.THM1_PURITY, Verdict.INCONCLUSIVE, scalars)


def thm3_separability(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """Sign test on mu = lambda_min(L_rho + rho^TB).

    In 2x2 / 2x3 the stated claim is an iff: SEPARABLE when mu >= -eps, else
    ENTANGLED_NPT.  In larger dimensions only mu < -eps certifies anything
    (ENTANGLED_NPT); mu >= 0 is merely consistent with PPT, hence INCONCLUSIVE.
    """
    mu = float(rho.spec_l_plus_ptb[0])
    scalars = {"lambda_min_l_plus_ptb": mu}
    if _is_small_dims(rho.dims):
        if _below(mu, 0.0, tol.eps):
            return CriterionResult(CriterionId.THM3_SEP_2x2, Verdict.ENTANGLED_NPT, scalars)
        return CriterionResult(CriterionId.THM3_SEP_2x2, Verdict.SEPARABLE, scalars)
    if _below(mu, 0.0, tol.eps):
        return CriterionResult(CriterionId.COR4_NPTES, Verdict.ENTANGLED_NPT, scalars)
    return CriterionResult(
        CriterionId.COR4_NPTES, Verdict.INCONCLUSIVE, scalars,
        caveat="minimum is non-negative: consistent with PPT, but PPT is not certified "
               "in these dimensions")


def thm5_ppt(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """PPT if lambda_min(rho) >= lambda_max(L^TB) - lambda_min(L^TB); needs full rank."""
    if failed := _not_full_rank(CriterionId.THM5_PPT, rho):
        return failed
    spread = float(rho.spec_lap_ptb[-1] - rho.spec_lap_ptb[0])
    lam_min_rho = float(rho.spectrum[0])
    scalars = {"lambda_min_rho": lam_min_rho, "laplacian_ptb_spread": spread}
    if _at_least(lam_min_rho, spread, tol.eps):
        return CriterionResult(CriterionId.THM5_PPT, Verdict.PPT, scalars)
    return CriterionResult(CriterionId.THM5_PPT, Verdict.INCONCLUSIVE, scalars,
                           caveat="violation may or may not indicate a negative partial transpose")


def thm6_ppt(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """PPT if lambda_min(rho) >= lambda_max(L_rho); needs full rank.

    Reads no partial transpose.
    """
    if failed := _not_full_rank(CriterionId.THM6_PPT, rho):
        return failed
    lam_max_lap = float(rho.spec_lap[-1])
    lam_min_rho = float(rho.spectrum[0])
    scalars = {"lambda_min_rho": lam_min_rho, "lambda_max_laplacian": lam_max_lap}
    if _at_least(lam_min_rho, lam_max_lap, tol.eps):
        return CriterionResult(CriterionId.THM6_PPT, Verdict.PPT, scalars)
    return CriterionResult(CriterionId.THM6_PPT, Verdict.INCONCLUSIVE, scalars)


def thm3a_bounds(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """Two-sided 2x2 test: SEPARABLE iff -eps <= mu <= 1 + d_G + eps."""
    dims = rho.dims
    if (dims.d1, dims.d2) != (2, 2):
        raise WrongDimensions(f"criterion defined for 2x2 only, got {dims.d1}x{dims.d2}")
    mu = float(rho.spec_l_plus_ptb[0])
    scalars = {"lambda_min_l_plus_ptb": mu, "total_degree": rho.total_degree}
    if -tol.eps <= mu <= 1.0 + rho.total_degree + tol.eps:
        return CriterionResult(CriterionId.THM3A_BOUNDS, Verdict.SEPARABLE, scalars)
    return CriterionResult(CriterionId.THM3A_BOUNDS, Verdict.ENTANGLED_NPT, scalars)


def thm3b_check(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """Necessary NPT bound lambda_min(L + rho^TB) <= max W / 2 on connected graphs.

    Certifies nothing by itself (INCONCLUSIVE); the contrapositive is reported
    in the caveat when the inequality fails.
    """
    if failed := _disconnected(CriterionId.THM3B_NPTES_BOUND, rho):
        return failed
    mu = float(rho.spec_l_plus_ptb[0])
    half = rho.max_w / 2.0
    scalars = {"lambda_min_l_plus_ptb": mu, "half_max_w": half}
    if _above(mu, half, tol.eps):
        caveat = ("bound violated on a connected graph: by contraposition the state "
                  "cannot have a negative partial transpose")
    else:
        caveat = "bound holds: consistent with NPT but not a certificate"
    return CriterionResult(CriterionId.THM3B_NPTES_BOUND, Verdict.INCONCLUSIVE, scalars, caveat)


def thm4a_check(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """Necessary PPT bound lambda_min(L + rho^TB) <= 1 + d_G.

    Violation would certify ENTANGLED_NPT by contraposition (it never fires in
    practice: the trace bound makes the inequality nearly vacuous).
    """
    mu = float(rho.spec_l_plus_ptb[0])
    scalars = {"one_plus_total_degree": 1.0 + rho.total_degree, "lambda_min_l_plus_ptb": mu}
    if _above(mu, 1.0 + rho.total_degree, tol.eps):
        return CriterionResult(CriterionId.THM4A_BOUND, Verdict.ENTANGLED_NPT, scalars)
    return CriterionResult(CriterionId.THM4A_BOUND, Verdict.INCONCLUSIVE, scalars)


def cor4a_nptes(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """Stated NPT test: 1 + d_G < (n-1) * (max W / 2 + lambda_max(rho^TB)).

    Emitted exactly as stated, always with the direction caveat; when the
    inequality fails, the derivation-consistent contrapositive (consistent
    with PPT) is noted instead.
    """
    if failed := _disconnected(CriterionId.COR4A_NPTES, rho):
        return failed
    half = rho.max_w / 2.0
    lam_max_ptb = float(rho.spec_ptb[-1])
    lhs = 1.0 + rho.total_degree
    rhs = (rho.n - 1) * (half + lam_max_ptb)
    scalars = {"one_plus_total_degree": lhs, "rhs": rhs,
               "half_max_w": half, "lambda_max_ptb": lam_max_ptb}
    if _below(lhs, rhs, tol.eps):
        return CriterionResult(CriterionId.COR4A_NPTES, Verdict.ENTANGLED_NPT, scalars,
                               caveat=DIRECTION_CAVEAT)
    return CriterionResult(
        CriterionId.COR4A_NPTES, Verdict.INCONCLUSIVE, scalars,
        caveat=DIRECTION_CAVEAT + "; inequality not satisfied, which by the derivation "
                                  "chain is consistent with PPT")


def cor6_ppt(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
    """PPT if lambda_min(rho) > max W / 2; full rank and connected graph required.

    In 2x2 / 2x3 a PPT verdict upgrades to SEPARABLE.
    """
    if failed := _not_full_rank(CriterionId.COR6_PPT, rho) or _disconnected(CriterionId.COR6_PPT, rho):
        return failed
    half = rho.max_w / 2.0
    lam_min_rho = float(rho.spectrum[0])
    scalars = {"lambda_min_rho": lam_min_rho, "half_max_w": half}
    if _above(lam_min_rho, half, tol.eps):
        verdict = Verdict.SEPARABLE if _is_small_dims(rho.dims) else Verdict.PPT
        return CriterionResult(CriterionId.COR6_PPT, verdict, scalars)
    return CriterionResult(CriterionId.COR6_PPT, Verdict.INCONCLUSIVE, scalars)


# -- assembler ---------------------------------------------------------

_ORDER = {cid: k for k, cid in enumerate(CriterionId)}  # classify reports in CriterionId order
_CONTRADICTS_NPT = {Verdict.SEPARABLE, Verdict.PPT}
_CONTRADICTS_PPT = {Verdict.ENTANGLED_NPT}


def classify(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance(),
             state_id: str = "state") -> ClassificationReport:
    """Run the oracle plus every applicable criterion on one state and flag contradictions."""
    oracle_verdict, oracle_lam = ppt_oracle(rho, tol)
    checks = [purity_test, thm3_separability, thm5_ppt, thm6_ppt, thm3b_check, thm4a_check,
              cor4a_nptes, cor6_ppt]
    if (rho.dims.d1, rho.dims.d2) == (2, 2):
        checks.append(thm3a_bounds)
    results = sorted((check(rho, tol) for check in checks), key=lambda r: _ORDER[r.criterion_id])
    contra = _CONTRADICTS_PPT if oracle_verdict == "PPT" else _CONTRADICTS_NPT
    return ClassificationReport(
        state_id=state_id,
        dims=rho.dims,
        oracle_verdict=oracle_verdict,
        oracle_lambda_min_ptb=oracle_lam,
        results=tuple(results),
        consistency_flags=tuple(r.criterion_id for r in results if r.verdict in contra),
    )


# -- columns -----------------------------------------------------------


@dataclass(frozen=True)
class StackColumns:
    """The oracle and the sweep's criteria over a stack of states, one entry
    per state.  Verdict columns are object arrays of Verdict members."""

    oracle: np.ndarray  # "NPT" | "PPT", as ppt_oracle gives it
    lambda_min_ptb: np.ndarray
    thm3: np.ndarray  # thm3_separability: THM3_SEP_2x2, or COR4_NPTES beyond 2x2 / 2x3
    thm5: np.ndarray
    thm6: np.ndarray
    cor6: np.ndarray
    lambda_min_rho: np.ndarray
    half_max_w: np.ndarray  # max W / 2, NaN where the graph has no edges


def _verdicts(default: Verdict, *cases) -> np.ndarray:
    """A verdict column: `default`, overwritten by each (mask, verdict) of `cases` in turn."""
    out = np.empty(len(cases[0][0]), dtype=object)
    out[:] = default  # np.full would store the member's str value, not the member
    for mask, verdict in cases:
        out[mask] = verdict
    return out


def stack_columns(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> StackColumns:
    """ppt_oracle, thm3_separability, thm5_ppt, thm6_ppt and cor6_ppt on every
    state of a stack, as columns: entry k is what each gives on rho[k], by the
    same band comparisons on the stack's arrays.  No result object is built."""
    eps = tol.eps
    lam_rho, lam_ptb, mu = rho.spectrum[:, 0], rho.spec_ptb[:, 0], rho.spec_l_plus_ptb[:, 0]
    half = rho.max_w / 2.0  # NaN where a graph has no edges
    spread = rho.spec_lap_ptb[:, -1] - rho.spec_lap_ptb[:, 0]
    deficient = rho.rank < rho.n
    small = _is_small_dims(rho.dims)
    return StackColumns(
        oracle=np.where(_below(lam_ptb, 0.0, eps), "NPT", "PPT"),
        lambda_min_ptb=lam_ptb,
        thm3=_verdicts(Verdict.SEPARABLE if small else Verdict.INCONCLUSIVE,
                       (_below(mu, 0.0, eps), Verdict.ENTANGLED_NPT)),
        thm5=_verdicts(Verdict.INCONCLUSIVE, (_at_least(lam_rho, spread, eps), Verdict.PPT),
                       (deficient, Verdict.PRECONDITION_FAILED)),
        thm6=_verdicts(Verdict.INCONCLUSIVE, (_at_least(lam_rho, rho.spec_lap[:, -1], eps), Verdict.PPT),
                       (deficient, Verdict.PRECONDITION_FAILED)),
        cor6=_verdicts(Verdict.INCONCLUSIVE,
                       (_above(lam_rho, half, eps), Verdict.SEPARABLE if small else Verdict.PPT),
                       (deficient | ~rho.connected, Verdict.PRECONDITION_FAILED)),
        lambda_min_rho=lam_rho,
        half_max_w=half,
    )
