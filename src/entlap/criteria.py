"""Detection criteria, the brute-force PPT oracle, and the report assembler.

The oracle and each criterion are one function of (rho, eps), named after its
theorem (`oracle`, `thm1`, `thm3`, ..., `cor6`), over a validated
DensityMatrix: one state or a (b, n, n) stack.  It reads the values the state
computes once and keeps (see `entlap.states`) with `.T[0]` and `.T[-1]`,
numbers on one state and arrays over a stack, and returns an int outcome code
(int8 over a stack), its scalars and, for a criterion, its outcome table.  On
one state a failed precondition returns before what it guards is read; a
stack computes everything and masks.  Every decision is floating point, also
for exact inputs.

`CRITERIA` lists the criteria in CriterionId order, the report's: each entry's
function (`test`), the name of its public one-state reader (`reader`), the one
dims it is defined in, if any (`dims`), and its `entlap sweep` column, if any.
The readers (`purity_test`, ..., `cor6_ppt`; `ppt_oracle` for the oracle) are
built from it and reject a stack and a state outside `dims`.  `classify` runs
each reader that applies, looked up by name in this module when it runs, so a
reader replaced here (a tracer's span, a test's counter) is the one it calls.

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
inside the band the verdict is INCONCLUSIVE rather than a coin flip.  Every
threshold is one of three band comparisons (`_below`, `_at_least`, `_above`),
each written once for numbers and arrays alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import WrongDimensions
from .matops import BipartiteDims
from .states import DensityMatrix, check_one_state


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


class CriterionResult(NamedTuple):
    criterion_id: CriterionId
    verdict: Verdict
    scalars: dict[str, float]
    caveat: str | None = None


class ClassificationReport(NamedTuple):
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

_IFF_DIMS = {(2, 2), (2, 3), (3, 2)}  # where THM3 is claimed as an iff and COR6 certifies SEPARABLE


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


# -- outcome tables ----------------------------------------------------
# A criterion's table gives its id and outcome k of code k: verdict, caveat and
# what the result reports.  Codes 0 and 1 are where the band comparison its
# function makes fails and holds (THM1: 0 in the band, 1 MIXED, 2 consistent
# with pure); the codes after them are its failed preconditions.

_SCALARS, _RANK, _NOTHING = range(3)  # what a result reports: its scalars, the state's rank, or nothing


class _Outcome(NamedTuple):
    verdict: Verdict
    caveat: str | None = None
    reports: int = _SCALARS


class _Table(NamedTuple):
    criterion_id: CriterionId
    outcomes: tuple[_Outcome, ...]


_NOT_FULL_RANK = _Outcome(Verdict.PRECONDITION_FAILED, "state is not full rank", _RANK)
_DISCONNECTED = _Outcome(Verdict.PRECONDITION_FAILED, "coherence graph is not connected", _NOTHING)


def _pick(mask, a: int, b):
    """Code a where mask holds, else b: a plain `if` on one state, an int8 array over a stack."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b).astype(np.int8, copy=False)
    return a if mask else b


def _fails(ok) -> bool:
    """Whether one state fails a precondition (a stack masks its failing rows with `_pick`)."""
    return not (isinstance(ok, np.ndarray) or ok)


def _result(rho: DensityMatrix, table: _Table, code, scalars: dict) -> CriterionResult:
    """One state's result: the outcome of its code, with what that outcome reports."""
    verdict, caveat, reports = table.outcomes[code]
    if reports != _SCALARS:
        scalars = {"rank": float(rho.rank)} if reports == _RANK else {}
    return CriterionResult(table.criterion_id, verdict, scalars, caveat)


_THM1 = _Table(CriterionId.THM1_PURITY, (
    _Outcome(Verdict.INCONCLUSIVE), _Outcome(Verdict.MIXED), _Outcome(Verdict.CONSISTENT_WITH_PURE)))
_THM3_SMALL = _Table(CriterionId.THM3_SEP_2x2, (_Outcome(Verdict.SEPARABLE), _Outcome(Verdict.ENTANGLED_NPT)))
_COR4 = _Table(CriterionId.COR4_NPTES, (
    _Outcome(Verdict.INCONCLUSIVE, "minimum is non-negative: consistent with PPT, but PPT is not certified "
                                   "in these dimensions"),
    _Outcome(Verdict.ENTANGLED_NPT)))
_THM5 = _Table(CriterionId.THM5_PPT, (
    _Outcome(Verdict.INCONCLUSIVE, "violation may or may not indicate a negative partial transpose"),
    _Outcome(Verdict.PPT), _NOT_FULL_RANK))
_THM6 = _Table(CriterionId.THM6_PPT, (_Outcome(Verdict.INCONCLUSIVE), _Outcome(Verdict.PPT), _NOT_FULL_RANK))
_THM3A = _Table(CriterionId.THM3A_BOUNDS, (_Outcome(Verdict.SEPARABLE), _Outcome(Verdict.ENTANGLED_NPT)))
_THM3B = _Table(CriterionId.THM3B_NPTES_BOUND, (
    _Outcome(Verdict.INCONCLUSIVE, "bound holds: consistent with NPT but not a certificate"),
    _Outcome(Verdict.INCONCLUSIVE, "bound violated on a connected graph: by contraposition the state "
                                   "cannot have a negative partial transpose"),
    _DISCONNECTED))
_THM4A = _Table(CriterionId.THM4A_BOUND, (_Outcome(Verdict.INCONCLUSIVE), _Outcome(Verdict.ENTANGLED_NPT)))
_COR4A = _Table(CriterionId.COR4A_NPTES, (
    _Outcome(Verdict.INCONCLUSIVE, DIRECTION_CAVEAT + "; inequality not satisfied, which by the derivation "
                                                      "chain is consistent with PPT"),
    _Outcome(Verdict.ENTANGLED_NPT, DIRECTION_CAVEAT), _DISCONNECTED))
_COR6_SMALL, _COR6 = (_Table(CriterionId.COR6_PPT, (
    _Outcome(Verdict.INCONCLUSIVE), _Outcome(fired), _NOT_FULL_RANK, _DISCONNECTED))
    for fired in (Verdict.SEPARABLE, Verdict.PPT))


# -- oracle and criteria -----------------------------------------------

ORACLE_VERDICTS = ("PPT", "NPT")  # by oracle code


def oracle(rho: DensityMatrix, eps: float):
    """Peres ground truth: NPT (code 1) iff lambda_min(rho^TB) < -eps; and lambda_min(rho^TB)."""
    lam = rho.spec_ptb.T[0]
    return _pick(_below(lam, 0.0, eps), 1, 0), lam


def ppt_oracle(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> tuple[str, float]:
    """The oracle on one state: "NPT" or "PPT", and lambda_min(rho^TB)."""
    check_one_state(rho)
    code, lam = oracle(rho, tol.eps)
    return ORACLE_VERDICTS[code], float(lam)


def thm1(rho: DensityMatrix, eps: float):
    """Determinant / negative-eigenvalue-count purity check on phi(rho) - I.

    det > eps, or det < -eps with an even negative-eigenvalue count, reports
    MIXED; det < -eps with an odd count reports CONSISTENT_WITH_PURE; the band
    is INCONCLUSIVE.  Both are read off the spectrum of the Hermitian
    phi(rho) - I: det is its product, so no LU is run and its sign is (-1) to
    the count.  Caution: this test misfires on a sizeable fraction of genuinely
    pure states (see package docs); the classifier's oracle cross-check does
    not cover it since purity is orthogonal to the PPT question.
    """
    spec = rho.spec_phi_minus_i
    det = spec.prod(-1)
    neg = _below(spec, 0.0, eps).sum(-1, dtype=float)
    pure = _below(det, 0.0, eps) & (neg % 2 == 1)
    return _THM1, _pick(_above(abs(det), 0.0, eps), _pick(pure, 2, 1), 0), {
        "det": det, "negative_eigenvalue_count": neg}


def thm3(rho: DensityMatrix, eps: float):
    """Sign test on mu = lambda_min(L_rho + rho^TB).

    In 2x2 / 2x3 the stated claim is an iff: SEPARABLE when mu >= -eps, else
    ENTANGLED_NPT.  In larger dimensions only mu < -eps certifies anything
    (ENTANGLED_NPT, as COR4_NPTES); mu >= 0 is merely consistent with PPT,
    hence INCONCLUSIVE.
    """
    table = _THM3_SMALL if (rho.dims.d1, rho.dims.d2) in _IFF_DIMS else _COR4
    mu = rho.spec_l_plus_ptb.T[0]
    return table, _pick(_below(mu, 0.0, eps), 1, 0), {"lambda_min_l_plus_ptb": mu}


def thm5(rho: DensityMatrix, eps: float):
    """PPT if lambda_min(rho) >= lambda_max(L^TB) - lambda_min(L^TB); needs full rank."""
    if _fails(full_rank := rho.rank == rho.n):
        return _THM5, 2, {}
    lam, spec = rho.spectrum.T[0], rho.spec_lap_ptb
    spread = spec.T[-1] - spec.T[0]
    return _THM5, _pick(full_rank, _pick(_at_least(lam, spread, eps), 1, 0), 2), {
        "lambda_min_rho": lam, "laplacian_ptb_spread": spread}


def thm6(rho: DensityMatrix, eps: float):
    """PPT if lambda_min(rho) >= lambda_max(L_rho); needs full rank.

    Reads no partial transpose.
    """
    if _fails(full_rank := rho.rank == rho.n):
        return _THM6, 2, {}
    lam, lam_max_lap = rho.spectrum.T[0], rho.spec_lap.T[-1]
    return _THM6, _pick(full_rank, _pick(_at_least(lam, lam_max_lap, eps), 1, 0), 2), {
        "lambda_min_rho": lam, "lambda_max_laplacian": lam_max_lap}


def thm3a(rho: DensityMatrix, eps: float):
    """Two-sided 2x2 test: SEPARABLE iff -eps <= mu <= 1 + d_G + eps."""
    mu, degree = rho.spec_l_plus_ptb.T[0], rho.total_degree
    outside = _below(mu, 0.0, eps) | _above(mu, 1.0 + degree, eps)
    return _THM3A, _pick(outside, 1, 0), {"lambda_min_l_plus_ptb": mu, "total_degree": degree}


def thm3b(rho: DensityMatrix, eps: float):
    """Necessary NPT bound lambda_min(L + rho^TB) <= max W / 2 on connected graphs.

    Certifies nothing by itself (INCONCLUSIVE); the contrapositive is reported
    in the caveat when the inequality fails (code 1).
    """
    if _fails(connected := rho.connected):
        return _THM3B, 2, {}
    mu, half = rho.spec_l_plus_ptb.T[0], rho.max_w / 2.0
    return _THM3B, _pick(connected, _pick(_above(mu, half, eps), 1, 0), 2), {
        "lambda_min_l_plus_ptb": mu, "half_max_w": half}


def thm4a(rho: DensityMatrix, eps: float):
    """Necessary PPT bound lambda_min(L + rho^TB) <= 1 + d_G.

    Violation would certify ENTANGLED_NPT by contraposition (it never fires:
    lambda_min(L + rho^TB) is at most the mean eigenvalue (1 + d_G) / n).
    """
    bound, mu = 1.0 + rho.total_degree, rho.spec_l_plus_ptb.T[0]
    return _THM4A, _pick(_above(mu, bound, eps), 1, 0), {"one_plus_total_degree": bound,
                                                          "lambda_min_l_plus_ptb": mu}


def cor4a(rho: DensityMatrix, eps: float):
    """Stated NPT test: 1 + d_G < (n-1) * (max W / 2 + lambda_max(rho^TB)); needs a connected graph.

    Emitted exactly as stated, always with the direction caveat; when the
    inequality fails, the derivation-consistent contrapositive (consistent
    with PPT) is noted instead.
    """
    if _fails(connected := rho.connected):
        return _COR4A, 2, {}
    half, lam_max_ptb = rho.max_w / 2.0, rho.spec_ptb.T[-1]
    lhs, rhs = 1.0 + rho.total_degree, (rho.n - 1) * (half + lam_max_ptb)
    return _COR4A, _pick(connected, _pick(_below(lhs, rhs, eps), 1, 0), 2), {
        "one_plus_total_degree": lhs, "rhs": rhs, "half_max_w": half, "lambda_max_ptb": lam_max_ptb}


def cor6(rho: DensityMatrix, eps: float):
    """PPT if lambda_min(rho) > max W / 2; full rank and a connected graph required.

    In 2x2 / 2x3 a PPT verdict upgrades to SEPARABLE.
    """
    table = _COR6_SMALL if (rho.dims.d1, rho.dims.d2) in _IFF_DIMS else _COR6
    if _fails(full_rank := rho.rank == rho.n):
        return table, 2, {}
    if _fails(connected := rho.connected):
        return table, 3, {}
    lam, half = rho.spectrum.T[0], rho.max_w / 2.0
    code = _pick(full_rank, _pick(connected, _pick(_above(lam, half, eps), 1, 0), 3), 2)
    return table, code, {"lambda_min_rho": lam, "half_max_w": half}


class Criterion(NamedTuple):
    """A criterion's function, reader name, dims (None: all) and sweep column (None: none)."""

    test: Callable
    reader: str
    dims: tuple[int, int] | None = None
    column: str | None = None


CRITERIA = (  # in CriterionId order, the order of the report
    Criterion(thm1, "purity_test"),
    Criterion(thm3, "thm3_separability", column="thm3"),
    Criterion(thm5, "thm5_ppt", column="thm5"),
    Criterion(thm6, "thm6_ppt", column="thm6"),
    Criterion(thm3a, "thm3a_bounds", dims=(2, 2)),
    Criterion(thm3b, "thm3b_check"),
    Criterion(thm4a, "thm4a_check"),
    Criterion(cor4a, "cor4a_nptes"),
    Criterion(cor6, "cor6_ppt", column="cor6"),
)


def _on_one_state(entry: Criterion):
    """The public function that reads `entry`'s result on one state in its dims."""
    test, only_in = entry.test, entry.dims

    def read(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance()) -> CriterionResult:
        check_one_state(rho)
        if only_in is not None and (rho.dims.d1, rho.dims.d2) != only_in:
            raise WrongDimensions("criterion defined for %dx%d only, got %dx%d" % (*only_in, rho.dims.d1, rho.dims.d2))
        return _result(rho, *test(rho, tol.eps))

    read.__name__ = read.__qualname__ = entry.reader
    read.__doc__ = f"`{test.__name__}` on one state, as a CriterionResult.\n\n{test.__doc__}"
    return read


(purity_test, thm3_separability, thm5_ppt, thm6_ppt, thm3a_bounds, thm3b_check, thm4a_check, cor4a_nptes,
 cor6_ppt) = map(_on_one_state, CRITERIA)


# -- assembler ---------------------------------------------------------

_CONTRADICTS_NPT = {Verdict.SEPARABLE, Verdict.PPT}
_CONTRADICTS_PPT = {Verdict.ENTANGLED_NPT}


def classify(rho: DensityMatrix, tol: DecisionTolerance = DecisionTolerance(),
             state_id: str = "state") -> ClassificationReport:
    """Run the oracle plus every applicable criterion on one state and flag contradictions."""
    oracle_verdict, oracle_lam = ppt_oracle(rho, tol)
    dims, readers = (rho.dims.d1, rho.dims.d2), globals()  # each reader by name: see the module docstring
    results = [readers[entry.reader](rho, tol) for entry in CRITERIA if entry.dims is None or entry.dims == dims]
    contra = _CONTRADICTS_PPT if oracle_verdict == "PPT" else _CONTRADICTS_NPT
    return ClassificationReport(
        state_id=state_id,
        dims=rho.dims,
        oracle_verdict=oracle_verdict,
        oracle_lambda_min_ptb=oracle_lam,
        results=tuple(results),
        consistency_flags=tuple(r.criterion_id for r in results if r.verdict in contra),
    )
