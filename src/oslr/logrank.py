"""One-sample log-rank statistics against a reference hazard curve.

The compensated event count M(t) = n_B^{-1/2} (N_B(t) - E_B(t)) is compared
with two variance estimates: the martingale-based V1(w,t) and, when the
reference curve was itself estimated, an additional plug-in term V2(t)
accounting for reference-curve uncertainty. A standard two-sample log-rank
test is included as a comparator.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field

import numpy as np

from . import _kernels
from ._kernels import _compensated_and_v1, _two_sample_scores, _v2
from .data import Cohort
from .errors import DegenerateTestError, UsageError
from .families import FamilyDescriptor, _ab, check_theta, family
from .fitting import FitResult, _fields_equal, _outer, pseudo_inverse


def p_two_sided(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def p_one_sided(z: float) -> float:
    """The standard normal CDF at z. Small when z is very negative: fewer
    events than the reference predicts, i.e. evidence of superiority."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def zscore(m_oslr: float, v1: float, v2: float = 0.0) -> float:
    """z = M / sqrt(V1 + V2): how a reported analysis's z is recomputed from
    its published components alone."""
    total = v1 + v2
    if total <= 0.0:
        raise DegenerateTestError("zero variance: no events and zero expectation")
    if not (math.isfinite(m_oslr) and math.isfinite(total)):
        raise DegenerateTestError(
            "the expected events or the variance overflow: the reference curve "
            "predicts more events by these times than a float holds"
        )
    return m_oslr / math.sqrt(total)


def _information(m, q: int) -> np.ndarray:
    """An information matrix as a float array, refused unless q x q."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (q, q):
        raise UsageError(f"information matrix shape {m.shape} does not match q={q}")
    return m


@dataclass(frozen=True, eq=False)
class ReferenceCurve:
    """Cumulative-hazard curve the experimental cohort is tested against.

    Either fitted (carries the information matrix and control sample size
    needed for the corrected test) or fixed (a known parametric truth). A
    fitted curve computes the pseudo-inverse of its information in
    log-parameter coordinates once, as ``info_pinv``, so that the corrected
    test does not depend on the time unit. That information is ``log_info``
    when given (``from_fit`` passes the fit's, which stays finite where the
    natural-scale matrix overflows), else ``info_matrix`` scaled by
    theta theta'. A ``log_info`` is refused without an ``info_matrix`` or
    unless it is q x q too.
    """

    family: FamilyDescriptor
    theta: np.ndarray
    info_matrix: np.ndarray | None = None
    n_a: int | None = None
    log_info: InitVar[np.ndarray | None] = None
    info_pinv: np.ndarray | None = field(
        init=False, default=None, repr=False, compare=False
    )

    __eq__ = _fields_equal

    def __post_init__(self, log_info):
        fam = family(self.family)
        theta = check_theta(fam, self.theta)
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "theta", theta)
        if self.info_matrix is None:
            if log_info is not None:
                raise UsageError("log_info given without info_matrix")
            return
        info = _information(self.info_matrix, fam.q)
        object.__setattr__(self, "info_matrix", info)
        if log_info is None:
            log_info = info * _outer(theta)
        object.__setattr__(self, "info_pinv", pseudo_inverse(_information(log_info, fam.q)))

    @classmethod
    def from_fit(cls, fit: FitResult) -> "ReferenceCurve":
        return cls(
            family=fit.family,
            theta=fit.theta_hat,
            info_matrix=fit.info_matrix,
            n_a=fit.n,
            log_info=fit.log_info,
        )

    @classmethod
    def fixed(cls, fam, theta) -> "ReferenceCurve":
        return cls(family=family(fam), theta=theta)

    @property
    def fitted(self) -> bool:
        return self.info_matrix is not None


@dataclass(frozen=True)
class TestReport:
    """Inputs and outputs of one test evaluation."""

    t: float
    m_oslr: float
    n_events: int
    expected_events: float
    v1: float
    v2: float | None
    w: float
    z: float
    p_two_sided: float
    p_one_sided: float
    corrected: bool
    pi: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def oslr_test(
    ref: ReferenceCurve,
    cohort_b: Cohort,
    t: float | None = None,
    w: float = 0.0,
    corrected: bool = False,
    pi: float | None = None,
) -> TestReport:
    """One-sample log-rank test of cohort_b against a reference curve at time t
    (default: cohort_b's largest time). One kernel pass gives the paper's N_B(t)
    (``n_events``), E_B(t) = sum_i Lambda_ref(min(X_i, t))
    (``expected_events``), M(t) = n_B^{-1/2} (N_B(t) - E_B(t)) (``m_oslr``),
    V1(w, t) = (w N_B(t) + (1-w) E_B(t)) / n_B, w in [0, 1] (``v1``) and, when
    corrected, V2(t) = pi gbar' J^+ gbar (``v2``, pi by default n_B / n_A), gbar
    the cohort's mean parameter gradient of Lambda_ref at min(X_i, t); J and
    gbar are in log-parameters, which leaves V2 as it is. z = M(t) /
    sqrt(V1 [+ V2]); a sum not positive and finite raises DegenerateTestError."""
    if t is None:
        t = cohort_b.max_time()
    if not corrected:
        pi = None
    elif pi is None:
        if ref.n_a is None:
            raise UsageError("corrected test needs pi or a reference fitted from data")
        pi = cohort_b.n / ref.n_a
    if not np.isfinite(t) or t <= 0.0:
        raise UsageError(f"analysis time must be positive and finite, got {t}")
    if not 0.0 <= w <= 1.0:
        raise UsageError(f"w must be in [0, 1], got {w}")
    if pi is not None:
        if not ref.fitted:
            raise UsageError("corrected variance needs a fitted reference curve")
        if not math.isfinite(pi) or pi <= 0.0:
            raise UsageError(f"allocation ratio pi must be positive and finite, got {pi}")
    a, b = _ab(ref.family, ref.theta)
    n_events = float((cohort_b.events * (cohort_b.times <= t)).sum())
    capped = np.minimum(cohort_b.times, t)
    # times far past the reference's own overflow E_B or V2 to inf (or V2 to
    # NaN); zscore refuses such a test
    with np.errstate(over="ignore", invalid="ignore"):
        components = _kernels.oslr_components(ref.family.code, a, b, capped, np.log(capped))
        expected, g0, g1 = map(float, components)
        p = ref.info_pinv  # _v2 takes its entries on and above the diagonal
        v2 = None if pi is None else float(_v2(pi, g0, g1, *p[np.triu_indices(len(p))]))
    m, v1 = _compensated_and_v1(n_events, expected, cohort_b.n, w)
    z = zscore(m, v1, v2 if corrected else 0.0)
    return TestReport(
        t=float(t),
        m_oslr=m,
        n_events=int(n_events),
        expected_events=expected,
        v1=v1,
        v2=v2,
        w=w,
        z=z,
        p_two_sided=p_two_sided(z),
        p_one_sided=p_one_sided(z),
        corrected=corrected,
        pi=pi,
    )


def two_sample_logrank(cohort_a: Cohort, cohort_b: Cohort) -> TestReport:
    """Standard unweighted two-sample log-rank test.

    Reported on the same scale as the one-sample reports: m_oslr = U/sqrt(n_B)
    and v1 = V/n_B, so z = U/sqrt(V).
    """
    n_a, n_b = cohort_a.n, cohort_b.n
    u, v = (
        float(x[0])
        for x in _two_sample_scores(
            np.concatenate((cohort_a.times, cohort_b.times))[None],
            np.concatenate((cohort_a.events, cohort_b.events))[None],
            n_a,
        )
    )
    if v <= 0.0:
        raise DegenerateTestError(
            "two-sample log-rank variance is zero: no comparable events"
        )
    n_events = cohort_b.n_events
    z = u / math.sqrt(v)
    return TestReport(
        t=float(max(cohort_a.max_time(), cohort_b.max_time())),
        m_oslr=u / math.sqrt(n_b),
        n_events=int(n_events),
        expected_events=float(n_events - u),
        v1=v / n_b,
        v2=None,
        w=0.0,
        z=z,
        p_two_sided=p_two_sided(z),
        p_one_sided=p_one_sided(z),
        corrected=False,
        pi=None,
    )
