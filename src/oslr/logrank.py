"""One-sample log-rank statistics against a reference hazard curve.

The compensated event count M(t) = n_B^{-1/2} (N_B(t) - E_B(t)) is compared
with two variance estimates: the martingale-based V1(w,t) and, when the
reference curve was itself estimated, an additional plug-in term V2(t)
accounting for reference-curve uncertainty. A standard two-sample log-rank
test is included as a comparator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import _kernels
from .data import Cohort
from .errors import DegenerateTestError, UsageError
from .families import FamilyDescriptor, _ab, check_theta, family
from .fitting import FitResult, pseudo_inverse


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    return NormalDist().inv_cdf(p)


def p_two_sided(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def p_one_sided(z: float) -> float:
    """Small when z is very negative: fewer events than the reference
    predicts, i.e. evidence of superiority."""
    return normal_cdf(z)


def critical_value(alpha: float) -> float:
    """Two-sided rejection threshold on |z| at level alpha."""
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha}")
    return normal_quantile(1.0 - alpha / 2.0)


def zscore(m_oslr: float, v1: float, v2: float = 0.0) -> float:
    total = v1 + v2
    if total <= 0.0:
        raise DegenerateTestError("zero variance: no events and zero expectation")
    return m_oslr / math.sqrt(total)


@dataclass(frozen=True)
class ReferenceCurve:
    """Cumulative-hazard curve the experimental cohort is tested against.

    Either fitted (carries the information matrix and control sample size
    needed for the corrected test) or fixed (a known parametric truth).
    """

    family: FamilyDescriptor
    theta: np.ndarray
    info_matrix: np.ndarray | None = None
    n_a: int | None = None

    def __post_init__(self):
        fam = family(self.family)
        theta = check_theta(fam, self.theta)
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "theta", theta)
        if self.info_matrix is not None:
            info = np.asarray(self.info_matrix, dtype=np.float64)
            if info.shape != (fam.q, fam.q):
                raise UsageError(
                    f"information matrix shape {info.shape} does not match q={fam.q}"
                )
            object.__setattr__(self, "info_matrix", info)

    @classmethod
    def from_fit(cls, fit: FitResult) -> "ReferenceCurve":
        return cls(
            family=fit.family,
            theta=fit.theta_hat,
            info_matrix=fit.info_matrix,
            n_a=fit.n,
        )

    @classmethod
    def fixed(cls, fam, theta) -> "ReferenceCurve":
        return cls(family=family(fam), theta=theta)

    @property
    def fitted(self) -> bool:
        return self.info_matrix is not None

    def cumulative_hazard(self, t):
        from .families import cumulative_hazard

        return cumulative_hazard(self.family, self.theta, t)

    def gradient(self, t):
        from .families import grad_cumulative_hazard

        return grad_cumulative_hazard(self.family, self.theta, t)


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
        return {
            "t": self.t,
            "m_oslr": self.m_oslr,
            "n_events": self.n_events,
            "expected_events": self.expected_events,
            "v1": self.v1,
            "v2": self.v2,
            "w": self.w,
            "z": self.z,
            "p_two_sided": self.p_two_sided,
            "p_one_sided": self.p_one_sided,
            "corrected": self.corrected,
            "pi": self.pi,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _components(ref: ReferenceCurve, cohort_b: Cohort, t: float):
    if not np.isfinite(t) or t <= 0.0:
        raise UsageError(f"analysis time must be positive and finite, got {t}")
    a, b = _ab(ref.family, ref.theta)
    return _kernels.oslr_components(
        ref.family.code, a, b, cohort_b.times, cohort_b.events, t
    )


def expected_events(ref: ReferenceCurve, cohort_b: Cohort, t: float) -> float:
    """E_B(t) = sum over the cohort of Lambda_ref(min(X_i, t))."""
    return float(_components(ref, cohort_b, t)[1])


def compensated_process(ref: ReferenceCurve, cohort_b: Cohort, t: float) -> float:
    """M(t) = n_B^{-1/2} (N_B(t) - E_B(t))."""
    n_events, expected, _, _ = _components(ref, cohort_b, t)
    return (n_events - expected) / math.sqrt(cohort_b.n)


def v1_hat(cohort_b: Cohort, ref: ReferenceCurve, w: float, t: float) -> float:
    """(w N_B(t) + (1-w) E_B(t)) / n_B for w in [0, 1]."""
    if not 0.0 <= w <= 1.0:
        raise UsageError(f"w must be in [0, 1], got {w}")
    n_events, expected, _, _ = _components(ref, cohort_b, t)
    return (w * n_events + (1.0 - w) * expected) / cohort_b.n


def v2_hat(ref: ReferenceCurve, cohort_b: Cohort, t: float, pi: float) -> float:
    """Reference-uncertainty variance pi * gbar' J(theta)^+ gbar where gbar
    averages the cumulative-hazard gradient at min(X_i, t) over the cohort."""
    if not ref.fitted:
        raise UsageError("corrected variance needs a fitted reference curve")
    if pi <= 0.0:
        raise UsageError(f"allocation ratio pi must be positive, got {pi}")
    _, _, g0, g1 = _components(ref, cohort_b, t)
    gbar = np.array([g0, g1][: ref.family.q])
    return float(pi * gbar @ pseudo_inverse(ref.info_matrix) @ gbar)


def oslr_test(
    ref: ReferenceCurve,
    cohort_b: Cohort,
    t: float | None = None,
    w: float = 0.0,
    corrected: bool = False,
    pi: float | None = None,
) -> TestReport:
    """One-sample log-rank test of cohort_b against a reference curve.

    z = M(t) / sqrt(V1 + V2) with V2 included only when corrected. The
    default analysis time is the largest observed time in cohort_b.
    """
    if t is None:
        t = cohort_b.max_time()
    if corrected:
        if pi is None:
            if ref.n_a is None:
                raise UsageError(
                    "corrected test needs pi or a reference fitted from data"
                )
            pi = cohort_b.n / ref.n_a
        v2 = v2_hat(ref, cohort_b, t, pi)
    else:
        v2, pi = None, None
    n_events, expected, _, _ = _components(ref, cohort_b, t)
    m = (n_events - expected) / math.sqrt(cohort_b.n)
    v1 = v1_hat(cohort_b, ref, w, t)
    z = zscore(m, v1, v2 if corrected else 0.0)
    return TestReport(
        t=float(t),
        m_oslr=m,
        n_events=int(n_events),
        expected_events=float(expected),
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
    u, v = _kernels.two_sample_terms(
        cohort_a.times, cohort_a.events, cohort_b.times, cohort_b.events
    )
    if v <= 0.0:
        raise DegenerateTestError(
            "two-sample log-rank variance is zero: no comparable events"
        )
    n_b = cohort_b.n
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
