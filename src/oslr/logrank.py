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
from .data import Cohort
from .errors import DegenerateTestError, UsageError
from .families import FamilyDescriptor, _ab, check_theta, family
from .fitting import FitResult, _fields_equal, _outer, pseudo_inverse


def normal_quantile(p: float) -> float:
    # statistics (with fractions, decimal and random) loads on first use
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def p_two_sided(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def p_one_sided(z: float) -> float:
    """The standard normal CDF at z. Small when z is very negative: fewer
    events than the reference predicts, i.e. evidence of superiority."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# alpha with a critical value: below 2^-52, 1 - alpha / 2 rounds to 1
_ALPHA_RANGE = (2.0**-52, 1.0 - 2.0**-53)


def check_alpha(alpha: float) -> None:
    """Refuse an alpha outside _ALPHA_RANGE, without loading the quantile."""
    if not _ALPHA_RANGE[0] <= alpha <= _ALPHA_RANGE[1]:
        raise UsageError(f"alpha must be in [2^-52, 1), got {alpha}")


def critical_value(alpha: float) -> float:
    """Two-sided rejection threshold on |z| at level alpha in [2^-52, 1)."""
    check_alpha(alpha)
    return normal_quantile(1.0 - alpha / 2.0)


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


def _compensated_and_v1(n_events, expected, n, w):
    """M(t) = n^{-1/2} (N(t) - E(t)) and V1(w, t) = (w N(t) + (1-w) E(t)) / n,
    for scalars or rows alike."""
    return (n_events - expected) / math.sqrt(n), (w * n_events + (1.0 - w) * expected) / n


def _v2(pi, g0, g1, p00, p01=None, p11=None):
    """V2 = pi * gbar' J^+ gbar, written out elementwise from J^+'s entries
    (p00 for q = 1; p00, p01, p11 for q = 2) so that a row of a block is
    computed alike in any block. Both are in log-parameters, where neither
    has a time unit: J^+ is the pseudo-inverse there, and gbar = (g0, g1)[:q]
    the mean hazard gradient from ``_kernels.oslr_components``."""
    h0 = pi * g0
    if p01 is None:
        return h0 * p00 * g0
    h1 = pi * g1
    return (h0 * p00 + h1 * p01) * g0 + (h0 * p01 + h1 * p11) * g1


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


def _two_sample_scores(times, events, n_a):
    """Log-rank score U and its hypergeometric variance V for each row of
    (R, n) pooled times and events whose first n_a columns are arm A; each
    is (R,). Summed per event in time order, with f = Y_B / Y:
    U = sum (b - f) and V = sum f (1 - f) (Y - d) / (Y - 1), b the event's
    arm-B flag and Y, Y_B, d those of its tie group. Without ties an event
    at rank k has Y = n - k and d = 1; only a row holding a tie looks its
    groups up.

    Times must be positive and finite: the bits of such a float64 form a
    non-negative int64 that orders as the time does, so each row sorts
    once, in place, as int64 keys
    ((bits - row's smallest bits) << 2) | (arm B << 1) | event, and the
    flags travel with the time. A row whose bits span 2^61 or more (times
    more than ~2^512 apart) keys on its dense time ranks instead, which
    keep order and ties. Inside a tie group subjects sort by (arm, event),
    so the scores do not depend on the order of subjects within an arm.
    The flags are unpacked as floats, exact as the counts are, and the keys
    released before the sums; ``times`` and ``events`` are only read."""
    n = times.shape[-1]
    bits = times.view(np.int64)
    keys = bits - bits.min(axis=-1, keepdims=True)
    for r in np.flatnonzero(keys.max(axis=-1) >> 61):
        keys[r] = np.unique(times[r], return_inverse=True)[1]
    keys <<= 2
    keys[:, n_a:] |= 2
    np.bitwise_or(keys, events, out=keys, dtype=np.int64, casting="unsafe")
    keys.sort(axis=-1)
    # adjacent keys of equal time differ in the two flag bits only
    tied = np.flatnonzero(np.any((keys[:, 1:] ^ keys[:, :-1]) < 4, axis=-1))
    tied_times = keys[tied] >> 2
    events = np.empty(keys.shape)
    np.bitwise_and(keys, 1, out=events, casting="unsafe")
    keys >>= 1
    in_b = np.empty(keys.shape)
    np.bitwise_and(keys, 1, out=in_b, casting="unsafe")
    del keys
    y = np.arange(n, 0, -1.0)
    # arm B's subjects from each rank to the row's end
    frac = np.cumsum(in_b[:, ::-1], axis=-1)[:, ::-1]
    frac /= y
    var = 1.0 - frac
    var *= frac
    for r, t in zip(tied, tied_times):
        lo = np.searchsorted(t, t, "left")
        hi = np.searchsorted(t, t, "right")
        d = np.concatenate(([0.0], np.cumsum(events[r])))
        d = d[hi] - d[lo]
        frac[r] = frac[r, lo]
        var[r] = var[r, lo] * (y[lo] - d) / np.maximum(y[lo] - 1.0, 1.0)
    in_b -= frac
    in_b *= events
    var *= events
    return in_b.sum(axis=-1), var.sum(axis=-1)


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
