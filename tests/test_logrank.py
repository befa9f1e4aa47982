"""Tests for the one-sample log-rank statistics and the two-sample comparator.

Oracles: normal-distribution helpers are checked against scipy.stats.norm;
small cohorts against hand-evaluated sums; the two-sample statistic against a
naive per-event-time implementation written independently below; variance
pieces against closed-form compositions of the exponential family.
"""

import math
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from oslr import _kernels, logrank
from oslr.data import Cohort, ingest_csv
from oslr.errors import DegenerateTestError, DomainError, UsageError
from oslr.families import cumulative_hazard
from oslr.fitting import fit_mle
from oslr.logrank import (
    ReferenceCurve,
    _two_sample_scores,
    compensated_process,
    critical_value,
    expected_events,
    normal_quantile,
    oslr_test,
    p_one_sided,
    p_two_sided,
    two_sample_logrank,
    v1_hat,
    v2_hat,
    zscore,
)

MASTER_SEED = 20260815

_DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
DATA_CONTROL = _DATA_DIR / "control.csv"
DATA_EXPERIMENTAL = _DATA_DIR / "experimental.csv"


def test_normal_helpers_match_scipy():
    zs = np.array([-3.5, -1.0, 0.0, 0.7, 2.9146])
    for z in zs:
        assert_allclose(p_one_sided(z), stats.norm.cdf(z), rtol=1e-13)
        assert_allclose(p_two_sided(z), 2 * stats.norm.sf(abs(z)), rtol=1e-13)
    for p in (0.025, 0.5, 0.975):
        assert_allclose(normal_quantile(p), stats.norm.ppf(p), rtol=1e-13)


def test_critical_value():
    assert critical_value(0.05) == pytest.approx(1.959963984540054, rel=1e-14)
    assert_allclose(critical_value(0.01), stats.norm.ppf(0.995), rtol=1e-14)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(UsageError):
            critical_value(bad)


def test_zscore_and_degenerate():
    assert zscore(-2.9855, 1.0492, 0.0) == pytest.approx(-2.9855 / math.sqrt(1.0492))
    assert zscore(1.0, 0.16, 0.09) == pytest.approx(2.0)
    with pytest.raises(DegenerateTestError):
        zscore(0.0, 0.0, 0.0)


def test_reference_curve_construction():
    fixed = ReferenceCurve.fixed("exponential", [1.0])
    assert not fixed.fitted
    assert cumulative_hazard(fixed.family, fixed.theta, 2.0) == pytest.approx(2.0)
    fit = fit_mle("exponential", Cohort([1.0, 2.0, 3.0], [1, 1, 1]))
    ref = ReferenceCurve.from_fit(fit)
    assert ref.fitted and ref.n_a == 3
    assert_allclose(ref.theta, fit.theta_hat)
    with pytest.raises(DomainError):
        ReferenceCurve.fixed("exponential", [-1.0])
    with pytest.raises(UsageError):
        ReferenceCurve(family="weibull", theta=[1.0, 1.0], info_matrix=np.eye(1))


def test_reference_curve_log_info():
    """The fit's log-scale information gives the pseudo-inverse that
    info_matrix scaled by theta theta' gives; one of the wrong shape, or
    one without an info_matrix, is refused."""
    fit = fit_mle("weibull", ingest_csv(DATA_CONTROL))
    theta = fit.theta_hat
    assert_allclose(fit.info_matrix * np.outer(theta, theta), fit.log_info, rtol=1e-15)
    hand_built = ReferenceCurve(family="weibull", theta=theta, info_matrix=fit.info_matrix)
    assert_allclose(ReferenceCurve.from_fit(fit).info_pinv, hand_built.info_pinv, rtol=1e-12)
    with pytest.raises(UsageError, match="shape"):
        ReferenceCurve(
            family="weibull", theta=theta, info_matrix=fit.info_matrix, log_info=np.eye(1)
        )
    with pytest.raises(UsageError, match="without"):
        ReferenceCurve(family="weibull", theta=theta, log_info=fit.log_info)


def test_reference_curve_equality():
    """Array fields compare by value; the derived pseudo-inverse is left out."""
    assert ReferenceCurve.fixed("weibull", [1.0, 2.0]) == ReferenceCurve.fixed(
        "weibull", [1.0, 2.0]
    )
    assert ReferenceCurve.fixed("weibull", [1.0, 2.0]) != ReferenceCurve.fixed(
        "weibull", [1.0, 2.5]
    )
    assert ReferenceCurve.fixed("weibull", [1.0, 2.0]) != ReferenceCurve.fixed(
        "loglogistic", [1.0, 2.0]
    )
    rng = np.random.default_rng(MASTER_SEED + 3)
    cohort = Cohort(rng.weibull(1.3, 40) + 0.01, np.ones(40))
    fitted = ReferenceCurve.from_fit(fit_mle("weibull", cohort))
    fixed = ReferenceCurve.fixed("weibull", fitted.theta)
    assert fitted != fixed and fixed != fitted
    assert fitted == ReferenceCurve.from_fit(fit_mle("weibull", cohort))


def test_expected_events_hand_examples():
    """Unit exponential has Lambda(t) = t, so E is a sum of truncated times."""
    ref = ReferenceCurve.fixed("exponential", [1.0])
    c = Cohort([0.5, 1.5, 2.0], [1, 1, 0])
    assert expected_events(ref, c, 1.0) == pytest.approx(0.5 + 1.0 + 1.0)
    # Lambda(0+) = 0
    assert expected_events(ref, c, 1e-12) < 1e-9
    with pytest.raises(UsageError):
        expected_events(ref, c, 0.0)
    with pytest.raises(UsageError):
        expected_events(ref, c, float("nan"))
    # log-logistic single-subject evaluation from the worked analysis
    ll = ReferenceCurve.fixed("loglogistic", [1.0760, 0.5328])
    assert expected_events(ll, Cohort([4.5], [1]), 4.5) == pytest.approx(
        2.3918, abs=1e-3
    )


def test_compensated_process_hand_examples():
    ref = ReferenceCurve.fixed("exponential", [1.0])
    # N(1) = 1 and E(1) = Lambda(1) = 1 cancel exactly
    assert compensated_process(ref, Cohort([1.0], [1]), 1.0) == 0.0
    c = Cohort([0.5, 1.5], [1, 0])
    # N = 1, E = 0.5 + 1.0, n_B = 2
    assert compensated_process(ref, c, 1.0) == pytest.approx(-0.5 / math.sqrt(2.0))


def test_v1_hat_mixture():
    """N=10, E=12, n=20 built from a rate-0.5 exponential reference."""
    ref = ReferenceCurve.fixed("exponential", [0.5])
    c = Cohort([1.0] * 10 + [1.4] * 10, [1] * 10 + [0] * 10)
    # E(2) = 0.5 * (10*1.0 + 10*1.4) = 12
    assert expected_events(ref, c, 2.0) == pytest.approx(12.0)
    assert v1_hat(c, ref, 0.5, 2.0) == pytest.approx(0.55)
    assert v1_hat(c, ref, 0.0, 2.0) == pytest.approx(12.0 / 20.0)
    assert v1_hat(c, ref, 1.0, 2.0) == pytest.approx(10.0 / 20.0)
    for bad in (-0.1, 1.0001):
        with pytest.raises(UsageError):
            v1_hat(c, ref, bad, 2.0)


def test_v2_hat_closed_form_composition():
    """Exponential theta=0.5 with per-subject information 4 gives
    V2 = pi * gbar * (1/4) * gbar with gbar = min(t, X) = 1."""
    ref = ReferenceCurve(
        family="exponential", theta=[0.5], info_matrix=[[4.0]], n_a=3
    )
    cb = Cohort([1.0], [1])
    assert v2_hat(ref, cb, 1.0, 1.0) == pytest.approx(0.25, rel=1e-12)
    # same composition through an actual fit of [1, 2, 3] all-event data
    fit = fit_mle("exponential", Cohort([1.0, 2.0, 3.0], [1, 1, 1]))
    assert v2_hat(ReferenceCurve.from_fit(fit), cb, 1.0, 1.0) == pytest.approx(
        0.25, rel=1e-6
    )


def test_v2_hat_linear_in_pi():
    rng = np.random.default_rng(MASTER_SEED)
    x = rng.exponential(2.0, size=40)
    d = (rng.random(40) < 0.7).astype(np.int64)
    d[0] = 1
    fit = fit_mle("weibull", Cohort(x, d))
    ref = ReferenceCurve.from_fit(fit)
    cb = Cohort(rng.exponential(2.0, 25), np.ones(25, dtype=np.int64))
    t = float(np.max(cb.times))
    base = v2_hat(ref, cb, t, 0.4)
    assert base > 0
    # scaling pi by 2 is exact (single multiplication by pi)
    assert v2_hat(ref, cb, t, 0.8) == 2.0 * base
    assert v2_hat(ref, cb, t, 0.1) == pytest.approx(base / 4.0, rel=1e-14)


def test_v2_hat_usage_errors():
    fixed = ReferenceCurve.fixed("exponential", [1.0])
    cb = Cohort([1.0], [1])
    with pytest.raises(UsageError):
        v2_hat(fixed, cb, 1.0, 1.0)
    fitted = ReferenceCurve(
        family="exponential", theta=[0.5], info_matrix=[[4.0]], n_a=3
    )
    with pytest.raises(UsageError):
        v2_hat(fitted, cb, 1.0, 0.0)


@pytest.mark.parametrize("pi", [math.nan, math.inf, -math.inf])
def test_non_finite_pi_is_a_usage_error(pi):
    """A non-finite allocation ratio has no corrected variance: NaN would
    pass a `pi <= 0` check and print a NaN z, inf a z of -0."""
    fitted = ReferenceCurve(
        family="exponential", theta=[0.5], info_matrix=[[4.0]], n_a=3
    )
    cb = Cohort([1.0, 2.0], [1, 0])
    with pytest.raises(UsageError, match="pi"):
        v2_hat(fitted, cb, 1.0, pi)
    with pytest.raises(UsageError, match="pi"):
        oslr_test(fitted, cb, corrected=True, pi=pi)


def test_oslr_test_report_identities():
    rng = np.random.default_rng(MASTER_SEED + 3)
    x = rng.weibull(1.3, size=60) * 2.0
    d = (rng.random(60) < 0.8).astype(np.int64)
    fit = fit_mle("weibull", Cohort(x, d))
    ref = ReferenceCurve.from_fit(fit)
    cb = Cohort(
        rng.weibull(1.3, size=30) * 2.0, (rng.random(30) < 0.8).astype(np.int64)
    )
    for corrected in (False, True):
        for w in (0.0, 0.5, 1.0):
            rep = oslr_test(ref, cb, w=w, corrected=corrected)
            total = rep.v1 + (rep.v2 if corrected else 0.0)
            assert rep.z == pytest.approx(rep.m_oslr / math.sqrt(total), rel=1e-12)
            assert rep.p_two_sided == pytest.approx(
                2 * stats.norm.sf(abs(rep.z)), rel=1e-12
            )
            assert rep.p_one_sided == pytest.approx(stats.norm.cdf(rep.z), rel=1e-12)
            assert 0.0 <= rep.p_one_sided <= 1.0
            assert rep.t == pytest.approx(cb.max_time())
            assert rep.corrected is corrected
    # corrected inflates the variance, never the significance
    unc = oslr_test(ref, cb, w=0.0)
    cor = oslr_test(ref, cb, w=0.0, corrected=True)
    assert cor.v2 > 0
    assert cor.p_two_sided > unc.p_two_sided


def test_oslr_test_default_pi_from_fit():
    ref = ReferenceCurve(
        family="exponential", theta=[0.5], info_matrix=[[4.0]], n_a=3
    )
    rep = oslr_test(ref, Cohort([1.0], [1]), corrected=True)
    assert rep.pi == pytest.approx(1.0 / 3.0)
    assert rep.v2 == pytest.approx(0.25 / 3.0, rel=1e-12)
    rep2 = oslr_test(ref, Cohort([1.0], [1]), corrected=True, pi=1.0)
    assert rep2.v2 == pytest.approx(0.25, rel=1e-12)


def test_oslr_test_degenerate():
    """w=1 with zero events zeroes V1; uncorrected test cannot be formed."""
    ref = ReferenceCurve.fixed("exponential", [1.0])
    cb = Cohort([1.0, 2.0], [0, 0])
    with pytest.raises(DegenerateTestError):
        oslr_test(ref, cb, w=1.0)
    # w=0 keeps the expected-count variance and stays well defined
    rep = oslr_test(ref, cb, w=0.0)
    assert rep.n_events == 0
    assert rep.z < 0


def test_testreport_json_round_trip():
    ref = ReferenceCurve.fixed("exponential", [1.0])
    rep = oslr_test(ref, Cohort([0.5, 1.5], [1, 0]))
    d = rep.to_json_dict()
    assert list(d.keys()) == [
        "t",
        "m_oslr",
        "n_events",
        "expected_events",
        "v1",
        "v2",
        "w",
        "z",
        "p_two_sided",
        "p_one_sided",
        "corrected",
        "pi",
    ]
    assert d["v2"] is None and d["pi"] is None
    assert d["n_events"] == 1


def _naive_two_sample(ta, da, tb, db):
    """Textbook per-event-time log-rank sums, O(times^2), for cross-checking."""
    ta, da = np.asarray(ta, float), np.asarray(da, int)
    tb, db = np.asarray(tb, float), np.asarray(db, int)
    event_times = np.unique(np.concatenate([ta[da == 1], tb[db == 1]]))
    u = 0.0
    v = 0.0
    for t in event_times:
        ya = np.sum(ta >= t)
        yb = np.sum(tb >= t)
        y = ya + yb
        d = np.sum((ta == t) & (da == 1)) + np.sum((tb == t) & (db == 1))
        d_b = np.sum((tb == t) & (db == 1))
        u += d_b - yb * d / y
        if y > 1:
            v += d * (yb / y) * (1.0 - yb / y) * (y - d) / (y - 1.0)
    return u, v


def test_two_sample_identical_cohorts():
    c = Cohort([1.0, 2.0, 3.0], [1, 0, 1])
    rep = two_sample_logrank(c, c)
    assert rep.z == pytest.approx(0.0, abs=1e-14)


def test_two_sample_hand_example():
    """A=[(1,1)], B=[(2,1)]: at t=1, U = 0 - 1*(1/2) = -0.5, V = 1/4."""
    rep = two_sample_logrank(Cohort([1.0], [1]), Cohort([2.0], [1]))
    assert rep.m_oslr == pytest.approx(-0.5)
    assert rep.v1 == pytest.approx(0.25)
    assert rep.z == pytest.approx(-1.0)
    assert rep.expected_events == pytest.approx(1.5)
    assert rep.n_events == 1


def test_two_sample_degenerate():
    with pytest.raises(DegenerateTestError):
        two_sample_logrank(Cohort([1.0], [0]), Cohort([2.0], [0]))


def _wide_times(rng, size):
    """Times log-uniform from the smallest subnormal, 5e-324, to 1e308, both
    included: their bit patterns span more than 2^62."""
    times = 10.0 ** rng.uniform(-323.0, 308.0, size=size)
    times[..., :2] = 5e-324, 1e308
    return times


def _mixed_block():
    """(times, events, n_a) of a (10, 40) pooled block, arm A in the first
    n_a = 15 columns, whose rows mix the cases the score treats apart."""
    rng = np.random.default_rng(MASTER_SEED + 6)
    times = rng.exponential(2.0, size=(10, 40))
    events = (rng.random((10, 40)) < 0.6).astype(np.float64)
    events[1] = 0.0  # untied, no events
    times[2] = rng.integers(1, 6, size=40)  # tie-heavy
    times[3] = 3.0  # tied throughout
    times[4] = rng.integers(1, 6, size=40)
    events[4] = 0.0  # tied, no events
    # equal times across the row boundary: row 5's largest time, 2.0, is
    # every time of row 6
    times[5] = np.minimum(times[5], 2.0)
    times[6] = 2.0
    # one tie, an arm-A event with an arm-B censoring, among untied times
    times[7, 20] = times[7, 3]
    events[7, 3], events[7, 20] = 1.0, 0.0
    # the last subject at risk, alone with Y = 1, has an event
    events[8, np.argmax(times[8])] = 1.0
    # times too far apart for their bit patterns, with a tie across the arms
    times[9] = _wide_times(rng, 40)
    times[9, 30] = times[9, 5]
    return times, events, 15


def _two_sample_cases():
    times, events, n_a = _mixed_block()
    for t, d in zip(times, events):
        yield t[:n_a], d[:n_a], t[n_a:], d[n_a:]
    rng = np.random.default_rng(MASTER_SEED + 4)
    for _ in range(100):
        na, nb = rng.integers(5, 40, size=2)
        ta = rng.integers(1, 15, size=na) / 2.0
        tb = rng.integers(1, 15, size=nb) / 2.0
        da = (rng.random(na) < 0.7).astype(np.int64)
        db = (rng.random(nb) < 0.7).astype(np.int64)
        yield ta, da, tb, db
    # every time tied, with a censored subject in the tie
    yield np.full(7, 3.0), np.array([1, 1, 0, 1, 1, 1, 0]), np.full(5, 3.0), np.ones(5)
    # a single subject, with an event, is at risk at the last event time (Y = 1)
    yield (
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([1, 0, 1, 1]),
        np.array([1.5, 2.0, 2.5]),
        np.array([1, 1, 0]),
    )
    # 2 x 2,000 with heavy ties
    ta, tb = rng.integers(1, 400, size=(2, 2000)) / 8.0
    da, db = (rng.random((2, 2000)) < 0.6).astype(np.int64)
    yield ta, da, tb, db
    # times from 5e-324 to 1e308, untied and drawn from 12 values
    for _ in range(5):
        na, nb = rng.integers(5, 40, size=2)
        d = (rng.random(na + nb) < 0.7).astype(np.int64)
        for t in (_wide_times(rng, na + nb), rng.choice(_wide_times(rng, 12), na + nb)):
            yield t[:na], d[:na], t[na:], d[na:]


def test_two_sample_matches_naive_oracle():
    """Random tied/censored datasets, all-tied times, Y = 1 at the last event
    time, a 2 x 2,000 case and times spanning 5e-324 to 1e308 agree with the
    per-time sums."""
    for ta, da, tb, db in _two_sample_cases():
        nb = len(tb)
        u, v = _naive_two_sample(ta, da, tb, db)
        if v <= 0.0:
            with pytest.raises(DegenerateTestError):
                two_sample_logrank(
                    Cohort(ta, da), Cohort(tb, db)
                )
            continue
        rep = two_sample_logrank(Cohort(ta, da), Cohort(tb, db))
        assert_allclose(rep.z, u / math.sqrt(v), rtol=1e-12)
        assert_allclose(rep.m_oslr * math.sqrt(nb), u, rtol=1e-12, atol=1e-12)
        assert_allclose(rep.v1 * nb, v, rtol=1e-12)


def test_two_sample_scores_rows_match_single_rows():
    """Each row of a block mixing tied, untied and event-free rows scores
    exactly as it does alone."""
    times, events, n_a = _mixed_block()
    u, v = _two_sample_scores(times, events, n_a)
    for r in range(times.shape[0]):
        one_u, one_v = _two_sample_scores(times[r : r + 1], events[r : r + 1], n_a)
        assert np.array_equal(u[r : r + 1], one_u)
        assert np.array_equal(v[r : r + 1], one_v)
    assert u[1] == v[1] == u[4] == v[4] == 0.0


def test_two_sample_scores_leave_their_inputs_unchanged():
    """The scores work in place on arrays of their own: the caller's times
    and events are bitwise as they were, on tied, untied, event-free and
    wide-span rows."""
    times, events, n_a = _mixed_block()
    before = times.tobytes(), events.tobytes()
    _two_sample_scores(times, events, n_a)
    assert (times.tobytes(), events.tobytes()) == before


def test_two_sample_scores_ignore_subject_order_within_an_arm():
    """Permuting the subjects of arm A among themselves, and of arm B, leaves
    U and V bitwise unchanged on tied rows, a wide-span one included."""
    rng = np.random.default_rng(MASTER_SEED + 7)
    n_a = 40
    times = np.empty((3, 100))
    times[0] = rng.integers(1, 11, size=100)
    times[1] = rng.integers(1, 400, size=100) / 8.0
    times[2] = rng.choice(_wide_times(rng, 10), size=100)
    events = (rng.random((3, 100)) < 0.6).astype(np.float64)
    u, v = _two_sample_scores(times, events, n_a)
    cols = np.tile(np.arange(100), (3, 1))
    for _ in range(50):
        # each row's own permutation of arm A's columns and of arm B's
        rng.permuted(cols[:, :n_a], axis=1, out=cols[:, :n_a])
        rng.permuted(cols[:, n_a:], axis=1, out=cols[:, n_a:])
        pu, pv = _two_sample_scores(
            np.take_along_axis(times, cols, axis=1),
            np.take_along_axis(events, cols, axis=1),
            n_a,
        )
        assert np.array_equal(pu, u) and np.array_equal(pv, v)


def test_one_kernel_pass_and_one_pseudo_inverse(monkeypatch):
    """A corrected test evaluates the components once; the pseudo-inverse is
    computed once per fitted reference curve, not once per test."""
    calls = {"kernel": 0, "pinv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        _kernels, "oslr_components", counted("kernel", _kernels.oslr_components)
    )
    monkeypatch.setattr(
        logrank, "pseudo_inverse", counted("pinv", logrank.pseudo_inverse)
    )
    rng = np.random.default_rng(MASTER_SEED + 5)
    cohort_a = Cohort(rng.weibull(1.3, 40) + 0.01, np.ones(40))
    cohort_b = Cohort(rng.weibull(1.3, 30) + 0.01, np.ones(30))
    ref = ReferenceCurve.from_fit(fit_mle("weibull", cohort_a))
    assert calls == {"kernel": 0, "pinv": 1}
    oslr_test(ref, cohort_b, w=0.0, corrected=True)
    assert calls == {"kernel": 1, "pinv": 1}
    oslr_test(ref, cohort_b, w=0.5, corrected=True)
    assert calls == {"kernel": 2, "pinv": 1}


@pytest.mark.parametrize("name", ["exponential", "weibull", "loglogistic"])
def test_corrected_z_does_not_depend_on_the_time_unit(name):
    """The bundled cohorts give one corrected z in years, days, seconds and
    a unit 1e9 times smaller: the variance correction is unit-free."""
    cohort_a = ingest_csv(DATA_CONTROL)
    cohort_b = ingest_csv(DATA_EXPERIMENTAL)
    z = []
    for factor in (1.0, 365.25, 31_557_600.0, 1e9):
        a = Cohort(cohort_a.times * factor, cohort_a.events)
        b = Cohort(cohort_b.times * factor, cohort_b.events)
        ref = ReferenceCurve.from_fit(fit_mle(name, a))
        z.append([oslr_test(ref, b, w=w, corrected=True).z for w in (0.0, 0.5)])
    assert_allclose(z[1:], [z[0]] * 3, rtol=1e-9)


@pytest.mark.parametrize("name", ["exponential", "weibull", "loglogistic"])
def test_corrected_z_holds_where_the_information_overflows(name):
    """At time factors 1e200 and 1e-200 the natural-scale information over-
    or underflows, yet the corrected z is the one in years, without a
    warning (the suite turns warnings into errors): the variance correction
    never leaves log-parameter coordinates."""
    cohort_a = ingest_csv(DATA_CONTROL)
    cohort_b = ingest_csv(DATA_EXPERIMENTAL)
    z = []
    for factor in (1.0, 1e200, 1e-200):
        a = Cohort(cohort_a.times * factor, cohort_a.events)
        b = Cohort(cohort_b.times * factor, cohort_b.events)
        ref = ReferenceCurve.from_fit(fit_mle(name, a))
        z.append([oslr_test(ref, b, w=w, corrected=True).z for w in (0.0, 0.5)])
    assert_allclose(z[1:], [z[0]] * 2, rtol=1e-9)


def test_w_choice_vanishes_at_large_n(truth_z_sample):
    """At n_B = 10,000 under the null the w=0 and w=0.5 z-scores coincide."""
    z_w0, z_w05 = truth_z_sample
    diff = np.abs(z_w0[:500] - z_w05)
    assert np.median(diff) <= 0.02
