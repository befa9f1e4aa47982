"""Tests for the one-sample log-rank statistics and the two-sample comparator.

Oracles: normal-distribution helpers are checked against scipy.stats.norm;
small cohorts against hand-evaluated sums; the two-sample statistic against a
naive per-event-time implementation written independently below; variance
pieces against closed-form compositions of the exponential family.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from oslr import _kernels, logrank
from oslr.data import Cohort
from oslr.errors import DegenerateTestError, DomainError, UsageError
from oslr.fitting import fit_mle
from oslr.logrank import (
    ReferenceCurve,
    compensated_process,
    critical_value,
    expected_events,
    normal_cdf,
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


def test_normal_helpers_match_scipy():
    zs = np.array([-3.5, -1.0, 0.0, 0.7, 2.9146])
    for z in zs:
        assert_allclose(normal_cdf(z), stats.norm.cdf(z), rtol=1e-13)
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
    assert fixed.cumulative_hazard(2.0) == pytest.approx(2.0)
    fit = fit_mle("exponential", Cohort([(1.0, 1), (2.0, 1), (3.0, 1)]))
    ref = ReferenceCurve.from_fit(fit)
    assert ref.fitted and ref.n_a == 3
    assert_allclose(ref.theta, fit.theta_hat)
    with pytest.raises(DomainError):
        ReferenceCurve.fixed("exponential", [-1.0])
    with pytest.raises(UsageError):
        ReferenceCurve(family="weibull", theta=[1.0, 1.0], info_matrix=np.eye(1))


def test_expected_events_hand_examples():
    """Unit exponential has Lambda(t) = t, so E is a sum of truncated times."""
    ref = ReferenceCurve.fixed("exponential", [1.0])
    c = Cohort([(0.5, 1), (1.5, 1), (2.0, 0)])
    assert expected_events(ref, c, 1.0) == pytest.approx(0.5 + 1.0 + 1.0)
    # Lambda(0+) = 0
    assert expected_events(ref, c, 1e-12) < 1e-9
    with pytest.raises(UsageError):
        expected_events(ref, c, 0.0)
    with pytest.raises(UsageError):
        expected_events(ref, c, float("nan"))
    # log-logistic single-subject evaluation from the worked analysis
    ll = ReferenceCurve.fixed("loglogistic", [1.0760, 0.5328])
    assert expected_events(ll, Cohort([(4.5, 1)]), 4.5) == pytest.approx(
        2.3918, abs=1e-3
    )


def test_compensated_process_hand_examples():
    ref = ReferenceCurve.fixed("exponential", [1.0])
    # N(1) = 1 and E(1) = Lambda(1) = 1 cancel exactly
    assert compensated_process(ref, Cohort([(1.0, 1)]), 1.0) == 0.0
    c = Cohort([(0.5, 1), (1.5, 0)])
    # N = 1, E = 0.5 + 1.0, n_B = 2
    assert compensated_process(ref, c, 1.0) == pytest.approx(-0.5 / math.sqrt(2.0))


def test_v1_hat_mixture():
    """N=10, E=12, n=20 built from a rate-0.5 exponential reference."""
    ref = ReferenceCurve.fixed("exponential", [0.5])
    rows = [(1.0, 1)] * 10 + [(1.4, 0)] * 10
    c = Cohort(rows)
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
    cb = Cohort([(1.0, 1)])
    assert v2_hat(ref, cb, 1.0, 1.0) == pytest.approx(0.25, rel=1e-12)
    # same composition through an actual fit of [1, 2, 3] all-event data
    fit = fit_mle("exponential", Cohort([(1.0, 1), (2.0, 1), (3.0, 1)]))
    assert v2_hat(ReferenceCurve.from_fit(fit), cb, 1.0, 1.0) == pytest.approx(
        0.25, rel=1e-6
    )


def test_v2_hat_linear_in_pi():
    rng = np.random.default_rng(MASTER_SEED)
    x = rng.exponential(2.0, size=40)
    d = (rng.random(40) < 0.7).astype(np.int64)
    d[0] = 1
    fit = fit_mle("weibull", Cohort.from_arrays(x, d))
    ref = ReferenceCurve.from_fit(fit)
    cb = Cohort.from_arrays(rng.exponential(2.0, 25), np.ones(25, dtype=np.int64))
    t = float(np.max(cb.times))
    base = v2_hat(ref, cb, t, 0.4)
    assert base > 0
    # scaling pi by 2 is exact (single multiplication by pi)
    assert v2_hat(ref, cb, t, 0.8) == 2.0 * base
    assert v2_hat(ref, cb, t, 0.1) == pytest.approx(base / 4.0, rel=1e-14)


def test_v2_hat_usage_errors():
    fixed = ReferenceCurve.fixed("exponential", [1.0])
    cb = Cohort([(1.0, 1)])
    with pytest.raises(UsageError):
        v2_hat(fixed, cb, 1.0, 1.0)
    fitted = ReferenceCurve(
        family="exponential", theta=[0.5], info_matrix=[[4.0]], n_a=3
    )
    with pytest.raises(UsageError):
        v2_hat(fitted, cb, 1.0, 0.0)


def test_oslr_test_report_identities():
    rng = np.random.default_rng(MASTER_SEED + 3)
    x = rng.weibull(1.3, size=60) * 2.0
    d = (rng.random(60) < 0.8).astype(np.int64)
    fit = fit_mle("weibull", Cohort.from_arrays(x, d))
    ref = ReferenceCurve.from_fit(fit)
    cb = Cohort.from_arrays(
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
    rep = oslr_test(ref, Cohort([(1.0, 1)]), corrected=True)
    assert rep.pi == pytest.approx(1.0 / 3.0)
    assert rep.v2 == pytest.approx(0.25 / 3.0, rel=1e-12)
    rep2 = oslr_test(ref, Cohort([(1.0, 1)]), corrected=True, pi=1.0)
    assert rep2.v2 == pytest.approx(0.25, rel=1e-12)


def test_oslr_test_degenerate():
    """w=1 with zero events zeroes V1; uncorrected test cannot be formed."""
    ref = ReferenceCurve.fixed("exponential", [1.0])
    cb = Cohort([(1.0, 0), (2.0, 0)])
    with pytest.raises(DegenerateTestError):
        oslr_test(ref, cb, w=1.0)
    # w=0 keeps the expected-count variance and stays well defined
    rep = oslr_test(ref, cb, w=0.0)
    assert rep.n_events == 0
    assert rep.z < 0


def test_testreport_json_round_trip():
    ref = ReferenceCurve.fixed("exponential", [1.0])
    rep = oslr_test(ref, Cohort([(0.5, 1), (1.5, 0)]))
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
    c = Cohort([(1.0, 1), (2.0, 0), (3.0, 1)])
    rep = two_sample_logrank(c, c)
    assert rep.z == pytest.approx(0.0, abs=1e-14)


def test_two_sample_hand_example():
    """A=[(1,1)], B=[(2,1)]: at t=1, U = 0 - 1*(1/2) = -0.5, V = 1/4."""
    rep = two_sample_logrank(Cohort([(1.0, 1)]), Cohort([(2.0, 1)]))
    assert rep.m_oslr == pytest.approx(-0.5)
    assert rep.v1 == pytest.approx(0.25)
    assert rep.z == pytest.approx(-1.0)
    assert rep.expected_events == pytest.approx(1.5)
    assert rep.n_events == 1


def test_two_sample_degenerate():
    with pytest.raises(DegenerateTestError):
        two_sample_logrank(Cohort([(1.0, 0)]), Cohort([(2.0, 0)]))


def _two_sample_cases():
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


def test_two_sample_matches_naive_oracle():
    """Random tied/censored datasets, all-tied times, Y = 1 at the last event
    time and a 2 x 2,000 case agree with the per-time sums."""
    for ta, da, tb, db in _two_sample_cases():
        nb = len(tb)
        u, v = _naive_two_sample(ta, da, tb, db)
        if v <= 0.0:
            with pytest.raises(DegenerateTestError):
                two_sample_logrank(
                    Cohort.from_arrays(ta, da), Cohort.from_arrays(tb, db)
                )
            continue
        rep = two_sample_logrank(Cohort.from_arrays(ta, da), Cohort.from_arrays(tb, db))
        assert_allclose(rep.z, u / math.sqrt(v), rtol=1e-12)
        assert_allclose(rep.m_oslr * math.sqrt(nb), u, rtol=1e-12, atol=1e-12)
        assert_allclose(rep.v1 * nb, v, rtol=1e-12)


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
    cohort_a = Cohort.from_arrays(rng.weibull(1.3, 40) + 0.01, np.ones(40))
    cohort_b = Cohort.from_arrays(rng.weibull(1.3, 30) + 0.01, np.ones(30))
    ref = ReferenceCurve.from_fit(fit_mle("weibull", cohort_a))
    assert calls == {"kernel": 0, "pinv": 1}
    oslr_test(ref, cohort_b, w=0.0, corrected=True)
    assert calls == {"kernel": 1, "pinv": 1}
    oslr_test(ref, cohort_b, w=0.5, corrected=True)
    assert calls == {"kernel": 2, "pinv": 1}


def test_w_choice_vanishes_at_large_n(truth_z_sample):
    """At n_B = 10,000 under the null the w=0 and w=0.5 z-scores coincide."""
    z_w0, z_w05 = truth_z_sample
    diff = np.abs(z_w0[:500] - z_w05)
    assert np.median(diff) <= 0.02
