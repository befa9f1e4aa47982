"""Tests for the Kaplan-Meier and Nelson-Aalen step-curve estimators.

Oracles: small samples are checked against the product-limit and cumulative
hazard formulas evaluated by hand; larger samples are checked against the
empirical survival function (no censoring) and the exp(-cumhaz) >= KM
inequality, which holds pointwise for any sample.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oslr.data import Cohort
from oslr.errors import UsageError
from oslr.nonparametric import StepCurve, _event_table, kaplan_meier, nelson_aalen

MASTER_SEED = 20260815


def test_km_hand_example():
    """n=3, event at 1, censored at 2, event at 3.

    S(1) = 2/3, then the last subject dies with Y=1 so S(3) = 0.
    """
    c = Cohort([1.0, 2.0, 3.0], [1, 0, 1])
    km = kaplan_meier(c)
    assert_allclose(km.times, [1.0, 3.0])
    assert_allclose(km.values, [2.0 / 3.0, 0.0])
    assert km.initial_value == 1.0


def test_na_hand_example():
    """Same sample: Lambda(1) = 1/3, Lambda(3) = 1/3 + 1/1 = 4/3."""
    c = Cohort([1.0, 2.0, 3.0], [1, 0, 1])
    na = nelson_aalen(c)
    assert_allclose(na.times, [1.0, 3.0])
    assert_allclose(na.values, [1.0 / 3.0, 4.0 / 3.0])
    assert na.initial_value == 0.0


def test_all_censored_has_no_jumps():
    c = Cohort([1.0, 2.0, 5.0], [0, 0, 0])
    km = kaplan_meier(c)
    na = nelson_aalen(c)
    assert km.times.size == 0
    assert na.times.size == 0
    # curves stay at their initial values everywhere
    assert km(0.0) == 1.0 and km(100.0) == 1.0
    assert na(0.0) == 0.0 and na(100.0) == 0.0


def test_single_subject_event():
    km = kaplan_meier(Cohort([2.5], [1]))
    assert_allclose(km.times, [2.5])
    assert_allclose(km.values, [0.0])


def test_tied_events_aggregate():
    """d=2 at t=1 with Y=3 gives S(1) = 1 - 2/3 = 1/3 in one jump."""
    c = Cohort([1.0, 1.0, 2.0], [1, 1, 1])
    km = kaplan_meier(c)
    assert_allclose(km.times, [1.0, 2.0])
    assert_allclose(km.values, [1.0 / 3.0, 0.0])
    na = nelson_aalen(c)
    assert_allclose(na.values, [2.0 / 3.0, 2.0 / 3.0 + 1.0])


def test_censoring_time_equal_to_event_time():
    """Censored subject tied with an event stays in the risk set at that time.

    Sample: event at 1, censored at 1, event at 2.  Y(1)=3, d(1)=1 so
    S(1)=2/3; then Y(2)=1, d(2)=1 so S(2)=0.
    """
    c = Cohort([1.0, 1.0, 2.0], [1, 0, 1])
    km = kaplan_meier(c)
    assert_allclose(km.times, [1.0, 2.0])
    assert_allclose(km.values, [2.0 / 3.0, 0.0])


def _hand_event_table(cohort):
    """(t_j, d_j, Y_j) by a loop over the distinct times."""
    rows = []
    for t in sorted(set(cohort.times.tolist())):
        d = sum(e for x, e in zip(cohort.times, cohort.events) if x == t)
        if d > 0:
            rows.append((t, d, int(np.sum(cohort.times >= t))))
    return [np.array(col) for col in zip(*rows)] if rows else [np.empty(0)] * 3


def test_event_table_matches_a_hand_loop_on_tie_heavy_cohorts():
    """Integer times 1-5, a cohort without events and one tied throughout."""
    rng = np.random.default_rng(MASTER_SEED + 11)
    cohorts = [
        Cohort(rng.integers(1, 6, size=40).astype(np.float64), rng.random(40) < 0.6)
        for _ in range(4)
    ]
    cohorts.append(Cohort(rng.integers(1, 6, size=40).astype(np.float64), np.zeros(40)))
    cohorts.append(Cohort(np.full(40, 3.0), rng.random(40) < 0.6))
    for cohort in cohorts:
        got = _event_table(cohort)
        want = _hand_event_table(cohort)
        for g, w in zip(got, want):
            assert_allclose(g, w, rtol=0, atol=0)
    assert _event_table(cohorts[4])[0].size == 0
    assert_allclose(_event_table(cohorts[5]), [[3.0], [cohorts[5].n_events], [40]])


def test_km_matches_empirical_survival_without_censoring():
    """With no censoring the product-limit estimate telescopes to the ECDF."""
    rng = np.random.default_rng(MASTER_SEED)
    x = rng.exponential(2.0, size=200)
    c = Cohort(x, np.ones_like(x, dtype=np.int64))
    km = kaplan_meier(c)
    for t in [0.1, 0.5, 1.0, 2.0, 5.0]:
        assert_allclose(km(t), np.mean(x > t), rtol=0, atol=1e-12)


def test_exp_neg_na_dominates_km():
    """exp(-Lambda_hat) >= S_KM pointwise (1-x <= e^-x factor by factor)."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    t = rng.exponential(1.0, size=300)
    cens = rng.uniform(0.5, 3.0, size=300)
    x = np.minimum(t, cens)
    d = (t <= cens).astype(np.int64)
    c = Cohort(x, d)
    km = kaplan_meier(c)
    na = nelson_aalen(c)
    assert np.all(np.exp(-na.values) >= km.values - 1e-12)


def test_km_and_na_share_jump_times():
    rng = np.random.default_rng(MASTER_SEED + 2)
    x = np.round(rng.exponential(1.0, size=100), 1) + 0.1
    d = rng.integers(0, 2, size=100)
    if d.sum() == 0:
        d[0] = 1
    c = Cohort(x.astype(np.float64), d)
    km = kaplan_meier(c)
    na = nelson_aalen(c)
    assert_allclose(km.times, na.times)


def test_stepcurve_right_continuous_evaluation():
    s = StepCurve(times=np.array([1.0, 2.0]), values=np.array([0.5, 0.25]))
    assert s(0.0) == 1.0
    assert s(1.0 - 1e-9) == 1.0
    assert s(1.0) == 0.5  # value at the jump is the post-jump value
    assert s(1.5) == 0.5
    assert s(2.0) == 0.25
    assert_allclose(s(np.array([0.5, 1.0, 3.0])), [1.0, 0.5, 0.25])


def test_stepcurve_refuses_nan():
    """NaN sorts past every jump, so it used to read the last value."""
    km = kaplan_meier(Cohort([1.0, 2.0, 3.0], [1, 0, 1]))
    with pytest.raises(UsageError):
        km(float("nan"))
    with pytest.raises(UsageError):
        km(np.array([0.5, np.nan]))


def test_stepcurve_validation():
    with pytest.raises(ValueError):
        StepCurve(times=np.array([2.0, 1.0]), values=np.array([0.5, 0.25]))
    with pytest.raises(ValueError):
        StepCurve(times=np.array([1.0, 1.0]), values=np.array([0.5, 0.25]))
    with pytest.raises(ValueError):
        StepCurve(times=np.array([1.0]), values=np.array([0.5, 0.25]))


def test_stepcurve_arrays_read_only():
    s = StepCurve(times=np.array([1.0]), values=np.array([0.5]))
    with pytest.raises(ValueError):
        s.times[0] = 9.0


def test_stepcurve_to_csv(tmp_path):
    """First data row anchors the curve at (0, initial value)."""
    s = StepCurve(times=np.array([1.0, 3.0]), values=np.array([2.0 / 3.0, 0.0]))
    path = tmp_path / "km.csv"
    s.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,value"
    assert lines[1] == "0.0,1.0"
    assert len(lines) == 4
    t, v = lines[2].split(",")
    assert float(t) == 1.0
    assert float(v) == 2.0 / 3.0
