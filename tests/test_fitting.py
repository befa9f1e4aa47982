"""Censored MLE, information matrix, AIC selection and pseudoinverse."""

import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oslr import _kernels
from oslr.data import Cohort, ingest_csv
from oslr.errors import FitError, SelectionError
from oslr.families import family, loglik_derivatives
from oslr.fitting import (
    GRAD_TOL,
    MAX_ITER,
    FitResult,
    _outer,
    _pinv_2x2,
    fit_mle,
    pseudo_inverse,
    select_model,
)
from oslr.logrank import ReferenceCurve
from oslr.simulation import Scenario, generate_cohort, replicate_rng

MASTER_SEED = 20260815
DATA_CONTROL = pathlib.Path(__file__).resolve().parent.parent / "data" / "control.csv"


def exp_cohort(rng, n, rate=0.8, censor=None):
    t = rng.exponential(1.0 / rate, n)
    if censor is None:
        return Cohort(t, np.ones(n))
    c = rng.uniform(0.0, censor, n)
    return Cohort(np.minimum(t, c), (t <= c).astype(float))


def test_exponential_closed_form():
    """Exponential MLE is events / total observed time, censored or not."""
    c = Cohort([1.0, 2.0, 3.0], [1, 1, 1])
    fit = fit_mle("exponential", c)
    assert_allclose(fit.theta_hat, [0.5], atol=1e-10)
    assert_allclose(fit.info_matrix, [[4.0]], rtol=1e-8)
    assert_allclose(fit.loglik, 3 * math.log(0.5) - 3.0, rtol=1e-12)
    assert fit.aic == pytest.approx(12.1589, abs=1e-3)
    assert fit.n == 3

    rng = np.random.default_rng(5)
    for _ in range(10):
        cohort = exp_cohort(rng, 40, censor=3.0)
        fit = fit_mle("exponential", cohort)
        closed = cohort.n_events / cohort.times.sum()
        assert_allclose(fit.theta_hat[0], closed, rtol=1e-8)


def information(name, theta, cohort):
    """The average negated log-likelihood Hessian, -(1/n) sum_i H_i(theta)."""
    return -loglik_derivatives(name, theta, cohort)[2] / cohort.n


def test_information_examples():
    c = Cohort([1.0, 2.0, 3.0], [1, 1, 1])
    assert_allclose(information("exponential", [0.5], c), [[4.0]])
    censored = Cohort([1.0, 2.0], [0, 0])
    # log S = -theta*X is linear in theta: zero curvature
    assert_allclose(information("exponential", [0.7], censored), [[0.0]])


def test_information_counting_process_form():
    """For the exponential family the per-observation Hessian average equals
    the hazard-integral form (1/n) sum_i delta_i / theta^2."""
    rng = np.random.default_rng(9)
    cohort = exp_cohort(rng, 60, censor=2.5)
    theta = 0.9
    counting_form = cohort.n_events / (theta**2 * cohort.n)
    assert_allclose(
        information("exponential", [theta], cohort), [[counting_form]],
        rtol=1e-12,
    )


def test_information_matches_numerical_hessian():
    rng = np.random.default_rng(31)
    t = 2.0 * rng.weibull(1.4, 80)
    c = rng.uniform(0.5, 4.0, 80)
    cohort = Cohort(np.minimum(t, c), (t <= c).astype(float))
    theta = np.array([1.3, 1.9])
    info = information("weibull", theta, cohort)
    h = 1e-5
    num = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            tpp, tpm, tmp, tmm = (theta.copy() for _ in range(4))
            tpp[i] += h; tpp[j] += h
            tpm[i] += h; tpm[j] -= h
            tmp[i] -= h; tmp[j] += h
            tmm[i] -= h; tmm[j] -= h
            num[i, j] = (
                loglik_derivatives("weibull", tpp, cohort)[0]
                - loglik_derivatives("weibull", tpm, cohort)[0]
                - loglik_derivatives("weibull", tmp, cohort)[0]
                + loglik_derivatives("weibull", tmm, cohort)[0]
            ) / (4 * h * h)
    assert_allclose(info, -num / cohort.n, rtol=1e-4)


def test_fit_errors():
    censored = Cohort([1.0, 2.0], [0, 0])
    with pytest.raises(FitError, match="no events"):
        fit_mle("weibull", censored)
    # all events at one identical time drives the Weibull shape to +inf; the
    # error carries the last iterate inside the bounds, not the trial that
    # overshot them
    for n in (6, 20):
        degenerate = Cohort(np.full(n, 2.0), np.ones(n))
        with pytest.raises(FitError, match="boundary") as err:
            fit_mle("weibull", degenerate)
        last = err.value.last_theta
        assert np.all(np.isfinite(last)) and last[0] <= math.exp(_kernels._LOG_BOUND)


def test_subnormal_time_fails_at_the_boundary_without_warnings():
    """A rate back in the unit of a subnormal time overflows to inf: fit_mle
    raises FitError at the boundary, with no overflow warning leaked."""
    cohort = Cohort([1e-320], [1])
    with pytest.raises(FitError, match="boundary"):
        fit_mle("exponential", cohort)


def test_weibull_scale_past_the_float_range_fails_at_the_boundary():
    """The Weibull kernel converges here to a log-scale inside the box
    around the upper median time, but past the largest float64: the kernel
    itself reports FIT_BOUNDARY, not FIT_OK with an infinite scale, and so
    fit_mle raises FitError."""
    times = np.array([2.6970181415597055e303, 6.765317386829827e307])
    events = np.array([1.0, 0.0])
    status = _kernels.fit_weibull(np.log(times)[None], events[None], GRAD_TOL, MAX_ITER)[4]
    assert status.tolist() == [_kernels.FIT_BOUNDARY]
    with pytest.raises(FitError, match="boundary"):
        fit_mle("weibull", Cohort(times, events))


def _assert_scaled(name, fit0, fit1, factor):
    """Times scaled by factor: the rate scales by 1/factor, a scale by
    factor, a shape not at all."""
    if name == "exponential":
        assert_allclose(fit1.theta_hat[0], fit0.theta_hat[0] / factor, rtol=1e-9)
    else:
        assert_allclose(fit1.theta_hat[0], fit0.theta_hat[0], rtol=1e-9)
        assert_allclose(fit1.theta_hat[1], fit0.theta_hat[1] * factor, rtol=1e-9)


def test_weibull_fit_starts_at_the_exponential_mle():
    """A Weibull fit starts at shape 1 and, through the profile, the scale
    MLE there, exposure over events: the exponential MLE. From there it
    converges in <= 3.5 Newton steps per row on average on the bench's
    balanced cell (2.8 on these blocks) and in <= 6 at shapes 5 and 100
    (5.0 and 5.8), where the former 2-D driver took 6.1 and 6.8."""
    rng = np.random.default_rng(MASTER_SEED)
    cohorts = [exp_cohort(rng, 30, censor=2.0) for _ in range(5)]
    times = np.stack([c.times for c in cohorts])
    events = np.stack([c.events for c in cohorts])
    exponential = np.array([fit_mle("exponential", c).theta_hat[0] for c in cohorts])
    logt = np.log(times)
    a, b = _kernels.fit_weibull(logt, events, GRAD_TOL, 0)[:2]
    assert a.tolist() == [1.0] * 5
    assert_allclose(b, 1.0 / exponential, rtol=1e-12)

    for kappa, most in ((1.0, 3.5), (5.0, 6.0), (100.0, 6.0)):
        scenario = Scenario(kappa=kappa, n_b=50, pi=1.0, replicates=200, seed=MASTER_SEED)
        cohorts = [
            generate_cohort(scenario, "A", replicate_rng(MASTER_SEED, i)) for i in range(200)
        ]
        times = np.stack([c.times for c in cohorts])
        events = np.stack([c.events for c in cohorts])
        assert times.shape == (200, 50) and events.sum(axis=1).min() > 0
        _, _, _, iterations, status, _ = _kernels.fit_weibull(
            np.log(times), events, GRAD_TOL, MAX_ITER
        )
        assert np.all(status == _kernels.FIT_OK)
        assert iterations.mean() <= most, (kappa, iterations.mean())


def test_weibull_fit_reaches_a_maximum_far_from_shape_one():
    """Arm A of replicate 72 of Scenario(kappa=0.05, n_b=5, pi=1,
    replicates=1000, seed=77): five events over 23 decades. The maximum,
    at shape 0.0486 and scale 2.2e-8, lies inside the working bounds; the
    former 2-D driver stopped at its start, outside them, and reported the
    boundary."""
    times = [
        3.6089061545286667e-23,
        3.5632290478468122e-25,
        2.886396308355829e-15,
        0.008437981112980693,
        0.7583419932090393,
    ]
    cohort = Cohort(times, [1] * 5)
    fit = fit_mle("weibull", cohort)
    assert_allclose(fit.theta_hat, [0.04858, 2.185e-08], rtol=1e-3)
    assert fit.grad_norm <= GRAD_TOL
    _, grad, hess = loglik_derivatives("weibull", fit.theta_hat, cohort)
    assert np.hypot(*(fit.theta_hat * grad)) / cohort.n <= 1e-7
    assert np.all(np.linalg.eigvalsh(hess) < 0)


def _profile_score(logt, events, a):
    """l_p'(a) of the Weibull profile log-likelihood at each shape of ``a``,
    with the log of its scale, from standardized log-times: a direct
    evaluation, w = t^a taken relative to the largest time."""
    s = logt - logt.max()
    w = np.exp(a[:, None] * s[None, :])
    d = events.sum()
    score = d / a + (events * s).sum() - d * (w * s).sum(axis=1) / w.sum(axis=1)
    logb = logt.max() + (np.log(w.sum(axis=1)) - np.log(d)) / a
    return score, logb


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(1, 6), st.floats(-30.0, 5.0), st.booleans()),
        min_size=1,
        max_size=25,
    ).filter(lambda rows: any(event for _, _, event in rows)),
    tied=st.booleans(),
)
@example(data=[(1, 0.0, True)] * 4, tied=True)  # identical times
@example(data=[(1, 0.0, False)] * 4 + [(6, 0.0, True)], tied=True)  # last time an event
def test_weibull_boundary_only_where_the_profile_keeps_rising(data, tied):
    """Whenever the Weibull fit reports the boundary, the profile score
    l_p'(a) keeps one sign over the working bounds: on a grid of shapes
    across them, at every shape whose implied scale is inside them too.
    Times are drawn from e, e^2, ..., e^6 when ``tied``, from e^-30 to e^5
    otherwise."""
    logt = np.array([float(k) if tied else x for k, x, _ in data])
    events = np.array([float(e) for _, _, e in data])
    times = np.exp(logt)
    status = _kernels.fit_weibull(np.log(times)[None], events[None], GRAD_TOL, MAX_ITER)[4][0]
    if status != _kernels.FIT_BOUNDARY:
        return
    n = logt.size
    unit = np.sort(logt)[n // 2]
    grid = np.exp(np.linspace(-_kernels._LOG_BOUND, _kernels._LOG_BOUND, 553))
    score, logb = _profile_score(logt - unit, events, grid)
    inside = np.abs(logb) <= _kernels._LOG_BOUND
    signs = np.sign(score[inside])
    assert np.all(signs == signs[:1])


@st.composite
def _weibull_blocks(draw):
    """A block of 1-4 rows of n (log-time, event) pairs, each row with an
    event; log-times in [-20, 20], so a row spans up to e^40."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.floats(-20.0, 20.0), st.booleans())
    row = st.lists(pair, min_size=n, max_size=n).filter(lambda r: any(e for _, e in r))
    return draw(st.lists(row, min_size=1, max_size=4))


# ten events within e of each other and one e^40 later: the scale lies
# within the bound of the upper median, not of the largest time
_NEAR_MEDIAN = [(x, True) for x in np.linspace(-20.0, -19.0, 10).tolist()] + [(20.0, True)]
# two events among nine censored times: the scale lies within the bound of
# the largest time, not of the upper median
_NEAR_LARGEST = [
    (x, x in (12.2, -18.05))
    for x in (12.2, 12.32, 0.61, -8.57, -17.84, -4.67, -3.66, -18.19, -18.05, 19.97, 6.09)
]


@settings(max_examples=200, deadline=None)
@given(block=_weibull_blocks())
@example(block=[_NEAR_MEDIAN])
@example(block=[_NEAR_LARGEST])
@example(block=[_NEAR_MEDIAN, _NEAR_LARGEST])
def test_weibull_scale_box_is_around_the_upper_median(block):
    """A converged Weibull row ends FIT_OK exactly when its scale is finite,
    positive and within e^_LOG_BOUND of the row's upper median time (its
    partition median), and FIT_BOUNDARY otherwise; a row that did not
    converge never ends FIT_OK."""
    logt = np.array([[x for x, _ in row] for row in block])
    events = np.array([[float(e) for _, e in row] for row in block])
    times = np.exp(logt)
    a, b, grad_norm, _, status, _ = _kernels.fit_weibull(
        np.log(times), events, GRAD_TOL, MAX_ITER
    )
    theta = np.stack((a, b), axis=-1)
    n = times.shape[1]
    median = np.log(np.partition(times, n // 2, axis=-1)[:, n // 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = np.abs(np.log(theta[:, 1]) - median) <= _kernels._LOG_BOUND
    inside &= np.all(np.isfinite(theta) & (theta > 0), axis=-1)
    converged = grad_norm <= GRAD_TOL
    recheck = np.where(inside, _kernels.FIT_OK, _kernels.FIT_BOUNDARY)
    assert status[converged].tolist() == recheck[converged].tolist()
    assert np.all(status[~converged] != _kernels.FIT_OK)


@pytest.mark.parametrize("name", ["exponential", "weibull", "loglogistic"])
@settings(max_examples=25, deadline=None)
@given(log10_factor=st.floats(-6.0, 6.0))
def test_scale_invariance(name, log10_factor):
    """Every fit is equivariant under a change of time unit, 1e-6 to 1e6."""
    rng = np.random.default_rng(17)
    t = 2.0 * rng.weibull(1.3, 400)
    c = rng.uniform(0.5, 5.0, 400)
    base = Cohort(np.minimum(t, c), (t <= c).astype(float))
    factor = 10.0**log10_factor
    scaled = Cohort(base.times * factor, base.events)
    _assert_scaled(name, fit_mle(name, base), fit_mle(name, scaled), factor)


@pytest.mark.parametrize("name", ["exponential", "weibull", "loglogistic"])
def test_bundled_control_in_seconds(name):
    """The bundled control arm, converted from years to seconds, fits every
    family to the same estimate in the new unit."""
    years = ingest_csv(DATA_CONTROL)
    factor = 31_557_600.0
    seconds = Cohort(years.times * factor, years.events)
    _assert_scaled(name, fit_mle(name, years), fit_mle(name, seconds), factor)


def test_weibull_consistency_large_sample():
    """Data generated with kappa=1 recovers the shape closely at n=10,000."""
    scenario = Scenario(kappa=1.0, n_b=10000, pi=1.0, replicates=1, seed=MASTER_SEED)
    cohort = generate_cohort(scenario, "A", replicate_rng(MASTER_SEED, 0))
    fit = fit_mle("weibull", cohort)
    assert abs(fit.theta_hat[0] - 1.0) <= 0.1


def test_studentized_coverage():
    """sqrt(n) J^(1/2) (theta_hat - theta0) components cover +-1.96 at ~95%."""
    scenario = Scenario(kappa=1.0, n_b=500, pi=1.0, replicates=2000, seed=MASTER_SEED)
    theta0 = np.array([scenario.kappa, scenario.sigma])
    covered = np.zeros(2)
    total = 0
    for i in range(2000):
        cohort = generate_cohort(scenario, "A", replicate_rng(MASTER_SEED, i))
        try:
            fit = fit_mle("weibull", cohort)
        except FitError:
            continue
        vals, vecs = np.linalg.eigh(fit.info_matrix)
        root = vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
        z = math.sqrt(fit.n) * root @ (fit.theta_hat - theta0)
        covered += np.abs(z) <= 1.959963984540054
        total += 1
    assert total >= 1990
    assert np.all(np.abs(covered / total - 0.95) <= 0.02)


def test_fit_result_json():
    c = Cohort([1.0, 2.0, 3.0], [1, 1, 1])
    fit = fit_mle("exponential", c)
    d = fit.to_json_dict()
    assert set(d) == {
        "family", "theta_hat", "info_matrix", "loglik", "aic", "n",
        "converged", "iterations", "grad_norm",
    }
    assert d["family"] == "exponential"
    assert d["info_matrix"] == [4.0]
    assert d["grad_norm"] == fit.grad_norm


def test_fit_reports_final_gradient_norm():
    """A converged fit stopped on the gradient rule, so its reported norm is
    within the tolerance, in every family."""
    cohort = ingest_csv(DATA_CONTROL)
    for name in ("exponential", "weibull", "loglogistic"):
        fit = fit_mle(name, cohort)
        assert 0.0 <= fit.grad_norm <= GRAD_TOL


@pytest.mark.parametrize("name", ["exponential", "weibull", "loglogistic"])
def test_information_from_the_fit_is_the_information_at_the_estimate(name):
    """The log-likelihood and information a fit reports come from its last
    Newton evaluation, on standardized times and log-parameters; mapped back
    they equal a natural-scale pass at theta_hat, for the bundled control arm
    and (the information scaled by theta theta') for each row of a random
    block."""
    fam = family(name)
    cohort = ingest_csv(DATA_CONTROL)
    fit = fit_mle(fam, cohort)
    assert_allclose(fit.loglik, loglik_derivatives(fam, fit.theta_hat, cohort)[0], rtol=1e-10)
    assert_allclose(fit.info_matrix, information(fam, fit.theta_hat, cohort), rtol=1e-10)

    rng = np.random.default_rng(MASTER_SEED + 3)
    times = rng.weibull(1.4, (40, 60)) * 5.0 + 1e-3
    events = (rng.random((40, 60)) < 0.7).astype(np.float64)
    events[:, 0] = 1.0
    rows = [Cohort(t, e) for t, e in zip(times, events)]
    # fit_mle raises FitError on any status but FIT_OK
    fits = [fit_mle(fam, row) for row in rows]
    theta = np.array([f.theta_hat for f in fits])
    loglik = [f.loglik for f in fits]
    info = np.array([f.log_info for f in fits])
    want_loglik = [loglik_derivatives(fam, th, row)[0] for th, row in zip(theta, rows)]
    want_info = np.array([information(fam, th, row) for th, row in zip(theta, rows)])
    assert_allclose(loglik, want_loglik, rtol=1e-10)
    # a block's information is in log-parameters: J scaled by theta theta'
    outer = theta[:, :, None] * theta[:, None, :]
    assert_allclose(info, want_info * outer, rtol=1e-10)


def test_fit_result_equality():
    """Array fields compare by value, so equal fits are equal."""
    cohort = ingest_csv(DATA_CONTROL)
    first = fit_mle("weibull", cohort)
    assert first == fit_mle("weibull", cohort)
    assert first != fit_mle("loglogistic", cohort)
    assert first != fit_mle("weibull", Cohort(cohort.times * 2.0, cohort.events))


def test_fit_survives_overflowing_trial():
    """A trial step whose Hessian divides by an underflowed scale squared
    backtracks instead of raising ZeroDivisionError (replicate 140 of this
    cell sends the scale's log-parameter to about -699)."""
    scenario = Scenario(kappa=0.5, n_b=25, pi=2.0, replicates=300, seed=7)
    cohort = generate_cohort(scenario, "A", replicate_rng(7, 140))
    assert cohort.n == 12
    try:
        fit = fit_mle("weibull", cohort)
    except FitError:
        return
    assert fit.grad_norm <= GRAD_TOL


def test_info_matrix_psd_and_symmetric():
    rng = np.random.default_rng(19)
    for _ in range(10):
        t = rng.uniform(1.0, 3.0) * rng.weibull(rng.uniform(0.7, 2.5), 200)
        c = rng.uniform(0.5, 5.0, 200)
        cohort = Cohort(np.minimum(t, c), (t <= c).astype(float))
        fit = fit_mle("weibull", cohort)
        m = fit.info_matrix
        assert np.abs(m - m.T).max() <= 1e-10
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-8 * eig.max()


def test_aic_identity():
    c = Cohort([1.0, 2.0, 3.0], [1, 1, 1])
    fit = fit_mle("exponential", c)
    assert fit.aic == 2 * 1 - 2 * fit.loglik


def _dummy_fit(name, q, value):
    return FitResult(
        family=family(name),
        theta_hat=np.ones(q),
        log_info=np.eye(q),
        loglik=-(value - 2 * q) / 2,
        aic=value,
        n=10,
        iterations=1,
        grad_norm=0.0,
    )


def test_select_model():
    fits = [
        _dummy_fit("exponential", 1, 204.0),
        _dummy_fit("weibull", 2, 198.0),
        _dummy_fit("loglogistic", 2, 205.0),
    ]
    assert select_model(fits).family.name == "weibull"
    # tie resolves to fewest parameters
    tie = [_dummy_fit("weibull", 2, 198.0), _dummy_fit("exponential", 1, 198.0)]
    assert select_model(tie).family.name == "exponential"
    # then to declaration order
    order = [_dummy_fit("weibull", 2, 198.0), _dummy_fit("loglogistic", 2, 198.0)]
    assert select_model(order).family.name == "weibull"
    assert select_model([fits[0]]) is fits[0]
    with pytest.raises(SelectionError):
        select_model([])


def test_pseudo_inverse():
    # zero singular values are handled inside and must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_allclose(pseudo_inverse(np.eye(2)), np.eye(2))
        assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
        with pytest.raises(ValueError):
            pseudo_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            pseudo_inverse(np.ones((2, 3)))
        rng = np.random.default_rng(29)
        for _ in range(25):
            a = rng.normal(size=(2, 3))
            m = a @ a.T  # symmetric PSD, possibly rank-deficient after the cut
            if rng.random() < 0.5:
                m = np.outer(a[:, 0], a[:, 0])  # exactly rank 1
            plus = pseudo_inverse(m)
            assert_allclose(m @ plus @ m, m, atol=1e-10)
            assert_allclose(plus @ m @ plus, plus, atol=1e-10)
            assert_allclose((m @ plus).T, m @ plus, atol=1e-10)
            assert_allclose((plus @ m).T, plus @ m, atol=1e-10)
        # the closed-form 2 x 2 path over (..., 2, 2) stacks
        a = rng.normal(size=(4, 30, 2, 3))
        general = a @ np.swapaxes(a, -1, -2)
        v = rng.normal(size=(30, 2))
        special = np.concatenate(
            [
                v[:, :, None] * v[:, None, :],  # exactly rank 1
                np.zeros((1, 2, 2)),
                np.array([np.diag(d) for d in [(3.0, -2.0), (-2.0, 3.0), (-5.0, 1e-3),
                                               (-1.0, -4.0), (0.0, -2.0), (-7.0, 0.0)]]),
                np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 2.0], [2.0, -1.0]]]),
                # either side of the cut 1e-12 * 2 * max |lambda|: dropped, kept
                np.diag([1.0, 1.9e-12])[None],
                np.diag([1.0, 2.1e-12])[None],
            ]
        )
        assert pseudo_inverse(special[-2])[1, 1] == 0.0
        assert pseudo_inverse(special[-1])[1, 1] > 1e11
        for scale in (1e-12, 1.0, 1e12):
            for m in (scale * general, scale * special):
                expected = np.linalg.pinv(m, rcond=1e-12 * 2, hermitian=True)
                size = np.abs(expected).max(axis=(-2, -1), keepdims=True)
                plus = pseudo_inverse(m)
                assert np.all(np.abs(plus - expected) <= 1e-10 * size)
                # the engine's V2 takes the helper's entries: the same bits
                entries = _pinv_2x2(m[..., 0, 0], m[..., 0, 1], m[..., 1, 1])
                for (i, j), p in zip(((0, 0), (0, 1), (1, 1)), entries):
                    assert np.array_equal(p, plus[..., i, j])
                assert np.array_equal(plus[..., 1, 0], plus[..., 0, 1])
        # badly scaled, as an information matrix in a large time unit: every
        # entry to rtol 1e-9, which the small eigenvalue as mid - radius misses
        d = np.array([1.0, 1e-3])
        m = general[0] * d[:, None] * d[None, :]
        assert_allclose(pseudo_inverse(m), np.linalg.pinv(m, hermitian=True), rtol=1e-9)
        # 1 x 1, alone and stacked: 1 / m, and 0 where m = 0
        ones = np.array([0.0, -0.0, -3.0, 2.5, 1e300, -1e300, 1e-300, -1e-300, 7.0])
        for m in (*ones[:, None, None], ones.reshape(3, 3, 1, 1)):
            plus = pseudo_inverse(m)
            assert plus.shape == m.shape
            assert np.array_equal(plus, np.linalg.pinv(m, hermitian=True))
        # no reference family has more than two parameters
        b = rng.normal(size=(20, 3, 2))
        for m in (b @ np.swapaxes(b, -1, -2), np.eye(3), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="1 x 1 or 2 x 2"):
                pseudo_inverse(m)


def test_pseudo_inverse_in_log_parameter_coordinates():
    """Taken in log-parameter coordinates, the pseudo-inverse is
    D pinv(D J D) D for D = diag(theta): J^-1 for an invertible J in any
    time unit, including units in which J's eigenvalues span more than the
    plain cutoff."""
    cohort = ingest_csv(DATA_CONTROL)
    for name in ("exponential", "weibull", "loglogistic"):
        for factor in (1.0, 31_557_600.0, 1e9):
            scaled = Cohort(cohort.times * factor, cohort.events)
            fit = fit_mle(name, scaled)
            theta = fit.theta_hat
            plus = _outer(theta) * ReferenceCurve.from_fit(fit).info_pinv
            # P J = I, compared in log-parameter coordinates: D^-1 P J D
            unit_free = (plus @ fit.info_matrix) * theta[None, :] / theta[:, None]
            assert_allclose(unit_free, np.eye(fit.family.q), atol=1e-9)
    rng = np.random.default_rng(31)
    a = rng.normal(size=(10, 2, 3))
    m = a @ np.swapaxes(a, -1, -2)
    theta = rng.uniform(0.1, 10.0, size=(10, 2))
    outer = _outer(theta)
    expected = [t * np.linalg.pinv(m_i * t, hermitian=True) for m_i, t in zip(m, outer)]
    assert_allclose(outer * pseudo_inverse(m * outer), expected, rtol=1e-12)


def test_pseudo_inverse_rejects_non_finite_input():
    for bad in (np.nan, np.inf):
        m = np.eye(2)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            pseudo_inverse(m)
        stack = np.stack([np.eye(2), m])
        with pytest.raises(ValueError, match="finite"):
            pseudo_inverse(stack)
