"""Censored MLE, information matrix, AIC selection and pseudoinverse."""

import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oslr import _kernels
from oslr.data import Cohort, ingest_csv
from oslr.errors import FitError, SelectionError
from oslr.families import _ab, family
from oslr.fitting import (
    GRAD_TOL,
    MAX_ITER,
    FitResult,
    _fit_rows,
    _loglik_and_information,
    _outer,
    aic,
    empirical_information,
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
        return Cohort.from_arrays(t, np.ones(n))
    c = rng.uniform(0.0, censor, n)
    return Cohort.from_arrays(np.minimum(t, c), (t <= c).astype(float))


def test_exponential_closed_form():
    """Exponential MLE is events / total observed time, censored or not."""
    c = Cohort([(1.0, 1), (2.0, 1), (3.0, 1)])
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


def test_information_examples():
    c = Cohort([(1.0, 1), (2.0, 1), (3.0, 1)])
    assert_allclose(empirical_information("exponential", [0.5], c), [[4.0]])
    censored = Cohort([(1.0, 0), (2.0, 0)])
    # log S = -theta*X is linear in theta: zero curvature
    assert_allclose(empirical_information("exponential", [0.7], censored), [[0.0]])


def test_information_counting_process_form():
    """For the exponential family the per-observation Hessian average equals
    the hazard-integral form (1/n) sum_i delta_i / theta^2."""
    rng = np.random.default_rng(9)
    cohort = exp_cohort(rng, 60, censor=2.5)
    theta = 0.9
    counting_form = cohort.n_events / (theta**2 * cohort.n)
    assert_allclose(
        empirical_information("exponential", [theta], cohort), [[counting_form]],
        rtol=1e-12,
    )


def test_information_matches_numerical_hessian():
    from oslr.families import total_loglik

    rng = np.random.default_rng(31)
    t = 2.0 * rng.weibull(1.4, 80)
    c = rng.uniform(0.5, 4.0, 80)
    cohort = Cohort.from_arrays(np.minimum(t, c), (t <= c).astype(float))
    theta = np.array([1.3, 1.9])
    info = empirical_information("weibull", theta, cohort)
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
                total_loglik("weibull", tpp, cohort)
                - total_loglik("weibull", tpm, cohort)
                - total_loglik("weibull", tmp, cohort)
                + total_loglik("weibull", tmm, cohort)
            ) / (4 * h * h)
    assert_allclose(info, -num / cohort.n, rtol=1e-4)


def test_fit_errors():
    censored = Cohort([(1.0, 0), (2.0, 0)])
    with pytest.raises(FitError, match="no events"):
        fit_mle("weibull", censored)
    # all events at one identical time drives the Weibull shape to +inf; the
    # error carries the last iterate inside the bounds, not the trial that
    # overshot them
    for n in (6, 20):
        degenerate = Cohort.from_arrays(np.full(n, 2.0), np.ones(n))
        with pytest.raises(FitError, match="boundary") as err:
            fit_mle("weibull", degenerate)
        last = err.value.last_theta
        assert np.all(np.isfinite(last)) and last[0] <= math.exp(_kernels._LOG_BOUND)


def test_subnormal_time_fails_at_the_boundary_without_warnings():
    """A rate back in the unit of a subnormal time overflows to inf: the row
    ends as FIT_BOUNDARY and fit_mle raises FitError, with no overflow
    warning leaked."""
    cohort = Cohort([(1e-320, 1)])
    status = _fit_rows(family("exponential"), cohort.times[None], cohort.events[None])[1]
    assert status[0] == _kernels.FIT_BOUNDARY
    with pytest.raises(FitError, match="boundary"):
        fit_mle("exponential", cohort)


def _assert_scaled(name, fit0, fit1, factor):
    """Times scaled by factor: the rate scales by 1/factor, a scale by
    factor, a shape not at all."""
    if name == "exponential":
        assert_allclose(fit1.theta_hat[0], fit0.theta_hat[0] / factor, rtol=1e-9)
    else:
        assert_allclose(fit1.theta_hat[0], fit0.theta_hat[0], rtol=1e-9)
        assert_allclose(fit1.theta_hat[1], fit0.theta_hat[1] * factor, rtol=1e-9)


def test_weibull_fit_starts_at_the_exponential_mle():
    """A Weibull fit starts at shape 1 and the scale MLE there, exposure
    over events. It reaches the estimates of the former start
    (shape 1, scale the upper median) in fewer Newton steps: 3.265 per row
    on this block, against 4.575 from the former start."""
    scenario = Scenario(kappa=1.0, n_b=50, pi=1.0, replicates=200, seed=MASTER_SEED)
    cohorts = [
        generate_cohort(scenario, "A", replicate_rng(MASTER_SEED, i)) for i in range(200)
    ]
    times = np.stack([c.times for c in cohorts])
    events = np.stack([c.events for c in cohorts])
    assert times.shape == (200, 50) and events.sum(axis=1).min() > 0
    theta, status, iterations, _, _, _ = _fit_rows(family("weibull"), times, events)
    assert np.all(status == _kernels.FIT_OK)
    assert iterations.mean() <= 3.5
    # the former start: log-parameters (0, 0) on times in units of their
    # upper median
    unit = np.sort(times, axis=1)[:, times.shape[1] // 2]
    zeros = np.zeros(len(cohorts))
    a, b, _, former_iterations, former_status, _ = _kernels.fit_newton(
        _kernels.WEIBULL, times / unit[:, None], events, zeros, zeros, GRAD_TOL, MAX_ITER
    )
    assert np.all(former_status == _kernels.FIT_OK)
    assert iterations.mean() < former_iterations.mean()
    assert_allclose(theta, np.stack((a, b * unit), axis=-1), rtol=1e-7)


@pytest.mark.parametrize("name", ["exponential", "weibull", "loglogistic"])
@settings(max_examples=25, deadline=None)
@given(log10_factor=st.floats(-6.0, 6.0))
def test_scale_invariance(name, log10_factor):
    """Every fit is equivariant under a change of time unit, 1e-6 to 1e6."""
    rng = np.random.default_rng(17)
    t = 2.0 * rng.weibull(1.3, 400)
    c = rng.uniform(0.5, 5.0, 400)
    base = Cohort.from_arrays(np.minimum(t, c), (t <= c).astype(float))
    factor = 10.0**log10_factor
    scaled = Cohort.from_arrays(base.times * factor, base.events)
    _assert_scaled(name, fit_mle(name, base), fit_mle(name, scaled), factor)


@pytest.mark.parametrize("name", ["exponential", "weibull", "loglogistic"])
def test_bundled_control_in_seconds(name):
    """The bundled control arm, converted from years to seconds, fits every
    family to the same estimate in the new unit."""
    years = ingest_csv(DATA_CONTROL)
    factor = 31_557_600.0
    seconds = Cohort.from_arrays(years.times * factor, years.events)
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
    c = Cohort([(1.0, 1), (2.0, 1), (3.0, 1)])
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
    a, b = _ab(fam, fit.theta_hat)
    loglik, info = _loglik_and_information(fam, a, b, cohort.times[None], cohort.events[None])
    assert_allclose(fit.loglik, loglik[0], rtol=1e-10)
    assert_allclose(fit.info_matrix, info[0], rtol=1e-10)

    rng = np.random.default_rng(MASTER_SEED + 3)
    times = rng.weibull(1.4, (40, 60)) * 5.0 + 1e-3
    events = (rng.random((40, 60)) < 0.7).astype(np.float64)
    events[:, 0] = 1.0
    theta, status, _, _, loglik, info = _fit_rows(fam, times, events)
    assert np.all(status == _kernels.FIT_OK)
    b = theta[:, 1] if fam.q == 2 else np.ones(len(theta))
    want_loglik, want_info = _loglik_and_information(fam, theta[:, 0], b, times, events)
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
    assert first != fit_mle("weibull", Cohort.from_arrays(cohort.times * 2.0, cohort.events))


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
        cohort = Cohort.from_arrays(np.minimum(t, c), (t <= c).astype(float))
        fit = fit_mle("weibull", cohort)
        m = fit.info_matrix
        assert np.abs(m - m.T).max() <= 1e-10
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-8 * eig.max()


def test_aic_identity():
    c = Cohort([(1.0, 1), (2.0, 1), (3.0, 1)])
    fit = fit_mle("exponential", c)
    assert fit.aic == 2 * 1 - 2 * fit.loglik
    assert aic(fit) == fit.aic


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
        # the closed-form 2 x 2 path over (..., 2, 2) stacks, and eigh for 3 x 3
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
            ]
        )
        for scale in (1e-12, 1.0, 1e12):
            for m in (scale * general, scale * special):
                expected = np.linalg.pinv(m, rtol=1e-12 * 2, hermitian=True)
                size = np.abs(expected).max(axis=(-2, -1), keepdims=True)
                assert np.all(np.abs(pseudo_inverse(m) - expected) <= 1e-10 * size)
        # badly scaled, as an information matrix in a large time unit: every
        # entry to rtol 1e-9, which the small eigenvalue as mid - radius misses
        d = np.array([1.0, 1e-3])
        m = general[0] * d[:, None] * d[None, :]
        assert_allclose(pseudo_inverse(m), np.linalg.pinv(m, hermitian=True), rtol=1e-9)
        b = rng.normal(size=(20, 3, 2))
        m = b @ np.swapaxes(b, -1, -2)  # rank 2 of 3
        expected = np.linalg.pinv(m, rtol=1e-12 * 3, hermitian=True)
        assert_allclose(pseudo_inverse(m), expected, atol=1e-10 * np.abs(expected).max())


def test_pseudo_inverse_in_log_parameter_coordinates():
    """Taken in log-parameter coordinates, the pseudo-inverse is
    D pinv(D J D) D for D = diag(theta): J^-1 for an invertible J in any
    time unit, including units in which J's eigenvalues span more than the
    plain cutoff."""
    cohort = ingest_csv(DATA_CONTROL)
    for name in ("exponential", "weibull", "loglogistic"):
        for factor in (1.0, 31_557_600.0, 1e9):
            scaled = Cohort.from_arrays(cohort.times * factor, cohort.events)
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
