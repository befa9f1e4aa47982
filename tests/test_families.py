"""Parametric families against scipy oracles, identities and derivatives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from oslr.data import Cohort
from oslr.errors import DomainError, UsageError
from oslr.families import (
    FAMILIES,
    cumulative_hazard,
    density,
    family,
    grad_cumulative_hazard,
    hazard,
    loglik_derivatives,
    survival,
)

RNG = np.random.default_rng(12345)


def random_theta(name, rng=RNG):
    if name == "exponential":
        return np.array([rng.uniform(0.1, 5.0)])
    return np.array([rng.uniform(0.3, 4.0), rng.uniform(0.2, 5.0)])


def scipy_dist(name, theta):
    if name == "exponential":
        return stats.expon(scale=1.0 / theta[0])
    if name == "weibull":
        return stats.weibull_min(theta[0], scale=theta[1])
    return stats.fisk(theta[0], scale=theta[1])


@pytest.mark.parametrize("name", list(FAMILIES))
def test_survival_and_density_match_scipy(name):
    rng = np.random.default_rng(42)
    for _ in range(20):
        theta = random_theta(name, rng)
        t = rng.uniform(0.01, 8.0, size=25)
        d = scipy_dist(name, theta)
        assert_allclose(survival(name, theta, t), d.sf(t), rtol=1e-10)
        assert_allclose(density(name, theta, t), d.pdf(t), rtol=1e-10)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_hazard_identities(name):
    """Lambda = -log S and lambda = f / S, the defining identities."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = random_theta(name, rng)
        t = rng.uniform(0.01, 6.0, size=30)
        s = survival(name, theta, t)
        # drop points where S underflows to 0 and -log S is no longer finite
        ok = s > 1e-300
        assert_allclose(
            cumulative_hazard(name, theta, t)[ok], -np.log(s[ok]), atol=1e-12, rtol=1e-10
        )
        assert_allclose(
            hazard(name, theta, t)[ok], density(name, theta, t)[ok] / s[ok], rtol=1e-10
        )


def test_known_values():
    # unit exponential
    assert cumulative_hazard("exponential", [1.0], 2.5) == pytest.approx(2.5)
    # Weibull at t = scale has survival e^-1
    assert survival("weibull", [1.7, 2.0], 2.0) == pytest.approx(np.exp(-1.0))
    # scale (ln 2)^(-1/kappa) puts median survival at t = 1 for any shape
    for kappa in (0.5, 1.0, 2.0):
        sigma = np.log(2.0) ** (-1.0 / kappa)
        assert survival("weibull", [kappa, sigma], 1.0) == pytest.approx(0.5)
    # log-logistic value used by the worked analysis
    assert cumulative_hazard("loglogistic", [1.0760, 0.5328], 4.5) == pytest.approx(
        2.3918, abs=1e-3
    )
    # Weibull gradient example: d/dk (t/s)^k = (t/s)^k log(t/s), d/ds = -k/s (t/s)^k
    g = grad_cumulative_hazard("weibull", [2.0, 1.0], 2.0)
    assert_allclose(g, [4.0 * np.log(2.0), -8.0], rtol=1e-12)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_values_at_time_zero(name):
    """`oslr km --family` evaluates the model on a grid that starts at 0.
    S(0) = 1 in every family; a two-parameter family's h(0) = f(0) is inf,
    1 / scale or 0 for a shape below, at or above 1, the exponential's its
    rate."""
    grid = np.linspace(0.0, 3.0, 4)
    if name == "exponential":
        cases = [([0.7], 0.7)]
    else:
        cases = [([0.5, 2.5], np.inf), ([1.0, 2.5], 1.0 / 2.5), ([2.0, 2.5], 0.0)]
    for theta, at_zero in cases:
        assert cumulative_hazard(name, theta, grid)[0] == 0.0
        assert survival(name, theta, grid)[0] == 1.0
        assert hazard(name, theta, grid)[0] == at_zero
        assert density(name, theta, grid)[0] == at_zero


@pytest.mark.parametrize("name", list(FAMILIES))
def test_huge_times_reach_their_limits_without_warnings(name):
    """At t = 1e300 the Weibull's Lambda and its gradient overflow to +-inf
    and every family's S and f reach 0: the limits, with no overflow warning
    leaked."""
    t = 1e300
    theta = [2.0] if name == "exponential" else [2.0, 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = cumulative_hazard(name, theta, t)
        s = survival(name, theta, t)
        h = hazard(name, theta, t)
        f = density(name, theta, t)
        grad = grad_cumulative_hazard(name, theta, t)
    assert not np.isnan(grad).any()
    expected_lam = {
        "exponential": 2.0 * t, "weibull": np.inf, "loglogistic": 2.0 * np.log(t / 2.0)
    }
    assert lam == pytest.approx(expected_lam[name], rel=1e-12)
    assert s == 0.0 and f == 0.0
    # the log-logistic's h = u / (1 + u^2) = 1 / (u + 1 / u) at u = t / 2,
    # about 2e-300
    expected_h = {
        "exponential": 2.0, "weibull": t / 2.0, "loglogistic": 1.0 / (t / 2.0 + 2.0 / t)
    }
    assert h == pytest.approx(expected_h[name], rel=1e-12, abs=0.0)


def test_scalar_and_array_shapes():
    theta = [1.5, 2.0]
    v = cumulative_hazard("weibull", theta, 1.0)
    assert isinstance(v, float)
    arr = cumulative_hazard("weibull", theta, np.array([1.0, 2.0]))
    assert arr.shape == (2,)
    g = grad_cumulative_hazard("weibull", theta, np.array([1.0, 2.0, 3.0]))
    assert g.shape == (3, 2)
    g1 = grad_cumulative_hazard("exponential", [0.5], np.array([1.0, 2.0]))
    assert g1.shape == (2, 1)


def test_grad_matches_central_differences():
    rng = np.random.default_rng(11)
    for name in FAMILIES:
        q = family(name).q
        for _ in range(40):
            theta = random_theta(name, rng)
            t = float(rng.uniform(0.05, 6.0))
            grad = grad_cumulative_hazard(name, theta, t)
            for j in range(q):
                h = 1e-6 * theta[j]
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    cumulative_hazard(name, up, t) - cumulative_hazard(name, dn, t)
                ) / (2.0 * h)
                assert_allclose(grad[j], fd, rtol=1e-6, atol=1e-10)


def test_loglik_derivatives_match_finite_differences():
    rng = np.random.default_rng(23)
    for name in FAMILIES:
        q = family(name).q
        for _ in range(15):
            theta = random_theta(name, rng)
            obs_time = float(rng.uniform(0.1, 5.0))
            event = int(rng.random() < 0.7)
            record = Cohort([obs_time], [event])

            def ll(th):
                return loglik_derivatives(name, th, record)[0]

            value, grad, hess = loglik_derivatives(name, theta, record)
            # value decomposes as delta*log(lambda) - Lambda
            direct = event * np.log(hazard(name, theta, obs_time)) - cumulative_hazard(
                name, theta, obs_time
            )
            assert_allclose(value, direct, rtol=1e-10)
            assert hess.shape == (q, q)
            assert_allclose(hess, hess.T)
            for j in range(q):
                h = 1e-6 * theta[j]
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                assert_allclose(grad[j], (ll(up) - ll(dn)) / (2 * h), rtol=2e-5, atol=1e-8)
                gup = loglik_derivatives(name, up, record)[1]
                gdn = loglik_derivatives(name, dn, record)[1]
                assert_allclose(hess[j], (gup - gdn) / (2 * h), rtol=2e-4, atol=1e-6)


def test_total_loglik_sums_observations():
    """A cohort's value, gradient and Hessian are the sums of its one-record
    cohorts' (the per-record route is a cohort of one)."""
    cohort = Cohort([1.0, 2.5, 0.7], [1, 0, 1])
    for name in FAMILIES:
        theta = np.array([1.3, 1.8])[: family(name).q]
        total = loglik_derivatives(name, theta, cohort)
        parts = [
            loglik_derivatives(name, theta, Cohort([t], [e]))
            for t, e in zip(cohort.times, cohort.events)
        ]
        for k in range(3):
            assert_allclose(total[k], sum(p[k] for p in parts), rtol=1e-12)
        assert total[1].shape == (family(name).q,)
        assert total[2].shape == (family(name).q, family(name).q)


def test_domain_validation():
    with pytest.raises(UsageError):
        family("gamma")
    with pytest.raises(DomainError):
        cumulative_hazard("weibull", [1.0], 1.0)
    with pytest.raises(DomainError):
        cumulative_hazard("weibull", [-1.0, 2.0], 1.0)
    with pytest.raises(DomainError):
        cumulative_hazard("exponential", [np.nan], 1.0)
    with pytest.raises(UsageError):
        grad_cumulative_hazard("weibull", [1.0, 1.0], 0.0)


@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(["exponential", "weibull", "loglogistic"]),
    shape=st.floats(0.3, 4.0),
    scale=st.floats(0.2, 5.0),
    t1=st.floats(0.01, 20.0),
    t2=st.floats(0.01, 20.0),
)
def test_monotonicity_properties(name, shape, scale, t1, t2):
    """Cumulative hazard is nondecreasing, survival nonincreasing in t."""
    theta = [shape] if name == "exponential" else [shape, scale]
    lo, hi = min(t1, t2), max(t1, t2)
    assert cumulative_hazard(name, theta, lo) <= cumulative_hazard(name, theta, hi) + 1e-12
    assert survival(name, theta, lo) >= survival(name, theta, hi) - 1e-12
    assert cumulative_hazard(name, theta, hi) >= 0.0
    assert 0.0 <= survival(name, theta, hi) <= 1.0
