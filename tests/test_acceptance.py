"""Acceptance suite: one test per release criterion, one pass/fail line each.

Every criterion is phrased against an oracle that does not depend on the
implementation under test: published component values, closed-form MLEs,
central-difference derivatives, binomial error bands, and structural
guarantees that hold with exact arithmetic. The heavy Monte Carlo cells come
from the session fixtures in conftest (10,000 replicates per cell, frozen
master seed), so their rates are deterministic.
"""

import contextlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oslr.data import Cohort
from oslr.families import (
    cumulative_hazard,
    family,
    grad_cumulative_hazard,
    loglik_derivatives,
)
from oslr.fitting import fit_mle, pseudo_inverse
from oslr.logrank import ReferenceCurve, oslr_test, p_one_sided, zscore
from oslr.results import mc_error_interval

MASTER_SEED = 20260815


@pytest.fixture
def criterion(capsys):
    """Emit the one-line verdict straight to the terminal, capture or not."""

    @contextlib.contextmanager
    def _criterion(label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n{label}: FAIL")
            raise
        with capsys.disabled():
            print(f"\n{label}: PASS")

    return _criterion


def test_acceptance_1_z_and_p_from_reference_components(criterion):
    """Z-scores and one-sided p-values recomputed from the reference
    analysis' variance components match its reported values to 4 decimals.

    The reported Z values were computed from unrounded components, so the
    recomputation from 4-decimal components is held to one unit in the
    fourth decimal; the p-values agree exactly after rounding.
    """
    with criterion("acceptance 1/8 (z and p from variance components)"):
        m = -2.9855
        v2 = 0.7105
        cases = [
            (1.0492, 0.0, -2.9146, 0.0018),
            (0.8927, 0.0, -3.1598, 0.0008),
            (1.0492, v2, -2.2506, 0.0122),
            (0.8927, v2, -2.3579, 0.0092),
        ]
        for v1, v2_term, z_ref, p_ref in cases:
            z = zscore(m, v1, v2_term)
            assert abs(z - z_ref) <= 1e-4
            assert round(p_one_sided(z), 4) == p_ref


def test_acceptance_2_mc_error_intervals(criterion):
    with criterion("acceptance 2/8 (Monte Carlo error intervals)"):
        lo, hi = mc_error_interval(0.025, 100000)
        assert (round(lo, 4), round(hi, 4)) == (0.0240, 0.0260)
        lo, hi = mc_error_interval(0.05, 100000)
        assert (round(lo, 4), round(hi, 4)) == (0.0486, 0.0514)


def test_acceptance_3_balanced_cell_bands(criterion, cell_pi1):
    """kappa=1, n_B=50, pi=1, 10,000 replicates: the corrected and
    known-truth tests hold the 5% level (3 binomial SDs), the uncorrected
    fitted-reference test is visibly inflated, the two-sample comparator is
    inside a generous band."""
    with criterion("acceptance 3/8 (balanced-cell rejection-rate bands)"):
        lo, hi = 0.0435, 0.0565
        for proc in ("corrected_w0", "corrected_w05"):
            assert lo <= cell_pi1.two_sided_rate(proc) <= hi
        for proc in ("uncorrected_w0", "uncorrected_w05"):
            assert cell_pi1.two_sided_rate(proc) > hi
        for proc in ("true_w0", "true_w05"):
            assert lo <= cell_pi1.two_sided_rate(proc) <= hi
        assert 0.0400 <= cell_pi1.two_sided_rate("two_sample") <= 0.0600


def test_acceptance_4_allocation_ratio_trend(criterion, pi_sweep):
    """Uncorrected inflation grows materially from pi=1/16 to pi=1 while the
    corrected test stays inside its band at every allocation ratio."""
    with criterion("acceptance 4/8 (allocation-ratio trend)"):
        low = pi_sweep[0.0625].two_sided_rate("uncorrected_w0")
        high = pi_sweep[1.0].two_sided_rate("uncorrected_w0")
        assert high - low >= 0.01
        for pi in (0.0625, 0.25, 1.0):
            for proc in ("corrected_w0", "corrected_w05"):
                rate = pi_sweep[pi].two_sided_rate(proc)
                assert 0.0435 <= rate <= 0.0565, f"pi={pi} {proc} rate={rate}"


def _random_theta(rng, q):
    return np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=q))


def _fd_gradient(name, theta, t):
    q = len(theta)
    g = np.empty(q)
    for j in range(q):
        h = 1e-6 * max(1.0, abs(theta[j]))
        up = np.array(theta, dtype=float)
        dn = np.array(theta, dtype=float)
        up[j] += h
        dn[j] -= h
        g[j] = (
            cumulative_hazard(name, up, t) - cumulative_hazard(name, dn, t)
        ) / (2.0 * h)
    return g


def _fd_information(name, theta, cohort):
    """Negated central second differences of the mean log-likelihood."""
    q = len(theta)
    hess = np.empty((q, q))
    steps = [1e-4 * max(1.0, abs(theta[j])) for j in range(q)]

    def f(t):
        return loglik_derivatives(name, t, cohort)[0] / cohort.n

    for j in range(q):
        for k in range(q):
            hj, hk = steps[j], steps[k]
            pp = np.array(theta, dtype=float)
            pm = np.array(theta, dtype=float)
            mp = np.array(theta, dtype=float)
            mm = np.array(theta, dtype=float)
            pp[j] += hj
            pp[k] += hk
            pm[j] += hj
            pm[k] -= hk
            mp[j] -= hj
            mp[k] += hk
            mm[j] -= hj
            mm[k] -= hk
            hess[j, k] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * hj * hk)
    return -hess


def test_acceptance_5_derivative_oracles(criterion):
    """1,000 random (family, theta, t) triples: the cumulative-hazard
    gradient matches central differences to 1e-6 relative error; the
    information matrix matches the numerical Hessian to 1e-4."""
    with criterion("acceptance 5/8 (derivative and information oracles)"):
        rng = np.random.default_rng(MASTER_SEED)
        names = ("exponential", "weibull", "loglogistic")
        for i in range(1000):
            name = names[i % 3]
            q = family(name).q
            theta = _random_theta(rng, q)
            t = float(rng.uniform(0.1, 10.0))
            analytic = grad_cumulative_hazard(name, theta, t)
            fd = _fd_gradient(name, theta, t)
            assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)
        for i in range(150):
            name = names[i % 3]
            q = family(name).q
            theta = _random_theta(rng, q)
            x = rng.weibull(1.4, size=80) * 2.0 + 1e-3
            d = (rng.random(80) < 0.7).astype(np.int64)
            d[0] = 1
            cohort = Cohort(x, d)
            emp = -loglik_derivatives(name, theta, cohort)[2] / cohort.n
            num = _fd_information(name, theta, cohort)
            assert_allclose(emp, num, rtol=1e-4, atol=1e-7)


def test_acceptance_6_exponential_closed_form(criterion):
    """On all-event data the exponential MLE is D / sum(X) and the AIC is
    the exact hand formula."""
    with criterion("acceptance 6/8 (closed-form exponential MLE and AIC)"):
        rng = np.random.default_rng(MASTER_SEED + 6)
        for _ in range(200):
            n = int(rng.integers(3, 120))
            x = rng.exponential(rng.uniform(0.3, 4.0), size=n)
            cohort = Cohort(x, np.ones(n, dtype=np.int64))
            fit = fit_mle("exponential", cohort)
            closed = n / float(x.sum())
            assert abs(fit.theta_hat[0] - closed) <= 1e-8 * closed
            assert fit.aic == 2.0 * 1 - 2.0 * fit.loglik


def _penrose_ok(m, pinv, tol=1e-10):
    scale = max(1.0, float(np.max(np.abs(m))), float(np.max(np.abs(pinv))))
    checks = [
        m @ pinv @ m - m,
        pinv @ m @ pinv - pinv,
        (m @ pinv).T - m @ pinv,
        (pinv @ m).T - pinv @ m,
    ]
    return all(float(np.max(np.abs(c))) <= tol * scale for c in checks)


def test_acceptance_7_corrected_test_structure(criterion):
    """1,000 random fitted datasets: the corrected p-value always exceeds the
    uncorrected one when the correction term is positive, the correction term
    is nonnegative and exactly linear in pi, and the pseudoinverse of each
    information matrix satisfies all four Penrose conditions."""
    with criterion("acceptance 7/8 (corrected-test structural guarantees)"):
        rng = np.random.default_rng(MASTER_SEED + 7)
        names = ("exponential", "weibull", "loglogistic")
        for i in range(1000):
            name = names[i % 3]
            n_a = int(rng.integers(25, 80))
            n_b = int(rng.integers(10, 40))
            shape = rng.uniform(0.7, 2.0)
            scale = rng.uniform(0.5, 3.0)
            xa = rng.weibull(shape, size=n_a) * scale
            xb = rng.weibull(shape, size=n_b) * scale
            da = (rng.random(n_a) < 0.75).astype(np.int64)
            db = (rng.random(n_b) < 0.75).astype(np.int64)
            da[0] = 1
            db[0] = 1
            try:
                fit = fit_mle(name, Cohort(xa, da))
            except Exception:
                continue
            ref = ReferenceCurve.from_fit(fit)
            cohort_b = Cohort(xb, db)
            unc = oslr_test(ref, cohort_b, w=0.0)
            cor = oslr_test(ref, cohort_b, w=0.0, corrected=True)
            assert cor.v2 >= 0.0
            if cor.v2 > 0.0:
                assert cor.p_two_sided > unc.p_two_sided
            t = cohort_b.max_time()
            base = oslr_test(ref, cohort_b, t, corrected=True, pi=0.37).v2
            assert oslr_test(ref, cohort_b, t, corrected=True, pi=0.74).v2 == 2.0 * base
            assert _penrose_ok(fit.info_matrix, pseudo_inverse(fit.info_matrix))


def test_acceptance_8_fixed_reference_normality(criterion, truth_z_sample):
    """With the true reference curve and n_B = 10,000, the two-sided 5% test
    rejects at the nominal rate up to 3 binomial standard deviations over
    2,000 replicates."""
    with criterion("acceptance 8/8 (fixed-reference asymptotic normality)"):
        z_w0, _ = truth_z_sample
        crit = 1.959963984540054
        rate = float(np.mean(np.abs(z_w0) >= crit))
        band = 3.0 * math.sqrt(0.05 * 0.95 / z_w0.size)
        assert abs(rate - 0.05) <= band
