"""Tests for the numeric kernels.

Oracles: closed forms of the exponential family, finite differences and
the fit drivers' own status codes on inputs built to reach each of them. A
row's result must not depend on the other rows of its block, where a
kernel takes a block.
"""

import math

import numpy as np
from numpy.testing import assert_allclose

from oslr import _kernels

MASTER_SEED = 20260815


def _sample(seed=MASTER_SEED, n=60):
    rng = np.random.default_rng(seed)
    times = rng.weibull(1.4, size=n) * 2.0 + 1e-3
    events = (rng.random(n) < 0.7).astype(np.float64)
    events[0] = 1.0
    return times, events


def test_fit_status_codes():
    """Converged, boundary and budget-exhausted rows of the Weibull profile
    fit; a row's result is the same alone as in a block with another row."""
    times, events = _sample()
    # row 1 has identical event times, which push the Weibull shape to +inf
    # until it hits the bound
    block_t = np.log(np.stack((times, np.full(times.shape, 2.0))))
    block_e = np.stack((events, np.ones(times.shape)))
    fit = _kernels.fit_weibull(block_t, block_e, 1e-8, 500)
    a, b, grad_norm, iterations, status, last = fit
    assert status.tolist() == [_kernels.FIT_OK, _kernels.FIT_BOUNDARY]
    assert grad_norm[0] <= 1e-8
    for row in range(2):
        alone = _kernels.fit_weibull(block_t[row : row + 1], block_e[row : row + 1], 1e-8, 500)
        assert [v[0] for v in alone[:5]] == [v[row] for v in fit[:5]]
        assert [v[0] for v in alone[5]] == [v[row] for v in last]
    # zero iteration budget from a non-optimal start cannot converge
    stuck = _kernels.fit_weibull(block_t[:1], block_e[:1], 1e-8, 0)
    assert stuck[4][0] == _kernels.FIT_MAX_ITER
    assert stuck[3][0] == 0


def test_weibull_rows_match_single_rows_in_every_status():
    """One block holding a row of each status of the Weibull profile fit,
    the rows stopping on different passes: every row's outputs, ``fit``
    included, are bitwise those of the row fitted alone, so carrying only
    the live rows changes no bit. The rows are longer than numpy's 8,192
    element buffer, past which einsum's order of summation would depend on
    the number of rows."""
    times, events = _sample(n=10_000)
    n = times.size
    # 100 events tied at the largest time, the others censored: the profile
    # rises at every shape
    tied, tied_events = times.copy(), np.zeros(n)
    tied[:100] = times.max()
    tied_events[:100] = 1.0
    # one event e^-100 before the censored times: the maximum's scale lies
    # past the bounds
    early = np.log(np.concatenate(([math.exp(-100.0)], np.linspace(1.0, 10.0, n - 1))))
    early_events = np.zeros(n)
    early_events[0] = 1.0
    # converges in 4 steps; reaches the bound in 14; identical event times
    # spend the budget of 20 doubling the shape; converges out of bounds in
    # 2 steps; converges in 4 steps; without events ends at once, its scale
    # infinite
    rows = [
        (np.log(times), events),
        (np.log(tied), tied_events),
        (np.zeros(n), np.ones(n)),
        (early - np.median(early), early_events),
        (np.log(times[::-1] * 1.7), events[::-1]),
        (np.log(times), np.zeros(n)),
    ]
    t, e = (np.array(v) for v in zip(*rows))
    block = _kernels.fit_weibull(t, e, 1e-8, 20)
    assert block[4].tolist() == [
        _kernels.FIT_OK,
        _kernels.FIT_BOUNDARY,
        _kernels.FIT_MAX_ITER,
        _kernels.FIT_BOUNDARY,
        _kernels.FIT_OK,
        _kernels.FIT_BOUNDARY,
    ]
    a, b, _, iterations, _, _ = block
    assert iterations.tolist() == [4, 14, 20, 2, 4, 0]
    # a row that stops at the bound reports the shape there, and one that
    # converged out of bounds its estimate
    assert a[1] == math.exp(_kernels._LOG_BOUND)
    assert math.log(b[3]) > _kernels._LOG_BOUND
    for i in range(len(rows)):
        one = slice(i, i + 1)
        alone = _kernels.fit_weibull(t[one], e[one], 1e-8, 20)
        for got, want in zip((*block[:5], *block[5]), (*alone[:5], *alone[5])):
            assert got[one].tobytes() == want.tobytes()


def test_loglogistic_fit_reaches_every_status():
    """Five log-logistic cohorts, each ending in its own status of the 2-D
    driver after its own number of steps; a fit that stops on a failed step
    reports the iterate it stood at."""
    times, events = _sample()
    # (times, events, start log-shape, start log-scale): converges in 5
    # steps; identical event times run the shape to the bound in 28; a far
    # start spends the budget of 30; at shape e^600 the likelihood is not
    # finite, so no trial is accepted
    cases = [
        (times, events, 0.0, 0.0),
        (np.full(times.shape, 2.0), np.ones(times.shape), 0.0, 0.0),
        (times, events, 25.0, -25.0),
        (times, events, 600.0, 0.0),
        (times, events, 3.0, 3.0),
    ]
    fits = [_kernels.fit_loglogistic(*case, 1e-8, 30) for case in cases]
    assert [fit[4] for fit in fits] == [
        _kernels.FIT_OK,
        _kernels.FIT_BOUNDARY,
        _kernels.FIT_MAX_ITER,
        _kernels.FIT_LINE_SEARCH,
        _kernels.FIT_OK,
    ]
    iterations = [fit[3] for fit in fits]
    assert iterations[2:4] == [30, 1] and len(set(iterations)) == len(cases)
    assert all(fits[i][2] <= 1e-8 for i in (0, 4))
    a, b = fits[1][:2]
    assert max(abs(math.log(a)), abs(math.log(b))) <= _kernels._LOG_BOUND
    assert fits[3][:2] == (np.exp(600.0), 1.0)
    # a curvature whose 2 x 2 determinant underflows gives a NaN step, which
    # no trial accepts, and no ZeroDivisionError
    assert all(map(math.isnan, _kernels._newton_direction(1.0, 1.0, 1e-170, 0.0, 1e-170)))


def test_zero_row_block_returns_at_once():
    """A block without rows returns empty outputs: a driver that runs until
    no live row is left must still stop at once."""
    empty = np.empty((0, 5))
    out = _kernels.fit_weibull(empty, empty, 1e-8, 200)
    assert [v.shape for v in (*out[:5], *out[5])] == [(0,)] * 9


def test_exponential_kernel_closed_forms():
    """Rate-a exponential at x = log a: loglik = d x - a sum(t), gradient
    d - a sum(t), and Hessian less gradient -d, the information d / a^2 in
    the rate times a^2."""
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([1.0, 1.0, 0.0])
    data = _kernels._log_data(_kernels.EXPONENTIAL, times, events)
    terms = _kernels._loglik_terms(_kernels.EXPONENTIAL, math.log(0.4), 0.0, data)
    f, g0, g1, h00, h01, h11 = map(float, terms)
    assert_allclose(f, 2 * math.log(0.4) - 0.4 * 6.0, rtol=1e-14)
    assert_allclose(g0, 2 - 0.4 * 6.0, rtol=1e-14)
    assert g1 == 0.0
    assert_allclose(h00 - g0, -2.0, rtol=1e-14)
    assert h01 == 0.0 and h11 == 0.0


def test_log_time_evaluation_matches_finite_differences():
    """The likelihood kernel's gradient and Hessian in the log-parameters
    match central differences of its total and gradient, in every family,
    on two cohorts; also with the times scaled by e^+-400 and log b =
    +-400.1, where b^2 overflows or underflows."""
    times, events = _sample()
    cohorts = ((times, events), (times[::-1] * 1.7, events[::-1]))
    for shift, x1 in ((0.0, [-0.1, 0.4]), (400.0, [400.1] * 2), (-400.0, [-400.1] * 2)):
        for (base_t, cohort_e), start in zip(cohorts, zip((0.3, -0.2), x1)):
            cohort_t = base_t * math.exp(shift)
            x = np.array(start)
            for code in (_kernels.EXPONENTIAL, _kernels.WEIBULL, _kernels.LOGLOGISTIC):
                q = 1 if code == _kernels.EXPONENTIAL else 2
                data = _kernels._log_data(code, cohort_t, cohort_e)

                def evaluate(x):
                    return np.array(_kernels._loglik_terms(code, x[0], x[1], data))

                f, g0, g1, h00, h01, h11 = evaluate(x)
                grad = np.array((g0, g1))
                hess = np.array(((h00, h01), (h01, h11)))
                assert np.isfinite(hess).all()
                for j in range(q):
                    h = np.zeros(2)
                    h[j] = 1e-5
                    up, down = evaluate(x + h), evaluate(x - h)
                    assert_allclose(grad[j], (up[0] - down[0]) / 2e-5, rtol=1e-7)
                    for k in range(q):
                        fd = (up[1 + k] - down[1 + k]) / 2e-5
                        assert_allclose(hess[k, j], fd, rtol=1e-6, atol=1e-9)
