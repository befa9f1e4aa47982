"""Family-coded numeric kernels shared by fitting, testing and simulation.

These are the hot inner loops of the package: the censored log-likelihood
with its gradient and Hessian in one pass, the damped Newton fit driver and the
one-sample test components. Each function is valid vectorized numpy; with
numba present it is compiled via ``@njit`` (see :mod:`oslr._accel`), and with
``OSLR_DISABLE_NUMBA=1`` the same source runs uncompiled.

Families are dispatched by integer code so a single compiled kernel serves
all three distributions. Parameters are two scalars ``(a, b)``: rate for the
exponential (``b`` unused), (shape, scale) for Weibull and log-logistic.
The fit driver works on log-parameters of standardized (unit-median) times
and tests convergence on the log-scale gradient of the mean log-likelihood,
so neither its stopping rule nor its bounds depend on the time unit. Status
codes it returns: 0 converged, 1 iteration budget exhausted, 2 line-search
failure, 3 parameter ran against the working bounds.
"""

import math

import numpy as np

from ._accel import jit_kernel

EXPONENTIAL = 0
WEIBULL = 1
LOGLOGISTIC = 2

# |log theta| cap on standardized times: parameters inside ~[1.03e-12, 9.7e11]
_LOG_BOUND = 27.6

FIT_OK = 0
FIT_MAX_ITER = 1
FIT_LINE_SEARCH = 2
FIT_BOUNDARY = 3


@jit_kernel
def cumhaz(code, a, b, t):
    """Cumulative hazard at each time in ``t`` (array in, array out)."""
    if code == EXPONENTIAL:
        return a * t
    alogu = a * np.log(t / b)
    if code == WEIBULL:
        return np.exp(alogu)
    return np.logaddexp(0.0, alogu)


@jit_kernel
def cumhaz_grad(code, a, b, t):
    """Parameter gradient of the cumulative hazard, shape (len(t), 2)."""
    n = t.shape[0]
    g = np.empty((n, 2))
    if code == EXPONENTIAL:
        g[:, 0] = t
        g[:, 1] = 0.0
        return g
    logu = np.log(t / b)
    if code == WEIBULL:
        p = np.exp(a * logu)
        g[:, 0] = p * logu
        g[:, 1] = -(a / b) * p
        return g
    # q = u^a / (1 + u^a), computed in log space to survive large u^a
    q = np.exp(a * logu - np.logaddexp(0.0, a * logu))
    g[:, 0] = q * logu
    g[:, 1] = -(a / b) * q
    return g


@jit_kernel
def loglik_derivs(code, a, b, times, events):
    """Total censored log-likelihood with its natural-scale derivatives.

    Returns (f, g0, g1, h00, h01, h11): the value, the gradient and the
    Hessian entries, all summed over the observations in one pass.
    """
    d = events.sum()
    if code == EXPONENTIAL:
        sx = times.sum()
        f = d * math.log(a) - a * sx
        return f, d / a - sx, 0.0, -d / (a * a), 0.0, 0.0
    logu = np.log(times / b)
    dlogu = (events * logu).sum()
    f = d * (math.log(a) - math.log(b)) + (a - 1.0) * dlogu
    if code == WEIBULL:
        p = np.exp(a * logu)
        pl = p * logu
        sp = p.sum()
        spl = pl.sum()
        f -= sp
        g0 = d / a + dlogu - spl
        g1 = (a / b) * (sp - d)
        h00 = -d / (a * a) - (pl * logu).sum()
        h01 = (a * spl + sp - d) / b
        h11 = (a / (b * b)) * (d - (1.0 + a) * sp)
        return f, g0, g1, h00, h01, h11
    w = events + 1.0
    r = np.logaddexp(0.0, a * logu)
    # q = u^a / (1 + u^a), computed in log space to survive large u^a
    q = np.exp(a * logu - r)
    wq = w * q
    wqq = wq * (1.0 - q)
    wqql = wqq * logu
    swq = wq.sum()
    f -= (w * r).sum()
    g0 = d / a + dlogu - (wq * logu).sum()
    g1 = (a / b) * (swq - d)
    h00 = -d / (a * a) - (wqql * logu).sum()
    h01 = (a * wqql.sum() + swq - d) / b
    h11 = (a / (b * b)) * (d - a * wqq.sum() - swq)
    return f, g0, g1, h00, h01, h11


@jit_kernel
def _mean_loglik_log_scale(code, x0, x1, times, events):
    """Mean log-likelihood at log-parameters (x0, x1) with its gradient and
    negated Hessian with respect to those log-parameters.

    Returns (f, g0, g1, m00, m01, m11). The exponential's unused second
    coordinate gets unit curvature and zero gradient, so it never moves.
    """
    inv_n = 1.0 / times.shape[0]
    a = math.exp(x0)
    b = math.exp(x1)
    f, ga, gb, haa, hab, hbb = loglik_derivs(code, a, b, times, events)
    # chain rule for theta = exp(x): d/dx_i = theta_i d/dtheta_i, and the
    # second derivative picks up the first-derivative term on the diagonal
    g0 = a * ga * inv_n
    g1 = b * gb * inv_n
    m00 = -(a * a * haa * inv_n + g0)
    m01 = -(a * b * hab * inv_n)
    m11 = -(b * b * hbb * inv_n + g1)
    if code == EXPONENTIAL:
        m11 = 1.0
    return f * inv_n, g0, g1, m00, m01, m11


@jit_kernel
def fit_newton(code, times, events, x0, x1, grad_tol, max_iter):
    """Damped Newton ascent of the mean log-likelihood on log-parameters.

    Starts from log-parameters (x0, x1) and stops with FIT_OK once the
    gradient of the mean log-likelihood with respect to the log-parameters
    has Euclidean norm <= grad_tol. Each step solves with the analytic
    Hessian. When the negated Hessian M is not positive definite it is
    shifted Levenberg-Marquardt style: with D = diag(1 + |M_ii|), the shift
    is D times the smallest eigenvalue of D^-1/2 M D^-1/2 plus 1e-3 * (1 +
    |its trace|). The step is then halved until the mean log-likelihood does
    not worsen. Callers pass standardized times (unit median), so both the
    tolerance and the parameter bounds are free of the time unit. Returns
    (a, b, iterations, status); on failure (a, b) is the last iterate inside
    the working bounds.
    """
    f, g0, g1, m00, m01, m11 = _mean_loglik_log_scale(code, x0, x1, times, events)
    iterations = 0
    while True:
        if math.sqrt(g0 * g0 + g1 * g1) <= grad_tol:
            return math.exp(x0), math.exp(x1), iterations, FIT_OK
        if iterations == max_iter:
            return math.exp(x0), math.exp(x1), iterations, FIT_MAX_ITER
        iterations += 1
        # scaling by each coordinate's own curvature lets a flat direction
        # beside a steep one (the ridge of a fit running off to the
        # boundary) still take long steps
        s0 = 1.0 + abs(m00)
        s1 = 1.0 + abs(m11)
        k00 = m00 / s0
        k11 = m11 / s1
        k01 = m01 / math.sqrt(s0 * s1)
        lam_min = 0.5 * (k00 + k11) - math.sqrt(0.25 * (k00 - k11) ** 2 + k01 * k01)
        if not lam_min > 0.0:
            shift = 1e-3 * (1.0 + abs(k00 + k11)) - lam_min
            m00 += shift * s0
            m11 += shift * s1
        det = m00 * m11 - m01 * m01
        d0 = (m11 * g0 - m01 * g1) / det
        d1 = (m00 * g1 - m01 * g0) / det
        step = 1.0
        accepted = False
        t0 = x0
        t1 = x1
        trial = (f, g0, g1, m00, m01, m11)
        for _ in range(60):
            t0 = x0 + step * d0
            t1 = x1 + step * d1
            # keep exp() in range; an overshooting trial just backtracks
            if abs(t0) < 700.0 and abs(t1) < 700.0:
                trial = _mean_loglik_log_scale(code, t0, t1, times, events)
                # a NaN value fails this test and backtracks; the allowance
                # is float rounding of f, which near the optimum exceeds
                # the true gain of a full Newton step
                if trial[0] >= f - 1e-14 * (1.0 + abs(f)):
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            return math.exp(x0), math.exp(x1), iterations, FIT_LINE_SEARCH
        if abs(t0) > _LOG_BOUND or abs(t1) > _LOG_BOUND:
            return math.exp(x0), math.exp(x1), iterations, FIT_BOUNDARY
        x0 = t0
        x1 = t1
        f, g0, g1, m00, m01, m11 = trial


@jit_kernel
def oslr_components(code, a, b, times, events, t):
    """Observed events, expected events and mean hazard gradient by time t.

    Returns (n_events, expected, gbar0, gbar1) for a cohort against the
    reference cumulative hazard of the coded family.
    """
    capped = np.minimum(times, t)
    n_events = float(events[times <= t].sum())
    expected = cumhaz(code, a, b, capped).sum()
    g = cumhaz_grad(code, a, b, capped)
    n = times.shape[0]
    return n_events, expected, g[:, 0].sum() / n, g[:, 1].sum() / n
