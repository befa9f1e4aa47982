"""Family-coded numeric kernels shared by fitting, testing and simulation.

These are the hot inner loops of the package: the censored log-likelihood
with its gradient and Hessian in one pass, the damped Newton fit driver and the
one-sample test components. Each kernel works on a block of R rows: times
and events are (R, n) arrays, one cohort per row, and per-row parameters are
(R,) arrays. The single-cohort API in :mod:`oslr.families`,
:mod:`oslr.fitting` and :mod:`oslr.logrank` calls them with R = 1, and the
Monte Carlo engine in :mod:`oslr.simulation` with a block of replicates. A
row's results never depend on the other rows of its block: sums run along
the row and the 2 x 2 algebra is written out elementwise.

Families are dispatched by integer code. Parameters are two values
``(a, b)``: rate for the exponential (``b`` unused), (shape, scale) for
Weibull and log-logistic. The fit driver works on log-parameters of
standardized (unit-median) times and tests convergence on the log-scale
gradient of the mean log-likelihood, so neither its stopping rule nor its
bounds depend on the time unit. Status codes it returns: 0 converged,
1 iteration budget exhausted, 2 line-search failure, 3 parameter ran against
the working bounds.
"""

import numpy as np

EXPONENTIAL = 0
WEIBULL = 1
LOGLOGISTIC = 2

# |log theta| cap on standardized times: parameters inside ~[1.03e-12, 9.7e11]
_LOG_BOUND = 27.6

FIT_OK = 0
FIT_MAX_ITER = 1
FIT_LINE_SEARCH = 2
FIT_BOUNDARY = 3


def cumhaz(code, a, b, t):
    """Cumulative hazard at each time in ``t``; a, b and t broadcast."""
    if code == EXPONENTIAL:
        return a * t
    alogu = a * np.log(t / b)
    if code == WEIBULL:
        return np.exp(alogu)
    return np.logaddexp(0.0, alogu)


def cumhaz_grad(code, a, b, t):
    """Parameter gradient (dLambda/da, dLambda/db) at each time in ``t``."""
    if code == EXPONENTIAL:
        shape = np.broadcast(a, t).shape
        return np.broadcast_to(t, shape), np.zeros(shape)
    logu = np.log(t / b)
    if code == WEIBULL:
        p = np.exp(a * logu)
        return p * logu, -(a / b) * p
    # q = u^a / (1 + u^a), computed in log space to survive large u^a
    q = np.exp(a * logu - np.logaddexp(0.0, a * logu))
    return q * logu, -(a / b) * q


def loglik_derivs(code, a, b, times, events):
    """Total censored log-likelihood of each row with its natural-scale
    derivatives.

    ``a``, ``b`` are (R,) and ``times``, ``events`` (R, n). Returns
    (f, g0, g1, h00, h01, h11), each (R,): the value, the gradient and the
    Hessian entries, all summed over the row in one pass.
    """
    d = events.sum(axis=-1)
    if code == EXPONENTIAL:
        sx = times.sum(axis=-1)
        zero = np.zeros_like(d)
        return d * np.log(a) - a * sx, d / a - sx, zero, -d / (a * a), zero, zero
    ac = a[:, None]
    logu = np.log(times / b[:, None])
    dlogu = (events * logu).sum(axis=-1)
    f = d * (np.log(a) - np.log(b)) + (a - 1.0) * dlogu
    if code == WEIBULL:
        p = np.exp(ac * logu)
        pl = p * logu
        sp = p.sum(axis=-1)
        spl = pl.sum(axis=-1)
        f -= sp
        g0 = d / a + dlogu - spl
        g1 = (a / b) * (sp - d)
        h00 = -d / (a * a) - (pl * logu).sum(axis=-1)
        h01 = (a * spl + sp - d) / b
        h11 = (a / (b * b)) * (d - (1.0 + a) * sp)
        return f, g0, g1, h00, h01, h11
    w = events + 1.0
    r = np.logaddexp(0.0, ac * logu)
    # q = u^a / (1 + u^a), computed in log space to survive large u^a
    q = np.exp(ac * logu - r)
    wq = w * q
    wqq = wq * (1.0 - q)
    wqql = wqq * logu
    swq = wq.sum(axis=-1)
    f -= (w * r).sum(axis=-1)
    g0 = d / a + dlogu - (wq * logu).sum(axis=-1)
    g1 = (a / b) * (swq - d)
    h00 = -d / (a * a) - (wqql * logu).sum(axis=-1)
    h01 = (a * wqql.sum(axis=-1) + swq - d) / b
    h11 = (a / (b * b)) * (d - a * wqq.sum(axis=-1) - swq)
    return f, g0, g1, h00, h01, h11


def _mean_loglik_log_scale(code, x0, x1, times, events):
    """Mean log-likelihood of each row at log-parameters (x0, x1) with its
    gradient and negated Hessian with respect to those log-parameters.

    Returns (f, g0, g1, m00, m01, m11), each (R,). The exponential's unused
    second coordinate gets unit curvature and zero gradient, so it never
    moves.
    """
    inv_n = 1.0 / times.shape[-1]
    a = np.exp(x0)
    b = np.exp(x1)
    f, ga, gb, haa, hab, hbb = loglik_derivs(code, a, b, times, events)
    # chain rule for theta = exp(x): d/dx_i = theta_i d/dtheta_i, and the
    # second derivative picks up the first-derivative term on the diagonal
    g0 = a * ga * inv_n
    g1 = b * gb * inv_n
    m00 = -(a * a * haa * inv_n + g0)
    m01 = -(a * b * hab * inv_n)
    m11 = -(b * b * hbb * inv_n + g1)
    if code == EXPONENTIAL:
        m11 = np.ones_like(m11)
    return f * inv_n, g0, g1, m00, m01, m11


def fit_newton(code, times, events, x0, x1, grad_tol, max_iter):
    """Damped Newton ascent of each row's mean log-likelihood on
    log-parameters.

    ``times``, ``events`` are (R, n) and the start log-parameters ``x0``,
    ``x1`` are (R,). A row stops with FIT_OK once the gradient of its mean
    log-likelihood with respect to the log-parameters has Euclidean norm
    <= grad_tol, and is then frozen while the others go on. Each step
    solves with the analytic Hessian. When the negated Hessian M is not
    positive definite it is shifted Levenberg-Marquardt style: with
    D = diag(1 + |M_ii|), the shift is D times the smallest eigenvalue of
    D^-1/2 M D^-1/2 plus 1e-3 * (1 + |its trace|). Each row then halves its
    own step until the mean log-likelihood does not worsen and the trial's
    value and derivatives are finite (a trial that overflows or divides by
    zero backtracks like a NaN one). Callers pass standardized times (unit
    median), so both the tolerance and the parameter bounds are free of the
    time unit.

    Returns (a, b, grad_norm, iterations, status), each (R,); on failure
    (a, b) is the row's last iterate inside the working bounds and
    grad_norm the gradient norm there.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x0 = np.array(x0, dtype=np.float64)
        x1 = np.array(x1, dtype=np.float64)
        n_rows = times.shape[0]
        f, g0, g1, m00, m01, m11 = _mean_loglik_log_scale(code, x0, x1, times, events)
        grad_norm = np.sqrt(g0 * g0 + g1 * g1)
        iterations = np.zeros(n_rows, dtype=np.int64)
        status = np.full(n_rows, -1, dtype=np.int64)
        rows = np.arange(n_rows)
        while True:
            converged = grad_norm[rows] <= grad_tol
            status[rows[converged]] = FIT_OK
            rows = rows[~converged]
            spent = iterations[rows] == max_iter
            status[rows[spent]] = FIT_MAX_ITER
            rows = rows[~spent]
            if rows.size == 0:
                break
            iterations[rows] += 1
            d0, d1 = _newton_direction(
                g0[rows], g1[rows], m00[rows], m01[rows], m11[rows]
            )
            accepted, t0, t1, trial = _line_search(
                code, times, events, rows, x0[rows], x1[rows], f[rows], d0, d1
            )
            status[rows[~accepted]] = FIT_LINE_SEARCH
            outside = accepted & ((np.abs(t0) > _LOG_BOUND) | (np.abs(t1) > _LOG_BOUND))
            status[rows[outside]] = FIT_BOUNDARY
            moved = accepted & ~outside
            rows = rows[moved]
            x0[rows] = t0[moved]
            x1[rows] = t1[moved]
            for state, value in zip((f, g0, g1, m00, m01, m11), trial):
                state[rows] = value[moved]
            grad_norm[rows] = np.sqrt(g0[rows] * g0[rows] + g1[rows] * g1[rows])
        return np.exp(x0), np.exp(x1), grad_norm, iterations, status


def _newton_direction(g0, g1, m00, m01, m11):
    """Solve the (shifted) 2 x 2 Newton system of each row, elementwise."""
    # scaling by each coordinate's own curvature lets a flat direction beside
    # a steep one (the ridge of a fit running off to the boundary) still take
    # long steps
    s0 = 1.0 + np.abs(m00)
    s1 = 1.0 + np.abs(m11)
    k00 = m00 / s0
    k11 = m11 / s1
    k01 = m01 / np.sqrt(s0 * s1)
    lam_min = 0.5 * (k00 + k11) - np.sqrt(0.25 * (k00 - k11) ** 2 + k01 * k01)
    shift = np.where(lam_min > 0.0, 0.0, 1e-3 * (1.0 + np.abs(k00 + k11)) - lam_min)
    m00 = m00 + shift * s0
    m11 = m11 + shift * s1
    det = m00 * m11 - m01 * m01
    return (m11 * g0 - m01 * g1) / det, (m00 * g1 - m01 * g0) / det


def _line_search(code, times, events, rows, x0, x1, f, d0, d1):
    """Halve each row's step from 1 until its trial is accepted, at most 60
    trials. Returns (accepted, t0, t1, trial values), aligned with ``rows``."""
    k = rows.size
    accepted = np.zeros(k, dtype=bool)
    t0 = np.empty(k)
    t1 = np.empty(k)
    trial = tuple(np.empty(k) for _ in range(6))
    step = np.ones(k)
    pending = np.arange(k)
    for _ in range(60):
        p0 = x0[pending] + step[pending] * d0[pending]
        p1 = x1[pending] + step[pending] * d1[pending]
        # keep exp() in range; an overshooting trial just backtracks
        live = (np.abs(p0) < 700.0) & (np.abs(p1) < 700.0)
        ok = np.zeros(pending.size, dtype=bool)
        if live.any():
            at = pending[live]
            values = _mean_loglik_log_scale(
                code, p0[live], p1[live], times[rows[at]], events[rows[at]]
            )
            # a NaN or infinite trial fails this test and backtracks; the
            # allowance is float rounding of f, which near the optimum
            # exceeds the true gain of a full Newton step
            good = np.isfinite(values).all(axis=0) & (
                values[0] >= f[at] - 1e-14 * (1.0 + np.abs(f[at]))
            )
            ok[live] = good
            for out, value in zip(trial, values):
                out[at[good]] = value[good]
        done = pending[ok]
        accepted[done] = True
        t0[done] = p0[ok]
        t1[done] = p1[ok]
        pending = pending[~ok]
        if pending.size == 0:
            break
        step[pending] *= 0.5
    return accepted, t0, t1, trial


def oslr_components(code, a, b, times, events, t):
    """Observed events, expected events and mean hazard gradient by time t,
    for each row.

    ``a``, ``b`` and ``t`` are (R,), ``times`` and ``events`` (R, n).
    Returns (n_events, expected, gbar0, gbar1), each (R,), for each row's
    cohort against the reference cumulative hazard of the coded family.
    """
    t = t[:, None]
    a = a[:, None]
    b = b[:, None]
    capped = np.minimum(times, t)
    n_events = (events * (times <= t)).sum(axis=-1)
    expected = cumhaz(code, a, b, capped).sum(axis=-1)
    g0, g1 = cumhaz_grad(code, a, b, capped)
    n = times.shape[-1]
    return n_events, expected, g0.sum(axis=-1) / n, g1.sum(axis=-1) / n
