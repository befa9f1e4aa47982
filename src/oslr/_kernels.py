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

The kernels read log-times. A fit takes logs, and the row sums free of the
parameters, once per call, so an evaluation needs log u = log t - log b and
one exp per element. The driver carries only its unfinished rows and
returns its last evaluation, whose log-scale Hessian gives the information
at the estimate. The test components make one pass
per reference curve over capped log-times that the curves share: fused with
the hazard gradient where the corrected variance needs it, the cumulative
hazard alone otherwise.

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


def cumhaz_at(code, a, t, logu):
    """Cumulative hazard at each time ``t`` given logu = log(t / b), all
    broadcast, with one exp (or log-add-exp) per element."""
    if code == EXPONENTIAL:
        return a * t
    if code == WEIBULL:
        return np.exp(a * logu)
    return np.logaddexp(0.0, a * logu)


def cumhaz_terms(code, a, b, t, logu):
    """(Lambda, dLambda/da, dLambda/db) at each time ``t`` given
    logu = log(t / b), all broadcast, with one exp per element."""
    lam = cumhaz_at(code, a, t, logu)
    if code == EXPONENTIAL:
        return lam, np.broadcast_to(t, lam.shape), np.zeros(lam.shape)
    if code == WEIBULL:
        return lam, lam * logu, -(a / b) * lam
    # q = u^a / (1 + u^a), computed in log space to survive large u^a
    q = np.exp(a * logu - lam)
    return lam, q * logu, -(a / b) * q


def _log_data(code, times, events):
    """What the likelihood kernels read of (R, n) times and events:
    (log-times, events, d, s) with the parameter-free row sums d = sum of
    events and s = sum of times (exponential) or of events x log-times. An
    array the family does not read is None: the exponential reads neither,
    the Weibull no events."""
    d = events.sum(axis=-1)
    if code == EXPONENTIAL:
        return None, None, d, times.sum(axis=-1)
    logt = np.log(times)
    return logt, events if code == LOGLOGISTIC else None, d, (events * logt).sum(axis=-1)


def _loglik_terms(code, a, b, logb, data):
    """Total censored log-likelihood of each row with its natural-scale
    derivatives, (f, g0, g1, h00, h01, h11), each (R,), at (R,) parameters
    ``a``, ``b`` with logb = log b, from ``_log_data`` output."""
    logt, events, d, s = data
    if code == EXPONENTIAL:
        zero = np.zeros_like(d)
        return d * np.log(a) - a * s, d / a - s, zero, -d / (a * a), zero, zero
    ac = a[:, None]
    logu = logt - logb[:, None]
    dlogu = s - d * logb  # sum of events x log u
    f = d * (np.log(a) - logb) + (a - 1.0) * dlogu
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


def loglik_derivs(code, a, b, times, events):
    """Total censored log-likelihood of each row with its natural-scale
    derivatives.

    ``a``, ``b`` are (R,) and ``times``, ``events`` (R, n). Returns
    (f, g0, g1, h00, h01, h11), each (R,): the value, the gradient and the
    Hessian entries, all summed over the row in one pass.
    """
    return _loglik_terms(code, a, b, np.log(b), _log_data(code, times, events))


def _mean_loglik_log_scale(code, x0, x1, data, inv_n):
    """Mean log-likelihood of each row at log-parameters (x0, x1) with its
    gradient and negated Hessian with respect to those log-parameters, from
    ``_log_data`` output of rows of n = 1 / inv_n observations.

    Returns (f, g0, g1, m00, m01, m11), each (R,). The exponential's unused
    second coordinate gets unit curvature and zero gradient, so it never
    moves.
    """
    a = np.exp(x0)
    b = np.exp(x1)
    f, ga, gb, haa, hab, hbb = _loglik_terms(code, a, b, x1, data)
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

    The driver carries only its live rows, compacted: a live row has taken
    one step per pass, and a row is written to the outputs on the pass it
    stops. A pass on which every live row moves keeps the line search's
    arrays as they are, with no per-row select; one with a failed row
    selects, and that row stops on the next pass.

    Returns (a, b, grad_norm, iterations, status, last), the first five
    each (R,); on failure (a, b) is the row's last iterate inside the
    working bounds and grad_norm the gradient norm there. ``last`` is the
    ``_mean_loglik_log_scale`` evaluation at (log a, log b):
    (f, g0, g1, m00, m01, m11), each (R,).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        data = _log_data(code, times, events)
        inv_n = 1.0 / times.shape[-1]
        x0 = np.array(x0, dtype=np.float64)
        x1 = np.array(x1, dtype=np.float64)
        # the live rows' block indices and (x0, x1, f, g0, g1, m00, m01, m11)
        rows = np.arange(x0.size)
        state = (x0, x1, *_mean_loglik_log_scale(code, x0, x1, data, inv_n))
        out = tuple(np.empty(x0.size) for _ in range(9))  # state, grad_norm
        iterations, status = np.empty((2, x0.size), dtype=np.int64)
        failed = None  # a live row's status if its last step failed, else -1
        for passes in range(max_iter + 1):
            grad = np.sqrt(state[3] * state[3] + state[4] * state[4])
            spent = FIT_MAX_ITER if passes == max_iter else -1
            stop = np.where(grad <= grad_tol, FIT_OK, spent)
            if failed is not None:
                stop = np.where(failed < 0, stop, failed)
            ended = stop >= 0
            if ended.any():
                at = rows[ended]
                for to, value in zip(out, (*state, grad)):
                    to[at] = value[ended]
                iterations[at] = passes
                status[at] = stop[ended]
                going = ~ended
                rows, state, data = rows[going], _take(state, going), _take(data, going)
            if not rows.size:
                break
            x0, x1, f, g0, g1, m00, m01, m11 = state
            d0, d1 = _newton_direction(g0, g1, m00, m01, m11)
            accepted, t0, t1, trial = _line_search(code, data, inv_n, x0, x1, f, d0, d1)
            moved = accepted & (np.abs(t0) <= _LOG_BOUND) & (np.abs(t1) <= _LOG_BOUND)
            if moved.all():
                state, failed = (t0, t1, *trial), None
            else:
                # a row that did not move stops next pass, where it stood
                failed = np.where(moved, -1, np.where(accepted, FIT_BOUNDARY, FIT_LINE_SEARCH))
                state = tuple(np.where(moved, t, s) for t, s in zip((t0, t1, *trial), state))
        x0, x1, *last, grad_norm = out
        return np.exp(x0), np.exp(x1), grad_norm, iterations, status, tuple(last)


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


def _take(arrays, keep):
    """Each array of a tuple (None kept as None) at the rows ``keep`` selects."""
    return tuple(None if v is None else v[keep] for v in arrays)


def _line_search(code, data, inv_n, x0, x1, f, d0, d1):
    """Halve each row's step from 1 until its trial is accepted, at most 60
    trials. Returns (accepted, t0, t1, trial values), unset where a row was
    not accepted. When every row is accepted at the full step the first
    trial is returned as it is; otherwise the accepted rows are scattered to
    the outputs and the rows still pending compacted after each trial."""
    step = 1.0
    pending = None
    for _ in range(60):
        p0 = x0 + step * d0
        p1 = x1 + step * d1
        values = _mean_loglik_log_scale(code, p0, p1, data, inv_n)
        # a NaN or infinite trial fails this test and backtracks, as does one
        # where exp() of a log-parameter would overflow; the allowance is
        # float rounding of f, which near the optimum exceeds the true gain
        # of a full Newton step
        ok = (
            (np.abs(p0) < 700.0)
            & (np.abs(p1) < 700.0)
            & np.isfinite(values).all(axis=0)
            & (values[0] >= f - 1e-14 * (1.0 + np.abs(f)))
        )
        if pending is None:
            if ok.all():
                return ok, p0, p1, values
            pending = np.arange(ok.size)
            accepted = np.zeros(ok.size, dtype=bool)
            found = tuple(np.empty(ok.size) for _ in range(8))  # t0, t1, values
        if ok.any():
            at = pending[ok]
            accepted[at] = True
            for to, value in zip(found, (p0, p1, *values)):
                to[at] = value[ok]
            keep = ~ok
            pending = pending[keep]
            if not pending.size:
                break
            x0, x1, f, d0, d1, *data = _take((x0, x1, f, d0, d1, *data), keep)
        step *= 0.5
    return accepted, found[0], found[1], found[2:]


def at_time(times, events, t):
    """Each row's events observed by its analysis time t, (R,), with its
    (R, n) times capped at t and their logs, which every reference curve
    the rows are tested against shares (see ``oslr_components``)."""
    t = t[:, None]
    capped = np.minimum(times, t)
    return (events * (times <= t)).sum(axis=-1), capped, np.log(capped)


def expected_events(code, a, b, capped, log_capped):
    """Expected events of each row by its analysis time, (R,): the row sum
    of the reference cumulative hazard, ``oslr_components`` without the
    hazard gradient. Arguments as for ``oslr_components``."""
    return cumhaz_at(code, a[:, None], capped, log_capped - np.log(b)[:, None]).sum(axis=-1)


def oslr_components(code, a, b, capped, log_capped):
    """Expected events and mean hazard gradient of each row by its analysis
    time, in one fused pass over the reference cumulative hazard of the
    coded family.

    ``a``, ``b`` are (R,) and ``capped``, ``log_capped`` (R, n), from
    ``at_time``. Returns (expected, gbar0, gbar1), each (R,).
    """
    b = b[:, None]
    lam, g0, g1 = cumhaz_terms(code, a[:, None], b, capped, log_capped - np.log(b))
    n = capped.shape[-1]
    return lam.sum(axis=-1), g0.sum(axis=-1) / n, g1.sum(axis=-1) / n
