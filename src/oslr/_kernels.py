"""What fitting, testing and simulation share: family-coded numeric
kernels and the formulas that both the public API and the Monte Carlo
engine compute, so that the engine imports no analysis module.

The kernels are the hot inner loops of the package: the censored
log-likelihood with its gradient and Hessian in one pass, the fit drivers
and the one-sample test components. Beside them sit the fit drivers'
stopping rule (GRAD_TOL, MAX_ITER), the 2 x 2 pseudo-inverse, M, V1 and V2
of the one-sample test, the two-sample log-rank scores and the two-sided
normal critical value. ``fit_weibull`` takes a block of R rows, one
cohort per row, (R, n) times and events: the Monte Carlo engine in
:mod:`oslr.simulation` runs it on blocks of replicates, ``fitting.fit_mle``
on a block of one. The test components take such a block with (R,)
parameters, or one cohort as it is, 1-d times and scalar parameters. A
row's results never depend on the other rows of its block: sums run along
the row and the 2 x 2 algebra is written out elementwise. The likelihood
kernel and the log-logistic fit take one cohort.

The kernels read log-times, taken once per call. The fit drivers, Newton on
the Weibull profile likelihood in the shape and damped 2-D Newton on the
log-logistic's log-parameters, return the information at the estimate from
their last pass. The test components make one pass per reference curve over
(capped) log-times that the curves share: fused with the hazard gradient where
the corrected variance needs it, the cumulative hazard alone otherwise.

Families are dispatched by integer code. Parameters are two values
``(a, b)``: rate for the exponential (``b`` unused), (shape, scale) for
Weibull and log-logistic. Derivatives come out in the log-parameters
(log a, log b), where none has a time unit or divides by a parameter; the
public API derives the natural scale from them. The fit drivers stop on
the log-scale gradient of the mean log-likelihood and bound the scale
around the upper median time, so neither their stopping rule nor their
bounds depend on the time unit. Status codes: 0 converged, 1 iteration
budget exhausted, 2 line-search failure, 3 parameter ran against the
working bounds.
"""

import math

import numpy as np

from .errors import UsageError

EXPONENTIAL = 0
WEIBULL = 1
LOGLOGISTIC = 2

# cap on |log a| and |log(b / upper median time)|: each inside ~[1.03e-12, 9.7e11]
_LOG_BOUND = 27.6

FIT_OK = 0
FIT_MAX_ITER = 1
FIT_LINE_SEARCH = 2
FIT_BOUNDARY = 3

# stopping rule and iteration budget of the Newton drivers, as fit_mle and the
# engine run them; the tolerance applies to the log-scale gradient of the mean
# log-likelihood
GRAD_TOL = 1e-8
MAX_ITER = 200

# the Weibull shape's working bounds, exactly as |log a| <= _LOG_BOUND allows
_A_LOW = math.exp(-_LOG_BOUND)
_A_HIGH = math.exp(_LOG_BOUND)


def cumhaz_at(code, a, t, logu):
    """Cumulative hazard at each time ``t`` given logu = log(t / b), all
    broadcast, with one exp (or log-add-exp) per element."""
    if code == EXPONENTIAL:
        return a * t
    if code == WEIBULL:
        return np.exp(a * logu)
    return np.logaddexp(0.0, a * logu)


def cumhaz_terms(code, a, t, logu):
    """(Lambda, dLambda/da, q) at each time ``t`` given logu = log(t / b),
    all broadcast, with one exp per element. In log-parameters the gradient
    is (a dLambda/da, -a q), and dLambda/db = -(a / b) q."""
    lam = cumhaz_at(code, a, t, logu)
    if code == EXPONENTIAL:
        return lam, np.broadcast_to(t, lam.shape), np.zeros(lam.shape)
    if code == WEIBULL:
        return lam, lam * logu, lam
    # q = u^a / (1 + u^a), computed in log space to survive large u^a
    q = np.exp(a * logu - lam)
    return lam, q * logu, q


def _log_data(code, times, events):
    """What the likelihood kernel reads of one cohort's times and events:
    (log-times, events, d, s) with the parameter-free sums d = sum of events
    and s = sum of times (exponential) or of events x log-times. An array
    the family does not read is None: the exponential reads neither, the
    Weibull no events."""
    d = events.sum()
    if code == EXPONENTIAL:
        return None, None, d, times.sum()
    logt = np.log(times)
    return logt, events if code == LOGLOGISTIC else None, d, (events * logt).sum()


def _loglik_terms(code, x0, x1, data):
    """A cohort's total censored log-likelihood with its gradient and
    Hessian in the log-parameters (x0, x1) = (log a, log b), (f, g0, g1,
    h00, h01, h11), from ``_log_data`` output.

    A record adds events x (x0 - x1 + (a - 1) log u) - r(z) at z = a log u,
    u = t / b, and dz/dx0 = z, dz/dx1 = -a. With p = u^a, the 2-parameter
    families share one formula in (r, r', r''): (p, p, p) for the Weibull,
    (w log(1 + p), w q, w q (1 - q)) for the log-logistic, q = p / (1 + p)
    and w = 1 + event.
    """
    logt, events, d, s = data
    a = np.exp(x0)
    if code == EXPONENTIAL:
        exposure = a * s
        return d * x0 - exposure, d - exposure, 0.0, -exposure, 0.0, 0.0
    logu = logt - x1
    lam, _, q = cumhaz_terms(code, a, None, logu)  # (p, p) or (log(1 + p), q)
    if code == WEIBULL:
        r = wq = wqq = lam
    else:
        w = events + 1.0
        r = w * lam
        wq = w * q
        wqq = wq * (1.0 - q)
    dlogu = s - d * x1  # sum of events x log u
    wqql = wqq * logu
    a2 = a * a
    f = d * (x0 - x1) + (a - 1.0) * dlogu - r.sum()
    g0 = d + a * (dlogu - (wq * logu).sum())
    g1 = a * (wq.sum() - d)
    h00 = g0 - d - a2 * (wqql * logu).sum()
    h01 = g1 + a2 * wqql.sum()
    h11 = -a2 * wqq.sum()
    return f, g0, g1, h00, h01, h11


def fit_weibull(logt, events, grad_tol, max_iter):
    """Newton ascent of each row's Weibull profile log-likelihood in the
    shape a, on (R, n) log-times and events.

    At a fixed shape the scale is closed form, b^a = sum(t^a) / d, which
    leaves l_p'(a) = d / a + sum(events log t) - d E_w[log t] and
    l_p''(a) = -d / a^2 - d Var_w[log t] < 0, moments under w = t^a. Every
    row starts at a = 1, the exponential. Each pass sums w, w log t and
    w (log t)^2, with log t less the row's largest so that no exp overflows,
    and takes one Newton step for l_p' = 0 in 1 / a. A step past the bracket
    that the signs of l_p' give goes to its geometric midpoint, one past the
    bounds to their edge. Only live rows are carried, compacted.

    A row stops with FIT_OK once |a l_p'(a)| / n, at the profile the
    log-scale gradient norm, is <= grad_tol; with FIT_BOUNDARY at a bound
    where the profile still rises, or converged to a scale out of bounds
    (around the upper median time); with FIT_MAX_ITER after max_iter steps.
    Any row whose scale overflows or underflows float64 ends FIT_BOUNDARY.
    Returns (a, b, grad_norm, iterations, status, fit), each (R,), ``fit``
    the (f, i00, i01, i11) of ``fit_loglogistic`` from the sums of each
    row's last pass: there sum((t / b)^a) = d, so with log u = log(t / b),
    mu = sum((t / b)^a log u) and nu = sum((t / b)^a (log u)^2) the
    information is i00 = (d + a^2 nu) / n, i01 = -a^2 mu / n, i11 = a^2 d / n.
    They are finite on a FIT_OK row: a in [e^-27.6, e^27.6], d <= n (<= 10^6
    in the engine) and b finite and positive bound |log u| of float64 times by
    ~1,500, so no entry exceeds 1 + a^2 1,500^2 < 3e30 in modulus.
    """
    # np.where's unused branch may divide by zero or overflow
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n_rows, n = logt.shape
        top = logt.max(axis=-1)
        s = logt - top[:, None]
        d = events.sum(axis=-1)
        es = (events * s).sum(axis=-1)
        # the live rows' indices and (a, lo, hi, s, sum of events x s, d): lo
        # and hi bracket the maximum by the last shapes where l_p' > 0, < 0
        rows = np.arange(n_rows)
        state = (np.ones(n_rows), np.zeros(n_rows), np.full(n_rows, np.inf), s, es, d)
        out = tuple(np.empty(n_rows) for _ in range(5))  # a, sums and l_p'
        iterations = np.empty(n_rows, dtype=np.int64)
        for passes in range(max_iter + 1):
            if not rows.size:
                break
            a, lo, hi, s, es_live, d_live = state
            # sums per row: einsum's order depends on the row count past 8,192;
            # w's buffer is reused for w s^2, so a pass holds two (R, n) arrays
            w = a[:, None] * s
            np.exp(w, out=w)
            ws = w * s
            s0 = w.sum(axis=-1)
            mean = ws.sum(axis=-1) / s0
            var = np.multiply(ws, s, out=w).sum(axis=-1) / s0 - mean * mean
            d_a = d_live / a
            score = d_a + es_live - d_live * mean
            rising = score > 0.0
            # converged, or at the bound the profile rises towards
            ended = np.abs(a * score) / n <= grad_tol
            ended |= a == np.where(rising, _A_HIGH, _A_LOW)
            if passes == max_iter:
                ended[:] = True
            lo = np.where(rising, a, lo)
            hi = np.where(rising, hi, a)
            # Newton in 1 / a, where the d / a term of l_p' is linear; in a
            # where r = l_p' / (a |l_p''|) >= 1, which leaves that step undefined
            r = score / (d_a + a * d_live * var)
            step = a * np.where(r < 1.0, 1.0 / (1.0 - r), 1.0 + r)
            outside = (step <= lo) | (step >= hi)
            if outside.any():
                step = np.where(outside, np.sqrt(lo * hi), step)
            state = (np.minimum(np.maximum(step, _A_LOW), _A_HIGH), lo, hi, *state[3:])
            if ended.any():
                at = rows[ended]
                for to, value in zip(out, (a, s0, mean, var, score)):
                    to[at] = value[ended]
                iterations[at] = passes
                going = ~ended
                rows = rows[going]
                state = tuple(v[going] for v in state)
        a, s0, mean, var, score = out
        grad_norm = np.abs(a * score) / n
        logb = (np.log(s0) - np.log(d)) / a  # log b less the largest log-time
        edge = a == np.where(score > 0.0, _A_HIGH, _A_LOW)
        status = np.where(edge, FIT_BOUNDARY, FIT_MAX_ITER)
        status[grad_norm <= grad_tol] = FIT_OK
        # |log b - x| peaks at an end of the log-times: only a row out of
        # bounds there needs its median
        log_scale = top + logb
        ends = np.maximum(np.abs(log_scale - logt.min(axis=-1)), np.abs(log_scale - top))
        far = np.flatnonzero((status == FIT_OK) & (ends > _LOG_BOUND))
        if far.size:
            median = np.partition(logt[far], n // 2, axis=-1)[:, n // 2]
            status[far[np.abs(log_scale[far] - median) > _LOG_BOUND]] = FIT_BOUNDARY
        b = np.exp(log_scale)  # which may overflow or underflow inside the box
        status[~((b > 0.0) & (b < np.inf))] = FIT_BOUNDARY
        m = mean - logb  # E_w[log u]
        a2d = a * a * d
        f = (d * (np.log(a) - a * logb - top - 1.0) + (a - 1.0) * es) / n
        fit = (f, (d + a2d * (var + m * m)) / n, -a2d * m / n, a2d / n)
        return a, b, grad_norm, iterations, status, fit


def fit_loglogistic(times, events, x0, x1, grad_tol, max_iter):
    """Damped Newton ascent of one cohort's mean log-logistic log-likelihood
    on log-parameters, from (x0, x1), on 1-d times in units of their median
    and events.

    The fit stops with FIT_OK once the log-parameter gradient has norm
    <= grad_tol. Each step solves with the analytic Hessian M, negated;
    where M is not positive definite it is shifted Levenberg-Marquardt
    style: with D = diag(1 + |M_ii|), by D times the smallest eigenvalue of
    D^-1/2 M D^-1/2 plus 1e-3 * (1 + |its trace|). The step is then halved,
    at most 60 trials, until the mean log-likelihood does not worsen and the
    trial is finite; a step that finds no such trial, or leaves the working
    bounds, stops the fit where it stood with FIT_LINE_SEARCH or
    FIT_BOUNDARY.

    Returns (a, b, grad_norm, iterations, status, fit), (a, b) on failure
    the last iterate inside the bounds. ``fit`` holds (f, i00, i01, i11)
    from the last evaluation: the mean log-likelihood and the information
    in log-parameters, M_ij + delta_ij g_i with g the gradient.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        data = _log_data(LOGLOGISTIC, times, events)
        inv_n = 1.0 / times.size

        def evaluate(x0, x1):
            # the mean log-likelihood, its gradient and its Hessian, negated
            f, g0, g1, h00, h01, h11 = map(float, _loglik_terms(LOGLOGISTIC, x0, x1, data))
            return f * inv_n, g0 * inv_n, g1 * inv_n, -h00 * inv_n, -h01 * inv_n, -h11 * inv_n

        f, g0, g1, m00, m01, m11 = evaluate(x0, x1)
        status = FIT_MAX_ITER
        for iterations in range(max_iter + 1):
            grad = math.sqrt(g0 * g0 + g1 * g1)
            if grad <= grad_tol:
                status = FIT_OK
            if status != FIT_MAX_ITER or iterations == max_iter:
                break
            d0, d1 = _newton_direction(g0, g1, m00, m01, m11)
            # a NaN or infinite trial backtracks, as does one where exp() of a
            # log-parameter would overflow; the allowance is float rounding of
            # f, which near the optimum exceeds the true gain of a full step
            for halvings in range(60):
                t0, t1 = x0 + 0.5**halvings * d0, x1 + 0.5**halvings * d1
                trial = evaluate(t0, t1)
                if abs(t0) < 700.0 and abs(t1) < 700.0 and all(map(math.isfinite, trial)):
                    if trial[0] >= f - 1e-14 * (1.0 + abs(f)):
                        break
            else:  # a failed step stands where it was; the next pass ends the fit
                status = FIT_LINE_SEARCH
                continue
            if abs(t0) > _LOG_BOUND or abs(t1) > _LOG_BOUND:
                status = FIT_BOUNDARY
            else:
                x0, x1, (f, g0, g1, m00, m01, m11) = t0, t1, trial
        return np.exp(x0), np.exp(x1), grad, iterations, status, (f, m00 + g0, m01, m11 + g1)


def _newton_direction(g0, g1, m00, m01, m11):
    """Solve the (shifted) 2 x 2 Newton system."""
    # scaling by each coordinate's own curvature lets a flat direction beside
    # a steep one (the ridge of a fit running off to the boundary) still take
    # long steps
    s0 = 1.0 + abs(m00)
    s1 = 1.0 + abs(m11)
    k00 = m00 / s0
    k11 = m11 / s1
    k01 = m01 / math.sqrt(s0 * s1)
    gap = k00 - k11
    lam_min = 0.5 * (k00 + k11) - math.sqrt(0.25 * (gap * gap) + k01 * k01)
    shift = 0.0 if lam_min > 0.0 else 1e-3 * (1.0 + abs(k00 + k11)) - lam_min
    m00 = m00 + shift * s0
    m11 = m11 + shift * s1
    det = m00 * m11 - m01 * m01
    if det == 0.0:  # a NaN step, which no trial accepts: FIT_LINE_SEARCH
        return math.nan, math.nan
    return (m11 * g0 - m01 * g1) / det, (m00 * g1 - m01 * g0) / det


def expected_events(code, a, b, capped, log_capped):
    """Expected events of each row by its analysis time, (R,): the row sum
    of the reference cumulative hazard, ``oslr_components`` without the
    hazard gradient. Arguments as for ``oslr_components``."""
    return cumhaz_at(code, a[..., None], capped, log_capped - np.log(b)[..., None]).sum(-1)


def oslr_components(code, a, b, capped, log_capped):
    """Expected events and mean hazard gradient of each row by its analysis
    time, in one fused pass over the reference cumulative hazard of the
    coded family.

    ``a``, ``b`` are (R,) and ``capped``, ``log_capped`` (R, n): each row's
    times capped at its analysis time and their logs (at the row's largest
    time, the times and their logs as they are), or scalars and (n,) for one
    cohort. Returns (expected, gbar0, gbar1), each (R,) or scalar, the
    gradient in the log-parameters (log a, log b), where it has no time
    unit; the factor a multiplies the row sums, not the terms.
    """
    lam, da, q = cumhaz_terms(code, a[..., None], capped, log_capped - np.log(b)[..., None])
    n = capped.shape[-1]
    expected = lam.sum(axis=-1)
    q = expected if q is lam else q.sum(axis=-1)  # the Weibull's q is Lambda
    return expected, da.sum(axis=-1) / n * a, -a * q / n


def _pinv_2x2(a, b, c):
    """Entries (p00, p01, p11) of ``fitting.pseudo_inverse`` of [[a, b], [b, c]],
    elementwise, with its cut 1e-12 * 2 * max |lambda|. The eigenvalues are
    mid +- hypot(half, b): big, the one of larger modulus, takes the sign of
    mid, which avoids cancellation, and small is the determinant over big,
    computed without cancellation or overflow as LAPACK's dlaev2 does. Only
    the zero matrix has big = 0. big's eigenvector is (cos phi, sin phi),
    2 phi the angle of sign * (a - c, 2b); small's is orthogonal to it."""
    mid, half = 0.5 * a + 0.5 * c, 0.5 * a - 0.5 * c
    sign = np.copysign(1.0, mid)
    big = mid + sign * np.hypot(half, b)
    safe = np.where(big == 0.0, 1.0, big)
    small = (a / safe) * c - (b / safe) * b
    cut = 2e-12 * np.maximum(np.abs(big), np.abs(small))
    inv_big = np.divide(1.0, big, out=np.zeros_like(big), where=np.abs(big) > cut)
    inv_small = np.divide(1.0, small, out=np.zeros_like(small), where=np.abs(small) > cut)
    phi = 0.5 * np.arctan2(sign * b, sign * half)
    cos, sin = np.cos(phi), np.sin(phi)
    p00 = inv_big * cos * cos + inv_small * sin * sin
    p11 = inv_big * sin * sin + inv_small * cos * cos
    return p00, (inv_big - inv_small) * cos * sin, p11


def _compensated_and_v1(n_events, expected, n, w):
    """M(t) = n^{-1/2} (N(t) - E(t)) and V1(w, t) = (w N(t) + (1-w) E(t)) / n,
    for scalars or rows alike."""
    return (n_events - expected) / math.sqrt(n), (w * n_events + (1.0 - w) * expected) / n


def _v2(pi, g0, g1, p00, p01=None, p11=None):
    """V2 = pi * gbar' J^+ gbar, written out elementwise from J^+'s entries
    (p00 for q = 1; p00, p01, p11 for q = 2) so that a row of a block is
    computed alike in any block. Both are in log-parameters, where neither
    has a time unit: J^+ is the pseudo-inverse there, and gbar = (g0, g1)[:q]
    the mean hazard gradient from ``oslr_components``."""
    h0 = pi * g0
    if p01 is None:
        return h0 * p00 * g0
    h1 = pi * g1
    return (h0 * p00 + h1 * p01) * g0 + (h0 * p01 + h1 * p11) * g1


def normal_quantile(p: float) -> float:
    # statistics (with fractions, decimal and random) loads on first use
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


# alpha with a critical value: below 2^-52, 1 - alpha / 2 rounds to 1
_ALPHA_RANGE = (2.0**-52, 1.0 - 2.0**-53)


def check_alpha(alpha: float) -> None:
    """Refuse an alpha outside _ALPHA_RANGE, without loading the quantile."""
    if not _ALPHA_RANGE[0] <= alpha <= _ALPHA_RANGE[1]:
        raise UsageError(f"alpha must be in [2^-52, 1), got {alpha}")


def critical_value(alpha: float) -> float:
    """Two-sided rejection threshold on |z| at level alpha in [2^-52, 1)."""
    check_alpha(alpha)
    return normal_quantile(1.0 - alpha / 2.0)


def _two_sample_scores(times, events, n_a):
    """Log-rank score U and its hypergeometric variance V for each row of
    (R, n) pooled times and events whose first n_a columns are arm A; each
    is (R,). Summed per event in time order, with f = Y_B / Y:
    U = sum (b - f) and V = sum f (1 - f) (Y - d) / (Y - 1), b the event's
    arm-B flag and Y, Y_B, d those of its tie group. Without ties an event
    at rank k has Y = n - k and d = 1; only a row holding a tie looks its
    groups up.

    Times must be positive and finite: the bits of such a float64 form a
    non-negative int64 that orders as the time does, so each row sorts
    once, in place, as int64 keys
    ((bits - row's smallest bits) << 2) | (arm B << 1) | event, and the
    flags travel with the time. A row whose bits span 2^61 or more (times
    more than ~2^512 apart) keys on its dense time ranks instead, which
    keep order and ties. Inside a tie group subjects sort by (arm, event),
    so the scores do not depend on the order of subjects within an arm.
    The flags are unpacked as floats, exact as the counts are, and the keys
    released before the sums; ``times`` and ``events`` are only read."""
    n = times.shape[-1]
    bits = times.view(np.int64)
    keys = bits - bits.min(axis=-1, keepdims=True)
    for r in np.flatnonzero(keys.max(axis=-1) >> 61):
        keys[r] = np.unique(times[r], return_inverse=True)[1]
    keys <<= 2
    keys[:, n_a:] |= 2
    np.bitwise_or(keys, events, out=keys, dtype=np.int64, casting="unsafe")
    keys.sort(axis=-1)
    # adjacent keys of equal time differ in the two flag bits only
    tied = np.flatnonzero(np.any((keys[:, 1:] ^ keys[:, :-1]) < 4, axis=-1))
    tied_times = keys[tied] >> 2
    events = np.empty(keys.shape)
    np.bitwise_and(keys, 1, out=events, casting="unsafe")
    keys >>= 1
    in_b = np.empty(keys.shape)
    np.bitwise_and(keys, 1, out=in_b, casting="unsafe")
    del keys
    y = np.arange(n, 0, -1.0)
    # arm B's subjects from each rank to the row's end
    frac = np.cumsum(in_b[:, ::-1], axis=-1)[:, ::-1]
    frac /= y
    var = 1.0 - frac
    var *= frac
    for r, t in zip(tied, tied_times):
        lo = np.searchsorted(t, t, "left")
        hi = np.searchsorted(t, t, "right")
        d = np.concatenate(([0.0], np.cumsum(events[r])))
        d = d[hi] - d[lo]
        frac[r] = frac[r, lo]
        var[r] = var[r, lo] * (y[lo] - d) / np.maximum(y[lo] - 1.0, 1.0)
    in_b -= frac
    in_b *= events
    var *= events
    return in_b.sum(axis=-1), var.sum(axis=-1)
