"""Censored maximum-likelihood fitting and information-matrix utilities.

Fitting divides the times by their upper median and runs damped Newton on
the log-parameters with the analytic gradient and Hessian, stopping when the
log-scale gradient of the mean log-likelihood is small. The exponential and
the Weibull start at their closed-form MLE at shape 1 (events over exposure),
the log-logistic at shape 1 and the median. Neither the start, the stopping
rule nor the parameter bounds depend on the time unit, so every fit is
scale-equivariant; no start is taken from the caller. A fit that stops on
any status but converged raises FitError with that status's reason from
FAILURES, the one table of them. The information is the per-observation
average of negated analytic log-likelihood Hessians at the estimate, taken
from the fit's last Newton evaluation rather than from another pass, in
log-parameter coordinates, where it has no time unit and cannot overflow on
huge or tiny times. The reported natural-scale matrix is derived from it
once per fit. Its pseudo-inverse is in closed form for 2 x 2 matrices,
elementwise over a stack; the corrected test takes it in log-parameter
coordinates, which keeps that test free of the time unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .data import Cohort
from .errors import FitError, SelectionError
from .families import FamilyDescriptor, _ab, check_theta, family

# stopping rule and iteration budget of the Newton driver; the tolerance
# applies to the log-scale gradient of the mean log-likelihood
GRAD_TOL = 1e-8
MAX_ITER = 200

# why a fit failed, by the Newton driver's status
FAILURES = {
    _kernels.FIT_MAX_ITER: f"did not converge within {MAX_ITER} iterations",
    _kernels.FIT_LINE_SEARCH: "stalled: no step improved the likelihood",
    _kernels.FIT_BOUNDARY: "drifted to the parameter-space boundary",
}


def _fields_equal(self, other) -> bool:
    """Field-wise equality for frozen dataclasses with array fields: arrays
    compare by value, and fields declared with ``compare=False`` are skipped."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        if not f.compare:
            continue
        x, y = getattr(self, f.name), getattr(other, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@dataclass(frozen=True, eq=False)
class FitResult:
    """Converged MLE for one family on one cohort."""

    family: FamilyDescriptor
    theta_hat: np.ndarray
    # the information in log-parameter coordinates, which has no time unit
    # and stays finite on huge or tiny times
    log_info: np.ndarray
    loglik: float
    aic: float
    n: int
    iterations: int
    # norm of the log-scale gradient of the mean log-likelihood at theta_hat
    grad_norm: float
    # the natural-scale J = log_info / (theta theta'), derived once; it
    # overflows where log_info does not
    info_matrix: np.ndarray = field(init=False, compare=False)

    __eq__ = _fields_equal

    def __post_init__(self):
        log_info = np.asarray(self.log_info, dtype=np.float64)
        object.__setattr__(self, "log_info", log_info)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            info = log_info / _outer(self.theta_hat)
        object.__setattr__(self, "info_matrix", info)

    def to_json_dict(self) -> dict:
        """Fields as JSON values; an information entry that overflowed (on
        huge times, say) is None, JSON's null, since JSON has no inf."""
        return {
            "family": self.family.name,
            "theta_hat": self.theta_hat.tolist(),
            "info_matrix": [
                x if math.isfinite(x) else None for x in self.info_matrix.ravel().tolist()
            ],
            "loglik": self.loglik,
            "aic": self.aic,
            "n": self.n,
            # fit_mle raises on every other status
            "converged": True,
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _loglik_and_information(fam, a, b, times, events):
    """Total log-likelihood (R,) and average negated Hessian (R, q, q) of
    each row of (R, n) times and events at natural parameters (a, b)."""
    value, _, _, h00, h01, h11 = _kernels.loglik_derivs(fam.code, a, b, times, events)
    return value, -_symmetric(h00, h01, h11)[:, : fam.q, : fam.q] / times.shape[-1]


def _symmetric(x00, x01, x11):
    """(R, 2, 2) symmetric matrices from their (R,) entries."""
    return np.stack((np.stack((x00, x01), axis=-1), np.stack((x01, x11), axis=-1)), axis=-2)


def empirical_information(fam, theta, cohort: Cohort) -> np.ndarray:
    """Average negated log-likelihood Hessian, -(1/n) * sum_i H_i(theta)."""
    fam = family(fam)
    a, b = _ab(fam, check_theta(fam, theta))
    return _loglik_and_information(fam, a, b, cohort.times[None], cohort.events[None])[1][0]


def _fit_rows(fam, times, events):
    """``fit_mle`` for each row of (R, n) times and events, every row holding
    an event. A row starts at shape 1 and its exposure start: the rate
    d / sum(t) for the exponential, the scale sum(t) / d for the Weibull
    (both the MLE at shape 1), and the scale 1, the upper median, for the
    log-logistic. A row whose estimate is not finite and positive gets
    FIT_BOUNDARY. Returns (theta (R, q), status, iterations, grad_norm,
    loglik (R,), info (R, q, q)), the last two from the fit's last
    evaluation, which is at theta for a converged row. ``info`` is the
    information in log-parameter coordinates, which has no time unit: the
    natural-scale J(theta) is info / (theta theta')."""
    n_rows, n = times.shape
    # the unit only has to be a typical time; a partial sort finds the upper
    # median without sorting everything
    unit = np.partition(times, n // 2, axis=-1)[:, n // 2]
    d = events.sum(axis=-1)
    x0 = np.zeros(n_rows)
    x1 = np.zeros(n_rows)
    # a time past 1.8e308 times the unit overflows to inf, and the fit fails
    with np.errstate(over="ignore", divide="ignore"):
        times = times / unit[:, None]
        if fam.code != _kernels.LOGLOGISTIC:
            # the log-logistic's scale is its median at any shape; on
            # log-logistic rows of n = 800 an exposure start took 4.9 Newton
            # steps per row against 4.0 from the median at shape 1, 5.0 at
            # shape 2
            exposure = times.sum(axis=-1)
            if fam.q == 1:
                x0 = np.log(d / exposure)
            else:
                x1 = np.log(exposure / d)
    a, b, grad_norm, iterations, status, last = _kernels.fit_newton(
        fam.code, times, events, x0, x1, GRAD_TOL, MAX_ITER
    )
    # back to the caller's unit, where a subnormal unit overflows the rate to
    # inf (FIT_BOUNDARY below); the exponential's second value is unused
    with np.errstate(over="ignore"):
        theta = np.stack((a / unit if fam.q == 1 else a, b * unit), axis=-1)[:, : fam.q]
    positive = np.all(np.isfinite(theta) & (theta > 0), axis=-1)
    status = np.where(positive, status, _kernels.FIT_BOUNDARY)
    # the information in log-parameters is M_ij + delta_ij g_i, M the mean
    # negated log-scale Hessian, in any unit; meaningless if failed
    f, g0, g1, m00, m01, m11 = last
    info = _symmetric(m00 + g0, m01, m11 + g1)[:, : fam.q, : fam.q]
    return theta, status, iterations, grad_norm, n * f - d * np.log(unit), info


def fit_mle(fam, cohort: Cohort) -> FitResult:
    """Fit one family by censored maximum likelihood.

    Times are divided by their upper median and the estimate mapped back
    from that unit. Damped Newton on the log-parameters converges when the
    gradient of the mean log-likelihood with respect to the log-parameters
    has norm <= GRAD_TOL; that gradient is the same in every time unit.
    Raises FitError on data without events, and with the reason from
    FAILURES (carrying the last iterate) on any other status.
    """
    fam = family(fam)
    if cohort.n_events == 0:
        raise FitError("no events: likelihood unbounded/degenerate")
    theta_hat, status, iters, grad_norm, loglik, log_info = (
        v[0] for v in _fit_rows(fam, cohort.times[None], cohort.events[None])
    )
    if status != _kernels.FIT_OK:
        raise FitError(f"{fam.name} fit {FAILURES[int(status)]}", last_theta=theta_hat)
    loglik = float(loglik)
    return FitResult(
        family=fam,
        theta_hat=theta_hat,
        log_info=log_info,
        loglik=loglik,
        aic=2.0 * fam.q - 2.0 * loglik,
        n=cohort.n,
        iterations=int(iters),
        grad_norm=float(grad_norm),
    )


def aic(fit: FitResult) -> float:
    """Akaike information criterion, 2q - 2 * loglik."""
    return 2.0 * fit.family.q - 2.0 * fit.loglik


def select_model(fits) -> FitResult:
    """Pick the fit with lowest AIC.

    Ties resolve to the fewest parameters, then first declaration.
    """
    candidates = [f for f in fits if f is not None]
    if not candidates:
        raise SelectionError("no converged fits to select from")
    return min(enumerate(candidates), key=lambda kv: (kv[1].aic, kv[1].family.q, kv[0]))[1]


def _outer(theta) -> np.ndarray:
    """theta theta' of each parameter vector of a (..., q) stack: an
    information matrix J in log-parameter coordinates is J * theta theta'."""
    return theta[..., :, None] * theta[..., None, :]


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix, or of each matrix of a
    (..., q, q) stack, via its eigendecomposition: in closed form for
    q = 2, elementwise over the stack, and through LAPACK otherwise.

    The singular values of a symmetric matrix are its eigenvalues' moduli;
    eigenvalues with |lambda| <= 1e-12 * q * max |lambda| count as zero for
    q x q matrices.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    mt = np.swapaxes(m, -1, -2)
    size = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if np.any(np.abs(m - mt).max(axis=(-2, -1)) > 1e-10 * size):
        raise ValueError("matrix is not symmetric within 1e-10")
    if m.shape[-1] != 2:
        lam, v = np.linalg.eigh(m)
        return (v * _kept_inverse(lam)[..., None, :]) @ np.swapaxes(v, -1, -2)
    # [[a, b], [b, c]] has eigenvalues mid +- hypot(half, b). The one of larger
    # modulus, big, takes the sign of mid, which avoids cancellation; the other
    # is the determinant over big, computed without cancellation or overflow as
    # LAPACK's dlaev2 does. Only the zero matrix has big = 0. big's eigenvector
    # is (cos phi, sin phi), with 2 phi the angle of sign * (a - c, 2b), and the
    # other eigenvector is orthogonal to it.
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]
    mid, half = 0.5 * a + 0.5 * c, 0.5 * a - 0.5 * c
    sign = np.copysign(1.0, mid)
    big = mid + sign * np.hypot(half, b)
    safe = np.where(big == 0.0, 1.0, big)
    lam = np.stack((big, (a / safe) * c - (b / safe) * b), axis=-1)
    inv = _kept_inverse(lam)
    phi = 0.5 * np.arctan2(sign * b, sign * half)
    cos, sin = np.cos(phi), np.sin(phi)
    return _symmetric(
        inv[..., 0] * cos * cos + inv[..., 1] * sin * sin,
        (inv[..., 0] - inv[..., 1]) * cos * sin,
        inv[..., 0] * sin * sin + inv[..., 1] * cos * cos,
    )


def _kept_inverse(lam):
    """1 / lambda for each of q eigenvalues with |lambda| > 1e-12 * q *
    max |lambda| along the last axis, 0 for the others."""
    size = np.abs(lam)
    keep = size > 1e-12 * lam.shape[-1] * size.max(axis=-1, keepdims=True)
    return np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
