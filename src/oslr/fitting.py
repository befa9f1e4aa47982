"""Censored maximum-likelihood fitting and information-matrix utilities.

``fit_mle`` fits one family to one cohort. The exponential's MLE is
closed form. The Weibull and the log-logistic fits run Newton until the
log-scale gradient of the mean log-likelihood is small: the Weibull on its
profile likelihood in the shape, from shape 1 (where the profile's scale
is the exponential MLE), the log-logistic damped on both log-parameters
from shape 1 and the upper median time. The Monte Carlo engine runs the
Weibull kernel itself, on blocks of replicates. Neither the start, the
stopping rule nor the bounds (the scale's lie around the upper median
time) depend on the time unit, so every fit is scale-equivariant; no start
is taken from the caller. A fit that stops on any status but converged
raises FitError with that status's reason from FAILURES, the one table of
them. The information, the average negated log-likelihood Hessian at the
estimate, comes from the fit's last pass in log-parameter coordinates,
where it has no time unit and cannot overflow on huge or tiny times; the
natural-scale matrix is derived from it once per fit. Its pseudo-inverse
is in closed form for q in {1, 2} (refused otherwise): 1 / m, or from the
three entries (``_kernels._pinv_2x2``, which the engine runs straight on
the Weibull kernel's output); the corrected test takes it in log-parameter
coordinates, which keeps that test free of the time unit. The stopping
rule, GRAD_TOL and MAX_ITER, is the engine's too and lives in ``_kernels``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from ._kernels import GRAD_TOL, MAX_ITER, _pinv_2x2
from .data import Cohort
from .errors import FitError, SelectionError
from .families import FamilyDescriptor, family

# why a fit failed, by the fit drivers' status
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


def _symmetric(x00, x01, x11):
    """(..., 2, 2) symmetric matrices from their (...) entries, or one from scalars."""
    return np.stack((np.stack((x00, x01), axis=-1), np.stack((x01, x11), axis=-1)), axis=-2)


def fit_mle(fam, cohort: Cohort) -> FitResult:
    """Fit one family by censored maximum likelihood (see the module
    docstring). Raises FitError on data without events, and with the reason
    from FAILURES (carrying the last iterate) on any other status."""
    fam = family(fam)
    if cohort.n_events == 0:
        raise FitError("no events: likelihood unbounded/degenerate")
    times, events, n = cohort.times, cohort.events, cohort.n
    # huge or tiny times may overflow an estimate or a scaled time: the fit fails
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if fam.code == _kernels.EXPONENTIAL:
            d, exposure = events.sum(), times.sum()
            rate = d / exposure
            status = _kernels.FIT_OK if 0.0 < rate < np.inf else _kernels.FIT_BOUNDARY
            theta, iters, log_info = np.array([rate]), 0, [[d / n]]
            grad_norm, loglik = abs(d - rate * exposure) / n, d * np.log(rate) - d
        elif fam.code == _kernels.WEIBULL:  # the profile is shift-invariant in log t: no unit
            fit = _kernels.fit_weibull(np.log(times)[None], events[None], GRAD_TOL, MAX_ITER)
            a, b, grad_norm, iters, status, f, *info = (v[0] for v in (*fit[:5], *fit[5]))
            theta, loglik, log_info = np.array([a, b]), n * f, _symmetric(*info)
        else:
            # the unit, a typical time: the upper median, by a partial sort
            unit = np.partition(times, n // 2)[n // 2]
            a, b, grad_norm, iters, status, (f, *info) = _kernels.fit_loglogistic(
                times / unit, events, 0.0, 0.0, GRAD_TOL, MAX_ITER
            )
            theta = np.array([a, b * unit])  # the shape stays inside its bounds
            status = status if 0.0 < theta[1] < np.inf else _kernels.FIT_BOUNDARY
            loglik, log_info = n * f - events.sum() * np.log(unit), _symmetric(*info)
    if status != _kernels.FIT_OK:
        raise FitError(f"{fam.name} fit {FAILURES[int(status)]}", last_theta=theta)
    loglik = float(loglik)
    return FitResult(
        family=fam,
        theta_hat=theta,
        log_info=log_info,
        loglik=loglik,
        aic=2.0 * fam.q - 2.0 * loglik,
        n=n,
        iterations=int(iters),
        grad_norm=float(grad_norm),
    )


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
    """Moore-Penrose inverse of a symmetric 1 x 1 or 2 x 2 matrix, or of each
    matrix of such a stack, in closed form: 1 / m, or ``_pinv_2x2``
    elementwise. Other shapes are refused: no reference family has q > 2.

    The singular values of a symmetric matrix are its eigenvalues' moduli;
    those with |lambda| <= 1e-12 * q * max |lambda| count as zero.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] not in ((1, 1), (2, 2)):
        raise ValueError(f"expected a 1 x 1 or 2 x 2 matrix or stack of them, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    gap = np.abs(m - np.swapaxes(m, -1, -2))
    if gap.any():  # only a matrix that is not exactly symmetric needs its size
        size = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        if np.any(gap.max(axis=(-2, -1)) > 1e-10 * size):
            raise ValueError("matrix is not symmetric within 1e-10")
    if m.shape[-1] == 1:
        return np.divide(1.0, m, out=np.zeros_like(m), where=m != 0.0)
    return _symmetric(*_pinv_2x2(m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]))
