"""Censored maximum-likelihood fitting and information-matrix utilities.

Fitting divides the times by their upper median and runs damped Newton on
the log-parameters with the analytic gradient and Hessian, stopping when the
log-scale gradient of the mean log-likelihood is small. Neither the stopping
rule nor the parameter bounds depend on the time unit, so every fit is
scale-equivariant. The reported information matrix is the per-observation
average of negated analytic log-likelihood Hessians at the estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .data import Cohort
from .errors import FitError, SelectionError
from .families import FamilyDescriptor, _ab, check_theta, family

# stopping rule and iteration budget of the Newton driver; the tolerance
# applies to the log-scale gradient of the mean log-likelihood
GRAD_TOL = 1e-8
MAX_ITER = 200


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
    info_matrix: np.ndarray
    loglik: float
    aic: float
    n: int
    converged: bool
    iterations: int
    # norm of the log-scale gradient of the mean log-likelihood at theta_hat
    grad_norm: float

    __eq__ = _fields_equal

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.name,
            "theta_hat": self.theta_hat.tolist(),
            "info_matrix": self.info_matrix.ravel().tolist(),
            "loglik": self.loglik,
            "aic": self.aic,
            "n": self.n,
            "converged": self.converged,
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _loglik_and_information(fam, a, b, times, events):
    """Total log-likelihood (R,) and average negated Hessian (R, q, q) of
    each row of (R, n) times and events at natural parameters (a, b)."""
    value, _, _, h00, h01, h11 = _kernels.loglik_derivs(fam.code, a, b, times, events)
    full = np.stack((np.stack((h00, h01), axis=-1), np.stack((h01, h11), axis=-1)), axis=-2)
    return value, -full[:, : fam.q, : fam.q] / times.shape[-1]


def empirical_information(fam, theta, cohort: Cohort) -> np.ndarray:
    """Average negated log-likelihood Hessian, -(1/n) * sum_i H_i(theta)."""
    fam = family(fam)
    a, b = _ab(fam, check_theta(fam, theta))
    return _loglik_and_information(fam, a, b, cohort.times[None], cohort.events[None])[1][0]


def fit_mle(fam, cohort: Cohort, init=None) -> FitResult:
    """Fit one family by censored maximum likelihood.

    Times are divided by their upper median, ``init`` is mapped to that unit
    and the estimate back from it. Damped Newton on the log-parameters converges
    when the gradient of the mean log-likelihood with respect to the
    log-parameters has norm <= GRAD_TOL; that gradient is the same in every
    time unit. Raises FitError (carrying the last iterate) on degenerate
    data, boundary drift, a stalled search or an exhausted budget.
    """
    fam = family(fam)
    if cohort.n_events == 0:
        raise FitError("no events: likelihood unbounded/degenerate")
    # the unit only has to be a typical time; a partial sort finds the upper
    # median without sorting everything
    n = cohort.n
    unit = float(np.partition(cohort.times, n // 2)[n // 2])
    times = cohort.times / unit
    if init is None:
        # rate = events / exposure for the exponential; shape 1 and scale
        # = the time unit otherwise
        x0 = math.log(cohort.n_events / float(times.sum())) if fam.q == 1 else 0.0
        x1 = 0.0
    else:
        a0, b0 = (float(v[0]) for v in _ab(fam, check_theta(fam, init)))
        # in time units of `unit` a rate scales up and a scale down
        x0 = math.log(a0 * unit) if fam.q == 1 else math.log(a0)
        x1 = math.log(b0 / unit) if fam.q == 2 else 0.0
    a, b, grad_norm, iters, status = (
        v[0]
        for v in _kernels.fit_newton(
            fam.code,
            times[None],
            cohort.events[None],
            np.array([x0]),
            np.array([x1]),
            GRAD_TOL,
            MAX_ITER,
        )
    )
    theta_hat = np.array([a / unit]) if fam.q == 1 else np.array([a, b * unit])
    if status == _kernels.FIT_BOUNDARY or not np.all(
        np.isfinite(theta_hat) & (theta_hat > 0)
    ):
        raise FitError(
            f"{fam.name} fit drifted to the parameter-space boundary",
            last_theta=theta_hat,
        )
    if status == _kernels.FIT_LINE_SEARCH:
        raise FitError(
            f"{fam.name} fit stalled: no step improved the likelihood",
            last_theta=theta_hat,
        )
    if status != _kernels.FIT_OK:
        raise FitError(
            f"{fam.name} fit did not converge within {MAX_ITER} iterations",
            last_theta=theta_hat,
        )
    a, b = _ab(fam, theta_hat)
    loglik, info = _loglik_and_information(
        fam, a, b, cohort.times[None], cohort.events[None]
    )
    loglik = float(loglik[0])
    return FitResult(
        family=fam,
        theta_hat=theta_hat,
        info_matrix=info[0],
        loglik=loglik,
        aic=2.0 * fam.q - 2.0 * loglik,
        n=cohort.n,
        converged=True,
        iterations=int(iters),
        grad_norm=float(grad_norm),
    )


def aic(fit: FitResult) -> float:
    """Akaike information criterion, 2q - 2 * loglik."""
    return 2.0 * fit.family.q - 2.0 * fit.loglik


def select_model(fits) -> FitResult:
    """Pick the converged fit with lowest AIC.

    Ties resolve to the fewest parameters, then first declaration.
    """
    candidates = [f for f in fits if f is not None and f.converged]
    if not candidates:
        raise SelectionError("no converged fits to select from")
    return min(enumerate(candidates), key=lambda kv: (kv[1].aic, kv[1].family.q, kv[0]))[1]


def pseudo_inverse(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix, or of each matrix of a
    (..., q, q) stack, via its eigendecomposition.

    The singular values of a symmetric matrix are its eigenvalues' moduli;
    eigenvalues with |lambda| <= tol * max |lambda| count as zero. tol
    defaults to 1e-12 * q for q x q matrices.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    mt = np.swapaxes(m, -1, -2)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if np.any(np.abs(m - mt).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ValueError("matrix is not symmetric within 1e-10")
    if tol is None:
        tol = 1e-12 * m.shape[-1]
    lam, v = np.linalg.eigh(m)
    size = np.abs(lam)
    inv = np.zeros_like(lam)
    keep = size > tol * size.max(axis=-1, keepdims=True)
    inv[keep] = 1.0 / lam[keep]
    return (v * inv[..., None, :]) @ np.swapaxes(v, -1, -2)
