"""Exponential, Weibull and log-logistic families.

Parametrizations (all parameters strictly positive):

* exponential(rate):        Lambda(t) = rate * t
* weibull(shape, scale):    Lambda(t) = (t / scale) ** shape
* loglogistic(shape, scale): Lambda(t) = log(1 + (t / scale) ** shape)

Lambda and its gradient come from the coded kernels in :mod:`oslr._kernels`;
S = exp(-Lambda) and f = lambda * S follow from them, so each family's
formula has one home. The hazard lambda keeps a power form in u = t / scale:
(shape / scale) * u ** (shape - 1), and for the log-logistic
(shape / scale) / (u ** (1 - shape) + u).

Times are continuous and nonnegative; the cumulative hazard gradients are
defined for t > 0 (their t -> 0 limits are zero for the shipped families).
A cohort's log-likelihood sums ``log f(theta, X)`` over its events and
``log S(theta, X)`` over its censored records; gradients and Hessians are
exact analytic derivatives on the natural parameter scale, derived once
from the kernel's derivatives in log-parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Cohort
from .errors import DomainError, UsageError


@dataclass(frozen=True)
class FamilyDescriptor:
    name: str
    q: int
    code: int

    def __str__(self) -> str:
        return self.name


EXPONENTIAL = FamilyDescriptor("exponential", 1, _kernels.EXPONENTIAL)
WEIBULL = FamilyDescriptor("weibull", 2, _kernels.WEIBULL)
LOGLOGISTIC = FamilyDescriptor("loglogistic", 2, _kernels.LOGLOGISTIC)

FAMILIES = {f.name: f for f in (EXPONENTIAL, WEIBULL, LOGLOGISTIC)}


def family(name) -> FamilyDescriptor:
    """Look up a family by lowercase name; FamilyDescriptors pass through."""
    if isinstance(name, FamilyDescriptor):
        return name
    try:
        return FAMILIES[str(name).lower()]
    except KeyError:
        raise UsageError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        ) from None


def check_theta(fam: FamilyDescriptor, theta) -> np.ndarray:
    """Validate a parameter vector against the family's open space."""
    fam = family(fam)
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.shape != (fam.q,):
        raise DomainError(
            f"{fam.name} expects {fam.q} parameter(s), got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta)) or np.any(theta <= 0.0):
        raise DomainError(
            f"{fam.name} parameters must be strictly positive and finite, "
            f"got {theta.tolist()}"
        )
    return theta


def _ab(fam: FamilyDescriptor, theta: np.ndarray) -> tuple[np.float64, np.float64]:
    """The kernels' (a, b) as numpy scalars; the exponential ignores b."""
    return theta[0], theta[1] if fam.q == 2 else np.float64(1.0)


def _eval(fam, theta, t, func):
    fam = family(fam)
    theta = check_theta(fam, theta)
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(t_arr < 0) or not np.all(np.isfinite(t_arr)):
        raise UsageError(f"times must be finite and >= 0, got {t!r}")
    a, b = _ab(fam, theta)
    # t = 0 gives log 0 and 0 ** negative, huge t an infinite Lambda: their
    # limits (0, inf, S = 0) are the values
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = func(fam.code, a, b, t_arr)
    return out if np.ndim(t) else float(out[0])


def _cumhaz(code, a, b, x):
    return _kernels.cumhaz_at(code, a, x, np.log(x / b))


def _survival(code, a, b, x):
    return np.exp(-_cumhaz(code, a, b, x))


def _hazard(code, a, b, x):
    # the power forms keep h(0) exact: inf, 1 / scale or 0 by the shape
    if code == _kernels.EXPONENTIAL:
        return a * np.ones_like(x)
    u = x / b
    if code == _kernels.LOGLOGISTIC:
        # u^(a-1) / (1 + u^a) divided through by u^(a-1): at huge u no
        # factor underflows before the quotient does
        return (a / b) / (u ** (1.0 - a) + u)
    return (a / b) * u ** (a - 1.0)


def cumulative_hazard(fam, theta, t):
    """Cumulative hazard Lambda(theta, t); scalar in, scalar out."""
    return _eval(fam, theta, t, _cumhaz)


def survival(fam, theta, t):
    """Survival function S(theta, t) = exp(-Lambda(theta, t))."""
    return _eval(fam, theta, t, _survival)


def density(fam, theta, t):
    """Density f(theta, t) = lambda(theta, t) S(theta, t)."""
    return _eval(fam, theta, t, lambda *args: _hazard(*args) * _survival(*args))


def hazard(fam, theta, t):
    """Hazard rate lambda(theta, t)."""
    return _eval(fam, theta, t, _hazard)


def grad_cumulative_hazard(fam, theta, t):
    """Gradient of Lambda w.r.t. the parameters, shape (..., q); needs t > 0."""
    fam = family(fam)
    theta = check_theta(fam, theta)
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(t_arr <= 0) or not np.all(np.isfinite(t_arr)):
        raise UsageError(f"gradient requires finite t > 0, got {t!r}")
    a, b = _ab(fam, theta)
    with np.errstate(over="ignore"):
        _, da, q = _kernels.cumhaz_terms(fam.code, a, t_arr, np.log(t_arr / b))
        g = np.stack((da, -(a / b) * q), axis=-1)[:, : fam.q]
    return g if np.ndim(t) else g[0]


def loglik_derivatives(fam, theta, cohort: Cohort):
    """A cohort's total log-likelihood with its gradient (q,) and Hessian
    (q, q), summed over its records in one kernel pass.

    A record contributes log f(theta, X) if an event and log S(theta, X) if
    censored; derivatives are analytic and on the natural scale, taken from
    the kernel's log-parameter g and H as g / theta and
    (H - diag g) / theta theta'.
    """
    fam = family(fam)
    theta = check_theta(fam, theta)
    a, b = _ab(fam, theta)
    data = _kernels._log_data(fam.code, cohort.times, cohort.events)
    value, g0, g1, h00, h01, h11 = _kernels._loglik_terms(fam.code, np.log(a), np.log(b), data)
    grad = np.array([g0, g1])[: fam.q]
    hess = np.array([[h00, h01], [h01, h11]])[: fam.q, : fam.q]
    return float(value), grad / theta, (hess - np.diag(grad)) / np.outer(theta, theta)
