"""Event tables of right-censored data and the estimators built on them.

One vectorized event table serves the Kaplan-Meier and Nelson-Aalen curves,
the diagnostics and plot data of the analysis commands.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import Cohort
from .errors import UsageError


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step function with jumps at distinct event times.

    values[j] is the curve value at and after times[j]; initial_value holds
    before the first jump.
    """

    times: np.ndarray
    values: np.ndarray
    initial_value: float = field(default=1.0)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be matching 1-d arrays")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("jump times must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        """Evaluate the step function at scalar or array t; NaN is refused."""
        if np.any(np.isnan(t)):
            raise UsageError(f"t must not be NaN, got {t!r}")
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate(([self.initial_value], self.values))
        out = padded[idx]
        return out if np.ndim(t) else float(out)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "value"])
            writer.writerow([0.0, repr(self.initial_value)])
            for t, v in zip(self.times, self.values):
                writer.writerow([repr(float(t)), repr(float(v))])


def _event_table(cohort: Cohort):
    """(t_j, d_j, Y_j) over the cohort's distinct event times in time order:
    the tied events d_j at t_j and the subjects at risk Y_j at t_j^-, all
    those whose time is t_j or later.
    """
    times, group, size = np.unique(cohort.times, return_inverse=True, return_counts=True)
    d = np.bincount(group, weights=cohort.events, minlength=times.size)
    keep = d > 0
    at_risk = cohort.times.size - (np.cumsum(size) - size)
    return times[keep], d[keep], at_risk[keep]


def kaplan_meier(cohort: Cohort) -> StepCurve:
    """Product-limit survival estimate; jumps only at event times."""
    t, d, y = _event_table(cohort)
    surv = np.cumprod(1.0 - d / y)
    return StepCurve(times=t, values=surv, initial_value=1.0)


def nelson_aalen(cohort: Cohort) -> StepCurve:
    """Cumulative-hazard estimate, sum of d_j / Y_j over event times <= t."""
    t, d, y = _event_table(cohort)
    cumhaz = np.cumsum(d / y)
    return StepCurve(times=t, values=cumhaz, initial_value=0.0)
