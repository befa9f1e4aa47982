"""Event tables of right-censored data and the estimators built on them.

One vectorized event table serves the Kaplan-Meier and Nelson-Aalen curves
(diagnostics and plot data) and the two-sample log-rank comparator in
:mod:`oslr.logrank`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import Cohort


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
        """Evaluate the step function at scalar or array t."""
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


def _event_table(times, events, in_b=None):
    """Distinct event times t_j with tied-event counts d_j and at-risk sizes Y_j.

    With a 0/1 group marker ``in_b`` the marked group's d_j and Y_j follow.
    """
    order = np.argsort(times, kind="stable")
    times = times[order]
    events = events[order]
    start = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    d = np.add.reduceat(events, start)
    # Y_j counts everyone still under observation at t_j^-: all from start_j on
    at_risk = times.shape[0] - start
    keep = d > 0
    table = (times[start[keep]], d[keep], at_risk[keep])
    if in_b is None:
        return table
    in_b = in_b[order]
    d_b = np.add.reduceat(events * in_b, start)
    at_risk_b = np.cumsum(in_b[::-1])[::-1][start]
    return table + (d_b[keep], at_risk_b[keep])


def kaplan_meier(cohort: Cohort) -> StepCurve:
    """Product-limit survival estimate; jumps only at event times."""
    t, d, y = _event_table(cohort.times, cohort.events)
    surv = np.cumprod(1.0 - d / y)
    return StepCurve(times=t, values=surv, initial_value=1.0)


def nelson_aalen(cohort: Cohort) -> StepCurve:
    """Cumulative-hazard estimate, sum of d_j / Y_j over event times <= t."""
    t, d, y = _event_table(cohort.times, cohort.events)
    cumhaz = np.cumsum(d / y)
    return StepCurve(times=t, values=cumhaz, initial_value=0.0)
