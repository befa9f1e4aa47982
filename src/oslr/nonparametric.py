"""Event tables of right-censored data and the estimators built on them.

One vectorized event table serves the Kaplan-Meier and Nelson-Aalen curves,
the diagnostics and plot data of the analysis commands.
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


def _event_table(times, events):
    """Event table of each row of (R, n) times and 0/1 events.

    Returns (row_j, t_j, d_j, Y_j) over the distinct event times of every
    row, row after row in time order: the row t_j belongs to, the tied
    events d_j and the row's subjects at risk Y_j at t_j^-. The default sort
    is enough: a tie group needs only to be contiguous, and its counts do
    not depend on the order inside it.

    The rows are sorted, then laid end to end and read through flat
    indices, ``order + row * n``; every row boundary starts a tie group, so
    equal times in adjacent rows stay apart.
    """
    n_rows, n = times.shape
    flat = np.argsort(times, axis=-1)
    flat += np.arange(0, n_rows * n, n)[:, None]
    flat = flat.ravel()
    times = times.ravel()[flat]
    events = events.ravel()[flat]
    first = np.empty(times.size, dtype=bool)
    np.not_equal(times[1:], times[:-1], out=first[1:])
    first[::n] = True
    start = np.flatnonzero(first)
    d = np.add.reduceat(events, start)
    keep = d > 0
    at = start[keep]
    row = at // n
    # Y_j counts the row's subjects still under observation at t_j^-: all
    # from the tie group's start on
    return row, times[at], d[keep], n - (at - row * n)


def kaplan_meier(cohort: Cohort) -> StepCurve:
    """Product-limit survival estimate; jumps only at event times."""
    _, t, d, y = _event_table(cohort.times[None], cohort.events[None])
    surv = np.cumprod(1.0 - d / y)
    return StepCurve(times=t, values=surv, initial_value=1.0)


def nelson_aalen(cohort: Cohort) -> StepCurve:
    """Cumulative-hazard estimate, sum of d_j / Y_j over event times <= t."""
    _, t, d, y = _event_table(cohort.times[None], cohort.events[None])
    cumhaz = np.cumsum(d / y)
    return StepCurve(times=t, values=cumhaz, initial_value=0.0)
