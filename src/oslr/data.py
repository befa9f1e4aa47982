"""Right-censored observations, cohorts and CSV ingestion.

A cohort stores the observed times ``X = min(T, C)`` and event indicators
``delta = 1{T <= C}`` for one study arm. Counting quantities follow the
indicator conventions ``N(t) = #{X_i <= t, delta_i = 1}`` and
``Y(t) = #{X_i >= t}``; no tie-breaking jitter is applied.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import RowValidationError, SchemaError, UsageError


@dataclass(frozen=True)
class Observation:
    """One right-censored record: positive finite time, 0/1 event flag."""

    time: float
    event: int

    def __post_init__(self):
        if not (isinstance(self.time, (int, float)) and math.isfinite(self.time)):
            raise ValueError(f"time must be finite, got {self.time!r}")
        if self.time <= 0:
            raise ValueError(f"time must be positive, got {self.time!r}")
        if self.event not in (0, 1):
            raise ValueError(f"event must be 0 or 1, got {self.event!r}")


class Cohort:
    """Immutable group of right-censored observations.

    Parameters
    ----------
    observations : iterable of Observation or (time, event) pairs
    label : group identifier, conventionally "A" (historic control) or "B"
        (experimental arm)
    """

    def __init__(self, observations: Iterable, label: str = ""):
        pairs = np.array(
            [
                (obs.time, obs.event) if isinstance(obs, Observation) else obs[:2]
                for obs in observations
            ],
            dtype=np.float64,
        ).reshape(-1, 2)
        self._set(pairs[:, 0], pairs[:, 1], label)

    @classmethod
    def from_arrays(cls, times, events, label: str = "") -> "Cohort":
        cohort = cls.__new__(cls)
        cohort._set(times, events, label)
        return cohort

    def _set(self, times, events, label: str) -> None:
        """Validate once, with numpy: 1-d equal lengths, at least one
        observation, finite positive times, events exactly 0 or 1."""
        times = np.array(times, dtype=np.float64)
        events = np.array(events, dtype=np.float64)
        if times.shape != events.shape or times.ndim != 1:
            raise ValueError("times and events must be 1-d arrays of equal length")
        if times.size == 0:
            raise ValueError("cohort must contain at least one observation")
        if not np.all(np.isfinite(times) & (times > 0)):
            raise ValueError("times must be finite and positive")
        if not np.all((events == 0.0) | (events == 1.0)):
            raise ValueError("events must be 0 or 1")
        times.setflags(write=False)
        events.setflags(write=False)
        self._times = times
        self._events = events
        self.label = label

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def events(self) -> np.ndarray:
        return self._events

    @property
    def n(self) -> int:
        return self._times.shape[0]

    @property
    def n_events(self) -> int:
        return int(self._events.sum())

    @property
    def observations(self) -> tuple[Observation, ...]:
        return tuple(
            Observation(float(t), int(e)) for t, e in zip(self._times, self._events)
        )

    def max_time(self) -> float:
        return float(self._times.max())

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"Cohort(label={self.label!r}, n={self.n}, events={self.n_events})"
        )


def counting_process(cohort: Cohort, t: float) -> tuple[int, int]:
    """Events observed by time t and subjects still at risk at time t.

    Returns ``(N(t), Y(t))`` with ``N(t) = #{X_i <= t, delta_i = 1}`` and
    ``Y(t) = #{X_i >= t}``.
    """
    if t < 0:
        raise UsageError(f"t must be nonnegative, got {t}")
    events_by_t = int(cohort.events[cohort.times <= t].sum())
    at_risk = int((cohort.times >= t).sum())
    return events_by_t, at_risk


def ingest_csv(
    path,
    time_col: str = "time",
    event_col: str = "event",
    group_col: str = "group",
):
    """Read a cohort CSV (header row required, UTF-8, comma-separated).

    Columns ``time`` (decimal) and ``event`` (0/1) are required. When the
    optional ``group`` column is present the rows are partitioned and a dict
    of label -> Cohort is returned (insertion order of first appearance);
    otherwise a single unlabeled Cohort.

    Raises SchemaError for missing columns and RowValidationError (carrying
    the 1-based data row number) for invalid values.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, header row required")
        fields = [name.strip() for name in reader.fieldnames]
        if time_col not in fields or event_col not in fields:
            raise SchemaError(
                f"{path}: required columns {time_col!r} and {event_col!r} not "
                f"found in header {fields}"
            )
        has_group = group_col in fields
        groups: dict[str, list[Observation]] = {}
        for row_number, row in enumerate(reader, start=1):
            raw_time = (row.get(time_col) or "").strip()
            raw_event = (row.get(event_col) or "").strip()
            try:
                time = float(raw_time)
            except ValueError:
                raise RowValidationError(
                    row_number, f"time {raw_time!r} is not a decimal number"
                ) from None
            if not math.isfinite(time) or time <= 0:
                raise RowValidationError(
                    row_number, f"time must be positive and finite, got {raw_time!r}"
                )
            if raw_event not in ("0", "1"):
                raise RowValidationError(
                    row_number, f"event must be 0 or 1, got {raw_event!r}"
                )
            key = (row.get(group_col) or "").strip() if has_group else ""
            groups.setdefault(key, []).append(Observation(time, int(raw_event)))
    if not groups:
        raise SchemaError(f"{path}: no data rows")
    if has_group:
        return {label: Cohort(obs, label=label) for label, obs in groups.items()}
    (observations,) = groups.values()
    return Cohort(observations)


def write_csv(path, cohorts) -> None:
    """Serialize one cohort or a dict of cohorts back to the ingestion schema.

    Times are written with shortest round-tripping decimal representation so
    that ingest -> write -> ingest reproduces float64 values bit-exactly.
    """
    if isinstance(cohorts, Cohort):
        items: Sequence[tuple[str, Cohort]] = [("", cohorts)]
        with_group = False
    else:
        items = list(cohorts.items())
        with_group = True
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["time", "event"] + (["group"] if with_group else [])
        writer.writerow(header)
        for label, cohort in items:
            for t, e in zip(cohort.times, cohort.events):
                row = [repr(float(t)), str(int(e))]
                if with_group:
                    row.append(label)
                writer.writerow(row)
