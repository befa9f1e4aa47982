"""Right-censored cohorts, their counting process and CSV ingestion.

A cohort stores the observed times ``X = min(T, C)`` and event indicators
``delta = 1{T <= C}`` for one study arm. Counting quantities follow the
indicator conventions ``N(t) = #{X_i <= t, delta_i = 1}`` and
``Y(t) = #{X_i >= t}``; no tie-breaking jitter is applied.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

from .errors import RowValidationError, SchemaError, UsageError

# an ASCII decimal literal: what float() reads, less inf, nan, digit-group
# underscores and non-ASCII digits
DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class Cohort:
    """Immutable group of right-censored observations, one study arm.

    Parameters
    ----------
    times : observed times X_i, finite and positive
    events : event indicators delta_i, each exactly 0 or 1
    label : group identifier, conventionally "A" (historic control) or "B"
        (experimental arm)

    Validated once, with numpy: 1-d equal lengths and at least one
    observation.
    """

    def __init__(self, times, events, label: str = ""):
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

    Returns the paper's ``(N(t), Y(t))``, ``N(t) = #{X_i <= t, delta_i = 1}``
    and ``Y(t) = #{X_i >= t}``; no other route gives Y at an arbitrary t.
    """
    if not t >= 0:
        raise UsageError(f"t must be nonnegative, got {t}")
    events_by_t = int(cohort.events[cohort.times <= t].sum())
    at_risk = int((cohort.times >= t).sum())
    return events_by_t, at_risk


def ingest_csv(path):
    """Read a cohort CSV (header row required, UTF-8 with or without a
    byte-order mark, comma-separated).

    Columns ``time`` (decimal) and ``event`` (0/1) are required. When the
    optional ``group`` column is present the rows are partitioned and a dict
    of label -> Cohort is returned (insertion order of first appearance);
    otherwise a single unlabeled Cohort.

    Header names are matched after stripping surrounding spaces; blank lines
    are skipped. Raises SchemaError for missing or repeated columns or an
    unreadable file (not UTF-8, or a cell past 131,072 characters) and
    RowValidationError (carrying the 1-based data row number) for invalid
    values or a row whose cell count differs from the header's.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = (row for row in csv.reader(fh) if row)
            header = next(rows, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, header row required")
            fields = [name.strip() for name in header]
            if len(set(fields)) != len(fields):
                raise SchemaError(f"{path}: repeated column name in header {fields}")
            if "time" not in fields or "event" not in fields:
                raise SchemaError(
                    f"{path}: required columns 'time' and 'event' not found in "
                    f"header {fields}"
                )
            at_time, at_event = fields.index("time"), fields.index("event")
            at_group = fields.index("group") if "group" in fields else None
            # label -> (times, events), filled row by row
            groups: dict[str, tuple[list[float], list[int]]] = {}
            for row_number, row in enumerate(rows, start=1):
                if len(row) != len(fields):
                    raise RowValidationError(
                        row_number, f"{len(row)} cells, the header has {len(fields)}"
                    )
                raw_time = row[at_time].strip()
                raw_event = row[at_event].strip()
                if not DECIMAL.fullmatch(raw_time):
                    raise RowValidationError(
                        row_number, f"time {raw_time!r} is not a decimal number"
                    )
                time = float(raw_time)
                if not math.isfinite(time) or time <= 0:
                    raise RowValidationError(
                        row_number, f"time must be positive and finite, got {raw_time!r}"
                    )
                if raw_event not in ("0", "1"):
                    raise RowValidationError(
                        row_number, f"event must be 0 or 1, got {raw_event!r}"
                    )
                key = "" if at_group is None else row[at_group].strip()
                times, events = groups.setdefault(key, ([], []))
                times.append(time)
                events.append(int(raw_event))
    except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a cell past its limit
        raise SchemaError(f"{path}: not a readable UTF-8 CSV file ({exc})") from None
    if not groups:
        raise SchemaError(f"{path}: no data rows")
    if at_group is not None:
        return {
            label: Cohort(times, events, label=label)
            for label, (times, events) in groups.items()
        }
    ((times, events),) = groups.values()
    return Cohort(times, events)


def write_csv(path, cohorts) -> None:
    """Serialize one cohort or a dict of cohorts back to the ingestion schema.

    Times are written with shortest round-tripping decimal representation so
    that ingest -> write -> ingest reproduces float64 values bit-exactly.
    """
    with_group = not isinstance(cohorts, Cohort)
    items = cohorts.items() if with_group else [("", cohorts)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event"] + (["group"] if with_group else []))
        for label, cohort in items:
            group = [label] if with_group else []
            for t, e in zip(cohort.times, cohort.events):
                writer.writerow([repr(float(t)), str(int(e))] + group)
