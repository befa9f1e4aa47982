"""The results file that ``simulate`` writes and ``report`` reads, without
the Monte Carlo engine: a JSON list of one record per cell, its scenario and,
per procedure, its rejection rates, their Monte Carlo error intervals and its
evaluated and failed replicate counts; ``report`` renders it as a table or
as CSV rows of CSV_FIELDS.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import normal_quantile
from .errors import UsageError

if TYPE_CHECKING:
    from .simulation import Scenario

PROCEDURES = (
    "true_w0", "true_w05",
    "uncorrected_w0", "uncorrected_w05",
    "corrected_w0", "corrected_w05",
    "two_sample",
)

# columns of the flat results CSV, one row per procedure and sidedness
CSV_FIELDS = ("kappa", "n_b", "pi", "procedure", "sided", "rate", "lo", "hi", "n_eff")


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated rejection counts for one scenario cell, in PROCEDURES order."""

    scenario: Scenario
    evaluated: np.ndarray
    rejected_two: np.ndarray
    rejected_one: np.ndarray

    def two_sided_rate(self, procedure: str) -> float:
        n = self.n_evaluated(procedure)
        return float(self.rejected_two[PROCEDURES.index(procedure)]) / n if n else math.nan

    def n_evaluated(self, procedure: str) -> int:
        return int(self.evaluated[PROCEDURES.index(procedure)])

    def n_failed(self, procedure: str) -> int:
        return self.scenario.replicates - self.n_evaluated(procedure)

    def to_json_dict(self) -> dict:
        """The cell's scenario and, per procedure, its rates, counts and
        intervals; a procedure evaluated on no replicate has null rates and
        intervals, which JSON can hold, where NaN is not JSON."""
        procs = {}
        for i, name in enumerate(PROCEDURES):
            n = int(self.evaluated[i])
            rejected = self.rejected_two[i], self.rejected_one[i]
            rates = [float(r) / n if n else None for r in rejected]
            intervals = [list(mc_error_interval(r, n)) if n else [None, None] for r in rates]
            procs[name] = {
                "two_sided_rate": rates[0], "one_sided_rate": rates[1],
                "n_evaluated": n, "n_failed": self.scenario.replicates - n,
                "two_sided_interval": intervals[0], "one_sided_interval": intervals[1],
            }
        return {"scenario": self.scenario.to_json_dict(), "procedures": procs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def json_list(texts) -> str:
    """``json.dumps(records, indent=2)`` from the records' ``to_json()``
    texts, each re-indented as an item of the list."""
    items = ",\n  ".join(text.replace("\n", "\n  ") for text in texts)
    return f"[\n  {items}\n]" if texts else "[]"


def mc_error_interval(p: float, n: int):
    """Binomial 95% Monte Carlo error interval p +- z * sqrt(p(1-p)/n),
    z the normal 0.975 quantile, clipped to [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"rate must be in [0, 1], got {p}")
    if n < 1:
        raise UsageError(f"replicate count must be at least 1, got {n}")
    half = normal_quantile(0.975) * math.sqrt(p * (1.0 - p) / n)
    return max(0.0, p - half), min(1.0, p + half)


def read_json(path):
    """The JSON document in a file. Text that does not decode or parse,
    including an integer literal past Python's int string limit (a plain
    ValueError, not a JSONDecodeError), raises UsageError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: not a readable JSON document ({exc})") from exc


def record_rows(record: dict) -> list[dict]:
    """CSV rows, one per procedure and sidedness, from a result's JSON record
    (``SimulationResult.to_json_dict()`` or a record read back from disk).
    Where n_eff is 0 a null rate or bound reads as NaN, which older files
    hold there. Raises TypeError unless n_b and n_eff are integers and the
    rest numbers."""
    s = record["scenario"]
    rows = []
    for name, stats in record["procedures"].items():
        n = stats["n_evaluated"]
        for sided in ("two", "one"):
            rate, (lo, hi) = stats[f"{sided}_sided_rate"], stats[f"{sided}_sided_interval"]
            if n == 0:
                rate, lo, hi = (math.nan if v is None else v for v in (rate, lo, hi))
            values = (s["kappa"], s["n_b"], s["pi"], name, sided, rate, lo, hi, n)
            rows.append(dict(zip(CSV_FIELDS, values)))
    for row in rows:
        for key in ("kappa", "n_b", "pi", "rate", "lo", "hi", "n_eff"):
            kind = numbers.Integral if key in ("n_b", "n_eff") else numbers.Real
            if isinstance(row[key], bool) or not isinstance(row[key], kind):
                raise TypeError(f"{key} must be {kind.__name__}, got {row[key]!r}")
    return rows


def write_rows_csv(fh, rows) -> None:
    """The header, then rows in CSV_FIELDS order, to an open text file."""
    writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
