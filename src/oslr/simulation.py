"""Monte Carlo type-I-error study for the one-sample log-rank procedures.

Seven procedures run on each replicate: the OSLR test against the known true
curve (w = 0 and w = 0.5), against a Weibull curve fitted to the control arm
without correction (w = 0 and w = 0.5), the corrected test (w = 0 and
w = 0.5), and a two-sample log-rank comparator. Replicates draw from
counter-based RNG streams keyed by (seed, replicate index), so results are
bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Cohort
from .errors import DegenerateTestError, FitError, UsageError
from .fitting import fit_mle
from .logrank import (
    ReferenceCurve,
    critical_value,
    normal_quantile,
    oslr_test,
    two_sample_logrank,
)

PROCEDURES = (
    "true_w0",
    "true_w05",
    "uncorrected_w0",
    "uncorrected_w05",
    "corrected_w0",
    "corrected_w05",
    "two_sample",
)
_N_PROC = len(PROCEDURES)


@dataclass(frozen=True)
class Scenario:
    """One simulation cell under the null of equal event-time laws."""

    kappa: float
    n_b: int
    pi: float
    replicates: int
    seed: int
    accrual_years: float = 2.0
    followup_years: float = 3.0
    alpha: float = 0.05

    def __post_init__(self):
        if self.kappa <= 0:
            raise UsageError(f"kappa must be positive, got {self.kappa}")
        if self.n_b < 1 or self.replicates < 1:
            raise UsageError("n_b and replicates must be at least 1")
        if self.pi <= 0:
            raise UsageError(f"pi must be positive, got {self.pi}")
        if not 0.0 < self.alpha < 1.0:
            raise UsageError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.accrual_years <= 0 or self.followup_years < 0:
            raise UsageError("accrual_years must be positive, followup_years >= 0")
        if self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")

    @property
    def n_a(self) -> int:
        return max(1, round(self.n_b / self.pi))

    @property
    def sigma(self) -> float:
        """Weibull scale giving one-year survival 0.5: Lambda(s) = ln2 * s^kappa."""
        return math.log(2.0) ** (-1.0 / self.kappa)

    def to_json_dict(self) -> dict:
        return {
            "accrual_years": self.accrual_years,
            "followup_years": self.followup_years,
            "kappa": self.kappa,
            "n_b": self.n_b,
            "pi": self.pi,
            "replicates": self.replicates,
            "seed": self.seed,
            "alpha": self.alpha,
        }


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one replicate; scheduling cannot reorder it."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def generate_cohort(scenario: Scenario, group: str, rng: np.random.Generator) -> Cohort:
    """Draw one arm: Weibull event times by inversion, censoring uniform on
    [followup, accrual + followup]."""
    if group not in ("A", "B"):
        raise UsageError(f"group must be 'A' or 'B', got {group!r}")
    n = scenario.n_a if group == "A" else scenario.n_b
    with np.errstate(divide="ignore"):
        t = scenario.sigma * (-np.log(rng.random(n))) ** (1.0 / scenario.kappa)
    c = scenario.followup_years + scenario.accrual_years * rng.random(n)
    return Cohort.from_arrays(np.minimum(t, c), (t <= c).astype(np.float64), group)


def run_replicate(scenario: Scenario, rng: np.random.Generator):
    """Run all seven procedures once.

    Returns (evaluated, reject_two, reject_one) int arrays aligned with
    PROCEDURES. A failed fit marks only the fit-based procedures as not
    evaluated; degenerate tests mark their own procedure.
    """
    evaluated = np.zeros(_N_PROC, dtype=np.int64)
    rej_two = np.zeros(_N_PROC, dtype=np.int64)
    rej_one = np.zeros(_N_PROC, dtype=np.int64)
    cohort_a = generate_cohort(scenario, "A", rng)
    cohort_b = generate_cohort(scenario, "B", rng)
    true_ref = ReferenceCurve.fixed("weibull", [scenario.kappa, scenario.sigma])
    try:
        fitted_ref = ReferenceCurve.from_fit(fit_mle("weibull", cohort_a))
    except FitError:
        fitted_ref = None
    crit = critical_value(scenario.alpha)

    def record(slot: int, z: float) -> None:
        if not math.isfinite(z):
            return
        evaluated[slot] = 1
        rej_two[slot] = abs(z) >= crit
        rej_one[slot] = z <= -crit

    for slot, (ref, w, corrected) in enumerate(
        (
            (true_ref, 0.0, False),
            (true_ref, 0.5, False),
            (fitted_ref, 0.0, False),
            (fitted_ref, 0.5, False),
            (fitted_ref, 0.0, True),
            (fitted_ref, 0.5, True),
        )
    ):
        if ref is None:
            continue
        try:
            record(slot, oslr_test(ref, cohort_b, w=w, corrected=corrected).z)
        except DegenerateTestError:
            pass
    try:
        record(6, two_sample_logrank(cohort_a, cohort_b).z)
    except DegenerateTestError:
        pass
    return evaluated, rej_two, rej_one


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated rejection counts for one scenario cell."""

    scenario: Scenario
    evaluated: np.ndarray
    rejected_two: np.ndarray
    rejected_one: np.ndarray

    def _rate(self, counts, procedure: str) -> float:
        i = PROCEDURES.index(procedure)
        n = int(self.evaluated[i])
        return float(counts[i]) / n if n else float("nan")

    def two_sided_rate(self, procedure: str) -> float:
        return self._rate(self.rejected_two, procedure)

    def one_sided_rate(self, procedure: str) -> float:
        return self._rate(self.rejected_one, procedure)

    def n_evaluated(self, procedure: str) -> int:
        return int(self.evaluated[PROCEDURES.index(procedure)])

    def n_failed(self, procedure: str) -> int:
        return self.scenario.replicates - self.n_evaluated(procedure)

    def to_json_dict(self) -> dict:
        procs = {}
        for name in PROCEDURES:
            n = self.n_evaluated(name)
            row = {
                "two_sided_rate": self.two_sided_rate(name),
                "one_sided_rate": self.one_sided_rate(name),
                "n_evaluated": n,
                "n_failed": self.n_failed(name),
            }
            for sided in ("two", "one"):
                rate = row[f"{sided}_sided_rate"]
                lo, hi = (
                    mc_error_interval(rate, n) if n else (float("nan"), float("nan"))
                )
                row[f"{sided}_sided_interval"] = [lo, hi]
            procs[name] = row
        return {"scenario": self.scenario.to_json_dict(), "procedures": procs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def csv_rows(self) -> list[dict]:
        """Flat rows (kappa,n_b,pi,procedure,sided,rate,lo,hi,n_eff) for plotting."""
        rows = []
        s = self.scenario
        for name in PROCEDURES:
            n = self.n_evaluated(name)
            for sided, rate in (
                ("two", self.two_sided_rate(name)),
                ("one", self.one_sided_rate(name)),
            ):
                lo, hi = (
                    mc_error_interval(rate, n) if n else (float("nan"), float("nan"))
                )
                rows.append(
                    {
                        "kappa": s.kappa,
                        "n_b": s.n_b,
                        "pi": s.pi,
                        "procedure": name,
                        "sided": sided,
                        "rate": rate,
                        "lo": lo,
                        "hi": hi,
                        "n_eff": n,
                    }
                )
        return rows


def mc_error_interval(p: float, n: int, level: float = 0.95):
    """Binomial Monte Carlo error interval p +- z * sqrt(p(1-p)/n), clipped."""
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"rate must be in [0, 1], got {p}")
    if n < 1:
        raise UsageError(f"replicate count must be at least 1, got {n}")
    if not 0.0 <= level < 1.0:
        raise UsageError(f"confidence level must be in [0, 1), got {level}")
    half = normal_quantile(0.5 + level / 2.0) * math.sqrt(p * (1.0 - p) / n)
    return max(0.0, p - half), min(1.0, p + half)


def _chunk_counts(args):
    scenario, start, stop = args
    evaluated = np.zeros(_N_PROC, dtype=np.int64)
    rej_two = np.zeros(_N_PROC, dtype=np.int64)
    rej_one = np.zeros(_N_PROC, dtype=np.int64)
    for index in range(start, stop):
        e, r2, r1 = run_replicate(scenario, replicate_rng(scenario.seed, index))
        evaluated += e
        rej_two += r2
        rej_one += r1
    return evaluated, rej_two, rej_one


def resolve_workers(requested: int | None = None) -> int:
    """Explicit argument, else the OSLR_THREADS cap, else the CPU count."""
    if requested is not None:
        if requested < 1:
            raise UsageError(f"worker count must be at least 1, got {requested}")
        return requested
    env = os.environ.get("OSLR_THREADS", "").strip()
    cpus = os.cpu_count() or 1
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise UsageError(f"OSLR_THREADS must be an integer, got {env!r}") from exc
        if cap < 1:
            raise UsageError(f"OSLR_THREADS must be at least 1, got {cap}")
        return min(cap, cpus)
    return cpus


def run_scenario(scenario: Scenario, workers: int | None = None) -> SimulationResult:
    """Aggregate all replicates of one cell; independent of worker count."""
    workers = resolve_workers(workers)
    n = scenario.replicates
    if workers == 1 or n < 4:
        evaluated, rej_two, rej_one = _chunk_counts((scenario, 0, n))
    else:
        step = max(1, math.ceil(n / (workers * 4)))
        chunks = [(scenario, s, min(s + step, n)) for s in range(0, n, step)]
        evaluated = np.zeros(_N_PROC, dtype=np.int64)
        rej_two = np.zeros(_N_PROC, dtype=np.int64)
        rej_one = np.zeros(_N_PROC, dtype=np.int64)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for e, r2, r1 in pool.map(_chunk_counts, chunks):
                evaluated += e
                rej_two += r2
                rej_one += r1
    return SimulationResult(
        scenario=scenario,
        evaluated=evaluated,
        rejected_two=rej_two,
        rejected_one=rej_one,
    )


def load_scenarios(source) -> list[Scenario]:
    """Expand a scenario dict or JSON file into cells.

    kappa, n_b and pi may be lists; the grid is their cartesian product.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            spec = json.load(fh)
    else:
        spec = dict(source)
    if not isinstance(spec, dict):
        raise UsageError("scenario file must hold a JSON object")
    unknown = set(spec) - {
        "accrual_years",
        "followup_years",
        "kappa",
        "n_b",
        "pi",
        "replicates",
        "seed",
        "alpha",
    }
    if unknown:
        raise UsageError(f"unknown scenario keys: {sorted(unknown)}")
    missing = {"kappa", "n_b", "pi", "replicates", "seed"} - set(spec)
    if missing:
        raise UsageError(f"scenario is missing keys: {sorted(missing)}")

    def listify(key):
        value = spec[key]
        return list(value) if isinstance(value, (list, tuple)) else [value]

    fixed = {
        key: spec[key]
        for key in ("accrual_years", "followup_years", "alpha")
        if key in spec
    }
    try:
        return [
            Scenario(
                kappa=float(kappa),
                n_b=int(n_b),
                pi=float(pi),
                replicates=int(spec["replicates"]),
                seed=int(spec["seed"]),
                **fixed,
            )
            for kappa, n_b, pi in itertools.product(
                listify("kappa"), listify("n_b"), listify("pi")
            )
        ]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid scenario value: {exc}") from exc


def write_results_csv(path, results) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "kappa", "n_b", "pi", "procedure", "sided",
                "rate", "lo", "hi", "n_eff",
            ],
        )
        writer.writeheader()
        for result in results:
            writer.writerows(result.csv_rows())
