"""Monte Carlo type-I-error study for the one-sample log-rank procedures.

Seven procedures run on each replicate: the OSLR test against the known true
curve (w = 0 and w = 0.5), against a Weibull curve fitted to the control arm
without correction (w = 0 and w = 0.5), the corrected test (w = 0 and
w = 0.5), and a two-sample log-rank comparator. Replicates draw from
counter-based RNG streams keyed by (seed, replicate index), so results are
bit-identical across runs and across worker counts.

The unit of work is a block of replicates held as (R, n) arrays, one
replicate per row: the block is drawn, fitted (one batched Newton run),
tested against both reference curves (one component pass each, from which
all six one-sample z-values follow arithmetically) and compared two-sample
(one event table) at once. A row's z-values do not depend on the other rows
of its block, so the counts are the same for any chunking and worker count.
A block's rows are drawn by resetting one Philox generator to each
replicate's key rather than building a generator per replicate.

With N workers a cell's replicates split into N equal contiguous shares.
Where ``os.fork`` exists (POSIX), N - 1 forked children compute shares
1..N-1 and send their counts back through a pipe while the calling process
computes share 0; elsewhere the shares run one after another in the calling
process. Either way the integer counts add up to the same result. Each share
runs as the fewest near-equal blocks that fit the block size.

A scenario holds at most MAX_OBSERVATIONS observations per replicate
(n_A + n_B): one replicate's working arrays take about 215 bytes per
observation, so about 215 MB at that bound.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Cohort
from .errors import UsageError
from .families import WEIBULL
from .fitting import GRAD_TOL, MAX_ITER, _loglik_and_information, pseudo_inverse
from .logrank import (
    _compensated_and_v1,
    _two_sample_scores,
    _v2,
    critical_value,
    normal_quantile,
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

# a block of R replicates holds at most this many observations, R * (n_a + n_b)
_BLOCK_ELEMENTS = 2**15

# largest n_a + n_b of one replicate that a Scenario admits
MAX_OBSERVATIONS = 1_000_000

# columns of the flat results CSV, one row per procedure and sidedness
CSV_FIELDS = ("kappa", "n_b", "pi", "procedure", "sided", "rate", "lo", "hi", "n_eff")


@dataclass(frozen=True)
class Scenario:
    """One simulation cell under the null of equal event-time laws.

    n_b, replicates and seed must be integers (not bools), the other fields
    finite real numbers; they are stored as int and float. A replicate holds
    n_a + n_b observations, at most MAX_OBSERVATIONS (10^6); larger cells
    are refused before anything is allocated.
    """

    kappa: float
    n_b: int
    pi: float
    replicates: int
    seed: int
    accrual_years: float = 2.0
    followup_years: float = 3.0
    alpha: float = 0.05

    def __post_init__(self):
        # refuse what a conversion would round or reinterpret (1.5, True, nan)
        for name in ("n_b", "replicates", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise UsageError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("kappa", "pi", "alpha", "accrual_years", "followup_years"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise UsageError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
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
        if not 0 <= self.seed < 2**64:
            raise UsageError(f"seed must be an integer in [0, 2**64 - 1], got {self.seed}")
        # the quotient first: n_b / pi may overflow what round() accepts
        if self.n_b / self.pi > MAX_OBSERVATIONS or self.n_a + self.n_b > MAX_OBSERVATIONS:
            raise UsageError(
                f"n_b = {self.n_b} at pi = {self.pi} needs more than "
                f"{MAX_OBSERVATIONS} observations per replicate (n_a + n_b)"
            )

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


def _stream_key(seed: int, index: int) -> np.ndarray:
    """Philox key of one replicate's stream, the 64-bit words (seed, index).

    Built as uint64: numpy reads a list holding an int of 2**63 or more as
    float64, which would round nearby seeds onto one stream.
    """
    return np.array([seed, index], dtype=np.uint64)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one replicate; scheduling cannot reorder it."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, index)))


def _streams(seed: int, indices):
    """For each replicate index in turn, a generator at the start of that
    replicate's stream: the bits ``replicate_rng(seed, index)`` yields.

    A Philox stream is set by its key and counter alone, so one generator is
    reset to that key, counter 0 and an empty buffer per replicate instead of
    building a new one, whose seed sequence the key would discard. The saved
    state's key array is rewritten in place; the setter copies it.
    """
    bit_generator = np.random.Philox(key=_stream_key(seed, 0))
    fresh = bit_generator.state  # counter 0, empty buffer
    key = fresh["state"]["key"]  # uint64 words (seed, index)
    rng = np.random.Generator(bit_generator)
    for index in indices:
        key[1] = index
        bit_generator.state = fresh
        yield rng


def _uniforms(scenario: Scenario, start: int, stop: int) -> np.ndarray:
    """Uniforms of replicates start..stop-1, one row each from its own stream."""
    u = np.empty((stop - start, 2 * (scenario.n_a + scenario.n_b)))
    for row, rng in zip(u, _streams(scenario.seed, range(start, stop))):
        rng.random(out=row)
    return u


def _observe(scenario: Scenario, u_event, u_censor):
    """Observed times and 0/1 event flags from uniforms: Weibull event times
    by inversion, t = sigma (-log u)^(1/kappa), and censoring times
    c = followup + accrual * u, uniform on [followup, accrual + followup]."""
    with np.errstate(divide="ignore"):
        t = scenario.sigma * (-np.log(u_event)) ** (1.0 / scenario.kappa)
    c = scenario.followup_years + scenario.accrual_years * u_censor
    return np.minimum(t, c), (t <= c).astype(np.float64)


def generate_cohort(scenario: Scenario, group: str, rng: np.random.Generator) -> Cohort:
    """Draw one arm of n subjects from ``rng``: n event-time uniforms, then n
    censoring uniforms (see ``_observe``)."""
    if group not in ("A", "B"):
        raise UsageError(f"group must be 'A' or 'B', got {group!r}")
    n = scenario.n_a if group == "A" else scenario.n_b
    times, events = _observe(scenario, rng.random(n), rng.random(n))
    return Cohort.from_arrays(times, events, group)


def _z_or_nan(m, total):
    """m / sqrt(total) where total > 0; NaN (not evaluated) elsewhere."""
    z = np.full(m.shape, np.nan)
    ok = total > 0.0
    z[ok] = m[ok] / np.sqrt(total[ok])
    return z


def _block_z(scenario: Scenario, u: np.ndarray) -> np.ndarray:
    """z-values of the seven procedures, (R, 7), for a block of replicates.

    Row i of ``u`` holds replicate i's 2 n_a + 2 n_b uniforms in the order
    two ``generate_cohort`` calls draw them (arm A, then arm B). A z is NaN
    where its procedure is not evaluated: a failed fit, or a test whose
    variance is not positive.
    """
    n_a, n_b = scenario.n_a, scenario.n_b
    times_a, events_a = _observe(scenario, u[:, :n_a], u[:, n_a : 2 * n_a])
    times_b, events_b = _observe(
        scenario, u[:, 2 * n_a : 2 * n_a + n_b], u[:, 2 * n_a + n_b :]
    )
    times = np.concatenate((times_a, times_b), axis=1)
    if not np.all(np.isfinite(times) & (times > 0)):
        raise ValueError("times must be finite and positive")
    n_rows = u.shape[0]
    z = np.full((n_rows, _N_PROC), np.nan)
    # the analysis time of every one-sample test: arm B's largest time
    t_end = times_b.max(axis=1)

    def one_sample(slots, rows, a, b, pi=None, pinv=None):
        n_events, expected, g0, g1 = _kernels.oslr_components(
            WEIBULL.code, a, b, times_b[rows], events_b[rows], t_end[rows]
        )
        v2 = 0.0 if pi is None else _v2(pi, g0, g1, pinv)
        for slot, w in zip(slots, (0.0, 0.5)):
            m, v1 = _compensated_and_v1(n_events, expected, n_b, w)
            z[rows, slot] = _z_or_nan(m, v1 + v2)

    one_sample(
        (0, 1),
        np.arange(n_rows),
        np.full(n_rows, scenario.kappa),
        np.full(n_rows, scenario.sigma),
    )

    # Weibull fit to arm A as fit_mle does it: rows without events fail, the
    # others start at shape 1 and scale 1 in units of their upper median
    fitted = np.flatnonzero(events_a.sum(axis=1) > 0)
    unit = np.partition(times_a[fitted], n_a // 2, axis=1)[:, n_a // 2]
    start = np.zeros(fitted.size)
    a, b, _, _, status = _kernels.fit_newton(
        WEIBULL.code,
        times_a[fitted] / unit[:, None],
        events_a[fitted],
        start,
        start,
        GRAD_TOL,
        MAX_ITER,
    )
    b = b * unit
    ok = (status == _kernels.FIT_OK) & np.isfinite(a) & (a > 0) & np.isfinite(b) & (b > 0)
    fitted, a, b = fitted[ok], a[ok], b[ok]
    _, info = _loglik_and_information(WEIBULL, a, b, times_a[fitted], events_a[fitted])
    one_sample((2, 3), fitted, a, b)
    one_sample((4, 5), fitted, a, b, pi=n_b / n_a, pinv=pseudo_inverse(info))

    in_b = np.concatenate((np.zeros(n_a), np.ones(n_b)))
    u_score, v_score = _two_sample_scores(
        times,
        np.concatenate((events_a, events_b), axis=1),
        np.broadcast_to(in_b, times.shape),
    )
    z[:, 6] = _z_or_nan(u_score, v_score)
    return z


def _tally(z: np.ndarray, alpha: float) -> np.ndarray:
    """Rows (evaluated, two-sided rejections, one-sided rejections), each
    per procedure and summed over the rows of a (R, 7) z block."""
    crit = critical_value(alpha)
    return np.stack(
        (
            np.isfinite(z).sum(axis=0),
            (np.abs(z) >= crit).sum(axis=0),
            (z <= -crit).sum(axis=0),
        )
    )


def run_replicate(scenario: Scenario, rng: np.random.Generator):
    """Run all seven procedures once.

    Returns (evaluated, reject_two, reject_one) int arrays aligned with
    PROCEDURES. A failed fit marks only the fit-based procedures as not
    evaluated; degenerate tests mark their own procedure.
    """
    u = rng.random(2 * (scenario.n_a + scenario.n_b))
    evaluated, rej_two, rej_one = _tally(_block_z(scenario, u[None]), scenario.alpha)
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
        """Flat rows (CSV_FIELDS) for plotting."""
        return record_rows(self.to_json_dict())


def record_rows(record: dict) -> list[dict]:
    """CSV rows, one per procedure and sidedness, from a result's JSON record
    (``SimulationResult.to_json_dict()`` or a record read back from disk)."""
    s = record["scenario"]
    rows = []
    for name, stats in record["procedures"].items():
        for sided in ("two", "one"):
            lo, hi = stats[f"{sided}_sided_interval"]
            rows.append(
                {
                    "kappa": s["kappa"],
                    "n_b": s["n_b"],
                    "pi": s["pi"],
                    "procedure": name,
                    "sided": sided,
                    "rate": stats[f"{sided}_sided_rate"],
                    "lo": lo,
                    "hi": hi,
                    "n_eff": stats["n_evaluated"],
                }
            )
    return rows


def write_rows_csv(fh, rows) -> None:
    """Header plus rows, in CSV_FIELDS order, to an open text file."""
    writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerows(rows)


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


def _chunk_counts(scenario: Scenario, start: int, stop: int) -> np.ndarray:
    """Counts (see ``_tally``) of replicates start..stop-1, in the fewest
    blocks of near-equal size that hold at most _BLOCK_ELEMENTS each."""
    counts = np.zeros((3, _N_PROC), dtype=np.int64)
    m = stop - start
    if m == 0:
        return counts
    blocks = math.ceil(m / max(1, _BLOCK_ELEMENTS // (scenario.n_a + scenario.n_b)))
    bounds = [start + m * j // blocks for j in range(blocks + 1)]
    for first, last in zip(bounds, bounds[1:]):
        counts += _tally(_block_z(scenario, _uniforms(scenario, first, last)), scenario.alpha)
    return counts


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


def _share_child(scenario: Scenario, start: int, stop: int, write_fd: int):
    """Body of a forked child: pickle (counts, None, None) of replicates
    start..stop-1, or (None, exception, traceback text) when they raise, into
    ``write_fd``, then end the process.

    It never returns into the caller's stack: ``os._exit`` runs no atexit
    handler and flushes no stdio buffer inherited from the parent. Exit code
    0 means the whole payload was written.
    """
    code = 1
    try:
        try:
            payload = pickle.dumps((_chunk_counts(scenario, start, stop), None, None))
        except BaseException as exc:
            import traceback

            trace = traceback.format_exc()
            try:
                payload = pickle.dumps((None, exc, trace))
                pickle.loads(payload)  # an exception may not survive the trip
            except Exception:
                payload = pickle.dumps((None, None, trace))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _share_result(pid: int, status: int, payload: bytes) -> np.ndarray:
    """Counts a share child sent, or its exception raised here."""
    if status != 0 or not payload:
        raise RuntimeError(
            f"share process {pid} ended without a result (wait status {status})"
        )
    counts, exc, trace = pickle.loads(payload)
    if counts is not None:
        return counts
    failure = RuntimeError(f"share process {pid} failed:\n{trace}")
    if exc is None:
        raise failure
    raise exc from failure


def _forked_counts(scenario: Scenario, bounds: list[int]) -> np.ndarray:
    """Counts of the shares bounds[i]..bounds[i+1]-1: one forked child per
    share past the first, each writing to its own pipe, while this process
    computes the first. On any failure here, an interrupt included, every
    child still running is killed and reaped and every pipe closed."""
    children = []  # (pid, read end of its pipe), not yet reaped
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _share_child(scenario, first, last, write_fd)
            children.append((pid, open(read_fd, "rb")))
            # closed at once, so later children do not hold it open past EOF
            os.close(write_fd)
        counts = _chunk_counts(scenario, bounds[0], bounds[1])
        while children:
            pid, pipe = children[0]
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            pipe.close()
            counts += _share_result(pid, status, payload)
        return counts
    finally:
        if children:
            import signal

            for pid, pipe in children:
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass  # reaped just before the failure


def run_scenario(scenario: Scenario, workers: int | None = None) -> SimulationResult:
    """Aggregate all replicates of one cell; independent of worker count.

    With k workers the replicates split into k equal contiguous shares: k - 1
    forked children take shares 1..k-1 while the calling process computes
    share 0, then the integer counts add up. Without ``os.fork`` the cell
    runs in the calling process, with the same counts.
    """
    n = scenario.replicates
    k = min(resolve_workers(workers), n)
    if k == 1 or n < 4 or not hasattr(os, "fork"):
        counts = _chunk_counts(scenario, 0, n)
    else:
        counts = _forked_counts(scenario, [n * i // k for i in range(k + 1)])
    evaluated, rej_two, rej_one = counts
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
    # Scenario checks each value's type and range; nothing is converted here
    return [
        Scenario(
            kappa=kappa,
            n_b=n_b,
            pi=pi,
            replicates=spec["replicates"],
            seed=spec["seed"],
            **fixed,
        )
        for kappa, n_b, pi in itertools.product(
            listify("kappa"), listify("n_b"), listify("pi")
        )
    ]


def write_results_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        write_rows_csv(fh, [row for result in results for row in result.csv_rows()])
