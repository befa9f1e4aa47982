"""Monte Carlo type-I-error study for the one-sample log-rank procedures.

Seven procedures run on each replicate: the OSLR test against the known true
curve (w = 0 and w = 0.5), against a Weibull curve fitted to the control arm
without correction (w = 0 and w = 0.5), the corrected test (w = 0 and
w = 0.5), and a two-sample log-rank comparator. Replicates draw from
counter-based RNG streams keyed by (seed, replicate index), so results are
bit-identical across runs and across worker counts.

The unit of work is a block of replicates held as (R, n) arrays, one
replicate per row: the block is drawn, fitted (one ``_kernels.fit_weibull``
call, Newton on the profile likelihood in the shape from shape 1, that
carries only its unfinished rows; the sums of a row's last pass also give
its information's three entries in log-parameters, and V2 follows from them
elementwise), tested against both reference curves at arm B's largest time,
which caps none, over its log-times taken once (the expected events alone
for the true curve, one fused pass with the hazard gradient for the fitted
curve; all six one-sample z-values follow from them arithmetically) and
compared two-sample (one in-place sort per row of integer keys that carry
each subject's time, arm and event) at once. A row's z-values do not depend
on the other rows of its block, so the counts are the same for any chunking
and worker count.

With N workers a cell's replicates split into N equal contiguous shares.
Where ``os.fork`` exists (POSIX), N - 1 share workers compute shares 1..N-1
and send their counts back through a pipe while the calling process computes
share 0; elsewhere the shares run one after another in the calling process.
Each share runs as the fewest near-equal blocks that fit the block size.

The share workers persist: a process forks them on its first call that
needs them, and more only when a later call asks for more, so later calls
pay no fork, no reap and no copy-on-write faults on either side. Each worker
reads (scenario, start, stop) commands from its own pipe and ends at EOF.
The pool belongs to the process that forked it: a forked child of the owner
closes its inherited pipe ends at the fork and starts its own pool, and
every worker closes those of the workers forked before it, so each sees EOF
once its owner is gone, even if the owner was killed. On any failure in a
call (a share's exception, a worker ending without a result, the caller's
own exception or interrupt) every worker is killed and reaped and the pool
emptied. At interpreter exit an atexit hook closes the pipes and reaps the
workers. Calls from several threads take turns with the pool.

A scenario holds at most MAX_OBSERVATIONS observations per replicate
(n_A + n_B): a block's working arrays, its uniforms included, peak at
52-57 bytes per observation (tracemalloc at kappa = 1 over blocks at
n_B = 50 and 10,000, and over one replicate at that bound, where the peak
is about 57 MB).
"""

from __future__ import annotations

import atexit
import csv
import itertools
import json
import math
import numbers
import os
import pickle
import sys
import threading
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import _kernels
from .data import Cohort
from .errors import UsageError
from .families import WEIBULL
from .fitting import GRAD_TOL, MAX_ITER, _pinv_2x2
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

# a block of R replicates holds at most this many observations, R * (n_a + n_b);
# this bounds its working memory, ~55 bytes per observation, to ~3.5 MB, about
# one core's L2 cache
_BLOCK_ELEMENTS = 2**16

# largest n_a + n_b of one replicate that a Scenario admits
MAX_OBSERVATIONS = 1_000_000

# closed range of each real Scenario field. Below kappa = 0.05 the smallest
# event times, sigma (-log u)^(1/kappa) at u = 1 - 2^-53, underflow to zero;
# far above 100 they all collapse onto sigma. Below alpha = 2^-52 the critical
# value's 1 - alpha / 2 rounds to 1. Censoring times stay positive and finite.
RANGES = {
    "kappa": (0.05, 100.0),
    "pi": (math.ulp(0.0), sys.float_info.max),
    "alpha": (2.0**-52, 1.0 - 2.0**-53),
    "accrual_years": (1e-6, 1e6),
    "followup_years": (0.0, 1e6),
}

# columns of the flat results CSV, one row per procedure and sidedness
CSV_FIELDS = ("kappa", "n_b", "pi", "procedure", "sided", "rate", "lo", "hi", "n_eff")


@dataclass(frozen=True)
class Scenario:
    """One simulation cell under the null of equal event-time laws.

    n_b, replicates and seed must be integers (not bools), the other fields
    real numbers within their RANGES; they are stored as int and float. A
    replicate holds n_a + n_b observations, at most MAX_OBSERVATIONS (10^6);
    larger cells are refused before anything is allocated.
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
        for name, (lo, hi) in RANGES.items():
            value = getattr(self, name)
            # refuses nan, inf and, without overflowing, an int past float range
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not lo <= value <= hi
            ):
                raise UsageError(f"{name} must be a number in [{lo}, {hi}], got {value!r}")
            object.__setattr__(self, name, float(value))
        if not 1 <= self.n_b <= MAX_OBSERVATIONS or self.replicates < 1:
            raise UsageError(f"n_b must be in [1, {MAX_OBSERVATIONS}], replicates at least 1")
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
        keys = ("accrual_years", "followup_years", "kappa", "n_b", "pi", "replicates", "seed")
        return {key: getattr(self, key) for key in (*keys, "alpha")}


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
    state holds its words as Python ints, not the uint64 arrays the getter
    returns: the setter reads each word by index, which on an array makes a
    NumPy scalar per word (2.4 against 1.1 us per reset on an x86-64 host).
    The key's second word is rewritten in place; the setter copies the
    words.
    """
    bit_generator = np.random.Philox(key=_stream_key(seed, 0))
    fresh = bit_generator.state  # counter 0, empty buffer
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]  # [seed, index]
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


def _observe(scenario: Scenario, u_event, u_censor, times=None, events=None):
    """Observed times and 0/1 event flags from uniforms: Weibull event times
    by inversion, t = sigma (-log u)^(1/kappa), and censoring times
    c = followup + accrual * u, uniform on [followup, accrual + followup].
    Written into ``times`` and ``events`` (float64, say views of a block's
    pooled arrays) when given; the uniforms are left as they are."""
    with np.errstate(divide="ignore"):
        t = scenario.sigma * (-np.log(u_event)) ** (1.0 / scenario.kappa)
    c = scenario.followup_years + scenario.accrual_years * u_censor
    if events is None:
        events = np.empty(t.shape)
    np.less_equal(t, c, out=events)
    return np.minimum(t, c, out=times), events


def generate_cohort(scenario: Scenario, group: str, rng: np.random.Generator) -> Cohort:
    """Draw one arm of n subjects from ``rng``: n event-time uniforms, then n
    censoring uniforms (see ``_observe``)."""
    if group not in ("A", "B"):
        raise UsageError(f"group must be 'A' or 'B', got {group!r}")
    n = scenario.n_a if group == "A" else scenario.n_b
    times, events = _observe(scenario, rng.random(n), rng.random(n))
    return Cohort(times, events, group)


def _z_or_nan(m, total):
    """m / sqrt(total) where total > 0; NaN (not evaluated) elsewhere."""
    z = np.full(m.shape, np.nan)
    ok = total > 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf: NaN, not evaluated
        z[ok] = m[ok] / np.sqrt(total[ok])
    return z


def _block_z(scenario: Scenario, u: np.ndarray) -> np.ndarray:
    """z-values of the seven procedures, (R, 7), for a block of replicates.

    Row i of ``u`` holds replicate i's 2 n_a + 2 n_b uniforms in the order
    two ``generate_cohort`` calls draw them (arm A, then arm B). A z is NaN
    where its procedure is not evaluated: a failed fit, or a test whose
    variance is not positive.

    Each array is dropped once its last use is past, so that the block's
    working memory peaks at ~55 bytes per observation, the uniforms
    included; ``u`` is read, never written.
    """
    n_a, n_b = scenario.n_a, scenario.n_b
    n_rows = u.shape[0]
    # the pooled arrays, arm A in the first n_a columns; each arm's are views
    times, events = np.empty((2, n_rows, n_a + n_b))
    times_a, times_b = times[:, :n_a], times[:, n_a:]
    events_a, events_b = events[:, :n_a], events[:, n_a:]
    _observe(scenario, u[:, :n_a], u[:, n_a : 2 * n_a], times_a, events_a)
    _observe(scenario, u[:, 2 * n_a : 2 * n_a + n_b], u[:, 2 * n_a + n_b :], times_b, events_b)
    del u  # frees a caller's temporary: the uniforms are the block's largest array
    if not (times.min() > 0.0 and times.max() < np.inf):  # NaN fails both
        raise ValueError("times must be finite and positive")
    # each procedure's statistic and its variance, NaN where not evaluated
    m = np.full((n_rows, _N_PROC), np.nan)
    var = np.full((n_rows, _N_PROC), np.nan)
    w = np.array([0.0, 0.5])
    # the analysis time of every one-sample test: arm B's largest time, which
    # caps no time and observes every event
    n_events, log_b = events_b.sum(axis=1)[:, None], np.log(times_b)

    # the true curve's tests need no hazard gradient
    kappa, sigma = np.full(n_rows, scenario.kappa), np.full(n_rows, scenario.sigma)
    expected = _kernels.expected_events(WEIBULL.code, kappa, sigma, times_b, log_b)
    m[:, :2], var[:, :2] = _compensated_and_v1(n_events, expected[:, None], n_b, w)

    # rows without events have no fit; the information comes with the fit
    fitted = np.flatnonzero(events_a.sum(axis=1) > 0)
    arm_a = [v[fitted] if fitted.size < n_rows else v for v in (np.log(times_a), events_a)]
    a, b, _, _, status, (_, *info) = _kernels.fit_weibull(*arm_a, GRAD_TOL, MAX_ITER)
    del arm_a
    ok = status == _kernels.FIT_OK
    fitted, a, b, *info = (v[ok] for v in (fitted, a, b, *info))
    if fitted.size < n_rows:
        times_b, log_b, n_events = times_b[fitted], log_b[fitted], n_events[fitted]
    else:
        fitted = slice(None)  # every row: no copies
    # a converged fit of extreme shape can overflow the curve; its z is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        expected, g0, g1 = _kernels.oslr_components(WEIBULL.code, a, b, times_b, log_b)
        v2 = _v2(n_b / n_a, g0, g1, *_pinv_2x2(*info))
    del times_b, log_b
    m_fit, v1 = _compensated_and_v1(n_events, expected[:, None], n_b, w)
    m[fitted, 2:6] = m_fit
    var[fitted, 2:4] = v1
    var[fitted, 4:6] = v1 + v2[:, None]

    m[:, 6], var[:, 6] = _two_sample_scores(times, events, n_a)
    return _z_or_nan(m, var)


def _tally(z: np.ndarray, crit: float) -> np.ndarray:
    """Rows (evaluated, two-sided rejections, one-sided rejections), each
    per procedure and summed over the rows of a (R, 7) z block, at the
    critical value ``crit`` on |z|."""
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
    z = _block_z(scenario, rng.random(2 * (scenario.n_a + scenario.n_b))[None])
    return tuple(_tally(z, critical_value(scenario.alpha)))


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
                interval = mc_error_interval(rate, n) if n else (math.nan, math.nan)
                row[f"{sided}_sided_interval"] = list(interval)
            procs[name] = row
        return {"scenario": self.scenario.to_json_dict(), "procedures": procs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def record_rows(record: dict) -> list[dict]:
    """CSV rows, one per procedure and sidedness, from a result's JSON record
    (``SimulationResult.to_json_dict()`` or a record read back from disk).
    Raises TypeError unless n_b and n_eff are integers and the rest numbers."""
    s = record["scenario"]
    rows = []
    for name, stats in record["procedures"].items():
        for sided in ("two", "one"):
            lo, hi = stats[f"{sided}_sided_interval"]
            values = (s["kappa"], s["n_b"], s["pi"], name, sided, stats[f"{sided}_sided_rate"])
            rows.append(dict(zip(CSV_FIELDS, (*values, lo, hi, stats["n_evaluated"]))))
    for row in rows:
        for key in ("kappa", "n_b", "pi", "rate", "lo", "hi", "n_eff"):
            kind = numbers.Integral if key in ("n_b", "n_eff") else numbers.Real
            if isinstance(row[key], bool) or not isinstance(row[key], kind):
                raise TypeError(f"{key} must be {kind.__name__}, got {row[key]!r}")
    return rows


def write_rows_csv(fh, rows) -> None:
    """Header plus rows, in CSV_FIELDS order, to an open text file."""
    writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerows(rows)


def mc_error_interval(p: float, n: int):
    """Binomial 95% Monte Carlo error interval p +- z * sqrt(p(1-p)/n),
    z the normal 0.975 quantile, clipped to [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"rate must be in [0, 1], got {p}")
    if n < 1:
        raise UsageError(f"replicate count must be at least 1, got {n}")
    half = normal_quantile(0.975) * math.sqrt(p * (1.0 - p) / n)
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
    crit = critical_value(scenario.alpha)
    for first, last in zip(bounds, bounds[1:]):
        counts += _tally(_block_z(scenario, _uniforms(scenario, first, last)), crit)
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


class _ShareWorker:
    """A forked process that computes shares on request (``_serve_shares``):
    its pid, None once reaped, and this process's ends of its pipes."""

    def __init__(self):
        commands_r, commands_w = os.pipe()
        results_r, results_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (commands_r, commands_w, results_r, results_w):
                os.close(fd)
            raise
        if pid == 0:
            os.close(commands_w)
            os.close(results_r)
            _serve_shares(commands_r, results_w)
        os.close(commands_r)
        os.close(results_w)
        self.pid = pid
        # unbuffered: a forked copy that closes it has nothing to flush
        self.commands = open(commands_w, "wb", buffering=0)
        self.results = open(results_r, "rb")

    def send(self, scenario: Scenario, start: int, stop: int) -> None:
        # one write: the pickled command is far below the pipe's atomic size
        try:
            self.commands.write(pickle.dumps((scenario, start, stop)))
        except BrokenPipeError:
            pass  # the worker has ended; reading its result says how

    def result(self) -> np.ndarray:
        """Counts of the share last sent, or its exception raised here. A
        worker that ends without a result is reaped for its wait status."""
        try:
            counts, exc, trace = pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            pid, self.pid = self.pid, None
            _, status = os.waitpid(pid, 0)
            raise RuntimeError(
                f"share process {pid} ended without a result (wait status {status})"
            ) from None
        if counts is not None:
            return counts
        failure = RuntimeError(f"share process {self.pid} failed:\n{trace}")
        if exc is None:
            raise failure
        raise exc from failure

    def close_pipes(self) -> None:
        self.commands.close()
        self.results.close()


def _serve_shares(commands_fd: int, results_fd: int):
    """Body of a share worker: for each pickled (scenario, start, stop) read
    from ``commands_fd``, pickle (counts, None, None) of replicates
    start..stop-1, or (None, exception, traceback text) when they raise, into
    ``results_fd``; end the process at EOF on the commands.

    It never returns into the caller's stack: ``os._exit`` runs no atexit
    handler and flushes no stdio buffer inherited from the owner. Exit code
    0 means it ended at EOF. It ignores SIGINT, which a terminal sends to the
    whole process group: an interrupt is the owner's to handle, and an idle
    worker must outlive one.
    """
    code = 1
    try:
        import signal  # here and in _close_pool: ~1 ms of import no other path needs

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(commands_fd, "rb") as commands, open(results_fd, "wb") as results:
            while True:
                try:
                    scenario, start, stop = pickle.load(commands)
                except EOFError:
                    break
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
                results.write(payload)
                results.flush()
        code = 0
    finally:
        os._exit(code)


# the share workers this process forked, oldest first, and the lock that
# gives one call at a time the use of them
_pool: list[_ShareWorker] = []
_pool_lock = threading.Lock()


def _close_pool(kill: bool = False) -> None:
    """Reap every worker and empty the pool: closing a worker's commands
    ends it at EOF, or, with ``kill``, SIGKILL ends it mid-share."""
    for worker in _pool:
        worker.close_pipes()
        if kill and worker.pid is not None:
            import signal

            os.kill(worker.pid, signal.SIGKILL)
    for worker in _pool:
        if worker.pid is not None:
            os.waitpid(worker.pid, 0)
    _pool.clear()


def _forget_pool() -> None:
    """In a forked child, which owns none of its parent's workers: close the
    inherited pipe ends, so each worker still sees EOF when its owner ends,
    and start with no pool and a free lock."""
    global _pool_lock
    for worker in _pool:
        worker.close_pipes()
    _pool.clear()
    _pool_lock = threading.Lock()


atexit.register(_close_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _forked_counts(scenario: Scenario, bounds: list[int]) -> np.ndarray:
    """Counts of the shares bounds[i]..bounds[i+1]-1: the pool's workers
    compute the shares past the first, forked on the first call that needs
    them, while this process computes the first. On any failure here, an
    interrupt included, every worker is killed and reaped and the pool
    emptied; the next call forks afresh."""
    shares = list(zip(bounds[1:-1], bounds[2:]))
    with _pool_lock:
        try:
            while len(_pool) < len(shares):
                _pool.append(_ShareWorker())
            for worker, (first, last) in zip(_pool, shares):
                worker.send(scenario, first, last)
            counts = _chunk_counts(scenario, bounds[0], bounds[1])
            for worker, _ in zip(_pool, shares):
                counts += worker.result()
            return counts
        except BaseException:
            _close_pool(kill=True)
            raise


def run_scenario(scenario: Scenario, workers: int | None = None) -> SimulationResult:
    """Aggregate all replicates of one cell; independent of worker count.

    With k workers the replicates split into k equal contiguous shares: k - 1
    share workers take shares 1..k-1 while the calling process computes
    share 0, then the integer counts add up. The workers are forked on the
    first call that needs them and kept for later calls; a forked copy of
    this process starts its own. A failure kills and reaps them all, and the
    next call forks afresh; at exit they are closed and reaped. Without
    ``os.fork`` the cell runs in the calling process, with the same counts.
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


def read_json(path):
    """The JSON document in a file. Text that does not decode or parse,
    including an integer literal past Python's int string limit (a plain
    ValueError, not a JSONDecodeError), raises UsageError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: not a readable JSON document ({exc})") from exc


def load_scenarios(source) -> list[Scenario]:
    """Expand a scenario dict or JSON file into cells.

    kappa, n_b and pi may be non-empty lists; the grid is their cartesian
    product.
    """
    spec = read_json(source) if isinstance(source, (str, os.PathLike)) else dict(source)
    if not isinstance(spec, dict):
        raise UsageError("scenario file must hold a JSON object")
    known = {f.name: f for f in fields(Scenario)}
    unknown = set(spec) - set(known)
    if unknown:
        raise UsageError(f"unknown scenario keys: {sorted(unknown)}")
    missing = {name for name, f in known.items() if f.default is MISSING} - set(spec)
    if missing:
        raise UsageError(f"scenario is missing keys: {sorted(missing)}")

    def listify(key):
        value = spec[key]
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        if not values:
            raise UsageError(f"scenario {key} is an empty list: the grid has no cells")
        return values

    grid = ("kappa", "n_b", "pi")
    fixed = {key: value for key, value in spec.items() if key not in grid}
    # Scenario checks each value's type and range; nothing is converted here
    return [
        Scenario(kappa=kappa, n_b=n_b, pi=pi, **fixed)
        for kappa, n_b, pi in itertools.product(*map(listify, grid))
    ]
