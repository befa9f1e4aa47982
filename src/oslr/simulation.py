"""Monte Carlo type-I-error study for the one-sample log-rank procedures.

Seven procedures run on each replicate: the OSLR test against the known true
curve (w = 0 and w = 0.5), against a Weibull curve fitted to the control arm
without correction (w = 0 and w = 0.5), the corrected test (w = 0 and
w = 0.5), and a two-sample log-rank comparator. Replicates draw from
counter-based RNG streams keyed by (seed, replicate index), so results are
bit-identical across runs and across worker counts.

The unit of work is a block of replicates held as (R, n) arrays, one
replicate per row, run as stages in turn: draw (``_uniforms``), observe
(``_observe_block``), fit (``_kernels.fit_weibull``, Newton on the profile
likelihood in the shape from shape 1, carrying only its unfinished rows; a
row's last pass also gives its information in log-parameters, and V2 follows
elementwise), one-sample tests (``_one_sample_tests``, both reference curves
at arm B's largest time, which caps none, over its log-times taken once: the
expected events alone for the true curve, one fused pass with the hazard
gradient for the fitted curve), two-sample (``_two_sample_scores``, one
in-place sort per row of integer keys that carry each subject's time, arm and
event) and tally (``_tally``). A row's z-values do not depend on the other
rows of its block, so the counts are the same for any chunking and workers.

With N workers a cell of 4 or more replicates splits into min(N, replicates)
equal contiguous shares, each run as the fewest near-equal blocks that fit
the block size. Where ``os.fork`` exists (POSIX), share workers compute shares
1.. and send their counts back through a pipe while the calling process
computes share 0; elsewhere, and for a smaller cell, it computes all of them.

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
(n_A + n_B). A block's working arrays, its uniforms included, peak at 49-62
bytes per observation for n_B from 10 to 10,000 (tracemalloc at kappa = 1,
pi from 1/16 to 2, blocks of half to full size), at 56 MB for one replicate
at that bound, and higher below n_B = 10, where the per-replicate arrays
weigh more: 57-75 bytes per observation at n_B = 5 and up to 164 at n_B = 1
(10.3 MiB for a full block). Importing this module raises glibc's malloc
thresholds once (see the comment at MAX_OBSERVATIONS), so the engine's
process keeps freed block memory in its heap, up to twice the one-time size
(~62 MiB), instead of returning it to the system between blocks; with an
allocator other than glibc's nothing changes. It then runs one throwaway
block with its critical value (at the end of the module), so that numpy's
lasting allocations and the modules a cell loads, ``statistics`` among them,
lie below that heap: the first cell imports no module. Before a process's
first block of a new largest size (up to a full block), ``_touch_heap``
writes one word per page of enough heap top for that block and one more
array, so a second block does not fault fresh pages in when numpy's kept
small buffers from the first one sit among its arrays.

From the rest of the package the engine imports only ``_kernels``, which
holds the formulas it shares with the analysis API, ``errors`` and
``results``; ``generate_cohort`` loads ``data`` when first called.
"""

from __future__ import annotations

import atexit
import itertools
import math
import numbers
import os
import pickle
import sys
import threading
from dataclasses import MISSING, dataclass, fields

import numpy as np

# numpy loads numpy.random on first use; loaded here, its lasting allocations
# lie below the heap the blocks use, not between the first block's arrays,
# where they would split the holes that later blocks reuse
from numpy.random import Generator, Philox

from . import _kernels
from ._kernels import (
    GRAD_TOL,
    MAX_ITER,
    _ALPHA_RANGE,
    _compensated_and_v1,
    _pinv_2x2,
    _two_sample_scores,
    _v2,
    critical_value,
)
from .errors import UsageError
from .results import PROCEDURES, SimulationResult, read_json

_N_PROC = len(PROCEDURES)

# a block of R replicates holds at most this many observations, R * (n_a + n_b),
# unless one replicate holds more; a full block peaks at 2.6-3.8 MiB of working
# memory for n_b >= 10 and at up to 10.3 MiB below that (module docstring)
_BLOCK_ELEMENTS = 2**16

# largest n_a + n_b of one replicate that a Scenario admits
MAX_OBSERVATIONS = 1_000_000

# Keep block memory in the heap. glibc's malloc maps each request above its
# mmap threshold (128 KiB at start) afresh and trims freed heap above its trim
# threshold, so each block would fault its pages back in. Freeing a mapped
# chunk raises the mmap threshold to that chunk's size (on 64-bit, up to
# 32 MiB) and the trim threshold to twice that (mallopt(3)). After this
# untouched 31 MiB array is freed, every block up to MAX_OBSERVATIONS (largest
# array 16 MB, working memory 56 MB) stays in the heap, and forked share
# workers inherit the thresholds. With any other allocator it is a no-op.
np.empty(31 << 17)

# closed range of each real Scenario field. Below kappa = 0.05 the smallest
# event times, sigma (-log u)^(1/kappa) at u = 1 - 2^-53, underflow to zero;
# far above 100 they all collapse onto sigma. Censoring times stay positive and finite.
RANGES = {
    "kappa": (0.05, 100.0),
    "pi": (math.ulp(0.0), sys.float_info.max),
    "alpha": _ALPHA_RANGE,
    "accrual_years": (1e-6, 1e6),
    "followup_years": (0.0, 1e6),
}


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
        """Arm A's size, max(1, round(n_b / pi)); round() takes a half to
        the even integer, so at pi = 2 n_b = 1, 3, 5, 7 give 1, 2, 2, 4."""
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


def replicate_rng(seed: int, index: int) -> Generator:
    """Counter-based stream for one replicate; scheduling cannot reorder it."""
    return Generator(Philox(key=_stream_key(seed, index)))


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
    bit_generator = Philox(key=_stream_key(seed, 0))
    fresh = bit_generator.state  # counter 0, empty buffer
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]  # [seed, index]
    rng = Generator(bit_generator)
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


def generate_cohort(scenario: Scenario, group: str, rng: Generator) -> Cohort:
    """Draw one arm of n subjects from ``rng``: n event-time uniforms, then n
    censoring uniforms (see ``_observe``)."""
    from .data import Cohort  # here, so that the engine's import loads no analysis module

    if group not in ("A", "B"):
        raise UsageError(f"group must be 'A' or 'B', got {group!r}")
    n = scenario.n_a if group == "A" else scenario.n_b
    times, events = _observe(scenario, rng.random(n), rng.random(n))
    return Cohort(times, events, group)


def _observe_block(scenario: Scenario, u: np.ndarray):
    """Pooled (R, n_a + n_b) times and events, arm A in the first n_a columns,
    from a block's uniforms; refuses times not finite and positive."""
    n_a, n_b = scenario.n_a, scenario.n_b
    times, events = np.empty((2, u.shape[0], n_a + n_b))
    _observe(scenario, u[:, :n_a], u[:, n_a : 2 * n_a], times[:, :n_a], events[:, :n_a])
    _observe(scenario, u[:, -2 * n_b : -n_b], u[:, -n_b:], times[:, n_a:], events[:, n_a:])
    if not (times.min() > 0.0 and times.max() < np.inf):  # NaN fails both
        raise ValueError("times must be finite and positive")
    return times, events


def _one_sample_tests(scenario: Scenario, times_b, events_b, fit):
    """M and V, each (R, 6), of arm B's tests against the true curve, then
    against each row's own fit (``_kernels.fit_weibull``'s output)
    uncorrected and corrected, each at w = 0 and 0.5; a failed fit's V is
    NaN. The analysis time is arm B's largest time, which caps none."""
    n_rows, n_b = times_b.shape
    w = np.array([0.0, 0.5])
    n_events, log_b = events_b.sum(axis=1)[:, None], np.log(times_b)

    # the true curve's tests need no hazard gradient
    kappa, sigma = np.full(n_rows, scenario.kappa), np.full(n_rows, scenario.sigma)
    expected = _kernels.expected_events(_kernels.WEIBULL, kappa, sigma, times_b, log_b)
    m_true, v_true = _compensated_and_v1(n_events, expected[:, None], n_b, w)

    # every row is tested against its own fit: a failed fit's last iterate,
    # or a converged fit of extreme shape, can overflow the curve
    a, b, _, _, status, (_, *info) = fit
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        expected, g0, g1 = _kernels.oslr_components(_kernels.WEIBULL, a, b, times_b, log_b)
        v2 = _v2(n_b / scenario.n_a, g0, g1, *_pinv_2x2(*info))
        m_fit, v1 = _compensated_and_v1(n_events, expected[:, None], n_b, w)
        var = np.hstack((v_true, v1, v1 + v2[:, None]))
    var[status != _kernels.FIT_OK, 2:] = np.nan  # a failed fit: not evaluated
    return np.hstack((m_true, m_true, m_fit, m_fit, m_fit, m_fit)), var


def _block_z(scenario: Scenario, u: np.ndarray) -> np.ndarray:
    """z-values of the seven procedures, (R, 7), for a block of replicates.

    Row i of ``u`` holds replicate i's 2 n_a + 2 n_b uniforms in the order
    two ``generate_cohort`` calls draw them (arm A, then arm B); ``u`` is
    read, never written. A z is NaN where its procedure is not evaluated:
    a failed fit, masked in its row, or a test whose variance is not positive.

    Its stages run in turn, each called by name and freeing its arrays as it
    returns: ``_observe_block``, ``_kernels.fit_weibull``,
    ``_one_sample_tests`` and ``_two_sample_scores``. With the uniforms,
    which go once observed if the caller passes a temporary, a block peaks
    near 50 bytes per observation on long rows (module docstring).
    """
    n_a = scenario.n_a
    times, events = _observe_block(scenario, u)
    del u  # frees a caller's temporary: the uniforms are the block's largest array
    # the information comes with the fit; a row without events ends FIT_BOUNDARY
    fit = _kernels.fit_weibull(np.log(times[:, :n_a]), events[:, :n_a], GRAD_TOL, MAX_ITER)
    one_sample = _one_sample_tests(scenario, times[:, n_a:], events[:, n_a:], fit)
    # each procedure's statistic and its variance, (R, 7)
    m, var = map(np.column_stack, zip(one_sample, _two_sample_scores(times, events, n_a)))
    var[~(var > 0.0)] = np.nan  # NaN too, so that every z not evaluated has the same bits
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf: NaN, not evaluated
        m /= np.sqrt(var, out=var)  # z, in place: short rows peak here otherwise
    return m


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


# bytes of heap that _touch_heap has written in this process
_touched = 0


def _touch_heap(elements: int) -> None:
    """Write one word per 4 KiB page of 72 bytes per observation of a block
    of ``elements`` (capped at _BLOCK_ELEMENTS), unless as much is written
    already. numpy keeps its freed buffers under 1 KiB for reuse, so those a
    block allocates first stay where they land, which can be among its own
    arrays; the next block may then put one array (8 bytes per observation)
    above the first one's peak. Freed at once, the written memory joins the
    heap's top, which stays mapped below the trim threshold, so both blocks
    land on pages already in place (62 bytes per observation at most for
    n_B >= 10, module docstring)."""
    global _touched
    nbytes = 72 * min(elements, _BLOCK_ELEMENTS)
    if nbytes > _touched:
        np.empty(nbytes // 8)[::512] = 0.0
        _touched = nbytes


def _chunk_counts(scenario: Scenario, start: int, stop: int) -> np.ndarray:
    """Counts (see ``_tally``) of replicates start..stop-1, in the fewest
    blocks of near-equal size that hold at most _BLOCK_ELEMENTS each."""
    counts = np.zeros((3, _N_PROC), dtype=np.int64)
    m = stop - start
    blocks = math.ceil(m / max(1, _BLOCK_ELEMENTS // (scenario.n_a + scenario.n_b)))
    bounds = [start + m * j // blocks for j in range(blocks + 1)]
    crit = critical_value(scenario.alpha)
    _touch_heap((scenario.n_a + scenario.n_b) * math.ceil(m / blocks))
    for first, last in zip(bounds, bounds[1:]):
        counts += _tally(_block_z(scenario, _uniforms(scenario, first, last)), crit)
    return counts


def resolve_workers(requested: int | None = None) -> int:
    """Explicit argument, else the CPUs this process may run on: its
    affinity mask where the platform has one, else the CPU count."""
    if requested is not None:
        if requested < 1:
            raise UsageError(f"worker count must be at least 1, got {requested}")
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    With k workers, at most one per replicate, the replicates split into k
    equal contiguous shares: k - 1 share workers take shares 1..k-1 while
    the calling process computes share 0, then the integer counts add up. A
    cell of fewer than 4 replicates runs in the calling process at any k.
    Workers are forked on the first call that needs them and kept for later
    calls; a forked copy of this process starts its own. A failure kills and
    reaps them all, and the next call forks afresh; at exit they are closed
    and reaped. Without ``os.fork`` the calling process runs every share.
    """
    n = scenario.replicates
    k = min(resolve_workers(workers), n)
    if k == 1 or n < 4 or not hasattr(os, "fork"):
        counts = _chunk_counts(scenario, 0, n)
    else:
        counts = _forked_counts(scenario, [n * i // k for i in range(k + 1)])
    return SimulationResult(scenario, *counts)  # counts' rows as _tally orders them


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

# numpy's first reductions, np.where and unsafe-casting ufunc calls make ~20
# small allocations (~7 KB) that it keeps for good; made inside the first full
# block, they split the holes later blocks reuse, and the second block faults
# 512 KiB of fresh heap in. One throwaway block makes them here, below that
# heap. Its critical value loads statistics, which would otherwise load in the
# first cell, among its arrays.
_warm = Scenario(kappa=1.0, n_b=1, pi=1.0, replicates=1, seed=0)
_tally(_block_z(_warm, _uniforms(_warm, 0, 1)), critical_value(_warm.alpha))
del _warm
