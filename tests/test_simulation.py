"""Tests for the Monte Carlo type-I-error engine.

Oracles: cohort generation is checked against the closed-form Weibull law it
inverts (one-year survival 0.5, exponential mean at kappa=1, censoring
support); aggregation logic against hand-built count arrays; the error
interval against its printed reference values. Rate-level checks reuse the
session-scoped 10,000-replicate cells from conftest.
"""

import json
import math
import os
import pathlib
import platform
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oslr.errors import DegenerateTestError, FitError, RowValidationError, UsageError
from oslr.fitting import GRAD_TOL, MAX_ITER, fit_mle
from oslr import critical_value
from oslr.logrank import ReferenceCurve, oslr_test, two_sample_logrank
from oslr import _kernels, cli, simulation
from oslr.results import (
    PROCEDURES,
    SimulationResult,
    mc_error_interval,
    record_rows,
    write_rows_csv,
)
from oslr.simulation import (
    MAX_OBSERVATIONS,
    RANGES,
    Scenario,
    _block_z,
    _tally,
    _uniforms,
    generate_cohort,
    load_scenarios,
    replicate_rng,
    resolve_workers,
    run_scenario,
)

MASTER_SEED = 20260815


def _scenario(**kwargs):
    base = dict(kappa=1.0, n_b=50, pi=1.0, replicates=10, seed=MASTER_SEED)
    base.update(kwargs)
    return Scenario(**base)


def test_scenario_derived_quantities():
    s = _scenario(n_b=50, pi=0.0625)
    assert s.n_a == 800
    assert s.n_a >= 1
    # scale placing median survival at one year: Lambda(1) = ln2 * 1^kappa
    assert _scenario(kappa=1.0).sigma == pytest.approx(1.0 / math.log(2.0))
    assert _scenario(kappa=2.0).sigma == pytest.approx(math.log(2.0) ** -0.5)
    d = s.to_json_dict()
    assert set(d) == {
        "accrual_years",
        "followup_years",
        "kappa",
        "n_b",
        "pi",
        "replicates",
        "seed",
        "alpha",
    }


def test_scenario_n_a_rounds_half_to_even():
    """n_A = max(1, round(n_B / pi)), and round() takes a half to the even
    integer: at pi = 2 the odd n_B round down and up in turn."""
    assert [_scenario(n_b=n_b, pi=2.0).n_a for n_b in (1, 3, 5, 7, 9, 11)] == [1, 2, 2, 4, 4, 6]


def test_scenario_validation():
    for bad in (
        dict(kappa=0.0),
        dict(kappa=-1.0),
        dict(n_b=0),
        dict(pi=0.0),
        dict(replicates=0),
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(accrual_years=0.0),
        dict(seed=-1),
        dict(seed=2**64),
        # refused rather than rounded, reinterpreted or let through
        dict(n_b=5.0),
        dict(replicates=np.float64(3)),
        dict(seed=False),
        dict(kappa=True),
        dict(kappa="1.0"),
        dict(alpha=math.nan),
        dict(accrual_years=math.inf),
        # outside the documented ranges
        dict(kappa=0.049),
        dict(kappa=100.5),
        dict(kappa=10**400),  # an int past float range
        dict(alpha=1e-17),
        dict(accrual_years=1e-7),
        dict(followup_years=2e6),
    ):
        with pytest.raises(UsageError, match=next(iter(bad))):
            _scenario(**bad)
    assert _scenario(seed=2**64 - 1).seed == 2**64 - 1
    assert [_scenario(kappa=k).kappa for k in (0.05, 100)] == [0.05, 100.0]
    s = _scenario(kappa=1, n_b=np.int64(7), pi=np.float64(0.5))
    assert (type(s.kappa), type(s.n_b), type(s.pi)) == (float, int, float)


def test_scenario_bounds_observations_per_replicate():
    """pi = 1e-9 would ask for n_a = 5e9 observations per replicate (a
    74.5 GiB block); it is refused before anything is allocated."""
    with pytest.raises(UsageError, match="observations per replicate"):
        _scenario(n_b=5, pi=1e-9)
    with pytest.raises(UsageError, match="observations per replicate"):
        _scenario(n_b=5, pi=5e-324)  # n_b / pi overflows to inf
    with pytest.raises(UsageError, match="n_b must be in"):
        _scenario(n_b=10**400, pi=1.0)  # n_b / pi would raise OverflowError
    with pytest.raises(UsageError, match="observations per replicate"):
        _scenario(n_b=MAX_OBSERVATIONS // 2 + 1, pi=1.0)
    assert _scenario(n_b=MAX_OBSERVATIONS // 2, pi=1.0).n_a == MAX_OBSERVATIONS // 2
    assert _scenario(n_b=100000, pi=1.0).n_a == 100000  # tier-1's largest cell


def test_generate_cohort_one_year_survival():
    """kappa=1 draws have S(1) = 0.5; censoring starts at 3 so it cannot
    interfere below t=1."""
    s = _scenario(n_b=100000)
    cohort = generate_cohort(s, "B", replicate_rng(MASTER_SEED, 0))
    assert abs(np.mean(cohort.times > 1.0) - 0.5) <= 0.005


def test_generate_cohort_censoring_support():
    s = _scenario(kappa=0.5, n_b=5000)
    cohort = generate_cohort(s, "B", replicate_rng(MASTER_SEED, 1))
    censored = cohort.times[cohort.events == 0]
    assert censored.size > 0
    assert np.all(censored >= 3.0) and np.all(censored <= 5.0)


def test_generate_cohort_exponential_mean():
    """kappa=1 is exponential with rate ln2; with follow-up pushed far out
    every subject is an event and the sample mean approaches 1/ln2."""
    s = _scenario(n_b=100000, followup_years=1000.0)
    cohort = generate_cohort(s, "B", replicate_rng(MASTER_SEED, 2))
    assert int(cohort.n_events) == cohort.n
    assert np.mean(cohort.times) == pytest.approx(1.0 / math.log(2.0), abs=0.02)


def test_generate_cohort_group_sizes_and_validation():
    s = _scenario(n_b=20, pi=0.5)
    rng = replicate_rng(MASTER_SEED, 3)
    a = generate_cohort(s, "A", rng)
    b = generate_cohort(s, "B", rng)
    assert a.n == 40 and b.n == 20
    with pytest.raises(UsageError):
        generate_cohort(s, "C", rng)


def test_run_replicate_deterministic():
    s = _scenario(n_b=30)
    first = simulation._chunk_counts(s, 7, 8)
    second = simulation._chunk_counts(s, 7, 8)
    for x, y in zip(first, second):
        assert np.array_equal(x, y)
        assert x.shape == (len(PROCEDURES),)


def test_run_replicate_all_censored_arm():
    """If the single subject in each arm is censored, the Weibull fit has no
    events and the two-sample table has none either, so only the fixed-truth
    procedures stay evaluated (their expected-event count keeps V1 positive).
    """
    s = _scenario(n_b=1, pi=1.0)
    for index in range(5000):
        rng = replicate_rng(MASTER_SEED, index)
        a = generate_cohort(s, "A", rng)
        b = generate_cohort(s, "B", rng)
        if a.n_events == 0 and b.n_events == 0:
            break
    else:
        pytest.fail("no fully censored replicate found in 5000 streams")
    evaluated, rej_two, rej_one = simulation._chunk_counts(s, index, index + 1)
    assert evaluated.tolist() == [1, 1, 0, 0, 0, 0, 0]
    assert rej_two[2:].tolist() == [0, 0, 0, 0, 0]
    assert rej_one[2:].tolist() == [0, 0, 0, 0, 0]


_REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_reference_counts_reproduce():
    """A few seeds of each benchmark cell give exactly the counts the
    benchmark's oracle holds for them, at one worker."""
    cells = json.loads(_REFERENCE.read_text())["cells"]
    assert len(cells) == 4
    for key, by_seed in cells.items():
        cell = {k: float(v) for k, v in (kv.split("=") for kv in key.split(","))}
        for seed in ("0", "255", "20260815"):
            result = run_scenario(
                Scenario(
                    kappa=cell["kappa"],
                    n_b=int(cell["n_b"]),
                    pi=cell["pi"],
                    replicates=int(cell["replicates"]),
                    seed=int(seed),
                ),
                workers=1,
            )
            counts = np.concatenate(
                (result.evaluated, result.rejected_two, result.rejected_one)
            )
            assert counts.tolist() == by_seed[seed], (key, seed)


_SEED77 = pathlib.Path(__file__).resolve().parent / "seed77_counts.json"


@pytest.mark.parametrize("workers", [1, 2])
def test_seed77_grid_counts_reproduce(workers):
    """Every cell of the seed-77 design (kappa from 0.05 to 100, n_B from 5
    to 50, pi from 1/16 to 2, 1,000 replicates each) gives exactly its
    committed counts, at one worker and at two. At kappa = 0.05, n_B = 5
    some arm A rows hold no event, and their fits fail."""
    pinned = json.loads(_SEED77.read_text())
    scenarios = load_scenarios(pinned["scenario"])
    assert len(scenarios) == len(pinned["cells"]) == 45
    for s in scenarios:
        result = run_scenario(s, workers=workers)
        counts = np.concatenate((result.evaluated, result.rejected_two, result.rejected_one))
        assert counts.tolist() == pinned["cells"][f"kappa={s.kappa},n_b={s.n_b},pi={s.pi}"], s


def test_seed77_counts_reproduce_at_numpy_baseline_simd():
    """The seed-77 design's 15 n_B = 5 cells (every kappa and pi, the failed
    fits at kappa = 0.05 among them) give their committed counts with every
    SIMD target that numpy dispatches to above its baseline disabled
    (NPY_DISABLE_CPU_FEATURES, read when numpy loads, so in a fresh
    interpreter). z-values differ in their last bits between dispatch
    levels; the counts must not."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__ as dispatch
    except ImportError:
        dispatch = []
    if not dispatch:
        pytest.skip("numpy dispatches to no SIMD target above its baseline")
    pinned = json.loads(_SEED77.read_text())
    code = (
        "import json, sys\n"
        "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
        "from oslr.simulation import load_scenarios, run_scenario\n"
        "counts = {}\n"
        "for s in load_scenarios(json.loads(sys.argv[1])):\n"
        "    r = run_scenario(s, workers=1)\n"
        "    key = f'kappa={s.kappa},n_b={s.n_b},pi={s.pi}'\n"
        "    counts[key] = [*r.evaluated.tolist(), *r.rejected_two.tolist(),\n"
        "                   *r.rejected_one.tolist()]\n"
        "enabled = [name for name in __cpu_dispatch__ if __cpu_features__[name]]\n"
        "print(json.dumps({'enabled': enabled, 'counts': counts}))\n"
    )
    src = str(pathlib.Path(simulation.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)}
    spec = json.dumps({**pinned["scenario"], "n_b": 5})
    out = subprocess.run(
        [sys.executable, "-c", code, spec], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["enabled"] == []
    assert len(got["counts"]) == 15
    for key, counts in got["counts"].items():
        assert counts == pinned["cells"][key], key


def test_run_scenario_worker_invariance():
    s = _scenario(n_b=10, replicates=200)
    serial = run_scenario(s, workers=1)
    parallel = run_scenario(s, workers=3)
    assert np.array_equal(serial.evaluated, parallel.evaluated)
    assert np.array_equal(serial.rejected_two, parallel.rejected_two)
    assert np.array_equal(serial.rejected_one, parallel.rejected_one)


@pytest.mark.parametrize("replicates", [4, 5, 7, 200])
def test_run_scenario_worker_invariance_uneven_shares(replicates):
    """Counts equal the one-worker counts when the shares are uneven and
    when there are more workers than half the replicates."""
    s = _scenario(n_b=10, replicates=replicates)
    serial = run_scenario(s, workers=1)
    for workers in (2, 3, 5):
        parallel = run_scenario(s, workers=workers)
        for field in ("evaluated", "rejected_two", "rejected_one"):
            assert np.array_equal(getattr(serial, field), getattr(parallel, field)), (
                f"workers={workers} {field}"
            )


def _counting_fork(monkeypatch):
    """Record the pid of each child os.fork starts from now on."""
    real_fork = os.fork
    forked = []

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def test_pool_starts_one_process_fewer_than_workers(monkeypatch):
    """The calling process computes one share itself, so N workers keep
    N - 1 children; a cell with fewer replicates than workers needs one
    child fewer than it has replicates. A later call with the same or fewer
    workers forks none, and one with more forks only the difference."""
    simulation._close_pool()
    forked = _counting_fork(monkeypatch)
    started, kept = [], []
    for workers, replicates in ((2, 8), (2, 8), (3, 8), (2, 8), (5, 4), (5, 8), (1, 8)):
        before = len(forked)
        run_scenario(_scenario(n_b=5, replicates=replicates), workers=workers)
        started.append(len(forked) - before)
        kept.append(len(simulation._pool))
    assert started == [1, 0, 1, 0, 1, 1, 0]
    assert kept == [1, 1, 2, 2, 3, 4, 4]
    assert [worker.pid for worker in simulation._pool] == forked
    simulation._close_pool()
    _assert_no_children()


def test_second_pooled_call_forks_no_process(monkeypatch):
    s = _scenario(n_b=5, replicates=8)
    first = run_scenario(s, workers=2)
    forked = _counting_fork(monkeypatch)
    assert run_scenario(s, workers=2).to_json() == first.to_json()
    assert forked == []


def test_simulate_grid_forks_one_worker(monkeypatch, tmp_path):
    """Three cells at two workers share one forked worker."""
    grid = {"kappa": [0.5, 1.0, 2.0], "n_b": 5, "pi": 1.0, "replicates": 8, "seed": 3}
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(grid))
    argv = ["simulate", str(spec), "--workers", "2", "--out", str(tmp_path / "study")]
    simulation._close_pool()
    forked = _counting_fork(monkeypatch)
    try:
        assert cli.main(argv) == 0
    finally:
        simulation._close_pool()
    assert len(forked) == 1


def _running(pid):
    """Whether a process exists and is not a zombie."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("ending", ["exit", "sigkill"])
def test_workers_end_with_their_owner(ending):
    """No worker outlives its owner, whether the owner exits (the atexit
    hook reaps them) or is killed (each sees EOF on its commands)."""
    code = (
        "import sys, time\n"
        "from oslr import simulation\n"
        "s = simulation.Scenario(kappa=1.0, n_b=5, pi=1.0, replicates=8, seed=1)\n"
        "simulation.run_scenario(s, workers=3)\n"
        "print(*[w.pid for w in simulation._pool], flush=True)\n"
        f"time.sleep({60 if ending == 'sigkill' else 0})\n"
    )
    src = str(pathlib.Path(simulation.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    owner = subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(pids) == 2
        if ending == "sigkill":
            owner.kill()
        owner.wait(timeout=60)
    finally:
        owner.kill()
        owner.stdout.close()
    deadline = time.monotonic() + 30
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


def test_forked_copy_starts_its_own_pool():
    """A forked child of the owner does not use the owner's workers: it
    forks its own and gets the same counts."""
    s = _scenario(n_b=5, replicates=8)
    want = run_scenario(s, workers=2).to_json()
    owner_worker = simulation._pool[0].pid
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            got = run_scenario(s, workers=2).to_json()
            mine = simulation._pool[0].pid
            simulation._close_pool()
            with open(write_fd, "w") as out:
                json.dump([got, mine], out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with open(read_fd) as pipe:
        sent = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert status == 0
    got, child_worker = json.loads(sent)
    assert got == want
    assert child_worker not in (owner_worker, pid)
    assert simulation._pool[0].pid == owner_worker
    assert run_scenario(s, workers=2).to_json() == want


def test_idle_worker_outlives_an_interrupt(monkeypatch):
    """A terminal's Ctrl-C reaches every process of its group; an idle
    worker ignores it and serves the next call."""
    s = _scenario(n_b=5, replicates=8)
    want = run_scenario(s, workers=2).to_json()
    os.kill(simulation._pool[0].pid, signal.SIGINT)
    forked = _counting_fork(monkeypatch)
    assert run_scenario(s, workers=2).to_json() == want
    assert forked == []


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc")
def test_dead_idle_worker_is_reported_and_replaced():
    s = _scenario(n_b=5, replicates=8)
    want = run_scenario(s, workers=2).to_json()
    pid = simulation._pool[0].pid
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)  # dead, so the next command meets a closed pipe
    with pytest.raises(RuntimeError, match=r"ended without a result \(wait status 9\)"):
        run_scenario(s, workers=2)
    assert simulation._pool == []
    assert run_scenario(s, workers=2).to_json() == want


def test_threads_take_turns_with_the_pool():
    """Three threads run pooled cells at once, switching often; each gets
    its own cell's counts, which it would not if two calls shared a worker."""
    cells = [_scenario(n_b=5, replicates=12, seed=seed) for seed in (1, 2, 3)]
    want = [run_scenario(s, workers=1).to_json() for s in cells]
    run_scenario(cells[0], workers=3)  # fork before any thread starts
    got = [[] for _ in cells]

    def run(i):
        for _ in range(10):
            got[i].append(run_scenario(cells[i], workers=3).to_json())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cells))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[w] * 10 for w in want]


@pytest.fixture
def failing_shares(monkeypatch):
    """fail_shares(fail): make every share but the caller's (the one
    starting at 0) call fail(). The pool is emptied before each patch and
    after the test, so workers fork under the patch and none outlives it."""

    def fail_shares(fail):
        simulation._close_pool()
        real = simulation._chunk_counts

        def chunk_counts(scenario, start, stop):
            if start > 0:
                fail()
            return real(scenario, start, stop)

        monkeypatch.setattr(simulation, "_chunk_counts", chunk_counts)

    yield fail_shares
    simulation._close_pool()


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raiser(exc):
    def fail():
        raise exc

    return fail


def test_share_exception_propagates(failing_shares):
    failing_shares(_raiser(FitError("share broke")))
    with pytest.raises(FitError, match="share broke") as caught:
        run_scenario(_scenario(n_b=5, replicates=8), workers=3)
    assert "Traceback" in str(caught.value.__cause__)
    _assert_no_children()


def test_unpicklable_share_exception_carries_its_traceback(failing_shares):
    """An exception that cannot be pickled, or not unpickled, arrives as a
    RuntimeError holding the child's traceback."""

    class LocalError(Exception):
        pass  # a local class cannot be pickled

    for exc, shown in (
        (LocalError("no way back"), "LocalError: no way back"),
        # pickles as RowValidationError("row 3: bad"), which misses an argument
        (RowValidationError(3, "bad"), "RowValidationError: row 3: bad"),
    ):
        failing_shares(_raiser(exc))
        with pytest.raises(RuntimeError, match=shown):
            run_scenario(_scenario(n_b=5, replicates=8), workers=2)
    _assert_no_children()


def test_share_exiting_without_result_raises(failing_shares):
    failing_shares(lambda: os._exit(0))
    with pytest.raises(RuntimeError, match=r"ended without a result \(wait status 0\)"):
        run_scenario(_scenario(n_b=5, replicates=8), workers=2)
    failing_shares(lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="wait status 768"):
        run_scenario(_scenario(n_b=5, replicates=8), workers=2)
    _assert_no_children()


def test_caller_failure_kills_and_reaps_every_child(monkeypatch):
    """The children would sleep for a minute; the caller's own share fails
    at once, and the run returns without waiting for them."""
    real = simulation._chunk_counts

    def chunk_counts(scenario, start, stop):
        if start == 0:
            raise KeyboardInterrupt
        time.sleep(60)
        return real(scenario, start, stop)

    monkeypatch.setattr(simulation, "_chunk_counts", chunk_counts)
    begin = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_scenario(_scenario(n_b=5, replicates=8), workers=4)
    assert time.monotonic() - begin < 30
    _assert_no_children()


def test_counts_without_fork_match_one_worker(monkeypatch):
    s = _scenario(n_b=5, replicates=9)
    serial = run_scenario(s, workers=1)
    monkeypatch.delattr(os, "fork")
    unforked = run_scenario(s, workers=3)
    assert unforked.to_json() == serial.to_json()


def test_pooled_run_imports_no_executor():
    """A pooled run forks directly; it loads neither concurrent.futures nor
    multiprocessing."""
    code = (
        "import sys\n"
        "from oslr.simulation import Scenario, run_scenario\n"
        "s = Scenario(kappa=1.0, n_b=5, pi=1.0, replicates=8, seed=1)\n"
        "run_scenario(s, workers=2)\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    src = str(pathlib.Path(simulation.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


STREAM_SEEDS = [0, MASTER_SEED, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_uniforms_match_fresh_replicate_streams(seed):
    """Each row of a chunk, also one that starts past index 0, holds the
    first draws of its own replicate stream, and no state leaks from one
    call to the next."""
    s = _scenario(n_b=7, pi=0.5, seed=seed)
    width = 2 * (s.n_a + s.n_b)
    for start, stop in ((0, 6), (13, 20), (13, 20), (3, 4)):
        u = _uniforms(s, start, stop)
        assert u.shape == (stop - start, width)
        for row, index in zip(u, range(start, stop)):
            assert row.tobytes() == replicate_rng(seed, index).random(width).tobytes()


def test_replicate_streams_keep_high_seeds_apart():
    """Seeds of 2**63 and more key their own streams; none merges with a
    neighbouring seed."""
    draws = {
        replicate_rng(seed, 0).random(4).tobytes()
        for seed in (0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    }
    assert len(draws) == 6


def _single_cohort_z(scenario, index):
    """The seven z-values of one replicate from the single-cohort API:
    generate_cohort, fit_mle, oslr_test and two_sample_logrank; NaN where a
    procedure is not evaluated."""
    rng = replicate_rng(scenario.seed, index)
    cohort_a = generate_cohort(scenario, "A", rng)
    cohort_b = generate_cohort(scenario, "B", rng)
    z = np.full(len(PROCEDURES), np.nan)
    true_ref = ReferenceCurve.fixed("weibull", [scenario.kappa, scenario.sigma])
    try:
        fitted_ref = ReferenceCurve.from_fit(fit_mle("weibull", cohort_a))
    except FitError:
        fitted_ref = None
    runs = [
        (true_ref, 0.0, False),
        (true_ref, 0.5, False),
        (fitted_ref, 0.0, False),
        (fitted_ref, 0.5, False),
        (fitted_ref, 0.0, True),
        (fitted_ref, 0.5, True),
    ]
    for slot, (ref, w, corrected) in enumerate(runs):
        if ref is not None:
            try:
                z[slot] = oslr_test(ref, cohort_b, w=w, corrected=corrected).z
            except DegenerateTestError:
                pass
    try:
        z[6] = two_sample_logrank(cohort_a, cohort_b).z
    except DegenerateTestError:
        pass
    return z


ENGINE_CELLS = [
    (1.0, 50, 1.0),
    (2.0, 50, 0.5),
    (0.5, 50, 2.0),
    (1.0, 10, 1.0),
    # failed fits (no events, boundary) and curves that overflow
    (0.05, 5, 1.0),
    (100.0, 5, 2.0),
]


@pytest.mark.parametrize("kappa, n_b, pi", ENGINE_CELLS)
def test_block_engine_matches_single_cohort_api(kappa, n_b, pi):
    """Per replicate, the block engine's z-values and evaluated procedures
    equal those of the single-cohort API bit for bit: both routes run the
    same kernels and the same closed-form V2."""
    s = _scenario(kappa=kappa, n_b=n_b, pi=pi, replicates=300)
    engine = _block_z(s, _uniforms(s, 0, s.replicates))
    oracle = np.array([_single_cohort_z(s, i) for i in range(s.replicates)])
    assert np.array_equal(engine, oracle, equal_nan=True)


@st.composite
def _small_scenarios(draw):
    """A Scenario of 3 replicates with kappa log-uniform over its range,
    1 <= n_b <= 30, pi such that n_a <= 60, and any seed."""
    lo, hi = RANGES["kappa"]
    kappa = math.exp(draw(st.floats(math.log(lo), math.log(hi))))
    n_b = draw(st.integers(1, 30))
    pi = draw(st.floats(n_b / 60.0, 1e3))
    seed = draw(st.integers(0, 2**64 - 1))
    return Scenario(kappa=min(max(kappa, lo), hi), n_b=n_b, pi=pi, replicates=3, seed=seed)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_small_scenarios())
def test_block_engine_matches_single_cohort_api_across_ranges(s):
    """The bitwise equality of the two routes holds across small scenarios,
    not only on the fixed cells above."""
    engine = _block_z(s, _uniforms(s, 0, s.replicates))
    oracle = np.array([_single_cohort_z(s, i) for i in range(s.replicates)])
    assert np.array_equal(engine, oracle, equal_nan=True)


@pytest.mark.parametrize(
    "scenario",
    [
        Scenario(kappa=0.05, n_b=5, pi=1.0, replicates=1000, seed=77),
        Scenario(kappa=100.0, n_b=5, pi=2.0, replicates=60, seed=11),
    ],
)
def test_converged_weibull_fits_have_finite_information(scenario):
    """The engine computes V2 from fit_weibull's information entries with no
    finiteness check: every FIT_OK row's entries are finite, on cells where
    fits fail and fitted curves overflow."""
    n_a = scenario.n_a
    u = _uniforms(scenario, 0, scenario.replicates)
    times, events = simulation._observe(scenario, u[:, :n_a], u[:, n_a : 2 * n_a])
    rows = events.sum(axis=1) > 0
    fit = _kernels.fit_weibull(np.log(times[rows]), events[rows], GRAD_TOL, MAX_ITER)
    ok = fit[4] == _kernels.FIT_OK
    assert 0 < ok.sum()
    assert np.isfinite(np.array(fit[5][1:])[:, ok]).all()


@pytest.mark.parametrize("kappa, n_b, pi", ENGINE_CELLS)
def test_block_composition_invariance(kappa, n_b, pi):
    """Each row's z-values are bitwise the same in one block of R, in blocks
    of 1 and in blocks of 37: counts cannot depend on chunking or workers.
    No block writes into the uniforms it is given."""
    s = _scenario(kappa=kappa, n_b=n_b, pi=pi, replicates=300)
    u = _uniforms(s, 0, s.replicates)
    drawn = u.tobytes()
    whole = _block_z(s, u).tobytes()
    for size in (1, 37):
        parts = [_block_z(s, u[i : i + size]) for i in range(0, s.replicates, size)]
        assert np.concatenate(parts).tobytes() == whole, f"blocks of {size}"
    assert u.tobytes() == drawn


def _block_peak_bytes(s):
    """tracemalloc's peak over one block of all of ``s``'s replicates, from
    drawing its uniforms to tallying its z-values, above what was traced
    before."""
    crit = critical_value(s.alpha)
    _tally(_block_z(s, _uniforms(s, 0, s.replicates)), crit)  # any first-call set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _tally(_block_z(s, _uniforms(s, 0, s.replicates)), crit)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "n_b, pi, replicates",
    [
        pytest.param(50, 1.0, 200, id="50-200"),
        pytest.param(10_000, 1.0, 2, id="10000-2"),
        pytest.param(50, 0.0625, 40, id="50-40-pi0.0625"),
    ],
)
def test_block_working_memory_per_observation(n_b, pi, replicates):
    """A block's working arrays, its uniforms included, peak at no more than
    64 bytes per observation: the block size is set by that figure. At
    pi = 1/16 the Weibull fit of arm A's 800 columns sets the peak."""
    s = _scenario(n_b=n_b, pi=pi, replicates=replicates)
    peak = _block_peak_bytes(s)
    assert peak / (replicates * (s.n_a + s.n_b)) <= 64.0


def test_full_block_working_memory():
    """A block of _BLOCK_ELEMENTS observations, 100 per replicate, peaks at
    no more than 4 MiB."""
    s = _scenario(replicates=simulation._BLOCK_ELEMENTS // 100)
    assert _block_peak_bytes(s) <= 4 * 2**20


@pytest.mark.parametrize(
    "n_b, pi, bound",
    [
        pytest.param(1, 1.0, 180.0, id="1-pi1"),
        pytest.param(1, 2.0, 180.0, id="1-pi2"),
        pytest.param(5, 1.0, 73.0, id="5-pi1"),
        pytest.param(5, 2.0, 81.0, id="5-pi2"),
    ],
)
def test_full_block_working_memory_on_short_rows(n_b, pi, bound):
    """Below n_B = 10 a block's per-replicate arrays outweigh its (R, n)
    ones, so a full block peaks above the 64 bytes per observation of long
    rows; each stage's arrays go as it returns, which keeps it within 10% of
    its measured peak (164, 164, 66.5 and 74.4 bytes per observation). At
    n_B = 1, pi = 2 rounds n_A to 1, as at pi = 1."""
    n = _scenario(n_b=n_b, pi=pi).n_a + n_b
    s = _scenario(n_b=n_b, pi=pi, replicates=simulation._BLOCK_ELEMENTS // n)
    assert _block_peak_bytes(s) / (s.replicates * n) <= bound


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_full_block_keeps_its_memory_in_the_heap():
    """In a fresh process, a second full block faults next to none of its
    pages back in: importing the engine raised glibc's mmap and trim
    thresholds, so the first block's freed memory stayed in the heap (863
    minor faults per block without that)."""
    code = (
        "import resource\n"
        "from oslr import simulation as sim\n"
        "s = sim.Scenario(kappa=1.0, n_b=50, pi=1.0,\n"
        "                 replicates=sim._BLOCK_ELEMENTS // 100, seed=20260815)\n"
        "sim._chunk_counts(s, 0, s.replicates)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "sim._chunk_counts(s, 0, s.replicates)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(pathlib.Path(simulation.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) <= 50


@pytest.mark.parametrize("workers", [1, 2])
def test_first_cell_imports_no_module(workers):
    """In a fresh process the engine's import loads every module its first
    cell needs: a module loaded inside the cell would lay its lasting
    allocations among the block's arrays, where they split the heap's holes
    (see the throwaway block at the end of ``oslr.simulation``)."""
    code = (
        "import sys\n"
        "from oslr.simulation import Scenario, run_scenario\n"
        "s = Scenario(kappa=1.0, n_b=50, pi=1.0, replicates=8, seed=1)\n"
        "before = set(sys.modules)\n"
        f"run_scenario(s, workers={workers})\n"
        "print(sorted(set(sys.modules) ^ before))\n"
    )
    src = str(pathlib.Path(simulation.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("arm", ["A", "B"])
@pytest.mark.parametrize("value", [1.0, float("nan")])
def test_block_refuses_times_not_finite_and_positive(arm, value):
    """An event uniform of exactly 1 draws the event time 0, which censoring
    cannot hide, and a NaN uniform a NaN time: the block refuses either."""
    s = _scenario(replicates=3)
    u = _uniforms(s, 0, s.replicates)
    u[1, 0 if arm == "A" else 2 * s.n_a] = value
    with pytest.raises(ValueError, match="times must be finite and positive"):
        _block_z(s, u)


def test_one_component_pass_per_reference_curve(monkeypatch):
    """A block makes one fused component pass for the fitted curve, which
    serves both the uncorrected and the corrected tests, and one Λ-only
    evaluation for the true curve, whose tests need no hazard gradient. It
    takes the information from the fit: no likelihood kernel pass
    (``_loglik_terms``, which ``families.loglik_derivatives`` runs)."""
    calls = {"oslr_components": 0, "expected_events": 0, "cumhaz_terms": 0, "_loglik_terms": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(_kernels, name, counted(name, getattr(_kernels, name)))
    s = _scenario(replicates=40)
    z = _block_z(s, _uniforms(s, 0, s.replicates))
    assert np.isfinite(z[:, 4]).all()
    assert calls == {
        "oslr_components": 1,
        "expected_events": 1,
        "cumhaz_terms": 1,
        "_loglik_terms": 0,
    }


def test_block_runs_as_named_stages(monkeypatch):
    """A block runs as stages called by name, so a tracer can wrap each:
    draw, observe, fit, one-sample tests, two-sample and tally. A cell of
    two blocks runs each stage twice and counts as an unwrapped run does."""
    s = _scenario(replicates=1000)  # 655 replicates fill a block
    expected = simulation._chunk_counts(s, 0, s.replicates)
    stages = [
        (simulation, "_uniforms"),
        (simulation, "_observe_block"),
        (_kernels, "fit_weibull"),
        (simulation, "_one_sample_tests"),
        (simulation, "_two_sample_scores"),
        (simulation, "_tally"),
    ]
    calls = {name: 0 for _, name in stages}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in stages:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    counts = simulation._chunk_counts(s, 0, s.replicates)
    assert calls == {name: 2 for _, name in stages}
    assert np.array_equal(counts, expected)


def test_run_scenario_survives_overflowing_fit_trial():
    """Replicate 140 of this cell sent a Weibull fit trial into a division
    by an underflowed scale squared, which used to crash the run."""
    s = Scenario(kappa=0.5, n_b=25, pi=2.0, replicates=141, seed=7)
    result = run_scenario(s, workers=1)
    assert result.evaluated.sum() > 0


@pytest.mark.parametrize("kappa", [1.0, 5.0, 100.0])
def test_overflowing_fitted_curve_leaks_no_warning(kappa):
    """At n_a = 2 one replicate's converged Weibull fit has so extreme a
    shape that its curve overflows; that z is NaN (not evaluated) and no
    RuntimeWarning escapes."""
    s = Scenario(kappa=kappa, n_b=5, pi=2.0, replicates=60, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(s, workers=1)
    assert result.evaluated.tolist() == [60, 60, 59, 59, 59, 59, 60]


def test_resolve_workers(monkeypatch):
    assert resolve_workers(2) == 2
    with pytest.raises(UsageError):
        resolve_workers(0)
    # by default, the CPUs this process may run on, not every CPU of the host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers() == 1
    # and no environment variable caps them: the affinity mask alone does
    monkeypatch.setenv("OSLR_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert resolve_workers() == 2


def test_mc_error_interval_reference_values():
    lo, hi = mc_error_interval(0.025, 100000)
    assert (round(lo, 4), round(hi, 4)) == (0.0240, 0.0260)
    lo, hi = mc_error_interval(0.05, 100000)
    assert (round(lo, 4), round(hi, 4)) == (0.0486, 0.0514)
    # clipping at the unit interval
    lo, hi = mc_error_interval(0.0001, 10)
    assert lo == 0.0
    lo, hi = mc_error_interval(0.9999, 10)
    assert hi == 1.0


def test_mc_error_interval_validation():
    with pytest.raises(UsageError):
        mc_error_interval(-0.1, 100)
    with pytest.raises(UsageError):
        mc_error_interval(0.5, 0)


def test_simulation_result_aggregation():
    """Rates divide by evaluated counts only; failures are reported apart."""
    s = _scenario(replicates=10)
    res = SimulationResult(
        scenario=s,
        evaluated=np.array([10, 10, 8, 8, 8, 8, 10]),
        rejected_two=np.array([1, 2, 4, 4, 2, 2, 0]),
        rejected_one=np.array([0, 1, 2, 4, 1, 2, 0]),
    )
    assert res.two_sided_rate("true_w0") == pytest.approx(0.1)
    assert res.two_sided_rate("uncorrected_w0") == pytest.approx(0.5)
    assert res.n_evaluated("corrected_w0") == 8
    assert res.n_failed("corrected_w0") == 2
    assert res.n_failed("two_sample") == 0
    d = res.to_json_dict()
    assert set(d) == {"scenario", "procedures"}
    assert set(d["procedures"]) == set(PROCEDURES)
    row = d["procedures"]["uncorrected_w0"]
    assert row["n_evaluated"] == 8 and row["n_failed"] == 2
    lo, hi = row["two_sided_interval"]
    assert lo <= 0.5 <= hi
    # zero evaluations surface as NaN rates, not crashes
    empty = SimulationResult(
        scenario=s,
        evaluated=np.zeros(7, dtype=np.int64),
        rejected_two=np.zeros(7, dtype=np.int64),
        rejected_one=np.zeros(7, dtype=np.int64),
    )
    assert math.isnan(empty.two_sided_rate("true_w0"))


def test_csv_rows_and_writer(tmp_path):
    s = _scenario(replicates=4)
    res = run_scenario(s, workers=1)
    rows = record_rows(res.to_json_dict())
    assert len(rows) == 2 * len(PROCEDURES)
    assert list(rows[0]) == [
        "kappa", "n_b", "pi", "procedure", "sided", "rate", "lo", "hi", "n_eff",
    ]
    path = tmp_path / "rates.csv"
    with open(path, "w", newline="") as fh:
        write_rows_csv(fh, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kappa,n_b,pi,procedure,sided,rate,lo,hi,n_eff"
    assert len(lines) == 1 + 2 * len(PROCEDURES)


def test_load_scenarios_grid(tmp_path):
    spec = {
        "kappa": [0.5, 1.0],
        "n_b": 25,
        "pi": [1.0, 0.5],
        "replicates": 10,
        "seed": 1,
    }
    cells = load_scenarios(spec)
    assert len(cells) == 4
    assert [(c.kappa, c.pi) for c in cells] == [
        (0.5, 1.0),
        (0.5, 0.5),
        (1.0, 1.0),
        (1.0, 0.5),
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    assert load_scenarios(path) == cells


def test_load_scenarios_validation(tmp_path):
    with pytest.raises(UsageError, match="missing"):
        load_scenarios({"kappa": 1.0, "n_b": 10, "pi": 1.0, "replicates": 5})
    with pytest.raises(UsageError, match="unknown"):
        load_scenarios(
            {"kappa": 1.0, "n_b": 10, "pi": 1.0, "replicates": 5, "seed": 1, "mode": 2}
        )
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(UsageError):
        load_scenarios(path)
    # an empty grid list would run no cell and report nothing
    for key in ("kappa", "n_b", "pi"):
        spec = {"kappa": 1.0, "n_b": 10, "pi": 1.0, "replicates": 5, "seed": 1, key: []}
        with pytest.raises(UsageError, match=f"{key} is an empty list"):
            load_scenarios(spec)


def test_fixed_truth_z_magnitude(truth_z_sample):
    """Single-replicate sanity bound: standard-normal z-scores stay below 5."""
    z_w0, _ = truth_z_sample
    assert np.max(np.abs(z_w0)) < 5.0


def test_corrected_rate_in_band_across_allocation_ratios(pi_sweep):
    """The corrected test holds its level for every allocation ratio."""
    lo, hi = 0.0435, 0.0565
    for pi, cell in pi_sweep.items():
        for proc in ("corrected_w0", "corrected_w05"):
            rate = cell.two_sided_rate(proc)
            assert lo <= rate <= hi, f"pi={pi} {proc} rate={rate}"


def test_uncorrected_rate_monotone_in_pi(pi_sweep):
    """Uncorrected inflation grows with the allocation ratio (small MC slack)."""
    for proc in ("uncorrected_w0", "uncorrected_w05"):
        rates = [pi_sweep[pi].two_sided_rate(proc) for pi in (0.0625, 0.25, 1.0)]
        assert rates[1] - rates[0] >= -0.005
        assert rates[2] - rates[1] >= -0.005


def test_uncorrected_rate_insensitive_to_nb(nb_cells):
    """Inflation is a function of pi, not of the absolute sample size."""
    r25 = nb_cells[25].two_sided_rate("uncorrected_w0")
    r200 = nb_cells[200].two_sided_rate("uncorrected_w0")
    assert abs(r25 - r200) < 0.01


def test_one_sided_rejections_nested_in_w(pi_sweep, nb_cells):
    """One-sided w=0.5 rejections contain the w=0 rejections, count for count.

    A one-sided rejection needs z < 0, i.e. fewer observed than expected
    events (N < E). There V1(0.5) = (N+E)/(2 n) <= E/n = V1(0), so the w=0.5
    z-score is the more negative one and every w=0 rejection is also a w=0.5
    rejection. The containment makes the count comparison exact, not
    statistical.
    """
    pairs = [("true_w0", "true_w05"), ("uncorrected_w0", "uncorrected_w05"),
             ("corrected_w0", "corrected_w05")]
    cells = list(pi_sweep.values()) + list(nb_cells.values())
    for cell in cells:
        for w0, w05 in pairs:
            i0 = PROCEDURES.index(w0)
            i05 = PROCEDURES.index(w05)
            # same replicates enter both counters, so counts are comparable
            assert cell.evaluated[i05] == cell.evaluated[i0]
            assert cell.rejected_one[i05] >= cell.rejected_one[i0]
