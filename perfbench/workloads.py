"""Workload definitions and the operations the benchmark times.

Every path is taken relative to the checkout that holds this directory: the
program under test is ``src/oslr`` and the analysis inputs are the bundled
``data/*.csv``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = BENCH_DIR / "out"

DEFAULT_SEED = 20260815
# what the installed `oslr` console script runs
CLI_ENTRY = "import sys; from oslr.cli import main; sys.exit(main())"
SUBPROCESS_TIMEOUT_S = 120


def nproc() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts from now on, on one CPU,
    so that the reference work and the timed work share a core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass(frozen=True)
class Cell:
    """One run_scenario cell; workers=0 means one worker per CPU."""

    n_b: int
    replicates: int
    workers: int
    kappa: float = 1.0
    pi: float = 1.0

    @property
    def key(self) -> str:
        return f"kappa={self.kappa},n_b={self.n_b},pi={self.pi},replicates={self.replicates}"

    def resolved_workers(self) -> int:
        return self.workers or nproc()


# The one-worker cells are small enough that a 25 s run holds dozens of them,
# so the per-cell latency tail is defined; at one worker throughput per
# replicate does not depend on the cell size. The pool cell is larger: its
# chunks hold 125 replicates at two workers, so forking the pool stays a small
# share of each call, as in the 10,000-replicate cells of a type-I error study.
SIM_SMALL = Cell(n_b=50, replicates=200, workers=1)
SIM_LARGE = Cell(n_b=10000, replicates=4, workers=1)
SIM_POOL = Cell(n_b=50, replicates=1000, workers=0)
# the smallest cell run_scenario sends through its process pool
POOL_STARTUP = Cell(n_b=50, replicates=4, workers=0)

WORKLOADS = {
    "analysis_cli": None,
    "sim_small": SIM_SMALL,
    "sim_large": SIM_LARGE,
    "sim_pool": SIM_POOL,
}


def program_present() -> list[str]:
    """Files the benchmark needs from the checkout that are missing."""
    needed = [SRC / "oslr" / "__init__.py", DATA / "control.csv", DATA / "experimental.csv"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def import_program():
    """Import oslr from this checkout's sources, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import oslr
    import oslr.cli
    import oslr.simulation

    origin = Path(oslr.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"oslr was imported from {origin}, not from {SRC}")
    return oslr


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    """SHA-256 over the paths and contents of src/oslr/**/*.py."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "oslr").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------- analysis


def cli_commands(prefix: Path) -> list[tuple[str, list[str]]]:
    """The analyst's three commands, run in rotation on the bundled data."""
    control, experimental = str(DATA / "control.csv"), str(DATA / "experimental.csv")
    return [
        ("test", ["test", "--control", control, "--experimental", experimental,
                  "--format", "json"]),
        ("fit", ["fit", "--control", control]),
        ("km", ["km", "--control", control, "--experimental", experimental,
                "--family", "auto", "--svg", "--out", str(prefix)]),
    ]


def km_stems(prefix: Path) -> list[str]:
    return [f"{prefix}_control", f"{prefix}_experimental"]


def run_cli_subprocess(argv: list[str]) -> tuple[float, int, str, str]:
    """One fresh-interpreter invocation: (wall s, exit code, stdout, stderr)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return time.perf_counter() - start, -1, "", "timed out"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv: list[str]) -> tuple[float, int, str]:
    """One in-process call of oslr.cli.main, looked up at call time so a
    tracing wrapper applies: (wall s, exit code, stdout)."""
    import oslr.cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = oslr.cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def fresh_workdir(name: str) -> Path:
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -------------------------------------------------------------- simulation


def run_cell(cell: Cell, seed: int, workers: int | None = None):
    """One run_scenario call: (wall s, SimulationResult)."""
    import oslr.simulation as sim

    scenario = sim.Scenario(
        kappa=cell.kappa, n_b=cell.n_b, pi=cell.pi, replicates=cell.replicates, seed=seed
    )
    workers = cell.resolved_workers() if workers is None else workers
    start = time.perf_counter()
    result = sim.run_scenario(scenario, workers=workers)
    return time.perf_counter() - start, result


# -------------------------------------------------------------- host speed

# End-to-end timings are scaled to a host on which ReferenceWork takes
# REF_WORK_S (README, Noise).
REF_WORK_S = 0.015


class ReferenceWork:
    """A fixed mix of the kinds of work the program does, none of it the
    program's code: an interpreter loop, random reads over Python objects, a
    numpy gather over a few MB and many small numpy calls. Calling it returns
    its wall time, the host's speed right now; no change to the program
    moves it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = random.Random(0)
        self.objects = [rng.random() for _ in range(100_000)]
        self.order = [rng.randrange(len(self.objects)) for _ in range(30_000)]
        gen = np.random.default_rng(0)
        self.array = gen.random(500_000)
        self.gather = gen.integers(0, len(self.array), 150_000)

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0.0
        for i in range(50_000):
            total += i * i
        for i in self.order:
            total += self.objects[i]
        total += float(self.array[self.gather].sum())
        head = self.array[:50]
        for _ in range(1_000):
            total += float(np.cumsum(head)[-1])
        return time.perf_counter() - start


# ------------------------------------------------------------------ set-up


def setup_probe_args(cell: Cell, seed: int) -> list[str]:
    """Arguments for probe.py: the cell's first warm-up operation."""
    if cell.workers == 0:
        cell = POOL_STARTUP  # the first operation that starts the pool
    else:
        cell = Cell(n_b=cell.n_b, replicates=1, workers=1)
    return [str(cell.n_b), str(cell.replicates), str(cell.resolved_workers()), str(seed)]


def run_setup_probe(args: list[str]) -> tuple[float, bool, str]:
    """Spawn a fresh interpreter and time it until its first warm-up
    operation is done: (seconds, ok, diagnostics).

    The probe prints time.monotonic() when it is ready; that clock is
    system-wide, so it is comparable with this process's spawn time.
    """
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.monotonic() - start, False, "set-up probe timed out"
    try:
        ready = float(proc.stdout.split()[-1])
    except (IndexError, ValueError):
        return time.monotonic() - start, False, proc.stderr.strip()[-2000:]
    return ready - start, proc.returncode == 0, proc.stderr.strip()[-2000:]


def import_profile() -> tuple[bool, str]:
    """`python -X importtime -c 'import oslr.cli'` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import oslr.cli"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return proc.returncode == 0, proc.stderr
