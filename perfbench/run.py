"""Layered benchmark for oslr: the analysis CLI and the Monte Carlo engine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim_small --seed 3 --seconds 25 --trace 0

--trace 0 times the workload untraced and prints the end-to-end metrics;
--trace 1 runs the outside-in traced pass and prints the per-layer metrics.
Every operation's output is checked by the oracle in oracle.py. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. A full report (provenance, samples, spans) is written to
perfbench/out/. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata

import oracle
import spans
import workloads as wl

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# (span name, per-pass quantities reported for it)
SPAN_METRICS = (
    ("cli.main", ("self_s",)),
    ("data.ingest_csv", ("busy_s", "calls")),
    ("data.Cohort.from_arrays", ("busy_s", "calls")),
    ("fitting.fit_mle", ("busy_s", "calls", "failed")),
    ("fitting.pseudo_inverse", ("busy_s", "calls")),
    ("logrank.oslr_test", ("busy_s", "calls", "degenerate")),
    ("logrank.two_sample_logrank", ("busy_s", "calls", "degenerate")),
    ("nonparametric.kaplan_meier", ("busy_s",)),
    ("nonparametric.nelson_aalen", ("busy_s",)),
    ("render.render_curves", ("busy_s",)),
    ("simulation.replicate_rng", ("busy_s",)),
    ("simulation.generate_cohort", ("self_s",)),
    ("simulation.run_scenario", ("self_s",)),
)
_QUANTITY_UNITS = {"busy_s": "s", "self_s": "s", "calls": "count", "failed": "count",
                   "degenerate": "count"}

MIN_OPS = 21  # a multiple of the CLI rotation; keeps the tail at or above p50
MIN_PASSES = 5
HARD_LIMIT_S = 120.0  # stop starting operations after this, whatever --seconds says
SETUP_PROBES = 8  # spread over the run, between timed operations
IMPORT_PROBES = 3
TAIL_BEYOND = 10
ALPHA = 0.05  # Scenario's default level


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {
        "import.numpy_s": "s",
        "import.scipy_s": "s",
        "import.oslr_self_s": "s",
    }
    for span, quantities in SPAN_METRICS:
        for q in quantities:
            units[f"{span}.{q}"] = _QUANTITY_UNITS[q]
        if span == "fitting.fit_mle":
            units["fitting.fit_mle.iterations_mean"] = "count"
            units["fitting.fit_mle.converged_ratio"] = "ratio"
    units.update({
        "simulation.evaluated_ratio": "ratio",
        "simulation.pool.startup_s": "s",
        "simulation.pool.speedup": "ratio",
        "trace.pass_wall_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.passes": "count",
        "ops_failed_ratio": "ratio",
    })
    for layer in spans.LAYERS:
        for kind in spans.WARNING_CATEGORIES:
            units[f"warnings.{layer}.{kind}"] = "count"
    return units


def _median0(values) -> float:
    """Median, or 0 when the layer saw nothing."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_latency(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile that still has `beyond` samples above it.

    With n sorted samples that is the (n - beyond)-th smallest; returns
    (value, percentile).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: " + "; ".join(list(problems)[:5]))


class HostScale:
    """Scales wall times to a host on which wl.ReferenceWork takes
    wl.REF_WORK_S.

    The shared host's speed drifts by up to 2x in spells of seconds to
    minutes, and the program slows with it. So the reference work runs
    between operations, and each wall time is multiplied by REF_WORK_S over
    the mean of its times just before and just after the operation.
    """

    def __init__(self):
        self.reference = wl.ReferenceWork()
        self.last = self.reference()
        self.factors: list[float] = []

    def __call__(self, wall: float) -> float:
        before, self.last = self.last, self.reference()
        factor = wl.REF_WORK_S / ((before + self.last) / 2)
        self.factors.append(factor)
        return wall * factor


def _keep_going(done: int, minimum: int, start: float, seconds: float, multiple: int = 1) -> bool:
    """Run for `seconds` and at least `minimum` operations, ending on a
    multiple of `multiple`; start none after HARD_LIMIT_S."""
    elapsed = time.perf_counter() - start
    if elapsed >= HARD_LIMIT_S:
        return done == 0
    return done < minimum or elapsed < seconds or done % multiple != 0


# ------------------------------------------------------------- provenance


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(args, oslr) -> dict:
    import numpy

    accel = sys.modules.get("oslr._accel")
    numba_imported = "numba" in sys.modules
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": wl.git_sha(),
        "source_sha256": wl.source_sha256(),
        "oslr_version": getattr(oslr, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "numba_imported": numba_imported,
        "numba_enabled": getattr(accel, "NUMBA_ENABLED", None),
        "OSLR_DISABLE_NUMBA": os.environ.get("OSLR_DISABLE_NUMBA"),
        "kernel_path": "numba" if numba_imported else "numpy",
        "nproc": wl.nproc(),
        "machine": platform.machine(),
        "loadavg_start": _loadavg(),
    }


# ------------------------------------------------------------- operations


def _check_cli(name: str, stdout: str, prefix, reference) -> list[str]:
    if name == "test":
        return oracle.check_test_output(stdout, reference["cli"]["test"])
    if name == "fit":
        return oracle.check_fit_output(stdout, reference["cli"]["fit"])
    return oracle.check_km_output(stdout, wl.km_stems(prefix))


def _clear(directory) -> None:
    for path in directory.iterdir():
        path.unlink()


class CellChecker:
    """Oracle for one cell and seed, with verdicts cached per distinct output.

    Every run of the same cell and seed must give the same counts; the first
    one is checked against the reference (or the band when the seed has no
    reference).
    """

    def __init__(self, cell: wl.Cell, seed: int, reference: dict):
        self.cell = cell
        self.expected = reference["cells"].get(cell.key, {}).get(str(seed))
        self.first = None
        self._verdicts: dict[tuple, list[str]] = {}

    def __call__(self, result) -> list[str]:
        counts = tuple(oracle.cell_counts(result))
        if counts not in self._verdicts:
            self._verdicts[counts] = oracle.check_cell(
                counts, self.cell.replicates, ALPHA, self.expected
            )
        problems = self._verdicts[counts] + oracle.check_failed_counts(result)
        if self.first is None:
            self.first = counts
        elif counts != self.first:
            problems.append("counts differ between runs of the same cell and seed")
        return problems


def check_reference_seed(cell: wl.Cell, seed: int, reference: dict, tally: Tally) -> None:
    """Give a seed without reference counts an exact check as well.

    Such a seed gets only the consistency and band checks, and a small cell
    cannot fail the band. So the same cell is run once more, untimed, at the
    reference seed `seed mod len(REFERENCE_SEEDS)`, and must match its
    reference counts exactly.
    """
    if str(seed) in reference["cells"].get(cell.key, {}):
        return
    anchor = oracle.REFERENCE_SEEDS[seed % len(oracle.REFERENCE_SEEDS)]
    print(f"warning: seed {seed} has no reference counts for {cell.key}; checking "
          f"the band there and the counts at reference seed {anchor}", file=sys.stderr)
    check = CellChecker(cell, anchor, reference)
    problems = [] if check.expected else [f"reference.json lacks the cell {cell.key}"]
    _, result = wl.run_cell(cell, anchor, workers=1)
    tally.record(f"cell at reference seed {anchor}", problems + check(result))


def timed_cli(seconds: float, reference, tally: Tally) -> dict:
    work = wl.fresh_workdir("analysis_cli")
    prefix = work / "km"
    commands = wl.cli_commands(prefix)
    walls, raw_walls, setups = [], [], []
    scale = HostScale()
    start = time.perf_counter()
    while _keep_going(len(walls), MIN_OPS, start, seconds, multiple=len(commands)):
        name, argv = commands[len(walls) % len(commands)]
        raw, code, out, err = wl.run_cli_subprocess(argv)
        wall = scale(raw)
        walls.append(wall)
        raw_walls.append(raw)
        if name == "test":  # the analyst's first operation in a fresh interpreter
            setups.append(wall)
        if code != 0:
            problems = [f"exit code {code}: {err.strip()[-300:]}"]
        else:
            problems = _check_cli(name, out, prefix, reference)
        tally.record(f"oslr {name}", problems)
        _clear(work)
    shutil.rmtree(work, ignore_errors=True)
    # an invocation is the analyst's unit of work
    return {"walls": walls, "raw_walls": raw_walls, "work": len(walls), "setups": setups,
            "factors": scale.factors}


def timed_cells(cell: wl.Cell, seed: int, seconds: float, reference, tally: Tally) -> dict:
    check = CellChecker(cell, seed, reference)
    check_reference_seed(cell, seed, reference, tally)
    serial_json = None
    if cell.resolved_workers() > 1:
        # the pool must reproduce the single-worker result byte for byte
        _, serial = wl.run_cell(cell, seed, workers=1)
        tally.record("workers=1 cell", check(serial))
        serial_json = serial.to_json()
    _, warm = wl.run_cell(cell, seed)  # untimed warm-up
    tally.record("warm-up cell", check(warm))
    probe_args = wl.setup_probe_args(cell, seed)
    walls, raw_walls, setups = [], [], []
    scale = HostScale()

    def probe():
        elapsed, ok, diagnostics = wl.run_setup_probe(probe_args)
        tally.record("set-up probe", [] if ok else [f"probe failed: {diagnostics[-500:]}"])
        setups.append(scale(elapsed))

    start = time.perf_counter()
    while _keep_going(len(walls), MIN_OPS, start, seconds):
        # probe k runs once k/SETUP_PROBES of the run has passed
        if len(setups) < SETUP_PROBES and (
            time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES
        ):
            probe()
        raw, result = wl.run_cell(cell, seed)
        walls.append(scale(raw))
        raw_walls.append(raw)
        problems = check(result)
        if serial_json is not None and result.to_json() != serial_json:
            problems.append("to_json differs from the workers=1 result")
        tally.record(f"cell {len(walls)}", problems)
    while len(setups) < SETUP_PROBES:
        probe()
    return {"walls": walls, "raw_walls": raw_walls, "work": cell.replicates * len(walls),
            "setups": setups, "factors": scale.factors}


def peak_rss_mb(include_self: bool) -> float:
    """Largest RSS of the benchmark's children and, when it runs the
    workload itself, of this process."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def end_to_end(args, reference, tally: Tally, details: dict) -> dict:
    cell = wl.WORKLOADS[args.workload]
    if cell is None or cell.resolved_workers() == 1:
        # one process at a time does the work; keep it on the reference's core
        wl.pin_to_one_cpu()
    if cell is None:
        timed = timed_cli(args.seconds, reference, tally)
    else:
        timed = timed_cells(cell, args.seed, args.seconds, reference, tally)
    tail, percentile = tail_latency(timed["walls"])
    details.update(
        latency_samples=len(timed["walls"]),
        latency_tail_percentile=percentile,
        op_walls_s=timed["walls"],
        unscaled_op_walls_s=timed["raw_walls"],
        host_scale_factors=timed["factors"],
    )
    return {
        "setup_s": statistics.median(timed["setups"]),
        "latency_p50_s": statistics.median(timed["walls"]),
        "latency_tail_s": tail,
        # work completed per second of run_scenario (or CLI) wall time
        "replicates_per_s": timed["work"] / sum(timed["walls"]),
        "peak_rss_mb": peak_rss_mb(include_self=cell is not None),
    }


# ------------------------------------------------------------- traced run


def _cli_pass(reference, work):
    """One rotation of the three commands through oslr.cli.main in-process."""
    prefix = work / "km"
    outputs, problems, wall = [], [], 0.0
    for name, argv in wl.cli_commands(prefix):
        seconds, code, out = wl.run_cli_inprocess(argv)
        wall += seconds
        outputs.append(out)
        problems += [f"{name}: exit code {code}"] if code else _check_cli(
            name, out, prefix, reference
        )
        _clear(work)
    return wall, outputs, problems, None


def _cell_pass(cell, seed, check):
    """One cell at one worker, in-process."""
    wall, result = wl.run_cell(cell, seed, workers=1)
    return wall, result.to_json(), check(result), result


def traced(args, reference, tally: Tally, details: dict) -> dict:
    metrics = {}
    breakdowns = []
    for _ in range(IMPORT_PROBES):
        ok, text = wl.import_profile()
        tally.record("import profile", [] if ok else [f"import failed: {text[-300:]}"])
        if ok:
            breakdowns.append(spans.import_breakdown(text))
    for key in ("import.numpy_s", "import.scipy_s", "import.oslr_self_s"):
        metrics[key] = _median0(b[key] for b in breakdowns)

    cell = wl.WORKLOADS[args.workload]
    if cell is None:
        work = wl.fresh_workdir("trace")
        run_pass = lambda: _cli_pass(reference, work)  # noqa: E731
    else:
        check = CellChecker(cell, args.seed, reference)
        check_reference_seed(cell, args.seed, reference, tally)
        run_pass = lambda: _cell_pass(cell, args.seed, check)  # noqa: E731
    pooled = cell is not None and cell.resolved_workers() > 1
    startup_check = CellChecker(wl.POOL_STARTUP, args.seed, reference)
    if pooled:
        check_reference_seed(wl.POOL_STARTUP, args.seed, reference, tally)

    run_pass()  # untimed warm-up
    if pooled:
        wl.run_cell(cell, args.seed)  # the pool's first use imports its machinery
    tracer = spans.Tracer()
    untraced_walls, traced_walls, pool_walls, startup_walls = [], [], [], []
    evaluated_ratio = []
    start = time.perf_counter()
    while _keep_going(len(traced_walls), MIN_PASSES, start, args.seconds):
        # alternate untraced and traced passes so host drift hits both alike
        wall_u, out_u, problems, _ = run_pass()
        tally.record("untraced pass", problems)
        untraced_walls.append(wall_u)
        tracer.op_id = len(traced_walls)
        with tracer.installed():
            wall_t, out_t, problems, result = run_pass()
        if out_t != out_u:
            problems = [*problems, "traced output differs from the untraced output"]
        tally.record("traced pass", problems)
        traced_walls.append(wall_t)
        if result is not None:
            evaluated_ratio.append(
                float(sum(result.evaluated)) / (len(oracle.PROCEDURES) * cell.replicates)
            )
        if pooled:
            wall_p, pooled_result = wl.run_cell(cell, args.seed)
            tally.record(
                "pool cell",
                [] if pooled_result.to_json() == out_u else ["pool result differs"],
            )
            pool_walls.append(wall_p)
            wall_s, small = wl.run_cell(wl.POOL_STARTUP, args.seed)
            tally.record("pool start-up cell", startup_check(small))
            startup_walls.append(wall_s)
    if cell is None:
        shutil.rmtree(work, ignore_errors=True)

    profiles = spans.pass_profile(tracer)
    passes = range(len(traced_walls))

    def per_pass(span, quantity):
        return _median0(profiles[k][span][quantity] for k in passes)

    for span, quantities in SPAN_METRICS:
        for q in quantities:
            metrics[f"{span}.{q}"] = per_pass(span, q)
    fits = [profiles[k]["fitting.fit_mle"] for k in passes]
    metrics["fitting.fit_mle.iterations_mean"] = _median0(
        f["iterations"] / max(1.0, f["calls"] - f["failed"]) for f in fits
    )
    metrics["fitting.fit_mle.converged_ratio"] = _median0(
        f["converged"] / f["calls"] if f["calls"] else 0.0 for f in fits
    )
    metrics["simulation.evaluated_ratio"] = _median0(evaluated_ratio)
    metrics["simulation.pool.startup_s"] = _median0(startup_walls)
    metrics["simulation.pool.speedup"] = (
        sum(untraced_walls) / sum(pool_walls) if pooled else 0.0
    )
    metrics["trace.pass_wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(untraced_walls)
    metrics["trace.passes"] = float(len(traced_walls))
    for layer in spans.LAYERS:
        for kind in spans.WARNING_CATEGORIES:
            name = f"warnings.{layer}.{kind}"
            metrics[name] = _median0(tracer.warnings[k][name] for k in passes)

    wall = metrics["trace.pass_wall_s"]
    details["profile"] = {
        name: {
            "busy_share": per_pass(name, "busy_s") / wall,
            "self_share": per_pass(name, "self_s") / wall,
            "calls": per_pass(name, "calls"),
        }
        for name in sorted({n for k in passes for n in profiles[k]})
    }
    details["spans"] = tracer.to_json_dict()
    return metrics


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    missing = wl.program_present()
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    oslr = wl.import_program()
    reference = oracle.load_reference()
    prov = provenance(args, oslr)
    tally = Tally()
    details: dict = {}
    try:
        if args.trace:
            values = traced(args, reference, tally, details)
            units = per_layer_units()
            values["ops_failed_ratio"] = tally.failed / max(1, tally.attempted)
        else:
            values = end_to_end(args, reference, tally, details)
            units = E2E_UNITS
    except Exception:  # an exception from the program fails the run, reported below
        traceback.print_exc()
        tally.record("operation", ["raised an exception"])
        values, units = {}, {}
    prov["loadavg_end"] = _loadavg()
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    wl.OUT.mkdir(parents=True, exist_ok=True)
    report_path = wl.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report_path, "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "problems": tally.problems,
                   **details}, fh)

    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    if "latency_samples" in details:
        print(f"latency_tail_s is p{details['latency_tail_percentile']:.1f} "
              f"of {details['latency_samples']} operations")
        print(f"timings scaled to {wl.REF_WORK_S * 1e3:g} ms of reference work: median factor "
              f"{statistics.median(details['host_scale_factors']):.3f}, unscaled "
              f"latency_p50_s {statistics.median(details['unscaled_op_walls_s']):.6g} s")
    for name, share in details.get("profile", {}).items():
        print(f"  {name:<32} busy {share['busy_share']:7.1%}  self {share['self_share']:7.1%}"
              f"  calls/pass {share['calls']:g}")
    failed_ratio = {"value": tally.failed / max(1, tally.attempted), "unit": "ratio"}
    for name, metric in {"ops_failed_ratio": failed_ratio, **metrics}.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"report: {report_path.relative_to(wl.ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
