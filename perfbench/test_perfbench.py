"""Self-tests for the benchmark: run with `python3 -m pytest perfbench -q`."""

import copy
import dataclasses
import inspect
import json
import random
import subprocess
import sys
import warnings

import pytest

import oracle
import run
import spans
import workloads as wl

BENCHMARK_JSON = wl.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def reference():
    return oracle.load_reference()


@pytest.fixture(scope="module")
def program():
    if wl.program_present():
        pytest.skip("the oslr sources are not in this checkout")
    return wl.import_program()


def test_oracle_accepts_reference_and_fails_one_count_off(reference):
    counts = reference["cells"][wl.SIM_SMALL.key][str(wl.DEFAULT_SEED)]
    R = wl.SIM_SMALL.replicates
    assert oracle.check_cell(counts, R, run.ALPHA, counts) == []
    k = len(oracle.PROCEDURES)
    for slot in (0, k + 4, 2 * k + 6):  # an evaluation, a two-sided, a one-sided count
        perturbed = list(counts)
        perturbed[slot] += 1
        assert oracle.check_cell(counts, R, run.ALPHA, perturbed), slot


def test_oracle_band_without_reference():
    R = 200
    k = len(oracle.PROCEDURES)
    fine = [R] * k + [10] * k + [5] * k
    assert oracle.check_cell(fine, R, 0.05) == []
    inflated = list(fine)
    inflated[k + oracle.PROCEDURES.index("corrected_w0")] = 60
    assert oracle.check_cell(inflated, R, 0.05)
    inconsistent = list(fine)
    inconsistent[0] = R + 1
    assert oracle.check_cell(inconsistent, R, 0.05)


def test_reference_covers_every_cell_the_benchmark_runs(reference):
    seeds = {str(s) for s in oracle.REFERENCE_SEEDS} | {str(wl.DEFAULT_SEED)}
    for cell in (wl.SIM_SMALL, wl.SIM_LARGE, wl.SIM_POOL, wl.POOL_STARTUP):
        assert set(reference["cells"][cell.key]) == seeds, cell.key


def test_unreferenced_seed_is_checked_at_a_reference_seed(program, reference, monkeypatch):
    import oslr.simulation as sim

    cell, seed = wl.SIM_LARGE, 1_000_003
    assert str(seed) not in reference["cells"][cell.key]
    tally = run.Tally()
    run.check_reference_seed(cell, seed, reference, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    # a deterministic change that rejects far more often than alpha
    original = sim.two_sample_logrank

    def shifted(cohort_a, cohort_b):
        report = original(cohort_a, cohort_b)
        return dataclasses.replace(report, z=report.z + 3.0)

    monkeypatch.setattr(sim, "two_sample_logrank", shifted)
    _, result = wl.run_cell(cell, seed)
    # at R = 4 the band alone cannot catch it on a seed without a reference ...
    assert run.CellChecker(cell, seed, reference)(result) == []
    # ... but the same cell at the reference seed does
    tally = run.Tally()
    run.check_reference_seed(cell, seed, reference, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "two_sample" in tally.problems[0]

    tally = run.Tally()
    run.check_reference_seed(cell, 3, reference, tally)  # a reference seed needs no extra cell
    assert tally.attempted == 0


def test_oracle_fails_z_off_by_1e3(reference):
    want = reference["cli"]["test"]
    stdout = json.dumps(want)
    assert oracle.check_test_output(stdout, want) == []
    perturbed = copy.deepcopy(want)
    perturbed[2]["z"] += 1e-3
    assert oracle.check_test_output(stdout, perturbed)


def test_oracle_fit_ignores_iterations_but_not_results(reference):
    want = reference["cli"]["fit"]
    got = dict(want, iterations=99, status="extra field")
    assert oracle.check_fit_output(json.dumps(got), want) == []
    got["loglik"] = want["loglik"] * (1 + 1e-5)
    assert oracle.check_fit_output(json.dumps(got), want)


def test_oracle_km_files(tmp_path):
    prefix = tmp_path / "km"
    stem = f"{prefix}_control"
    (tmp_path / "km_control_km.csv").write_text("time,value\n0.0,1.0\n1.0,0.5\n")
    (tmp_path / "km_control_na.csv").write_text("time,value\n0.0,0.0\n1.0,0.7\n")
    (tmp_path / "km_control_fit.csv").write_text("time,value\n0.0,1.0\n2.0,0.4\n")
    (tmp_path / "km_control.svg").write_text('<svg xmlns="http://www.w3.org/2000/svg"/>')
    listed = "\n".join(stem + s for s in ("_km.csv", "_na.csv", "_fit.csv", ".svg"))
    assert oracle.check_km_output(listed, [stem]) == []
    (tmp_path / "km_control_km.csv").write_text("time,value\n0.0,1.0\n1.0,1.2\n")
    (tmp_path / "km_control.svg").write_text("<svg>")
    assert len(oracle.check_km_output(listed, [stem])) >= 2


def test_tail_latency_has_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    value, percentile = run.tail_latency(samples)
    assert (value, percentile) == (90, 90.0)
    assert sum(s > value for s in samples) == 10
    value, percentile = run.tail_latency(range(21))
    assert value == 10 and sum(s > value for s in range(21)) == 10
    with pytest.raises(ValueError):
        run.tail_latency(range(10))


def test_host_scale_uses_the_reference_work_around_each_operation(monkeypatch):
    # the reference work reads 1x, 3x, 1x REF_WORK_S before, between and after
    times = iter([wl.REF_WORK_S, 3 * wl.REF_WORK_S, wl.REF_WORK_S])
    monkeypatch.setattr(wl, "ReferenceWork", lambda: lambda: next(times))
    scale = run.HostScale()
    assert scale(1.0) == pytest.approx(0.5)  # the host ran at half speed
    assert scale(1.0) == pytest.approx(0.5)
    assert scale.factors == pytest.approx([0.5, 0.5])


def test_benchmark_json_names_every_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(program, trace):
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", "sim_small",
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
        cwd=wl.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads(BENCHMARK_JSON.read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    # the human-readable table names only metrics BENCHMARK.json lists
    every = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = [line.split() for line in proc.stdout.splitlines()
             if line.startswith("  ") and "busy" not in line]
    assert table and all(len(row) == 3 and every.get(row[0]) == row[2] for row in table)


def test_tracer_restores_originals_and_warning_state(program):
    def targets():
        out = []
        for module_name, path, _ in spans.SPAN_TARGETS:
            owner = sys.modules[module_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            out.append(inspect.getattr_static(owner, attr))
        return out

    before = targets()
    showwarning, filters = warnings.showwarning, list(warnings.filters)
    tracer = spans.Tracer()
    tracer.op_id = 0
    with tracer.installed():
        assert all(a is not b for a, b in zip(targets(), before))
        wl.run_cell(wl.Cell(n_b=50, replicates=2, workers=1), 5)
    assert all(a is b for a, b in zip(targets(), before))
    assert warnings.showwarning is showwarning and warnings.filters == filters
    profile = spans.pass_profile(tracer)[0]
    assert profile["fitting.fit_mle"]["calls"] == 2
    assert profile["logrank.oslr_test"]["calls"] == 12
    assert profile["simulation.run_scenario"]["calls"] == 1
    assert set(tracer.rep) >= {0, 1}
    # the pseudo-inverse's UserWarning is attributed to the fitting layer
    assert tracer.warnings[0]["warnings.fitting.UserWarning"] == 4


def test_missing_target_reports_zero_calls(program):
    tracer = spans.Tracer()
    gone = [("oslr.simulation", "no_such_function", "simulation.gone"),
            ("oslr.no_such_module", "f", "nowhere.f"),
            ("oslr.data", "NoSuchClass.method", "data.gone")]
    with tracer.installed(gone):
        wl.run_cell(wl.Cell(n_b=50, replicates=1, workers=1), 5)
    assert tracer.name == []


def test_import_breakdown_attributes_nested_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         numpy.linalg",
        "import time:       200 |        300 |       numpy",
        "import time:        50 |         50 |         numpy.fft",
        "import time:       400 |        450 |       scipy.special",
        "import time:       250 |       1000 |     oslr",
        "import time:        10 |       1010 |   oslr.cli",
        "import time:         5 |          5 | site",
    ])
    got = spans.import_breakdown(text)
    assert got["import.numpy_s"] == pytest.approx(300e-6)
    assert got["import.scipy_s"] == pytest.approx(450e-6)  # numpy.fft counts as scipy's
    assert got["import.oslr_self_s"] == pytest.approx((1010 - 300 - 450) * 1e-6)
