"""End-to-end tests of the command-line interface.

Every test but the import guard drives ``oslr.cli.main(argv)`` in process and
inspects exit codes, stdout/stderr and written files. Numeric oracles are the same closed forms
used by the library tests (exponential MLE D / sum(X), hand product-limit
values, zero compensated process at a calibrated horizon).
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import oslr
from oslr.cli import main
from oslr.data import Cohort, write_csv

MASTER_SEED = 20260815

_DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
DATA_CONTROL = str(_DATA_DIR / "control.csv")
DATA_EXPERIMENTAL = str(_DATA_DIR / "experimental.csv")


def _write(path, rows):
    path.write_text("time,event\n" + "\n".join(f"{t},{e}" for t, e in rows) + "\n")
    return str(path)


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "oslr" in capsys.readouterr().out


def _modules_after_cli_import(*packages):
    """The modules of the given packages that a fresh interpreter holds
    after `import oslr.cli`."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(oslr.__file__).parents[1]))
    snippet = "import json, sys, oslr.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env,
        check=True,
    )
    return [
        m for m in json.loads(out.stdout)
        if any(m == p or m.startswith(p + ".") for p in packages)
    ]


def test_cli_import_leaves_scipy_out():
    """scipy is a test oracle only: a fresh `import oslr.cli` must not load it."""
    assert _modules_after_cli_import("scipy") == []


def test_cli_import_leaves_process_pool_out():
    """Only a pooled simulation needs the process pool: a fresh
    `import oslr.cli` loads neither it nor multiprocessing."""
    assert _modules_after_cli_import("concurrent.futures.process", "multiprocessing") == []


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_fit_exponential_closed_form(tmp_path, capsys):
    path = _write(tmp_path / "c.csv", [(1, 1), (2, 1), (3, 1)])
    assert main(["fit", "--control", path, "--family", "exponential"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "exponential"
    assert payload["theta_hat"][0] == pytest.approx(0.5, rel=1e-8)
    assert payload["converged"] is True
    assert payload["n"] == 3


def test_fit_auto_prints_aic_table_and_selects(tmp_path, capsys):
    """auto mode reports all three candidate fits on stderr and picks the
    lowest AIC; abundant log-logistic data must select log-logistic."""
    rng = np.random.default_rng(MASTER_SEED)
    u = rng.random(5000)
    times = 1.4 * (u / (1.0 - u)) ** (1.0 / 1.25)
    cohort = Cohort.from_arrays(times, np.ones(5000, dtype=np.int64))
    path = tmp_path / "ll.csv"
    write_csv(path, cohort)
    assert main(["fit", "--control", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["family"] == "loglogistic"
    for name in ("exponential", "weibull", "loglogistic"):
        assert name in captured.err
    assert "aic" in captured.err


def test_fit_empty_file_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["fit", "--control", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_fit_missing_file_exits_one(tmp_path):
    assert main(["fit", "--control", str(tmp_path / "nope.csv")]) == 1


def test_fit_out_file(tmp_path, capsys):
    path = _write(tmp_path / "c.csv", [(1, 1), (2, 1), (3, 1)])
    out = tmp_path / "fit.json"
    code = main(
        ["fit", "--control", path, "--family", "exponential", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["theta_hat"][0] == pytest.approx(0.5, rel=1e-8)


def test_test_bundled_case_study(capsys):
    """The shipped example data produce the four standard rows, with every
    corrected p-value above its uncorrected counterpart."""
    code = main(
        [
            "test",
            "--control",
            DATA_CONTROL,
            "--experimental",
            DATA_EXPERIMENTAL,
            "--format",
            "json",
        ]
    )
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 4
    assert [(r["corrected"], r["w"]) for r in reports] == [
        (False, 0.0),
        (False, 0.5),
        (True, 0.0),
        (True, 0.5),
    ]
    for unc, cor in zip(reports[:2], reports[2:]):
        assert cor["v2"] > 0
        assert cor["p_two_sided"] > unc["p_two_sided"]
        assert cor["p_one_sided"] > unc["p_one_sided"]


def test_test_table_output(capsys):
    code = main(
        ["test", "--control", DATA_CONTROL, "--experimental", DATA_EXPERIMENTAL]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0].split() == ["method", "M_OSLR", "V1", "V2", "Z", "p"]
    assert sum(line.startswith("uncorrected w=") for line in lines) == 2
    assert sum(line.startswith("corrected w=") for line in lines) == 2
    assert "critical value" in lines[-1]


def test_test_custom_w_adds_rows(tmp_path, capsys):
    path = _write(tmp_path / "b.csv", [(0.5, 1), (1.5, 0), (2.0, 1)])
    code = main(
        [
            "test",
            "--experimental",
            path,
            "--fixed-reference",
            "exponential:0.8",
            "--w",
            "0.25",
            "--format",
            "json",
        ]
    )
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    # fixed reference: no corrected rows; weights 0, 0.5 and the custom 0.25
    assert [r["w"] for r in reports] == [0.0, 0.5, 0.25]
    assert all(not r["corrected"] for r in reports)


def test_test_w_out_of_range_exits_one(tmp_path, capsys):
    path = _write(tmp_path / "b.csv", [(1, 1)])
    code = main(
        ["test", "--experimental", path, "--fixed-reference", "exponential:1.0",
         "--w", "1.5"]
    )
    assert code == 1
    assert "--w" in capsys.readouterr().err


def test_test_fixed_reference_zero_z(tmp_path, capsys):
    """Unit-exponential reference with one event at t=1: N(1)=E(1)=1, z=0."""
    path = _write(tmp_path / "b.csv", [(1, 1)])
    code = main(
        [
            "test",
            "--experimental",
            path,
            "--fixed-reference",
            "exponential:1.0",
            "--horizon",
            "1.0",
            "--format",
            "json",
        ]
    )
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    for r in reports:
        assert r["z"] == pytest.approx(0.0, abs=1e-12)
        assert r["p_two_sided"] == pytest.approx(1.0)


def test_test_fixed_reference_parse_errors(tmp_path):
    path = _write(tmp_path / "b.csv", [(1, 1)])
    base = ["test", "--experimental", path, "--fixed-reference"]
    assert main(base + ["exponential"]) == 1
    assert main(base + ["exponential:abc"]) == 1
    assert main(base + ["gamma:1.0"]) == 1


def test_test_missing_control_exits_one(tmp_path):
    path = _write(tmp_path / "b.csv", [(1, 1)])
    assert main(["test", "--experimental", path]) == 1


def test_test_degenerate_exits_three(tmp_path, capsys):
    """All-censored cohort with w=1 zeroes the variance estimate."""
    path = _write(tmp_path / "b.csv", [(1.0, 0), (2.0, 0)])
    code = main(
        ["test", "--experimental", path, "--fixed-reference", "exponential:1.0",
         "--w", "1.0"]
    )
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_km_golden_rows(tmp_path, capsys):
    path = _write(tmp_path / "c.csv", [(1, 1), (2, 0), (3, 1)])
    prefix = tmp_path / "out"
    assert main(["km", "--control", path, "--out", str(prefix)]) == 0
    printed = capsys.readouterr().out.split()
    km_path = f"{prefix}_control_km.csv"
    na_path = f"{prefix}_control_na.csv"
    assert printed == [km_path, na_path]
    lines = pathlib.Path(km_path).read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [float(t) for t, _ in rows] == [0.0, 1.0, 3.0]
    values = [float(v) for _, v in rows]
    assert values[0] == 1.0
    assert values[1] == pytest.approx(2.0 / 3.0)
    assert values[2] == 0.0
    na_rows = pathlib.Path(na_path).read_text().strip().splitlines()
    assert na_rows[1] == "0.0,0.0"


def test_km_all_censored(tmp_path):
    path = _write(tmp_path / "c.csv", [(1, 0), (2, 0)])
    prefix = tmp_path / "cens"
    assert main(["km", "--control", path, "--out", str(prefix)]) == 0
    lines = pathlib.Path(f"{prefix}_control_km.csv").read_text().splitlines()
    # just the header and the baseline anchor row
    assert lines == ["time,value", "0.0,1.0"]


def test_km_grouped_input_and_overlay(tmp_path, capsys):
    grouped = tmp_path / "both.csv"
    write_csv(
        grouped,
        {
            "control": Cohort([(1.0, 1), (2.0, 1), (4.0, 0)]),
            "experimental": Cohort([(2.0, 1), (3.0, 0)]),
        },
    )
    prefix = tmp_path / "g"
    code = main(
        ["km", "--control", str(grouped), "--family", "exponential", "--svg",
         "--out", str(prefix)]
    )
    assert code == 0
    printed = capsys.readouterr().out.split()
    for label in ("control", "experimental"):
        for suffix in ("km.csv", "na.csv", "fit.csv"):
            assert f"{prefix}_{label}_{suffix}" in printed
        assert f"{prefix}_{label}.svg" in printed
    fit_lines = pathlib.Path(f"{prefix}_control_fit.csv").read_text().splitlines()
    assert fit_lines[0] == "time,value"
    assert len(fit_lines) == 1 + 200
    svg = pathlib.Path(f"{prefix}_control.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # overlay survival starts at 1 and decreases
    first = float(fit_lines[1].split(",")[1])
    last = float(fit_lines[-1].split(",")[1])
    assert first == pytest.approx(1.0) and last < first


def _scenario_file(tmp_path, **overrides):
    spec = {
        "kappa": 1.0,
        "n_b": 10,
        "pi": 1.0,
        "replicates": 5,
        "seed": MASTER_SEED,
    }
    spec.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_simulate_json_deterministic(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    assert main(["simulate", path, "--workers", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", path, "--workers", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    records = json.loads(first)
    assert len(records) == 1
    assert records[0]["scenario"]["n_b"] == 10
    assert set(records[0]["procedures"]) == {
        "true_w0",
        "true_w05",
        "uncorrected_w0",
        "uncorrected_w05",
        "corrected_w0",
        "corrected_w05",
        "two_sample",
    }


def test_simulate_grid_and_outputs(tmp_path, capsys):
    path = _scenario_file(tmp_path, kappa=[0.5, 1.0])
    out = tmp_path / "run"
    code = main(["simulate", path, "--workers", "1", "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "kappa,n_b,pi,procedure,sided,rate,lo,hi,n_eff"
    records = json.loads((tmp_path / "run.json").read_text())
    assert [r["scenario"]["kappa"] for r in records] == [0.5, 1.0]
    csv_lines = (tmp_path / "run.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 2 * 7 * 2


def test_simulate_seed_override_changes_output(tmp_path, capsys):
    path = _scenario_file(tmp_path)
    assert main(["simulate", path, "--workers", "1"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert main(["simulate", path, "--workers", "1", "--seed", "7"]) == 0
    overridden = json.loads(capsys.readouterr().out)
    assert overridden[0]["scenario"]["seed"] == 7
    assert base[0]["scenario"]["seed"] == MASTER_SEED


def test_simulate_invalid_scenario_exits_one(tmp_path, capsys):
    path = _scenario_file(tmp_path, mode="extra")
    assert main(["simulate", path]) == 1
    assert "unknown" in capsys.readouterr().err


def test_simulate_seed_past_64_bits_exits_one(tmp_path, capsys):
    """A seed of 2**64 or more cannot key a replicate stream: usage error,
    from the scenario file and from --seed alike, not a traceback."""
    path = _scenario_file(tmp_path, n_b=5, replicates=2, seed=2**64)
    assert main(["simulate", path, "--workers", "1"]) == 1
    assert "seed" in capsys.readouterr().err
    path = _scenario_file(tmp_path, n_b=5, replicates=2)
    assert main(["simulate", path, "--workers", "1", "--seed", str(2**64)]) == 1
    assert "seed" in capsys.readouterr().err
    assert main(["simulate", path, "--workers", "1", "--seed", str(2**64 - 1)]) == 0


def test_report_roundtrip(tmp_path, capsys):
    scenario = _scenario_file(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", scenario, "--workers", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out) + ".json"]) == 0
    table = capsys.readouterr().out.strip().splitlines()
    # header, rule, then one row per procedure and sidedness
    assert len(table) == 2 + 7 * 2
    assert table[0].split()[:3] == ["kappa", "n_b", "pi"]
    assert main(["report", str(out) + ".json", "--format", "csv"]) == 0
    report_csv = capsys.readouterr().out
    csv_out = report_csv.strip().splitlines()
    assert csv_out[0] == "kappa,n_b,pi,procedure,sided,rate,lo,hi,n_eff"
    assert len(csv_out) == 1 + 7 * 2
    # rows read back from the JSON equal the rows of the run itself
    assert main(["simulate", scenario, "--workers", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == report_csv
    assert (tmp_path / "run.csv").read_bytes() == report_csv.encode()


def test_report_malformed_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", str(bad)]) == 1
    notlist = tmp_path / "notlist.json"
    notlist.write_text('{"scenario": {}}')
    assert main(["report", str(notlist)]) == 1
    missing_keys = tmp_path / "missing.json"
    missing_keys.write_text('[{"scenario": {}}]')
    assert main(["report", str(missing_keys)]) == 1
