"""End-to-end tests of the command-line interface.

Every test but the import guards drives ``oslr.cli.main(argv)`` in process and
inspects exit codes, stdout/stderr and written files. Numeric oracles are the same closed forms
used by the library tests (exponential MLE D / sum(X), hand product-limit
values, zero compensated process at a calibrated horizon).
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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


def _fresh_interpreter(snippet):
    """stdout of `snippet` run by a fresh interpreter on this oslr."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(oslr.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env,
        check=True,
    )
    return out.stdout


def _modules_after(statement, *packages):
    """The modules of the given packages that a fresh interpreter holds
    after `statement`."""
    snippet = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    return [
        m for m in json.loads(_fresh_interpreter(snippet))
        if any(m == p or m.startswith(p + ".") for p in packages)
    ]


def _modules_after_cli_import(*packages):
    """The modules of the given packages that a fresh interpreter holds
    after `import oslr.cli`."""
    return _modules_after("import oslr.cli", *packages)


def test_cli_import_loads_only_the_analysis_modules():
    """The analysis commands run no simulation and no statistics: a fresh
    `import oslr.cli` loads neither the engine nor `statistics`."""
    assert _modules_after_cli_import("oslr") == [
        "oslr", "oslr._kernels", "oslr.cli", "oslr.data", "oslr.errors",
        "oslr.families", "oslr.fitting", "oslr.logrank", "oslr.nonparametric",
        "oslr.render",
    ]
    assert _modules_after_cli_import("statistics") == []


def test_report_loads_the_results_module_alone(tmp_path):
    """`oslr report` reads the results file without the Monte Carlo engine:
    a fresh interpreter holds no `oslr.simulation` after it."""
    stats = {"two_sided_rate": 0.05, "one_sided_rate": 0.025, "n_evaluated": 40,
             "two_sided_interval": [0.0, 0.1], "one_sided_interval": [0.0, 0.07]}
    record = {"scenario": {"kappa": 1.0, "n_b": 50, "pi": 1.0}, "procedures": {"true_w0": stats}}
    results = tmp_path / "run.json"
    results.write_text(json.dumps([record]))
    snippet = f"""
import contextlib, io, json, sys
from oslr.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["report", {str(results)!r}])
print(json.dumps([code, "oslr.results" in sys.modules, "oslr.simulation" in sys.modules]))
"""
    assert json.loads(_fresh_interpreter(snippet)) == [0, True, False]


def test_package_import_leaves_simulation_out():
    assert _modules_after("import oslr", "oslr.simulation", "statistics") == []


def test_engine_import_loads_only_the_engine():
    """The Monte Carlo engine takes the formulas it shares with the analysis
    API from `oslr._kernels`: a fresh `import oslr.simulation` loads none of
    the analysis modules, and `import oslr` loads no module of its own."""
    assert _modules_after("import oslr.simulation", "oslr") == [
        "oslr", "oslr._kernels", "oslr.errors", "oslr.results", "oslr.simulation",
    ]
    assert _modules_after("import oslr", "oslr") == ["oslr"]


def test_simulation_exports_load_on_first_use():
    """The engine's names are exported lazily: listed by dir(), bound by a
    star import, and the engine's own objects once loaded."""
    snippet = """
import json, sys
import oslr
lazy = ["PROCEDURES", "Scenario", "SimulationResult", "generate_cohort",
        "load_scenarios", "mc_error_interval", "replicate_rng", "run_scenario"]
report = {"listed": all(name in dir(oslr) for name in lazy),
          "loaded_by_dir": "oslr.simulation" in sys.modules}
report["same"] = oslr.run_scenario is sys.modules["oslr.simulation"].run_scenario
report["cached"] = "run_scenario" in vars(oslr)
namespace = {}
exec("from oslr import *", namespace)
report["unbound"] = [name for name in oslr.__all__ if name not in namespace]
print(json.dumps(report))
"""
    assert json.loads(_fresh_interpreter(snippet)) == {
        "listed": True, "loaded_by_dir": False, "same": True, "cached": True,
        "unbound": [],
    }
    with pytest.raises(AttributeError, match="no_such_name"):
        oslr.no_such_name


def test_critical_value_loads_statistics_on_first_use():
    snippet = """
import json, sys
from oslr import critical_value
before = "statistics" in sys.modules
print(json.dumps([before, critical_value(0.05), "statistics" in sys.modules]))
"""
    assert json.loads(_fresh_interpreter(snippet)) == [False, 1.9599639845400536, True]


def test_test_json_loads_no_statistics():
    """The json output prints no critical value: `oslr test --format json`
    checks --alpha's range without computing the quantile, so it never loads
    `statistics`."""
    snippet = f"""
import contextlib, io, json, sys
from oslr.cli import main
argv = ["test", "--control", {DATA_CONTROL!r}, "--experimental", {DATA_EXPERIMENTAL!r},
        "--format", "json"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(argv)
print(json.dumps([code, len(json.loads(out.getvalue())), "statistics" in sys.modules]))
"""
    assert json.loads(_fresh_interpreter(snippet)) == [0, 4, False]


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_fit_prints_null_for_an_overflowed_information(tmp_path, capsys):
    """Times near 1e200 overflow the exponential's information 1 / rate^2:
    the output stays strict JSON, with null for it."""
    path = _write(tmp_path / "c.csv", [(1e200, 1), (3e200, 1), (2e200, 0)])
    assert main(["fit", "--control", path, "--family", "exponential"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert payload["info_matrix"] == [None]
    assert payload["theta_hat"][0] == pytest.approx(2.0 / 6e200, rel=1e-12)


def test_test_reads_times_whose_information_overflows(tmp_path, capsys):
    """The same data through `oslr test`: the corrected rows come from the
    information in log-parameters, so nothing overflows on the way."""
    path = _write(tmp_path / "c.csv", [(1e200, 1), (3e200, 1), (2e200, 0)])
    argv = ["test", "--control", path, "--experimental", path, "--format", "json"]
    assert main([*argv, "--family", "exponential"]) == 0
    reports = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    # the experimental arm is the control arm, at the fitted rate: M = 0
    assert [r["corrected"] for r in reports].count(True) == 2
    for report in reports:
        assert report["z"] == pytest.approx(0.0, abs=1e-12)


def test_fit_auto_prints_aic_table_and_selects(tmp_path, capsys):
    """auto mode reports all three candidate fits on stderr and picks the
    lowest AIC; abundant log-logistic data must select log-logistic."""
    rng = np.random.default_rng(MASTER_SEED)
    u = rng.random(5000)
    times = 1.4 * (u / (1.0 - u)) ** (1.0 / 1.25)
    cohort = Cohort(times, np.ones(5000, dtype=np.int64))
    path = tmp_path / "ll.csv"
    write_csv(path, cohort)
    assert main(["fit", "--control", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["family"] == "loglogistic"
    for name in ("exponential", "weibull", "loglogistic"):
        assert name in captured.err
    assert "aic" in captured.err


def test_fit_auto_table_reports_fit_diagnostics(capsys):
    """Each row of the auto table carries its fit's Newton iterations and
    the gradient norm it stopped at."""
    assert main(["fit", "--control", DATA_CONTROL]) == 0
    header, *rows = capsys.readouterr().err.splitlines()
    assert header.split() == ["family", "aic", "loglik", "iterations", "grad_norm"]
    assert [row.split()[0] for row in rows] == ["exponential", "weibull", "loglogistic"]
    for row in rows:
        iterations, grad_norm = row.split()[3:]
        assert int(iterations) >= 0
        assert 0.0 <= float(grad_norm) <= 1e-8


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


@pytest.mark.parametrize("pi", ["nan", "inf"])
def test_test_non_finite_pi_exits_one(capsys, pi):
    """A non-finite allocation ratio is a usage error; unchecked, `--pi nan`
    gives a NaN corrected z and p and `--pi inf` a z of -0."""
    code = main(
        ["test", "--control", DATA_CONTROL, "--experimental", DATA_EXPERIMENTAL,
         "--family", "weibull", "--pi", pi]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "pi" in captured.err and captured.out == ""


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_test_alpha_without_a_critical_value_exits_one(capsys, fmt):
    """Below alpha = 2^-52, 1 - alpha / 2 rounds to 1, which has no normal
    quantile: a usage error in either format, raised before any file is
    read or fitted, not a traceback. 2^-52 itself still has one."""
    argv = ["test", "--control", DATA_CONTROL, "--experimental", DATA_EXPERIMENTAL,
            "--format", fmt, "--alpha"]
    assert main([*argv, "1e-17"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: alpha") and "Traceback" not in captured.err
    assert captured.out == ""
    assert main([*argv, repr(2.0**-52)]) == 0
    if fmt == "table":
        assert "8.2095" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["1_5", "\uff11.\uff15", "nan"])
@pytest.mark.parametrize(
    "command, flag",
    [("test", flag) for flag in ("--w", "--horizon", "--alpha", "--pi")]
    + [("simulate", "--workers")],
)
def test_numeric_flags_take_only_ascii_literals(tmp_path, capsys, command, flag, value):
    """float() and int() read 1_5 as 15 and the full-width 1.5 as 1.5, and
    float() reads nan: every numeric flag refuses all three, a usage error
    naming the flag before anything runs."""
    if command == "test":
        argv = ["test", "--control", DATA_CONTROL, "--experimental", DATA_EXPERIMENTAL]
    else:
        argv = ["simulate", _scenario_file(tmp_path, n_b=5, replicates=2), "--workers", "1"]
    code = main([*argv, flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert flag in captured.err and captured.out == ""


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


def test_test_fixed_reference_parse_errors(tmp_path, capsys):
    path = _write(tmp_path / "b.csv", [(1, 1)])
    base = ["test", "--experimental", path, "--fixed-reference"]
    assert main(base + ["exponential"]) == 1
    assert main(base + ["exponential:abc"]) == 1
    assert main(base + ["gamma:1.0"]) == 1
    # float() would read these as 4 and 0.4
    assert main(base + ["exponential:0_4"]) == 1
    assert main(base + ["exponential:０.４"]) == 1
    # a known curve is neither fitted nor corrected: a run that ignored
    # --control, --pi or --family would print the known curve's rows
    for extra in (["--pi", "2"], ["--control", DATA_CONTROL], ["--family", "weibull"]):
        capsys.readouterr()
        assert main(base + ["exponential:1.0", *extra]) == 1
        captured = capsys.readouterr()
        assert extra[0] in captured.err and captured.out == ""


_ANALYSIS_REFERENCE = pathlib.Path(__file__).resolve().parent / "analysis_reference.json"
# the extra flags of each recorded `oslr test` run
_TEST_RUNS = {"default": [], "pi_w_horizon": ["--pi", "2", "--w", "0.25", "--horizon", "1.5"]}


@pytest.mark.parametrize("fam", ["exponential", "weibull", "loglogistic"])
def test_analysis_outputs_match_recorded_values(capsys, fam):
    """`oslr fit` and `oslr test --format json` of each family on the bundled
    data reproduce values recorded before the likelihood kernel moved to
    log-parameters, to rtol 1e-10; iterations and the missing V2 exactly."""
    recorded = json.loads(_ANALYSIS_REFERENCE.read_text())[fam]

    def run(*argv):
        assert main([*argv, "--family", fam]) == 0
        return json.loads(capsys.readouterr().out)

    def check(got, want):
        assert set(want) <= set(got)
        for key, value in want.items():
            if value is None or isinstance(value, int):
                assert got[key] == value, key
            else:
                assert_allclose(got[key], value, rtol=1e-10, err_msg=key)

    check(run("fit", "--control", DATA_CONTROL), recorded["fit"])
    for name, extra in _TEST_RUNS.items():
        reports = run(
            "test", "--control", DATA_CONTROL, "--experimental", DATA_EXPERIMENTAL,
            "--format", "json", *extra,
        )
        assert len(reports) == len(recorded[f"test {name}"])
        for got, want in zip(reports, recorded[f"test {name}"]):
            check(got, want)


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
            "control": Cohort([1.0, 2.0, 4.0], [1, 1, 0]),
            "experimental": Cohort([2.0, 3.0], [1, 0]),
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


def test_km_svg_escapes_group_labels(tmp_path, capsys):
    """Group labels are SVG text: &, < and > in them still give well-formed
    files that show the label as written."""
    grouped = tmp_path / "both.csv"
    write_csv(
        grouped,
        {"A&B": Cohort([1.0, 2.0, 4.0], [1, 1, 0]), "<x>": Cohort([2.0, 3.0], [1, 0])},
    )
    prefix = tmp_path / "g"
    assert main(["km", "--control", str(grouped), "--svg", "--out", str(prefix)]) == 0
    capsys.readouterr()
    for label in ("A&B", "<x>"):
        root = ET.parse(f"{prefix}_{label}.svg").getroot()
        texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
        assert f"KM {label}" in texts


@pytest.mark.parametrize("label", ["a/b", "a\0b"])
def test_km_refuses_a_label_that_cannot_be_in_a_file_name(tmp_path, capsys, label):
    """A group label is part of a file name: one that holds a path separator
    or a NUL is refused before any group's files are written."""
    grouped = tmp_path / "both.csv"
    write_csv(grouped, {"ok": Cohort([1.0, 2.0], [1, 0]), label: Cohort([2.0, 3.0], [1, 0])})
    prefix = tmp_path / "k"
    assert main(["km", "--control", str(grouped), "--out", str(prefix)]) == 1
    assert repr(label) in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["both.csv"]


def test_km_refuses_two_cohorts_with_one_label(tmp_path, capsys):
    """A grouped control file's experimental group and an ungrouped
    --experimental file would write the same files: refused before any is
    written, rather than one cohort's curves overwriting the other's."""
    grouped = tmp_path / "both.csv"
    write_csv(
        grouped,
        {"control": Cohort([1.0, 2.0], [1, 0]), "experimental": Cohort([2.0, 3.0], [1, 0])},
    )
    other = _write(tmp_path / "b.csv", [(1, 1), (4, 0)])
    prefix = tmp_path / "k"
    argv = ["km", "--control", str(grouped), "--experimental", other, "--out", str(prefix)]
    assert main(argv) == 1
    assert "'experimental'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "both.csv"]


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


@pytest.mark.parametrize(
    "override",
    [
        {"seed": 1.5},
        {"seed": True},
        {"replicates": 2.7},
        {"n_b": 5.9},
        {"kappa": "nan"},
        {"pi": float("inf")},  # written as the JSON token Infinity
    ],
    ids=["seed-float", "seed-bool", "replicates-float", "n_b-float", "kappa-nan", "pi-inf"],
)
def test_simulate_rejects_coercible_scenario_values(tmp_path, capsys, override):
    """Values that a conversion would round, reinterpret or let through as
    non-finite are a usage error, not a silently different cell."""
    path = _scenario_file(tmp_path, **override)
    assert main(["simulate", path, "--workers", "1"]) == 1
    (name,) = override
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("kappa", [0.01, 0.001, 1e-300, 1e308])
def test_simulate_refuses_kappa_outside_its_range(tmp_path, capsys, kappa):
    """Shapes outside [0.05, 100] used to end in a traceback (event times
    underflowing to zero, an overflowing scale) or leak an overflow warning;
    they are a usage error."""
    path = _scenario_file(tmp_path, kappa=kappa)
    assert main(["simulate", path, "--workers", "1"]) == 1
    assert "kappa must be a number in [0.05, 100.0]" in capsys.readouterr().err


# JSON values a hand-written scenario may hold. Only values a Scenario
# refuses may make a cell large, so every accepted cell stays small: at most
# 3 replicates of n_b <= 12 and pi >= 0.25 (n_a <= 48), times 8 cells.
_NON_NUMBERS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_HUGE_INTS = st.integers(2**1024, 2**1100)  # past float range
_CELL = {"kappa": 1.0, "n_b": 5, "pi": 1.0, "replicates": 2, "seed": 1}
_JUNK = st.one_of(_NON_NUMBERS, st.integers(-(2**70), 2**70), _HUGE_INTS, st.floats())
_REFUSED_COUNT = st.one_of(_NON_NUMBERS, st.integers(max_value=0), st.floats())


def _field(valid, refused):
    """A scalar or a list of up to two, as kappa, n_b and pi may be."""
    value = st.one_of(valid, refused)
    return st.one_of(value, st.lists(value, max_size=2))


_SCENARIO_DICTS = st.fixed_dictionaries(
    {
        "kappa": _field(st.one_of(st.floats(), st.integers()), _JUNK),
        "n_b": _field(
            st.integers(1, 12),
            st.one_of(_REFUSED_COUNT, st.integers(min_value=10**6), _HUGE_INTS),
        ),
        "pi": _field(
            st.floats(min_value=0.25),
            st.one_of(_NON_NUMBERS, _HUGE_INTS, st.floats(max_value=1e-6), st.just(math.nan)),
        ),
        "replicates": st.one_of(st.integers(1, 3), _REFUSED_COUNT),
        "seed": st.one_of(st.integers(0, 2**64 - 1), _JUNK),
    },
    optional={
        "alpha": _JUNK,
        "accrual_years": _JUNK,
        "followup_years": _JUNK,
        "mode": _JUNK,
    },
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=st.one_of(_SCENARIO_DICTS, _JUNK))
# tracebacks the property found before the scenario ranges existed
@example(spec={**_CELL, "kappa": 2**1100})
@example(spec={**_CELL, "alpha": 5e-324})
@example(spec={**_CELL, "accrual_years": 5e-324, "followup_years": 0.0})
@example(spec={**_CELL, "accrual_years": 1e308, "followup_years": 1e308})
def test_simulate_never_ends_in_a_traceback(tmp_path, spec):
    """Whatever JSON a scenario file holds, simulate exits 0 to 3 with its
    message on stderr; an exception escaping main (a leaked numpy warning
    included, which the suite turns into an error) fails the property."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", str(path), "--workers", "1"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert isinstance(json.loads(out.getvalue()), list)


_CSV_HEADERS = st.sampled_from(["time,event", "event,time", "time, event", "time", "t,e"])
_CSV_TIMES = st.one_of(
    st.floats(0.01, 100.0).map(repr),
    # huge and tiny times, where natural-scale quantities over- and underflow
    st.sampled_from(["1e200", "3e200", "1e308", "1e-200", "1e-320", "5e-324"]),
    st.sampled_from(["0", "-1", "nan", "inf", "x", ""]),
)
_CSV_ROWS = st.lists(
    st.tuples(_CSV_TIMES, st.sampled_from(["0", "1", "1", "2", "x"])).map(",".join),
    max_size=4,
)
_CSV_TEXTS = st.builds(
    lambda header, rows: "\n".join([header, *rows]) + "\n", _CSV_HEADERS, _CSV_ROWS
)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["fit", "test", "km"]),
    family=st.sampled_from(["auto", "exponential", "weibull", "loglogistic"]),
    control=_CSV_TEXTS,
    experimental=_CSV_TEXTS,
)
# tracebacks this property found: the information overflowed into pinv; an
# expected-event count and a corrected variance overflowed on experimental
# times far past the control's; a time overflowed on standardization
@example(
    command="test",
    family="exponential",
    control="time,event\n1e200,1\n3e200,1\n2e200,0\n",
    experimental="time,event\n1e200,1\n3e200,1\n2e200,0\n",
)
@example(
    command="test",
    family="auto",
    control="time,event\n1e-200,1\n",
    experimental="time,event\n1e200,0\n",
)
@example(
    command="test",
    family="auto",
    control="time,event\n1.0,1\n",
    experimental="time,event\n1e200,0\n",
)
@example(
    command="fit",
    family="auto",
    control="time,event\n0.5,0\n0.5,0\n1e308,1\n",
    experimental="time,event\n",
)
# bytes that are not UTF-8 (written from the lone surrogate), and a cell past
# the csv module's field size limit
@example(
    command="test",
    family="auto",
    control="time,event\n1.0,1\n",
    experimental="time,event\n1.0,1\udcff\n",
)
@example(
    command="fit",
    family="auto",
    control="time,event\n" + "1" * 131073 + ",1\n",
    experimental="time,event\n",
)
def test_analysis_commands_never_end_in_a_traceback(
    tmp_path, command, family, control, experimental
):
    """Whatever tiny CSV texts the arms hold, fit, test and km exit 0 to 3
    with their message on stderr; an exception escaping main (a leaked
    numpy warning included, which the suite turns into an error) fails the
    property."""
    paths = []
    for name, text in (("control", control), ("experimental", experimental)):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        paths.append(str(path))
    argv = [command, "--control", paths[0]]
    if command != "fit":
        argv += ["--experimental", paths[1]]
    if command == "km":
        argv += ["--out", str(tmp_path / "km")]
    else:
        argv += ["--family", family]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_simulate_grid_and_outputs(tmp_path, capsys):
    """simulate prints the JSON list of the grid's cells, and --out writes
    them to <out>.json and no other file."""
    path = _scenario_file(tmp_path, kappa=[0.5, 1.0])
    out = tmp_path / "run"
    assert main(["simulate", path, "--workers", "1", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert [r["scenario"]["kappa"] for r in printed] == [0.5, 1.0]
    assert json.loads((tmp_path / "run.json").read_text()) == printed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "scenario.json"]


def test_simulate_out_files_equal_its_stdout(tmp_path, capsys):
    """<out>.json holds byte for byte what simulate prints, the indented
    dump of the record list."""
    path = _scenario_file(tmp_path, kappa=[0.5, 1.0, 2.0], n_b=5, replicates=3)
    out = tmp_path / "run"
    assert main(["simulate", path, "--workers", "1", "--out", str(out)]) == 0
    printed_json = capsys.readouterr().out
    assert printed_json == json.dumps(json.loads(printed_json), indent=2) + "\n"
    assert (tmp_path / "run.json").read_bytes() == printed_json.encode()


@pytest.mark.parametrize("cells", [0, 1, 2])
def test_json_list_is_the_indented_dump_of_the_records(cells):
    """The results file's text, built from each record's own text, is what
    json.dumps gives for the record list, the empty list included."""
    from oslr.results import json_list
    from oslr.simulation import Scenario, run_scenario

    scenarios = [
        Scenario(kappa=kappa, n_b=5, pi=1.0, replicates=3, seed=MASTER_SEED)
        for kappa in [0.5, 1.0][:cells]
    ]
    results = [run_scenario(s, workers=1) for s in scenarios]
    want = json.dumps([r.to_json_dict() for r in results], indent=2)
    assert json_list([r.to_json() for r in results]) == want


def test_simulate_writes_strict_json_where_nothing_was_evaluated(tmp_path, capsys):
    """With n_A = n_B = 1 the fitted and two-sample procedures are evaluated
    on no replicate: their rates and intervals are null, not the bare NaN
    that JSON does not define, in what simulate prints and in <out>.json.
    report reads the file, and reads an older file's NaN there alike; a
    null where a procedure was evaluated is malformed."""
    path = _scenario_file(tmp_path, kappa=0.05, n_b=1, pi=1.0, replicates=1, seed=0)
    assert main(["simulate", path, "--workers", "1", "--out", str(tmp_path / "run")]) == 0
    printed = capsys.readouterr().out

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    saved = (tmp_path / "run.json").read_text()
    for text in (printed, saved):
        (record,) = json.loads(text, parse_constant=refuse)
        stats = record["procedures"]["corrected_w0"]
        assert stats["n_evaluated"] == 0
        assert stats["two_sided_rate"] is None and stats["one_sided_interval"] == [None, None]
    assert main(["report", str(tmp_path / "run.json")]) == 0
    table = capsys.readouterr().out
    assert "nan" in table
    older = tmp_path / "older.json"
    older.write_text(saved.replace("null", "NaN"))
    assert main(["report", str(older)]) == 0
    assert capsys.readouterr().out == table
    record["procedures"]["true_w0"]["two_sided_rate"] = None
    older.write_text(json.dumps([record]))
    assert main(["report", str(older)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_interrupted_grid_keeps_the_cells_it_finished(tmp_path, capsys, monkeypatch):
    """A grid run that fails in its third cell leaves <out>.json holding the
    first two cells, which ``report`` reads, and no temporary file beside
    it."""
    from oslr import simulation

    run_scenario = simulation.run_scenario
    calls = []

    def failing_third(scenario, workers=None):
        calls.append(scenario)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return run_scenario(scenario, workers=workers)

    monkeypatch.setattr(simulation, "run_scenario", failing_third)
    path = _scenario_file(tmp_path, kappa=[0.5, 1.0, 2.0], n_b=5, replicates=3)
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", path, "--workers", "1", "--out", str(out)])
    records = json.loads((tmp_path / "run.json").read_text())
    assert [r["scenario"]["kappa"] for r in records] == [0.5, 1.0]
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == ["run.json", "scenario.json"]
    capsys.readouterr()
    assert main(["report", str(tmp_path / "run.json"), "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 7 * 2


def test_simulate_out_into_a_missing_directory_runs_no_cell(tmp_path, capsys, monkeypatch):
    """An --out that cannot be written fails before the first cell runs,
    not after it."""
    from oslr import simulation

    calls = []
    monkeypatch.setattr(simulation, "run_scenario", lambda *a, **k: calls.append(a))
    path = _scenario_file(tmp_path, kappa=[0.5, 1.0])
    out = tmp_path / "missing" / "run"
    assert main(["simulate", path, "--workers", "1", "--out", str(out)]) == 1
    assert calls == []
    assert str(out) in capsys.readouterr().err


def test_simulate_out_error_names_the_path_given(tmp_path, capsys):
    """A results file that cannot be written is named as the user gave it,
    not by the temporary file written beside it."""
    path = _scenario_file(tmp_path, n_b=5, replicates=2)
    out = tmp_path / "missing" / "run"
    assert main(["simulate", path, "--workers", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f"'{out}.json'")
    assert ".tmp" not in err


def test_simulate_invalid_scenario_exits_one(tmp_path, capsys):
    path = _scenario_file(tmp_path, mode="extra")
    assert main(["simulate", path]) == 1
    assert "unknown" in capsys.readouterr().err


def test_simulate_seed_past_64_bits_exits_one(tmp_path, capsys):
    """A seed of 2**64 or more cannot key a replicate stream: usage error,
    not a traceback. 2**64 - 1 still runs."""
    path = _scenario_file(tmp_path, n_b=5, replicates=2, seed=2**64)
    assert main(["simulate", path, "--workers", "1"]) == 1
    assert "seed" in capsys.readouterr().err
    path = _scenario_file(tmp_path, n_b=5, replicates=2, seed=2**64 - 1)
    assert main(["simulate", path, "--workers", "1"]) == 0


def test_simulate_oversize_json_integer_exits_one(tmp_path, capsys):
    """An integer literal past Python's int string limit (4,300 digits) makes
    json raise a plain ValueError, not a JSONDecodeError: usage error, not a
    traceback."""
    path = tmp_path / "scenario.json"
    path.write_text(
        '{"kappa": 1.0, "n_b": 5, "pi": 1.0, "replicates": 2, "seed": ' + "1" * 5000 + "}"
    )
    assert main(["simulate", str(path), "--workers", "1"]) == 1
    assert "JSON" in capsys.readouterr().err


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
    # rows read back from the JSON equal the rows of the run's own record
    from oslr.results import record_rows, write_rows_csv
    from oslr.simulation import load_scenarios, run_scenario

    (cell,) = load_scenarios(scenario)
    expected = io.StringIO()
    write_rows_csv(expected, record_rows(run_scenario(cell, workers=1).to_json_dict()))
    assert report_csv == expected.getvalue()
    # the CSV has one renderer: simulate takes no --format
    assert main(["simulate", scenario, "--workers", "1", "--format", "csv"]) == 1


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
    # a count that is not an integer, or a rate that is not a number, would
    # reach the table's format codes
    stats = {"two_sided_rate": 0.05, "one_sided_rate": 0.025, "n_evaluated": 40,
             "two_sided_interval": [0.0, 0.1], "one_sided_interval": [0.0, 0.07]}
    good = {"scenario": {"kappa": 1.0, "n_b": 50, "pi": 1.0}, "procedures": {"true_w0": stats}}
    bad_records = [
        {**good, "scenario": {**good["scenario"], "n_b": 50.5}},
        {**good, "scenario": {**good["scenario"], "n_b": "x"}},
        {**good, "procedures": {"true_w0": {**stats, "n_evaluated": 40.0}}},
        {**good, "procedures": {"true_w0": {**stats, "two_sided_rate": "x"}}},
        {**good, "procedures": []},
    ]
    record = tmp_path / "record.json"
    for fmt in ("table", "csv"):
        record.write_text(json.dumps([good]))
        assert main(["report", str(record), "--format", fmt]) == 0
        for bad_record in bad_records:
            record.write_text(json.dumps([bad_record]))
            assert main(["report", str(record), "--format", fmt]) == 1


def test_report_oversize_json_integer_exits_one(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text("[" + "7" * 5000 + "]")
    assert main(["report", str(huge)]) == 1
    assert "JSON" in capsys.readouterr().err
