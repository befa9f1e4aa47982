"""Hash oslr's outputs into a manifest, or compare two manifests.

    PYTHONPATH=src python3 tests/equivalence.py write OUT.json
    python3 tests/equivalence.py compare A.json B.json

``write`` runs the oslr that PYTHONPATH points at on this tree's inputs and
records one SHA-256 (or exit code) per output:

- ``fit`` (auto and each family), ``test`` (auto and each family, table and
  json, with no flag and with ``--pi 2 --w 0.25 --horizon 1.5``; and
  ``--fixed-reference weibull:1.0,1.44`` in both formats) and
  ``km --family auto --svg`` on the bundled CSVs: exit code, stdout, stderr
  and every file written;
- the seed-77 design of ``tests/seed77_counts.json`` through
  ``simulate --out`` at 1 and 2 workers: exit code, stdout and the one
  file it writes, the results JSON;
- ``report`` on the 1-worker run's results JSON, as the table and as
  ``--format csv``, each to stdout and with ``--out``: the same entries;
- the bytes of ``simulation._block_z``'s z-values over kappa in
  {0.05, 1, 100} x n_B in {1, 5, 50} x pi in {1/16, 1, 2}, seed 77, 60
  replicates per cell, with warnings as errors;
- ``run_scenario``'s counts on every cell of ``perfbench/reference.json``:
  per cell and worker count (1 and 2), one hash of the counts over the
  file's seeds in the file's order, and per cell the list of seeds whose
  counts differ from the file's at either worker count.

``compare`` prints each key whose value differs, or that only one manifest
holds, and exits 1 if there is any. Two trees give the same results when
their manifests compare equal. The script uses the stdlib and numpy only,
and pytest does not collect it.
"""

import hashlib
import itertools
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_FAMILIES = ["auto", "exponential", "weibull", "loglogistic"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_runs():
    """(name, argv) of every command run; inputs sit one directory up."""
    runs = [f"fit --control ../control.csv --family {f}" for f in _FAMILIES]
    inputs = "--control ../control.csv --experimental ../experimental.csv"
    for family, flags, fmt in itertools.product(
        _FAMILIES, ["", " --pi 2 --w 0.25 --horizon 1.5"], ["table", "json"]
    ):
        out = " --out report.json" if fmt == "json" else ""
        runs.append(f"test {inputs} --family {family}{flags} --format {fmt}{out}")
    for fmt in ("table", "json"):
        runs.append(
            "test --experimental ../experimental.csv "
            f"--fixed-reference weibull:1.0,1.44 --format {fmt}"
        )
    runs.append(f"km {inputs} --family auto --svg --out curves")
    runs += [f"simulate ../seed77.json --workers {w} --out grid" for w in (1, 2)]
    for fmt, out in (("table", "table.txt"), ("csv", "rows.csv")):
        runs += [f"report ../grid.json --format {fmt}" + flag for flag in ("", f" --out {out}")]
    return [(run, run.split()) for run in runs]


def _cli_hashes(src: str) -> dict:
    manifest = {}
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)
        for name in ("control.csv", "experimental.csv"):
            shutil.copy(_ROOT / "data" / name, base / name)
        design = json.loads((_ROOT / "tests" / "seed77_counts.json").read_text())
        (base / "seed77.json").write_text(json.dumps(design["scenario"]))
        for k, (name, argv) in enumerate(_cli_runs()):
            run_dir = base / str(k)
            run_dir.mkdir()
            done = subprocess.run(
                [sys.executable, "-m", "oslr.cli", *argv],
                cwd=run_dir, env=env, capture_output=True, check=False,
            )
            manifest[f"{name} :: exit"] = done.returncode
            manifest[f"{name} :: stdout"] = _sha(done.stdout)
            manifest[f"{name} :: stderr"] = _sha(done.stderr)
            for path in sorted(run_dir.iterdir()):
                manifest[f"{name} :: file {path.name}"] = _sha(path.read_bytes())
            # report reads the results JSON of the first simulate run
            if (run_dir / "grid.json").exists() and not (base / "grid.json").exists():
                shutil.copy(run_dir / "grid.json", base / "grid.json")
    return manifest


def _block_hashes() -> dict:
    from oslr.simulation import Scenario, _block_z, _uniforms

    manifest = {}
    for kappa, n_b, pi in itertools.product([0.05, 1.0, 100.0], [1, 5, 50], [0.0625, 1.0, 2.0]):
        s = Scenario(kappa=kappa, n_b=n_b, pi=pi, replicates=60, seed=77)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = _sha(_block_z(s, _uniforms(s, 0, s.replicates)).tobytes())
        except Exception as exc:  # recorded, so that compare shows it
            value = f"raised {type(exc).__name__}: {exc}"
        manifest[f"_block_z kappa={kappa} n_b={n_b} pi={pi}"] = value
    return manifest


def _reference_hashes() -> dict:
    from oslr.simulation import Scenario, run_scenario

    reference = json.loads((_ROOT / "perfbench" / "reference.json").read_text())
    manifest = {}
    for key, by_seed in reference["cells"].items():
        cell = dict(item.split("=") for item in key.split(","))
        differ = set()
        for workers in (1, 2):
            counts = []
            for seed, want in by_seed.items():
                s = Scenario(
                    kappa=float(cell["kappa"]), n_b=int(cell["n_b"]), pi=float(cell["pi"]),
                    replicates=int(cell["replicates"]), seed=int(seed),
                )
                r = run_scenario(s, workers=workers)
                arrays = r.evaluated, r.rejected_two, r.rejected_one
                counts.append([int(v) for a in arrays for v in a])
                if counts[-1] != want:
                    differ.add(int(seed))
            manifest[f"run_scenario {key} workers={workers}"] = _sha(json.dumps(counts).encode())
        manifest[f"run_scenario {key} :: seeds differing from the file"] = sorted(differ)
    return manifest


def write(out: str) -> None:
    import numpy as np
    import oslr

    src = str(pathlib.Path(oslr.__file__).resolve().parents[1])
    print(f"oslr {oslr.__version__} from {src}, numpy {np.__version__}", file=sys.stderr)
    manifest = {**_cli_hashes(src), **_block_hashes(), **_reference_hashes()}
    pathlib.Path(out).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(manifest)} entries written to {out}", file=sys.stderr)


def compare(a: str, b: str) -> int:
    left = json.loads(pathlib.Path(a).read_text())
    right = json.loads(pathlib.Path(b).read_text())
    keys = left.keys() | right.keys()
    differ = sorted(k for k in keys if left.get(k) != right.get(k))
    for key in differ:
        print(f"{key}: {left.get(key, '(missing)')} != {right.get(key, '(missing)')}")
    print(f"{len(differ)} of {len(keys)} entries differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
