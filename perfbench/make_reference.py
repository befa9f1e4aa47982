"""Regenerate perfbench/reference.json from the oslr sources in this checkout.

The committed file was generated from the parent commit of the benchmark
(the one whose sources it records in "generated_from"). Run it again only on
purpose: the reference is what every later change is checked against.

    python3 perfbench/make_reference.py

It stores, for each simulation cell the benchmark runs, the per-procedure
(n_evaluated, rejected_two, rejected_one) counts at one worker for the
reference seeds (oracle.REFERENCE_SEEDS) and the default seed, and the JSON
that `oslr test --format json` and `oslr fit` print on the bundled data.
"""

import json
import re
import sys

import oracle
import workloads as wl


def main() -> int:
    missing = wl.program_present()
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    wl.import_program()

    seeds = sorted({*oracle.REFERENCE_SEEDS, wl.DEFAULT_SEED})
    cells = {}
    for cell in (wl.SIM_SMALL, wl.SIM_LARGE, wl.SIM_POOL, wl.POOL_STARTUP):
        cells[cell.key] = {
            str(seed): oracle.cell_counts(wl.run_cell(cell, seed, workers=1)[1])
            for seed in seeds
        }
        print(f"{cell.key}: {len(seeds)} seeds", file=sys.stderr)

    cli = {}
    for name, argv in wl.cli_commands(wl.OUT / "reference" / "km")[:2]:
        _, code, out, err = wl.run_cli_subprocess(argv)
        if code != 0:
            print(f"error: oslr {name} exited {code}: {err}", file=sys.stderr)
            return 1
        cli[name] = json.loads(out)
        if name == "fit":
            cli[name] = {key: cli[name][key] for key in oracle.FIT_FIELDS}

    reference = {
        "generated_from": {"git_sha": wl.git_sha(), "source_sha256": wl.source_sha256()},
        "default_seed": wl.DEFAULT_SEED,
        "count_layout": "n_evaluated[7], rejected_two[7], rejected_one[7] in "
                        + ", ".join(oracle.PROCEDURES) + " order",
        "cells": cells,
        "cli": cli,
    }
    with open(oracle.REFERENCE_PATH, "w") as fh:
        fh.write(dumps(reference))
    return 0


def dumps(reference: dict) -> str:
    """Indented JSON with each list of counts on one line."""
    text = json.dumps(reference, indent=1)
    return re.sub(r"\[\s+([\d,\s]+?)\s+\]", lambda m: "[" + "".join(m.group(1).split()) + "]",
                  text) + "\n"


if __name__ == "__main__":
    sys.exit(main())
