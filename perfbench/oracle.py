"""Correctness oracle for every benchmark operation.

Each check returns a list of problems; an empty list means the operation's
output is correct. Any problem fails the operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

PROCEDURES = (
    "true_w0",
    "true_w05",
    "uncorrected_w0",
    "uncorrected_w05",
    "corrected_w0",
    "corrected_w05",
    "two_sample",
)
# procedures whose two-sided rate holds the nominal level under the null
BAND_PROCEDURES = ("true_w0", "corrected_w0", "two_sample")
# a rejection count this unlikely under Binomial(n, alpha) fails the band: a
# correct program fails about one check in a million, while the uncorrected
# test's inflated rate at n_B = 50 (0.18) fails it nine times in ten at R = 200
BAND_TAIL_PROBABILITY = 1e-6
# result fields of `oslr fit` compared with the reference; iterations is a
# diagnostic of the optimizer, not a result, and is left out
FIT_FIELDS = ("family", "theta_hat", "info_matrix", "loglik", "aic", "n", "converged")
REL_TOL = 1e-6
# seeds whose cell counts reference.json holds, besides the default seed
REFERENCE_SEEDS = range(256)


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cell_counts(result) -> list[int]:
    """evaluated, rejected_two and rejected_one, in PROCEDURES order."""
    return [
        int(v)
        for arr in (result.evaluated, result.rejected_two, result.rejected_one)
        for v in arr
    ]


def check_failed_counts(result) -> list[str]:
    """Every procedure's n_evaluated + n_failed must be the replicate count."""
    replicates = result.scenario.replicates
    return [
        f"{name}: n_evaluated + n_failed != {replicates}"
        for name in PROCEDURES
        if result.n_evaluated(name) + result.n_failed(name) != replicates
    ]


def _binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [
        math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
        for i in range(n + 1)
    ]
    return sum(pmf[: k + 1]), sum(pmf[k:])


def check_cell(counts, replicates: int, alpha: float, reference=None) -> list[str]:
    """Oracle for one simulation cell.

    With a reference (same cell and seed, from the parent commit) every
    count must match exactly. Without one, the counts must be consistent
    (evaluations within R, rejections within evaluations) and the two-sided
    rates of BAND_PROCEDURES must lie in the binomial band around alpha.
    """
    problems = []
    if len(counts) != 3 * len(PROCEDURES):
        return [f"expected {3 * len(PROCEDURES)} counts, got {len(counts)}"]
    k = len(PROCEDURES)
    evaluated, rej_two, rej_one = counts[:k], counts[k : 2 * k], counts[2 * k :]
    if reference is not None and list(counts) != list(reference):
        for i, name in enumerate(PROCEDURES):
            got = (evaluated[i], rej_two[i], rej_one[i])
            want = (reference[i], reference[k + i], reference[2 * k + i])
            if got != want:
                problems.append(
                    f"{name}: (n_evaluated, rejected_two, rejected_one) = {got}, "
                    f"reference {want}"
                )
    for i, name in enumerate(PROCEDURES):
        if not 0 <= evaluated[i] <= replicates:
            problems.append(f"{name}: n_evaluated {evaluated[i]} outside [0, {replicates}]")
        if not (0 <= rej_two[i] <= evaluated[i] and 0 <= rej_one[i] <= evaluated[i]):
            problems.append(f"{name}: rejections exceed evaluations")
    for name in BAND_PROCEDURES:
        i = PROCEDURES.index(name)
        n = evaluated[i]
        if n == 0:
            problems.append(f"{name}: no replicate evaluated")
            continue
        lower, upper = _binomial_tails(rej_two[i], n, alpha)
        if min(lower, upper) < BAND_TAIL_PROBABILITY:
            problems.append(
                f"{name}: two-sided rate {rej_two[i]}/{n} outside the binomial "
                f"band around alpha={alpha}"
            )
    return problems


def _close(got, want) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


def check_test_output(stdout: str, reference: list) -> list[str]:
    """`oslr test --format json`: every reference field within 1e-6 relative."""
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"test output is not JSON: {exc}"]
    if not isinstance(reports, list) or len(reports) != len(reference):
        return [f"expected {len(reference)} test reports"]
    problems = []
    for i, (got, want) in enumerate(zip(reports, reference)):
        for key, value in want.items():
            if not _close(got.get(key), value):
                problems.append(f"report {i} {key}: {got.get(key)!r} != {value!r}")
    return problems


def check_fit_output(stdout: str, reference: dict) -> list[str]:
    """`oslr fit`: result fields within 1e-6 relative of the reference."""
    try:
        fit = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"fit output is not JSON: {exc}"]
    if not isinstance(fit, dict):
        return ["fit output is not a JSON object"]
    return [
        f"fit {key}: {fit.get(key)!r} != {reference[key]!r}"
        for key in FIT_FIELDS
        if not _close(fit.get(key), reference[key])
    ]


def _read_curve(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["time", "value"]:
        raise ValueError("header must be time,value")
    return [(float(t), float(v)) for t, v in rows[1:]]


def _check_curve(path: Path, kind: str) -> list[str]:
    try:
        points = _read_curve(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    if len(points) < 2:
        return [f"{path.name}: fewer than two points"]
    times = [t for t, _ in points]
    values = [v for _, v in points]
    problems = []
    if times[0] < 0 or any(b < a for a, b in zip(times, times[1:])):
        problems.append(f"{path.name}: times not nondecreasing from 0")
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{path.name}: non-finite value")
    elif kind == "na":
        if values[0] != 0.0 or any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"{path.name}: cumulative hazard not nondecreasing from 0")
    else:
        if any(not 0.0 <= v <= 1.0 for v in values):
            problems.append(f"{path.name}: survival outside [0, 1]")
        if any(b > a + 1e-12 for a, b in zip(values, values[1:])):
            problems.append(f"{path.name}: survival increases")
        if kind == "km" and values[0] != 1.0:
            problems.append(f"{path.name}: survival does not start at 1")
    return problems


def check_km_output(stdout: str, expected_stems: list[str]) -> list[str]:
    """`oslr km --family auto --svg`: curve CSVs monotone and in range, SVG
    well-formed XML, for each cohort stem."""
    listed = [line.strip() for line in io.StringIO(stdout) if line.strip()]
    problems = []
    for stem in expected_stems:
        for suffix, kind in (("_km.csv", "km"), ("_na.csv", "na"), ("_fit.csv", "fit")):
            path = Path(stem + suffix)
            if str(path) not in listed:
                problems.append(f"{path.name}: not reported as written")
            problems += _check_curve(path, kind)
        svg = Path(stem + ".svg")
        if str(svg) not in listed:
            problems.append(f"{svg.name}: not reported as written")
        try:
            root = ET.parse(svg).getroot()
        except (OSError, ET.ParseError) as exc:
            problems.append(f"{svg.name}: not well-formed XML ({exc})")
        else:
            if not root.tag.endswith("svg"):
                problems.append(f"{svg.name}: root element is {root.tag}")
    return problems
