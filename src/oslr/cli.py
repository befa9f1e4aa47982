"""Command-line surface: fit, test, km, simulate, report.

Exit codes: 0 success, 1 usage or configuration problem, 2 fit failure,
3 degenerate test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from ._kernels import check_alpha, critical_value
from .data import DECIMAL, ingest_csv
from .errors import (
    DegenerateTestError,
    FitError,
    OslrError,
    RowValidationError,
    SchemaError,
    SelectionError,
    UsageError,
)
from .families import FAMILIES, survival
from .fitting import fit_mle, select_model
from .logrank import ReferenceCurve, oslr_test
from .nonparametric import kaplan_meier, nelson_aalen
from .render import render_curves

EXIT_OK, EXIT_USAGE, EXIT_FIT, EXIT_DEGENERATE = 0, 1, 2, 3


def _load_cohort(path, prefer):
    """Load one cohort from a CSV that may or may not carry a group column."""
    loaded = ingest_csv(path)
    if not isinstance(loaded, dict):
        return loaded
    for label in prefer:
        if label in loaded:
            return loaded[label]
    if len(loaded) == 1:
        return next(iter(loaded.values()))
    raise UsageError(
        f"{path}: contains groups {sorted(loaded)}; expected one of {list(prefer)}"
    )


def _ascii(convert):
    """An argparse type that reads with ``convert`` (float or int) only an
    ASCII decimal literal (``data.DECIMAL``), all digits for int: float()
    and int() alone also read 1_5 and non-ASCII digits, float() inf and nan."""

    def parse(text: str):
        if not DECIMAL.fullmatch(text) or (convert is int and not text.isdigit()):
            raise argparse.ArgumentTypeError(f"{text!r} is not an ASCII {convert.__name__}")
        return convert(text)

    return parse


def _parse_fixed_reference(text: str) -> ReferenceCurve:
    name, sep, raw = text.partition(":")
    if not sep or not raw.strip():
        raise UsageError(
            f"--fixed-reference must look like 'family:p1[,p2]', got {text!r}"
        )
    parts = [part.strip() for part in raw.split(",")]
    if not all(map(DECIMAL.fullmatch, parts)):
        raise UsageError(f"--fixed-reference parameters {raw!r} are not numbers")
    return ReferenceCurve.fixed(name, [float(part) for part in parts])


def _select_fit(cohort, family_name: str):
    """Fit the requested family, or all three and keep the lowest AIC."""
    if family_name != "auto":
        return fit_mle(family_name, cohort)
    fits = []
    lines = [f"{'family':<13} {'aic':<12} {'loglik':<12} {'iterations':<10} grad_norm"]
    for name in FAMILIES:
        try:
            fit = fit_mle(name, cohort)
        except FitError as exc:
            lines.append(f"{name:<13} failed: {exc}")
            continue
        fits.append(fit)
        lines.append(
            f"{name:<13} {fit.aic:<12.4f} {fit.loglik:<12.4f} {fit.iterations:<10d} "
            f"{fit.grad_norm:.2e}"
        )
    print("\n".join(lines), file=sys.stderr)
    return select_model(fits)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_fit(args) -> None:
    try:
        cohort = _load_cohort(args.control, prefer=("control", "A"))
    except (SchemaError, RowValidationError) as exc:
        # unreadable input means no fit can be produced
        raise FitError(str(exc)) from exc
    _emit(_select_fit(cohort, args.family).to_json(), args.out)


def _method_label(report) -> str:
    kind = "corrected" if report.corrected else "uncorrected"
    return f"{kind} w={report.w:g}"


def _table1(reports, alpha: float) -> str:
    header = f"{'method':<22} {'M_OSLR':>9} {'V1':>9} {'V2':>9} {'Z':>9} {'p':>9}"
    lines = [header, "-" * len(header)]
    for r in reports:
        v2 = f"{r.v2:>9.4f}" if r.v2 is not None else f"{'-':>9}"
        lines.append(
            f"{_method_label(r):<22} {r.m_oslr:>9.4f} {r.v1:>9.4f} {v2} "
            f"{r.z:>9.4f} {r.p_one_sided:>9.4f}"
        )
    lines.append(
        f"(p is one-sided; two-sided critical value at alpha={alpha:g}: "
        f"{critical_value(alpha):.4f})"
    )
    return "\n".join(lines)


def cmd_test(args) -> None:
    if args.w is not None and not 0.0 <= args.w <= 1.0:
        raise UsageError(f"--w must be in [0, 1], got {args.w}")
    check_alpha(args.alpha)  # before any file is read
    cohort_b = _load_cohort(args.experimental, prefer=("experimental", "B"))
    if args.fixed_reference:
        # a known curve is neither fitted from a control arm nor corrected
        flags = ("--control", args.control), ("--pi", args.pi), ("--family", args.family)
        for flag, value in flags:
            if value is not None:
                raise UsageError(f"{flag} has no use with --fixed-reference")
        ref = _parse_fixed_reference(args.fixed_reference)
    else:
        if not args.control:
            raise UsageError("test needs --control unless --fixed-reference is given")
        cohort_a = _load_cohort(args.control, prefer=("control", "A"))
        ref = ReferenceCurve.from_fit(_select_fit(cohort_a, args.family or "auto"))
    weights = [0.0, 0.5]
    if args.w is not None and args.w not in weights:
        weights.append(args.w)
    reports = []
    for corrected in (False, True):
        if corrected and not ref.fitted:
            continue
        for w in weights:
            reports.append(
                oslr_test(
                    ref,
                    cohort_b,
                    t=args.horizon,
                    w=w,
                    corrected=corrected,
                    pi=args.pi if corrected else None,
                )
            )
    payload = json.dumps([r.to_json_dict() for r in reports], indent=2)
    if args.out:
        _emit(payload, args.out)
    print(payload if args.format == "json" else _table1(reports, args.alpha))


def cmd_km(args) -> None:
    sources = [(args.control, ("control", "A"))]
    if args.experimental:
        sources.append((args.experimental, ("experimental", "B")))
    named = []
    for path, prefer in sources:
        loaded = ingest_csv(path)
        if isinstance(loaded, dict):
            named.extend(loaded.items())
        else:
            named.append((prefer[0], loaded))
    prefix = args.out or "km"
    stems = [f"{prefix}_{label}" if label else prefix for label, _ in named]
    # every name is checked before any file is written
    for (label, _), stem in zip(named, stems):
        if {os.sep, os.altsep, "\0"} & set(label):
            raise UsageError(f"group label {label!r} holds a path separator or a NUL")
        if stems.count(stem) > 1:
            raise UsageError(f"two cohorts are labelled {label!r}: both would write {stem}_*")
    written = []
    for (label, cohort), stem in zip(named, stems):
        km = kaplan_meier(cohort)
        na = nelson_aalen(cohort)
        km.to_csv(f"{stem}_km.csv")
        na.to_csv(f"{stem}_na.csv")
        written += [f"{stem}_km.csv", f"{stem}_na.csv"]
        curves = {f"KM {label}".strip(): km}
        if args.family:
            fit = _select_fit(cohort, args.family)
            grid = np.linspace(0.0, cohort.max_time(), 200)
            model = survival(fit.family, fit.theta_hat, grid)
            with open(f"{stem}_fit.csv", "w") as fh:
                fh.write("time,value\n")
                for t, v in zip(grid, model):
                    fh.write(f"{float(t)!r},{float(v)!r}\n")
            written.append(f"{stem}_fit.csv")
            curves[f"{fit.family.name} fit"] = (grid, model)
        if args.svg:
            render_curves(f"{stem}.svg", curves)
            written.append(f"{stem}.svg")
    for path in written:
        print(path)


def _replace(path, text: str) -> None:
    """Write ``text`` into a temporary file beside ``path``, then rename it
    over ``path``: a reader sees the old file or the new one, never a part."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w") as fh:
            fh.write(text)
        os.replace(temporary, path)
    except OSError as exc:  # name the user's path, not the temporary
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


# simulate --out rewrites its file once the time since the last rewrite
# exceeds this share of the time the grid has run: the rewrites grow
# geometrically apart, so the bytes written stay linear in the grid, and a
# process killed outright loses at most the cells since the last rewrite
_REWRITE_SHARE = 0.1


def cmd_simulate(args) -> None:
    # imported here, so that fit, test and km load neither module
    from .results import json_list
    from .simulation import load_scenarios, run_scenario

    scenarios = load_scenarios(args.scenario)
    texts = []

    def write_out():
        _replace(f"{args.out}.json", json_list(texts) + "\n")

    if args.out:
        write_out()  # an unwritable --out fails before the first cell runs
    started = written = time.monotonic()
    try:
        for scenario in scenarios:
            # each record is serialized once; every output joins these texts
            texts.append(run_scenario(scenario, workers=args.workers).to_json())
            now = time.monotonic()
            if args.out and now - written > _REWRITE_SHARE * (now - started):
                write_out()
                written = time.monotonic()
    finally:
        # an exception or an interrupt still leaves every finished cell on disk
        if args.out:
            write_out()
    print(json_list(texts))


def cmd_report(args) -> None:
    from .results import read_json, record_rows, write_rows_csv

    records = read_json(args.results)
    if not isinstance(records, list):
        raise UsageError(f"{args.results}: expected a JSON list of result records")
    try:
        rows = [row for record in records for row in record_rows(record)]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.results}: malformed record ({exc})") from exc
    if args.format == "csv":
        if args.out:
            with open(args.out, "w", newline="") as fh:
                write_rows_csv(fh, rows)
        else:
            write_rows_csv(sys.stdout, rows)
        return
    header = (
        f"{'kappa':>6} {'n_b':>6} {'pi':>8} {'procedure':<16} {'sided':<5} "
        f"{'rate':>8} {'lo':>8} {'hi':>8} {'n_eff':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['kappa']:>6g} {row['n_b']:>6d} {row['pi']:>8g} "
            f"{row['procedure']:<16} {row['sided']:<5} {row['rate']:>8.4f} "
            f"{row['lo']:>8.4f} {row['hi']:>8.4f} {row['n_eff']:>7d}"
        )
    _emit("\n".join(lines), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oslr",
        description="One-sample log-rank testing against parametric reference curves",
    )
    parser.add_argument("--version", action="version", version=f"oslr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    family_choices = ["auto", *FAMILIES]

    p_fit = sub.add_parser("fit", help="fit a parametric family to control data")
    p_fit.add_argument("--control", required=True, help="control-arm CSV")
    p_fit.add_argument("--family", default="auto", choices=family_choices)
    p_fit.add_argument("--out", help="write FitResult JSON here instead of stdout")
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="one-sample log-rank test")
    p_test.add_argument("--control", help="control-arm CSV (fit source)")
    p_test.add_argument("--experimental", required=True, help="experimental-arm CSV")
    p_test.add_argument("--family", choices=family_choices, help="default auto")
    p_test.add_argument("--w", type=_ascii(float), default=None, help="extra weight row")
    p_test.add_argument("--horizon", type=_ascii(float), default=None, help="analysis time")
    p_test.add_argument("--alpha", type=_ascii(float), default=0.05)
    p_test.add_argument("--pi", type=_ascii(float), default=None, help="allocation ratio")
    p_test.add_argument(
        "--fixed-reference",
        default=None,
        metavar="FAMILY:PARAMS",
        help="known reference curve, e.g. 'exponential:0.7' (skips fitting)",
    )
    p_test.add_argument("--format", default="table", choices=["json", "table"])
    p_test.add_argument("--out", help="also write TestReport JSON here")
    p_test.set_defaults(func=cmd_test)

    p_km = sub.add_parser("km", help="Kaplan-Meier / Nelson-Aalen curve CSVs")
    p_km.add_argument("--control", required=True, help="input CSV")
    p_km.add_argument("--experimental", help="optional second CSV")
    p_km.add_argument(
        "--family", default=None, choices=family_choices,
        help="add a fitted survival overlay on a 200-point grid",
    )
    p_km.add_argument("--svg", action="store_true", help="also render SVG plots")
    p_km.add_argument("--out", help="output file prefix (default 'km')")
    p_km.set_defaults(func=cmd_km)

    p_sim = sub.add_parser("simulate", help="run a scenario grid")
    p_sim.add_argument("scenario", help="scenario JSON (kappa/n_b/pi may be lists)")
    p_sim.add_argument("--workers", type=_ascii(int), default=None)
    p_sim.add_argument("--out", help="also write the results JSON to <out>.json")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="summarize simulate JSON output")
    p_rep.add_argument("results", help="JSON file written by simulate")
    p_rep.add_argument("--format", default="table", choices=["table", "csv"])
    p_rep.add_argument("--out", help="write the summary here instead of stdout")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        args.func(args)
        return EXIT_OK
    except (FitError, SelectionError) as exc:
        print(f"error: fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT
    except DegenerateTestError as exc:
        print(f"error: degenerate test: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    # the package's other errors: usage, domain, schema and row errors
    except (OslrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
