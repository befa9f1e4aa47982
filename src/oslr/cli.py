"""Command-line surface: fit, test, km, simulate, report.

Exit codes: 0 success, 1 usage or configuration problem, 2 fit failure,
3 degenerate test.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .data import ingest_csv
from .errors import (
    DegenerateTestError,
    DomainError,
    FitError,
    RowValidationError,
    SchemaError,
    SelectionError,
    UsageError,
)
from .families import FAMILIES, family, survival
from .fitting import fit_mle, select_model
from .logrank import ReferenceCurve, critical_value, oslr_test
from .nonparametric import kaplan_meier, nelson_aalen
from .render import render_curves
from .simulation import (
    load_scenarios,
    record_rows,
    run_scenario,
    write_results_csv,
    write_rows_csv,
)

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


def _parse_fixed_reference(text: str) -> ReferenceCurve:
    name, sep, raw = text.partition(":")
    if not sep or not raw.strip():
        raise UsageError(
            f"--fixed-reference must look like 'family:p1[,p2]', got {text!r}"
        )
    try:
        theta = [float(part) for part in raw.split(",")]
    except ValueError:
        raise UsageError(f"--fixed-reference parameters {raw!r} are not numbers") from None
    return ReferenceCurve.fixed(name, theta)


def _select_fit(cohort, family_name: str):
    """Fit the requested family, or all three and keep the lowest AIC."""
    if family_name != "auto":
        return fit_mle(family_name, cohort)
    fits = []
    lines = ["family        aic          loglik       status"]
    for name in FAMILIES:
        try:
            fit = fit_mle(name, cohort)
        except FitError as exc:
            lines.append(f"{name:<13} {'-':<12} {'-':<12} failed: {exc}")
            continue
        fits.append(fit)
        lines.append(f"{name:<13} {fit.aic:<12.4f} {fit.loglik:<12.4f} converged")
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
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"--alpha must be in (0, 1), got {args.alpha}")
    cohort_b = _load_cohort(args.experimental, prefer=("experimental", "B"))
    if args.fixed_reference:
        ref = _parse_fixed_reference(args.fixed_reference)
    else:
        if not args.control:
            raise UsageError("test needs --control unless --fixed-reference is given")
        cohort_a = _load_cohort(args.control, prefer=("control", "A"))
        ref = ReferenceCurve.from_fit(_select_fit(cohort_a, args.family))
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
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
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
    written = []
    for label, cohort in named:
        stem = f"{prefix}_{label}" if label else prefix
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


def cmd_simulate(args) -> None:
    scenarios = load_scenarios(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if overrides:
        scenarios = [dataclasses.replace(s, **overrides) for s in scenarios]
    results = [run_scenario(s, workers=args.workers) for s in scenarios]
    records = [r.to_json_dict() for r in results]
    if args.out:
        with open(f"{args.out}.json", "w") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
        write_results_csv(f"{args.out}.csv", results)
    if args.format == "csv":
        write_rows_csv(sys.stdout, [row for rec in records for row in record_rows(rec)])
    else:
        print(json.dumps(records, indent=2))


def cmd_report(args) -> None:
    with open(args.results) as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise UsageError(f"{args.results}: expected a JSON list of result records")
    try:
        rows = [row for record in records for row in record_rows(record)]
    except (KeyError, TypeError, ValueError) as exc:
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
    p_test.add_argument("--family", default="auto", choices=family_choices)
    p_test.add_argument("--w", type=float, default=None, help="extra weight row")
    p_test.add_argument("--horizon", type=float, default=None, help="analysis time")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--pi", type=float, default=None, help="allocation ratio")
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
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sim.add_argument("--alpha", type=float, default=None, help="override alpha")
    p_sim.add_argument("--format", default="json", choices=["json", "csv"])
    p_sim.add_argument("--out", help="prefix for <out>.json and <out>.csv")
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
    except (
        UsageError,
        DomainError,
        SchemaError,
        RowValidationError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
