"""Outside-in tracing: spans around the calls into each oslr module.

The tracer replaces module-level names that the program calls through (for
example ``oslr.simulation.fit_mle``) with timing wrappers, and puts the
originals back when the traced pass ends. Spans stay in memory; the caller
writes them out when the run ends. Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import warnings
from collections import Counter, defaultdict

# (namespace the program calls through, attribute path, span name). The span
# name is "<module that defines the function>.<function>", so one function
# reached through two namespaces shares one span name.
SPAN_TARGETS = (
    ("oslr.cli", "main", "cli.main"),
    ("oslr.cli", "ingest_csv", "data.ingest_csv"),
    ("oslr.data", "Cohort.from_arrays", "data.Cohort.from_arrays"),
    ("oslr.cli", "fit_mle", "fitting.fit_mle"),
    ("oslr.simulation", "fit_mle", "fitting.fit_mle"),
    ("oslr.logrank", "pseudo_inverse", "fitting.pseudo_inverse"),
    ("oslr.cli", "oslr_test", "logrank.oslr_test"),
    ("oslr.simulation", "oslr_test", "logrank.oslr_test"),
    ("oslr.simulation", "two_sample_logrank", "logrank.two_sample_logrank"),
    ("oslr.cli", "kaplan_meier", "nonparametric.kaplan_meier"),
    ("oslr.cli", "nelson_aalen", "nonparametric.nelson_aalen"),
    ("oslr.cli", "render_curves", "render.render_curves"),
    ("oslr.simulation", "run_scenario", "simulation.run_scenario"),
    ("oslr.simulation", "replicate_rng", "simulation.replicate_rng"),
    ("oslr.simulation", "generate_cohort", "simulation.generate_cohort"),
)

LAYERS = ("cli", "data", "fitting", "logrank", "nonparametric", "render", "simulation")
WARNING_CATEGORIES = ("UserWarning", "RuntimeWarning", "other")


def _fit_attrs(result):
    return {
        "iterations": int(getattr(result, "iterations", 0)),
        "converged": bool(getattr(result, "converged", False)),
    }


# extra attributes recorded from a span's return value
_RESULT_ATTRS = {"fitting.fit_mle": _fit_attrs}


class Tracer:
    """In-memory span recorder.

    Each span has a name, start and end (``perf_counter`` seconds), the index
    of its parent span (-1 for a root), the operation id set by the caller,
    the replicate id (the index passed to the most recent
    ``replicate_rng``), and the exception class name if the call raised.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.rep: list[int] = []
        self.error: dict[int, str] = {}
        self.attrs: dict[int, dict] = {}
        # per operation id: warning metric name -> count
        self.warnings: dict[int, Counter] = defaultdict(Counter)
        self.op_id = -1
        self.rep_id = -1
        self._stack: list[int] = []

    def _wrap(self, span, fn):
        tracer = self
        on_result = _RESULT_ATTRS.get(span)
        sets_replicate = span == "simulation.replicate_rng"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sets_replicate and len(args) > 1:
                tracer.rep_id = int(args[1])
            idx = len(tracer.name)
            tracer.name.append(span)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.rep.append(tracer.rep_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
                tracer.error[idx] = type(exc).__name__
                raise
            tracer.end[idx] = time.perf_counter()
            tracer._stack.pop()
            if on_result is not None:
                tracer.attrs[idx] = on_result(result)
            return result

        return wrapper

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        layer = self.name[self._stack[-1]].split(".")[0] if self._stack else None
        if layer not in LAYERS:
            return
        kind = category.__name__ if category.__name__ in WARNING_CATEGORIES else "other"
        self.warnings[self.op_id][f"warnings.{layer}.{kind}"] += 1

    @contextlib.contextmanager
    def installed(self, targets=SPAN_TARGETS):
        """Wrap every target that exists, count warnings, restore on exit.

        A target whose module or attribute is gone is skipped, so its span
        reports zero calls.
        """
        saved = []
        try:
            for module_name, path, span in targets:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                if owner is None:
                    continue
                try:
                    raw = inspect.getattr_static(owner, attr)
                except AttributeError:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement = type(raw)(self._wrap(span, raw.__func__))
                elif callable(raw):
                    replacement = self._wrap(span, raw)
                else:
                    continue
                saved.append((owner, attr, raw))
                setattr(owner, attr, replacement)
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = self._on_warning
                yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self._stack.clear()

    def to_json_dict(self) -> dict:
        return {
            "columns": ["name", "start", "end", "parent", "op", "replicate", "error"],
            "spans": [
                [n, s, e, p, o, r, self.error.get(i)]
                for i, (n, s, e, p, o, r) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.op, self.rep)
                )
            ],
        }


def pass_profile(tracer: Tracer) -> dict[int, dict]:
    """Per operation id: busy, self time, calls and failures of each span name.

    Self time is a span's duration minus the durations of its direct
    children; calls in one thread do not overlap, so that is the part of its
    interval the children cover.
    """
    child_time = [0.0] * len(tracer.name)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child_time[p] += tracer.end[i] - tracer.start[i]
    profiles: dict[int, dict] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(float))
    )
    for i, name in enumerate(tracer.name):
        row = profiles[tracer.op[i]][name]
        duration = tracer.end[i] - tracer.start[i]
        row["busy_s"] += duration
        row["self_s"] += duration - child_time[i]
        row["calls"] += 1
        error = tracer.error.get(i)
        if error is not None:
            row["failed"] += 1
            if error == "DegenerateTestError":
                row["degenerate"] += 1
        attrs = tracer.attrs.get(i)
        if attrs:
            row["iterations"] += attrs["iterations"]
            row["converged"] += attrs["converged"]
    return profiles


def import_breakdown(importtime_stderr: str) -> dict[str, float]:
    """Split ``python -X importtime -c 'import oslr.cli'`` output.

    numpy and scipy get the cumulative time of their outermost import
    events; oslr's own share is the cumulative time of its outermost events
    minus the numpy and scipy time nested inside them.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, label = line.split("|", 2)
        try:
            micros = int(cumulative.strip())
        except ValueError:
            continue  # the header row
        name = label.rstrip()
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), micros * 1e-6))
    third_party = ("numpy", "scipy")
    totals = {"numpy": 0.0, "scipy": 0.0, "oslr": 0.0}
    nested_in_oslr = 0.0
    stack: list[str] = []  # top-level package of each open ancestor
    # importtime prints children before their parent; reversed, each parent
    # precedes its children and the ancestors are the shallower open rows.
    # numpy imported from inside scipy counts as scipy's.
    for depth, name, seconds in reversed(rows):
        del stack[depth:]
        package = name.split(".")[0]
        if package == "oslr" and "oslr" not in stack:
            totals["oslr"] += seconds
        elif package in third_party and not any(p in third_party for p in stack):
            totals[package] += seconds
            if "oslr" in stack:
                nested_in_oslr += seconds
        stack.append(package)
    return {
        "import.numpy_s": totals["numpy"],
        "import.scipy_s": totals["scipy"],
        "import.oslr_self_s": max(0.0, totals["oslr"] - nested_in_oslr),
    }
