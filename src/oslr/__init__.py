"""One-sample log-rank testing against parametric reference hazard curves.

Workflow: ingest right-censored cohorts, fit a reference cumulative hazard to
historic control data by censored maximum likelihood, then test an
experimental cohort against that curve, with an optional variance correction
for the uncertainty the fitting step introduces. A Monte Carlo engine
(``oslr.simulation``) measures type-I-error behaviour of the procedures;
``oslr.results`` holds the results file that ``simulate`` writes and
``report`` reads. The names of both are exported here, but each module is
imported only when one of its names is first used, so the analysis path
loads neither.
"""

__version__ = "0.1.0"

from .data import Cohort, counting_process, ingest_csv, write_csv
from .errors import (
    DegenerateTestError,
    DomainError,
    FitError,
    OslrError,
    RowValidationError,
    SchemaError,
    SelectionError,
    UsageError,
)
from .families import (
    EXPONENTIAL,
    FAMILIES,
    LOGLOGISTIC,
    WEIBULL,
    FamilyDescriptor,
    cumulative_hazard,
    density,
    family,
    grad_cumulative_hazard,
    hazard,
    loglik_derivatives,
    survival,
)
from .fitting import FitResult, fit_mle, pseudo_inverse, select_model
from .logrank import (
    ReferenceCurve,
    TestReport,
    critical_value,
    normal_quantile,
    oslr_test,
    p_one_sided,
    p_two_sided,
    two_sample_logrank,
    zscore,
)
from .nonparametric import StepCurve, kaplan_meier, nelson_aalen

# the exports of the results file's module and of the Monte Carlo engine,
# each module imported on first access to one of its names (PEP 562)
_LAZY = {
    **dict.fromkeys(("PROCEDURES", "SimulationResult", "mc_error_interval"), "results"),
    **dict.fromkeys(
        ("Scenario", "generate_cohort", "replicate_rng", "run_scenario", "load_scenarios"),
        "simulation",
    ),
}

__all__ = [
    "__version__",
    "Cohort",
    "counting_process",
    "ingest_csv",
    "write_csv",
    "OslrError",
    "SchemaError",
    "RowValidationError",
    "DomainError",
    "FitError",
    "SelectionError",
    "DegenerateTestError",
    "UsageError",
    "FamilyDescriptor",
    "FAMILIES",
    "EXPONENTIAL",
    "WEIBULL",
    "LOGLOGISTIC",
    "family",
    "cumulative_hazard",
    "survival",
    "density",
    "hazard",
    "grad_cumulative_hazard",
    "loglik_derivatives",
    "FitResult",
    "fit_mle",
    "select_model",
    "pseudo_inverse",
    "ReferenceCurve",
    "TestReport",
    "oslr_test",
    "two_sample_logrank",
    "zscore",
    "normal_quantile",
    "critical_value",
    "p_one_sided",
    "p_two_sided",
    "StepCurve",
    "kaplan_meier",
    "nelson_aalen",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()).union(_LAZY))
