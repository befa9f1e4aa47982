"""One-sample log-rank testing against parametric reference hazard curves.

Workflow: ingest right-censored cohorts, fit a reference cumulative hazard to
historic control data by censored maximum likelihood, then test an
experimental cohort against that curve, with an optional variance correction
for the uncertainty the fitting step introduces. A Monte Carlo engine
(``oslr.simulation``) measures type-I-error behaviour of the procedures;
``oslr.results`` holds the results file that ``simulate`` writes and
``report`` reads.

Importing the package loads none of its modules: each exported name is
imported from its module when first used (PEP 562), so a process loads only
the modules whose names it uses. The analysis path never loads the engine,
and the engine never loads the analysis modules.
"""

__version__ = "0.1.0"

# each exported name and the module it is imported from on first use
_LAZY = {
    **dict.fromkeys(("Cohort", "counting_process", "ingest_csv", "write_csv"), "data"),
    **dict.fromkeys(
        (
            "OslrError", "SchemaError", "RowValidationError", "DomainError", "FitError",
            "SelectionError", "DegenerateTestError", "UsageError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "FamilyDescriptor", "FAMILIES", "EXPONENTIAL", "WEIBULL", "LOGLOGISTIC", "family",
            "cumulative_hazard", "survival", "density", "hazard", "grad_cumulative_hazard",
            "loglik_derivatives",
        ),
        "families",
    ),
    **dict.fromkeys(("FitResult", "fit_mle", "select_model", "pseudo_inverse"), "fitting"),
    **dict.fromkeys(
        (
            "ReferenceCurve", "TestReport", "oslr_test", "two_sample_logrank", "zscore",
            "p_one_sided", "p_two_sided",
        ),
        "logrank",
    ),
    **dict.fromkeys(("normal_quantile", "critical_value"), "_kernels"),
    **dict.fromkeys(("StepCurve", "kaplan_meier", "nelson_aalen"), "nonparametric"),
    **dict.fromkeys(("PROCEDURES", "SimulationResult", "mc_error_interval"), "results"),
    **dict.fromkeys(
        ("Scenario", "generate_cohort", "replicate_rng", "run_scenario", "load_scenarios"),
        "simulation",
    ),
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()).union(_LAZY))
