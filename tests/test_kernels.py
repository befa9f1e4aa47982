"""Tests for the compiled numeric kernels and their uncompiled fallback.

Oracles: when numba is active, every kernel is compared against its own
uncompiled ``py_func`` on identical inputs (same source, so agreement must be
essentially exact); the env-flag fallback is exercised in a subprocess and
must agree with the compiled mode to float rounding.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oslr import _kernels
from oslr._accel import NUMBA_ENABLED, _env_flag
from oslr.families import cumulative_hazard, family, grad_cumulative_hazard

MASTER_SEED = 20260815

needs_numba = pytest.mark.skipif(not NUMBA_ENABLED, reason="numba disabled")


def _sample(seed=MASTER_SEED, n=60):
    rng = np.random.default_rng(seed)
    times = rng.weibull(1.4, size=n) * 2.0 + 1e-3
    events = (rng.random(n) < 0.7).astype(np.float64)
    events[0] = 1.0
    return times, events


@needs_numba
def test_jit_matches_python_source():
    """Compiled kernels agree with their uncompiled py_func twins."""
    times, events = _sample()
    t_grid = np.array([0.2, 1.0, 2.5, 7.0])
    cases = [
        (_kernels.EXPONENTIAL, 0.7, 1.0),
        (_kernels.WEIBULL, 1.3, 2.1),
        (_kernels.LOGLOGISTIC, 1.1, 0.8),
    ]
    for code, a, b in cases:
        assert_allclose(
            _kernels.cumhaz(code, a, b, t_grid),
            _kernels.cumhaz.py_func(code, a, b, t_grid),
            rtol=1e-14,
        )
        assert_allclose(
            _kernels.cumhaz_grad(code, a, b, t_grid),
            _kernels.cumhaz_grad.py_func(code, a, b, t_grid),
            rtol=1e-14,
        )
        assert_allclose(
            _kernels.loglik_derivs(code, a, b, times, events),
            _kernels.loglik_derivs.py_func(code, a, b, times, events),
            rtol=1e-12,
        )
        assert_allclose(
            _kernels.oslr_components(code, a, b, times, events, 2.0),
            _kernels.oslr_components.py_func(code, a, b, times, events, 2.0),
            rtol=1e-13,
        )


@needs_numba
def test_jit_fit_driver_matches_python_source():
    times, events = _sample()
    for code in (_kernels.EXPONENTIAL, _kernels.WEIBULL, _kernels.LOGLOGISTIC):
        jit = _kernels.fit_newton(code, times, events, 0.0, 0.0, 1e-8, 200)
        py = _kernels.fit_newton.py_func(code, times, events, 0.0, 0.0, 1e-8, 200)
        assert jit[3] == py[3] == _kernels.FIT_OK
        assert jit[2] == py[2]
        assert_allclose(jit[:2], py[:2], rtol=1e-12)


def test_kernels_agree_with_family_wrappers():
    """The family-name API routes into the same coded kernels."""
    t_grid = np.array([0.5, 1.0, 3.0])
    for name, theta in (
        ("exponential", [0.7]),
        ("weibull", [1.3, 2.1]),
        ("loglogistic", [1.1, 0.8]),
    ):
        fam = family(name)
        a = theta[0]
        b = theta[1] if fam.q == 2 else 1.0
        assert_allclose(
            cumulative_hazard(name, theta, t_grid),
            _kernels.cumhaz(fam.code, a, b, t_grid),
            rtol=1e-14,
        )
        assert_allclose(
            grad_cumulative_hazard(name, theta, t_grid),
            _kernels.cumhaz_grad(fam.code, a, b, t_grid)[:, : fam.q],
            rtol=1e-14,
        )


def test_fit_status_codes():
    times, events = _sample()
    ok = _kernels.fit_newton(_kernels.WEIBULL, times, events, 0.0, 0.0, 1e-8, 200)
    assert ok[3] == _kernels.FIT_OK
    # zero iteration budget from a non-optimal start cannot converge
    stuck = _kernels.fit_newton(_kernels.WEIBULL, times, events, 2.0, -2.0, 1e-8, 0)
    assert stuck[3] == _kernels.FIT_MAX_ITER
    # identical event times push the Weibull shape to +inf, hitting the bound
    degenerate_t = np.full(6, 2.0)
    degenerate_e = np.ones(6)
    with np.errstate(over="ignore", invalid="ignore"):
        runaway = _kernels.fit_newton(
            _kernels.WEIBULL, degenerate_t, degenerate_e, 0.0, 0.0, 1e-8, 500
        )
    assert runaway[3] == _kernels.FIT_BOUNDARY


def test_exponential_kernel_closed_forms():
    """Rate-a exponential: loglik = d log a - a sum(x), information d/a^2."""
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([1.0, 1.0, 0.0])
    f, g0, g1, h00, h01, h11 = _kernels.loglik_derivs(
        _kernels.EXPONENTIAL, 0.4, 1.0, times, events
    )
    assert_allclose(f, 2 * math.log(0.4) - 0.4 * 6.0, rtol=1e-14)
    assert_allclose(g0, 2 / 0.4 - 6.0, rtol=1e-14)
    assert g1 == 0.0
    assert_allclose(h00, -2 / 0.16, rtol=1e-14)
    assert h01 == 0.0 and h11 == 0.0


def test_env_flag_parsing():
    for value in ("1", "true", "YES", " on "):
        os.environ["OSLR_TEST_FLAG"] = value
        assert _env_flag("OSLR_TEST_FLAG")
    for value in ("0", "false", "", "off2"):
        os.environ["OSLR_TEST_FLAG"] = value
        assert not _env_flag("OSLR_TEST_FLAG")
    os.environ.pop("OSLR_TEST_FLAG")
    assert not _env_flag("OSLR_TEST_FLAG")


_SUBPROCESS_SNIPPET = """
import numpy as np
from oslr import _kernels
from oslr._accel import NUMBA_ENABLED

rng = np.random.default_rng({seed})
times = rng.weibull(1.4, size=60) * 2.0 + 1e-3
events = (rng.random(60) < 0.7).astype(np.float64)
events[0] = 1.0
fit = _kernels.fit_newton(_kernels.WEIBULL, times, events, 0.0, 0.0, 1e-8, 200)
comp = _kernels.oslr_components(_kernels.WEIBULL, 1.3, 2.1, times, events, 2.0)
print(NUMBA_ENABLED)
print(repr(float(fit[0])), repr(float(fit[1])), fit[3])
print(" ".join(repr(float(x)) for x in comp))
"""


def _run_mode(disable: bool):
    env = dict(os.environ)
    env["OSLR_DISABLE_NUMBA"] = "1" if disable else "0"
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET.format(seed=MASTER_SEED)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip().splitlines()


def test_disable_numba_env_flag_selects_matching_fallback():
    """The numpy fallback is selected by env flag and agrees with the
    compiled path to float rounding (summation order differs: numpy reduces
    pairwise, the compiled loops are sequential, so the last ulp may move)."""
    disabled = _run_mode(True)
    assert disabled[0] == "False"
    enabled = _run_mode(False)

    def parse(line):
        parts = line.split()
        return [float(x) for x in parts]

    # second line: fitted (a, b, status); third: test components
    for got, want in zip(parse(disabled[1]), parse(enabled[1])):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert disabled[1].split()[-1] == enabled[1].split()[-1]
    for got, want in zip(parse(disabled[2]), parse(enabled[2])):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
