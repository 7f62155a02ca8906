"""Property tests of the basis route's shared fit/hat factorization and of
the command line's raw time axis."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_knots, random_tridiagonal_spd
from vspline import KernelConfig, cv_brute_force, cv_closed_form, fit_theta
from vspline.cli import main
from vspline.gcv import _design_for

# deterministic and small, so the suite's run time barely moves
PROPERTY = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def _spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T / n + 0.5 * np.eye(n)


@st.composite
def problems(draw, correlated):
    """Knots, knot-aligned weights in 0.3-3, (lam, gamma) and, if asked, SPD
    W/Ucorr: dense (the dense route) or tridiagonal (the banded route)."""
    n = draw(st.integers(3, 12))
    lam = 10.0 ** draw(st.floats(-4.0, 0.0))
    gamma = draw(st.one_of(st.just(0.0), st.floats(-2.0, 1.3).map(lambda e: 10.0**e)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = random_knots(rng, n)
    cfg = KernelConfig.piecewise(np.concatenate([[0.0], t, [1.0]]),
                                 rng.uniform(0.3, 3.0, n + 1))
    if not correlated:
        mats = (None, None)
    elif draw(st.booleans()):
        mats = (random_tridiagonal_spd(rng, n), random_tridiagonal_spd(rng, n))
    else:
        mats = (_spd(rng, n), _spd(rng, n))
    data = rng.standard_normal((4, n))
    return t, cfg, lam, gamma, mats, data


@pytest.mark.parametrize("correlated", [False, True])
@PROPERTY
@given(data=st.data())
def test_affine_data_reproduced(correlated, data):
    t, cfg, lam, gamma, (W, Ucorr), _ = data.draw(problems(correlated))
    a = data.draw(st.floats(-10.0, 10.0))
    b = data.draw(st.floats(-10.0, 10.0))
    y = a + b * t
    v = np.full(t.size, b)
    theta = fit_theta(_design_for(t, lam, cfg), y, v, gamma, W=W, Ucorr=Ucorr)
    scale = 1.0 + abs(a) + abs(b)
    np.testing.assert_allclose(theta[:t.size], y, atol=1e-9 * scale)
    np.testing.assert_allclose(theta[t.size:], v, atol=1e-8 * scale)


@pytest.mark.parametrize("correlated", [False, True])
@PROPERTY
@given(data=st.data())
def test_fit_is_linear_in_data(correlated, data):
    t, cfg, lam, gamma, (W, Ucorr), (y1, v1, y2, v2) = data.draw(problems(correlated))
    alpha = data.draw(st.floats(-5.0, 5.0))
    beta = data.draw(st.floats(-5.0, 5.0))
    design = _design_for(t, lam, cfg)
    combined = fit_theta(design, alpha * y1 + beta * y2, alpha * v1 + beta * v2,
                         gamma, W=W, Ucorr=Ucorr)
    parts = (alpha * fit_theta(design, y1, v1, gamma, W=W, Ucorr=Ucorr)
             + beta * fit_theta(design, y2, v2, gamma, W=W, Ucorr=Ucorr))
    np.testing.assert_allclose(combined, parts, atol=1e-9 * (1.0 + np.abs(parts).max()))


@PROPERTY
@given(problem=problems(correlated=False))
def test_closed_form_cv_equals_brute_force(problem):
    t, cfg, lam, gamma, _, (y, v, _, _) = problem
    brute = cv_brute_force(t, y, v, lam, gamma, cfg)
    closed = cv_closed_form(t, y, v, lam, gamma, cfg)
    assert closed.value == pytest.approx(brute.value, rel=1e-6)


def _cli_fit(tmp, name, s, y, v, lam, gamma, weights):
    """Run ``vspline fit`` on raw samples; the report and the curve rows."""
    data = os.path.join(tmp, name + ".csv")
    with open(data, "w") as fh:
        fh.write("t,y,v\n")
        fh.writelines(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in zip(s, y, v))
    wfile = os.path.join(tmp, name + ".w")
    np.savetxt(wfile, weights, fmt="%.17g")
    out = os.path.join(tmp, name + ".json")
    assert main(["fit", data, "--lambda", repr(lam), "--gamma", repr(gamma),
                 "--weights", wfile, "--grid", "25", "--out", out]) == 0
    with open(out) as fh:
        report = json.load(fh)
    return report, np.loadtxt(report["curve_file"], delimiter=",", skiprows=1)


@PROPERTY
@given(problem=problems(correlated=False), shift=st.floats(-100.0, 100.0),
       log_scale=st.floats(-2.0, 2.0))
def test_raw_axis_fit_invariant_under_time_shift_and_scale(problem, shift, log_scale):
    # the command line maps raw times onto the unit axis, so moving and
    # stretching the raw axis (velocities in raw units) changes no fitted value
    t, cfg, lam, gamma, _, (y, v, _, _) = problem
    scale = 10.0 ** log_scale
    with tempfile.TemporaryDirectory() as tmp:
        base, base_curve = _cli_fit(tmp, "base", t, y, v, lam, gamma, cfg.weights)
        moved, moved_curve = _cli_fit(tmp, "moved", shift + scale * t, y, v / scale,
                                      lam, gamma, cfg.weights)
    size = 1.0 + np.abs(base["knot_fit"]["f"]).max()
    np.testing.assert_allclose(moved["knot_fit"]["f"], base["knot_fit"]["f"],
                               atol=1e-9 * size)
    np.testing.assert_allclose(scale * np.array(moved["knot_fit"]["df_raw"]),
                               base["knot_fit"]["df_raw"], atol=1e-8 * size)
    np.testing.assert_allclose(moved_curve[:, 1], base_curve[:, 1], atol=1e-9 * size)
    np.testing.assert_allclose(scale * moved_curve[:, 2], base_curve[:, 2],
                               atol=1e-8 * size)
    for key in ("trace_s", "trace_v"):
        assert moved[key] == pytest.approx(base[key], rel=1e-9)
    assert moved["method"] == base["method"]
