"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and must not be loosened.
"""

import json

import numpy as np
import pytest

import oracles
from conftest import random_config, random_instance, random_knots
from vspline import (GpPrior, KernelConfig, build_design, build_gram,
                     cv_brute_force, cv_closed_form, eval_r1, eval_r1_ds,
                     eval_r1_dsdt, eval_r1_dt, fit_theta, hat_matrices,
                     limit_identities_check, penalty_quadratic,
                     posterior_mean_finite_rho, solve_coefficients)
from vspline.cli import main
from vspline.gcv import _design_for

UNIFORM = KernelConfig.uniform()


def _report(number, name, ok):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_kernel_closed_forms_match_quadrature():
    rng = np.random.default_rng(101)
    pairs = [(eval_r1, oracles.quad_r1), (eval_r1_ds, oracles.quad_r1_ds),
             (eval_r1_dt, oracles.quad_r1_dt), (eval_r1_dsdt, oracles.quad_r1_dsdt)]
    worst = 0.0
    cases = 1000
    for case in range(cases):
        cfg = UNIFORM if case % 2 == 0 else random_config(rng)
        s, t = rng.uniform(0.0, 1.0, 2)
        for closed, reference in pairs:
            want = reference(s, t, cfg)
            got = closed(s, t, cfg)
            err = abs(got - want) / max(abs(want), 1e-13)
            worst = max(worst, err)
    _report(1, f"kernel vs quadrature, {cases} cases x 4 kernels, worst rel {worst:.2e}",
            worst <= 1e-10)


def test_criterion_2_reproducing_property():
    rng = np.random.default_rng(102)
    worst = 0.0
    for case in range(200):
        cfg = UNIFORM if case % 2 == 0 else random_config(rng)
        coeffs = rng.uniform(-2.0, 2.0, 4)
        s = rng.uniform(0.0, 1.0)
        f, df, _ = oracles.cubic(coeffs)
        got_f = oracles.inner_product_with_value_section(s, coeffs, cfg)
        got_df = oracles.inner_product_with_deriv_section(s, coeffs, cfg)
        worst = max(worst, abs(got_f - f(s)), abs(got_df - df(s)))
    _report(2, f"reproducing property, 200 cases, worst abs {worst:.2e}",
            worst <= 1e-8)


def test_criterion_3_limit_identities():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(50):
        m = int(rng.integers(6, 14))
        A = rng.standard_normal((m, m))
        M = A @ A.T + np.eye(m)
        T = rng.standard_normal((m, 2))
        minv_norm = np.linalg.norm(np.linalg.inv(M), 2)
        g_hi = limit_identities_check(T, M, 1e8)
        ok &= g_hi.inverse_gap <= 1e-6 * minv_norm
        ok &= g_hi.coefficient_gap <= 1e-6 * minv_norm
        # O(1/rho) decay: two decades of rho shrink both gaps by >= 50x
        g1 = limit_identities_check(T, M, 1e2)
        g2 = limit_identities_check(T, M, 1e4)
        ok &= g2.inverse_gap <= g1.inverse_gap / 50.0
        ok &= g2.coefficient_gap <= g1.coefficient_gap / 50.0
    _report(3, "vague-limit identities, 50 instances, O(1/rho) decay", ok)


def test_criterion_4_posterior_equals_penalized_fit():
    # the finite-rho GP posterior against the representer fit: the two share
    # one solve and differ only by the I/rho added to its 2x2 affine system,
    # so this checks that term's limit; the gap closes like 1/rho
    rng = np.random.default_rng(104)
    grid = np.linspace(0.01, 0.99, 50)
    worst = {1e10: 0.0, 1e12: 0.0}
    for _ in range(100):
        t, y, v, cfg, lam, gamma = random_instance(rng)
        fit = solve_coefficients(build_gram(t, cfg, lam, gamma), y, v)
        for rho in worst:
            post = posterior_mean_finite_rho(t, y, v, GpPrior(1.0, rho, cfg), lam, gamma)
            worst[rho] = max(worst[rho], np.abs(post.mean(grid) - fit.evaluate(grid)).max())
    _report(4, f"GP posterior -> penalized fit, worst {worst[1e12]:.2e} at rho 1e12, "
               f"{worst[1e10]:.2e} at rho 1e10",
            worst[1e12] <= 1e-10 and worst[1e12] * 50.0 <= worst[1e10])


def test_criterion_5_cross_formulation_keystone():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        t, y, v, cfg, lam, gamma = random_instance(rng, n_range=(4, 16))
        n = t.size
        vfit = solve_coefficients(build_gram(t, cfg, lam, gamma), y, v)
        design = _design_for(t, lam, cfg)
        theta = fit_theta(design, y, v, gamma)
        worst = max(worst,
                    np.abs(theta[:n] - vfit.evaluate(t)).max(),
                    np.abs(theta[n:] - vfit.evaluate_deriv(t)).max())
    _report(5, f"basis fit == representer fit at knots, worst {worst:.2e}",
            worst <= 1e-6)


def test_criterion_6_leave_one_out_identity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        t, y, v, cfg, lam, gamma = random_instance(
            rng, n_range=(4, 25), lam_range=(1e-4, 1.0), gamma_range=(1e-2, 10.0))
        brute = cv_brute_force(t, y, v, lam, gamma, cfg).value
        closed = cv_closed_form(t, y, v, lam, gamma, cfg).value
        worst = max(worst, abs(brute - closed) / brute)
    _report(6, f"closed-form CV == brute force, worst rel {worst:.2e}",
            worst <= 1e-6)


def test_criterion_7_classical_smoothing_spline_reduction():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(6, 16))
        t = random_knots(rng, n)
        y = np.sin(5 * t) + 0.2 * rng.standard_normal(n)
        lam = float(10.0 ** rng.uniform(-4, -1))
        design = build_design(t, lam)
        theta = fit_theta(design, y, np.zeros(n), gamma=0.0)
        hats = hat_matrices(design, 0.0)
        A = oracles.reference_hat(t, n * lam)
        worst = max(worst,
                    np.abs(theta[:n] - A @ y).max(),
                    np.abs(hats.S - A).max())
    _report(7, f"gamma=0 equals classical smoothing spline, worst {worst:.2e}",
            worst <= 1e-6)


def test_criterion_8_joint_conditioning_oracle():
    rng = np.random.default_rng(108)
    worst = 0.0
    for n in (3, 4, 5, 6):
        t = random_knots(rng, n)
        y = rng.standard_normal(n)
        v = rng.standard_normal(n)
        for cfg in (UNIFORM, random_config(rng, knots=t)):
            for rho in (0.5, 3.0, 50.0):
                beta, lam, gamma = 0.8, 0.04, 1.5
                prior = GpPrior(beta=beta, rho=rho, config=cfg)
                post = posterior_mean_finite_rho(t, y, v, prior, lam, gamma)
                ts = np.linspace(0.05, 0.95, 7)
                mean_ref, var_ref = oracles.gp_joint_posterior(
                    t, y, v, ts, cfg, beta, rho, lam, gamma)
                worst = max(worst,
                            np.abs(post.mean(ts) - mean_ref).max(),
                            np.abs(post.variance(ts) - var_ref).max())
    _report(8, f"finite-rho posterior == direct conditioning, worst {worst:.2e}",
            worst <= 1e-8)


def test_criterion_9_interpolation_and_linearity_limits():
    t = np.linspace(0.08, 0.92, 8)
    y = np.sin(2 * np.pi * t)
    v = 2 * np.pi * np.cos(2 * np.pi * t)
    fit = solve_coefficients(build_gram(t, UNIFORM, 1e-10, 1.0), y, v)
    interp_gap = max(np.abs(fit.evaluate(t) - y).max(),
                     np.abs(fit.evaluate_deriv(t) - v).max())
    gram = build_gram(t, UNIFORM, 1e6, 1.0)
    heavy = solve_coefficients(gram, y, v)
    heavy_pen = penalty_quadratic(gram, heavy.c, heavy.b)
    ok = interp_gap < 1e-4 and heavy_pen < 1e-8
    _report(9, f"limits: interp gap {interp_gap:.2e}, heavy penalty {heavy_pen:.2e}", ok)


def test_criterion_10_cli_pipeline(tmp_path):
    data = tmp_path / "sim.csv"
    rc_sim = main(["simulate", "--kind", "sine", "--n", "40", "--noise", "0.4",
                   "--seed", "1", "--out", str(data)])
    sel1, sel2 = tmp_path / "sel1.json", tmp_path / "sel2.json"
    args = ["select", str(data), "--criterion", "cv", "--grid", "50"]
    rc_sel1 = main(args + ["--out", str(sel1)])
    rc_sel2 = main(args + ["--out", str(sel2)])
    rep1 = json.loads(sel1.read_text())
    rep2 = json.loads(sel2.read_text())
    lam = rep1["selection"]["lambda"]
    fit_out = tmp_path / "fit.json"
    rc_fit = main(["fit", str(data), "--lambda", repr(lam), "--gamma",
                   repr(rep1["selection"]["gamma"]), "--out", str(fit_out)])
    keys = ("lambda", "gamma", "score", "criterion")
    deterministic = all(rep1["selection"][k] == rep2["selection"][k] for k in keys)
    interior = 1e-8 * 10 < lam < 1e2 / 10
    ok = (rc_sim == 0 and rc_sel1 == 0 and rc_sel2 == 0 and rc_fit == 0
          and deterministic and interior)
    _report(10, f"CLI pipeline deterministic, selected lambda {lam:.2e} interior", ok)
