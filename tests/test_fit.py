"""Representer-system assembly, solve, and evaluation."""

import warnings

import numpy as np
import pytest

from conftest import random_instance, random_knots
from vspline import (KernelConfig, SingularSystemError, build_gram, fitted_knot_values,
                     rescale_domain, solve_coefficients)
from vspline.fit import (fit_vspline, objective_value, penalty_quadratic,
                         stationarity_residuals)
from vspline.kernels import eval_r1

UNIFORM = KernelConfig.uniform()


class TestRescaleDomain:
    def test_quarter_margin_example(self):
        s = np.array([2.0, 4.0, 6.0])
        y = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, 0.5, 0.5])
        t, y2, v2, scale = rescale_domain(s, y, v, margin=0.25)
        np.testing.assert_allclose(t, [0.25, 0.5, 0.75], atol=1e-15)
        assert scale.time_factor == pytest.approx(8.0)
        np.testing.assert_allclose(v2, v * 8.0, atol=1e-15)
        np.testing.assert_array_equal(y2, y)

    def test_identity_when_already_scaled(self):
        s = np.array([0.25, 0.4, 0.75])
        t, _, v2, scale = rescale_domain(s, s, np.ones(3), margin=0.25)
        np.testing.assert_allclose(t, s, atol=1e-15)
        assert scale.time_factor == pytest.approx(1.0)
        np.testing.assert_allclose(v2, np.ones(3), atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        s = np.sort(rng.uniform(-5, 40, 12))
        t, _, _, scale = rescale_domain(s, np.zeros(12), np.zeros(12))
        np.testing.assert_allclose(scale.from_unit(t), s, atol=1e-12)
        np.testing.assert_allclose(scale.to_unit(scale.from_unit(t)), t, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rescale_domain([1.0], [1.0], [0.0])
        with pytest.raises(ValueError):
            rescale_domain([1.0, 1.0, 2.0], np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            rescale_domain([1.0, 2.0], np.zeros(2), np.zeros(2), margin=0.0)
        # distinct, finite raw samples that do not survive the map onto the
        # unit axis: a ValueError that names the cause, not a numpy warning
        for s, v, message in (
                ([-1.0, 0.0, 1e-20, 1.0], np.zeros(4), "strictly increasing inside"),  # at 0.5
                ([0.0, 5e-324, 1e-323], np.zeros(3), "strictly increasing inside"),    # at 1.05
                ([-1e308, 0.0, 1e308], np.zeros(3), "span of the sample times overflows"),
                ([0.0, 1.7e308], np.zeros(2), "span of the sample times overflows"),
                ([0.0, 1e300], np.full(2, 1e10), "velocities overflow")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    rescale_domain(s, np.zeros(len(s)), v)


class TestBuildGram:
    def test_single_knot_q_entry(self):
        # integral of (0.5 - u)^2 over [0, 0.5] = 1/24
        gram = build_gram([0.5], UNIFORM, lam=0.1, gamma=1.0)
        assert gram.Q[0, 0] == pytest.approx(1.0 / 24.0, rel=1e-14)

    def test_pp_diagonal_is_knot(self):
        t = np.array([0.1, 0.35, 0.62, 0.9])
        gram = build_gram(t, UNIFORM, lam=0.1, gamma=1.0)
        np.testing.assert_allclose(np.diag(gram.Pp), t, atol=1e-15)

    def test_q_symmetric(self):
        rng = np.random.default_rng(1)
        t = random_knots(rng, 6)
        gram = build_gram(t, UNIFORM, lam=0.01, gamma=2.0)
        np.testing.assert_array_equal(gram.Q, gram.Q.T)
        # cross blocks are transposes of each other by kernel symmetry
        np.testing.assert_allclose(gram.Qp, gram.P.T, atol=1e-15)

    def test_m_block_layout(self):
        t = np.array([0.2, 0.5, 0.8])
        lam, gamma = 0.05, 2.0
        gram = build_gram(t, UNIFORM, lam, gamma)
        n = 3
        np.testing.assert_allclose(gram.M[:n, :n], gram.Q + n * lam * np.eye(n))
        np.testing.assert_allclose(gram.M[n:, n:], gram.Pp + (n * lam / gamma) * np.eye(n))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_gram([0.2, 0.5], UNIFORM, lam=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            build_gram([0.2, 0.5], UNIFORM, lam=0.1, gamma=0.0)
        with pytest.raises(ValueError):
            build_gram([0.5, 0.5], UNIFORM, lam=0.1, gamma=1.0)
        with pytest.raises(ValueError):
            build_gram([0.0, 0.5], UNIFORM, lam=0.1, gamma=1.0)


class TestSolveCoefficients:
    def test_exact_line_for_any_parameters(self):
        t = np.array([0.1, 0.3, 0.55, 0.7, 0.9])
        y = 2.0 + 3.0 * t
        v = np.full(5, 3.0)
        for lam in (1e-6, 1e-2, 10.0):
            for gamma in (0.1, 1.0, 50.0):
                fit = fit_vspline(t, y, v, UNIFORM, lam, gamma)
                np.testing.assert_allclose(fit.d, [2.0, 3.0], atol=1e-9)
                assert np.abs(fit.c).max() < 1e-9
                assert np.abs(fit.b).max() < 1e-9
                np.testing.assert_allclose(fit.evaluate(t), y, atol=1e-9)
                np.testing.assert_allclose(fit.evaluate_deriv(t), v, atol=1e-9)

    def test_linearity_in_data(self):
        rng = np.random.default_rng(2)
        t = random_knots(rng, 7)
        gram = build_gram(t, UNIFORM, 0.02, 1.5)
        y1, v1 = rng.standard_normal(7), rng.standard_normal(7)
        y2, v2 = rng.standard_normal(7), rng.standard_normal(7)
        a, b = 1.7, -0.6
        f1 = solve_coefficients(gram, y1, v1)
        f2 = solve_coefficients(gram, y2, v2)
        f12 = solve_coefficients(gram, a * y1 + b * y2, a * v1 + b * v2)
        np.testing.assert_allclose(f12.d, a * f1.d + b * f2.d, atol=1e-10)
        np.testing.assert_allclose(f12.c, a * f1.c + b * f2.c, atol=1e-10)
        np.testing.assert_allclose(f12.b, a * f1.b + b * f2.b, atol=1e-10)

    def test_stationarity_residuals_small(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t, y, v, cfg, lam, gamma = random_instance(
                rng, n_range=(3, 30), lam_range=(1e-6, 10.0),
                gamma_range=(1e-4, 100.0))
            gram = build_gram(t, cfg, lam, gamma)
            fit = solve_coefficients(gram, y, v)
            res = stationarity_residuals(gram, fit.d, fit.c, fit.b, y, v)
            assert res.max() < 1e-8

    def test_singular_system_raises(self):
        t = np.array([0.5, 0.5 + 1e-13])
        gram = build_gram(t, UNIFORM, lam=1e-18, gamma=1.0)
        with pytest.raises(SingularSystemError):
            solve_coefficients(gram, np.array([0.0, 1.0]), np.zeros(2))

    def test_needs_two_knots(self):
        gram = build_gram([0.5], UNIFORM, lam=0.1, gamma=1.0)
        with pytest.raises(ValueError):
            solve_coefficients(gram, np.array([1.0]), np.array([0.0]))


class TestEvaluation:
    def test_affine_only_fit(self):
        fit = fit_vspline(np.array([0.2, 0.8]), np.array([2.6, 4.4]),
                          np.array([3.0, 3.0]), UNIFORM, 0.1, 1.0)
        assert fit.evaluate(0.5) == pytest.approx(3.5, abs=1e-10)
        assert fit.evaluate_deriv(0.37) == pytest.approx(3.0, abs=1e-10)

    def test_knot_values_match_gram_identity(self):
        rng = np.random.default_rng(4)
        t, y, v, cfg, lam, gamma = random_instance(rng)
        gram = build_gram(t, cfg, lam, gamma)
        fit = solve_coefficients(gram, y, v)
        f_knots, fp_knots = fitted_knot_values(gram, fit.d, fit.c, fit.b)
        np.testing.assert_allclose(fit.evaluate(t), f_knots, atol=1e-12)
        np.testing.assert_allclose(fit.evaluate_deriv(t), fp_knots, atol=1e-12)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        t, y, v, cfg, lam, gamma = random_instance(rng, weighted=True)
        fit = fit_vspline(t, y, v, cfg, lam, gamma)
        h = 1e-6
        pts = rng.uniform(0.01, 0.99, 100)
        # keep clear of knots and weight breakpoints, where f'' jumps
        for kink in np.concatenate([t, cfg.breakpoints]):
            pts = pts[np.abs(pts - kink) > 5 * h]
        fd = (fit.evaluate(pts + h) - fit.evaluate(pts - h)) / (2 * h)
        np.testing.assert_allclose(fit.evaluate_deriv(pts), fd, atol=1e-6)

    def test_domain_error(self):
        fit = fit_vspline(np.array([0.2, 0.8]), np.zeros(2), np.zeros(2),
                          UNIFORM, 0.1, 1.0)
        with pytest.raises(ValueError):
            fit.evaluate(1.5)
        with pytest.raises(ValueError):
            fit.evaluate_deriv(-0.1)


class TestObjectiveOptimality:
    def test_fit_beats_perturbations(self):
        rng = np.random.default_rng(6)
        t, y, v, cfg, lam, gamma = random_instance(rng)
        gram = build_gram(t, cfg, lam, gamma)
        fit = solve_coefficients(gram, y, v)
        j_star = objective_value(gram, fit.d, fit.c, fit.b, y, v)
        n = t.size
        eps = 1e-3
        for _ in range(50):
            dd = rng.standard_normal(2)
            dc = rng.standard_normal(n)
            db = rng.standard_normal(n)
            j_pert = objective_value(gram, fit.d + eps * dd, fit.c + eps * dc,
                                     fit.b + eps * db, y, v)
            assert j_pert >= j_star - 1e-12

    def test_interpolation_limit(self):
        t = np.linspace(0.08, 0.92, 8)
        y = np.sin(2 * np.pi * t)
        v = 2 * np.pi * np.cos(2 * np.pi * t)
        fit = fit_vspline(t, y, v, UNIFORM, lam=1e-10, gamma=1.0)
        assert np.abs(fit.evaluate(t) - y).max() < 1e-4
        assert np.abs(fit.evaluate_deriv(t) - v).max() < 1e-4

    def test_heavy_penalty_limit(self):
        rng = np.random.default_rng(7)
        t = random_knots(rng, 9)
        y = rng.standard_normal(9)
        v = rng.standard_normal(9)
        gram = build_gram(t, UNIFORM, lam=1e6, gamma=1.0)
        fit = solve_coefficients(gram, y, v)
        assert penalty_quadratic(gram, fit.c, fit.b) < 1e-8


class TestHatMapLinearity:
    def test_unit_vector_assembly_reproduces_fit(self):
        rng = np.random.default_rng(8)
        t, y, v, cfg, lam, gamma = random_instance(rng, n_range=(4, 9))
        n = t.size
        gram = build_gram(t, cfg, lam, gamma)
        # assemble the (y, v) -> (f, f') map column by column
        H = np.zeros((2 * n, 2 * n))
        for j in range(2 * n):
            e = np.zeros(2 * n)
            e[j] = 1.0
            fe = solve_coefficients(gram, e[:n], e[n:])
            fk, fpk = fitted_knot_values(gram, fe.d, fe.c, fe.b)
            H[:, j] = np.concatenate([fk, fpk])
        fit = solve_coefficients(gram, y, v)
        fk, fpk = fitted_knot_values(gram, fit.d, fit.c, fit.b)
        np.testing.assert_allclose(H @ np.concatenate([y, v]),
                                   np.concatenate([fk, fpk]), atol=1e-10)
