"""Gaussian-process posterior paths and the vague-limit identities."""

import math

import numpy as np
import pytest

import oracles
from conftest import random_config, random_instance, random_knots
from vspline import (GpPrior, KernelConfig, SingularSystemError, build_gram,
                     eval_r1, fit_vspline, limit_identities_check,
                     posterior_mean_diffuse, posterior_mean_finite_rho,
                     prior_cov, solve_coefficients)

UNIFORM = KernelConfig.uniform()


class TestPriorCov:
    def test_dfdf_scales_min(self):
        prior = GpPrior(beta=2.0, rho=0.0, config=UNIFORM)
        assert prior_cov(0.3, 0.8, "dfdf", prior) == pytest.approx(0.6, abs=1e-15)

    def test_ff_without_affine_part_is_curvature_kernel(self):
        prior = GpPrior(beta=1.0, rho=0.0, config=UNIFORM)
        got = prior_cov(0.5, 1.0, "ff", prior)
        assert got == pytest.approx(oracles.quad_r1(0.5, 1.0, UNIFORM), rel=1e-10)

    def test_zero_at_origin_with_affine_off(self):
        prior = GpPrior(beta=1.5, rho=0.0, config=UNIFORM)
        for which in ("ff", "fdf", "dff"):
            assert prior_cov(0.0, 0.7, which, prior) == 0.0

    def test_affine_part_included_when_rho_positive(self):
        prior = GpPrior(beta=1.0, rho=2.0, config=UNIFORM)
        s, t = 0.4, 0.6
        want = eval_r1(s, t, UNIFORM) + 2.0 * (1.0 + s * t)
        assert prior_cov(s, t, "ff", prior) == pytest.approx(want, rel=1e-14)

    def test_vague_prior_rejected(self):
        prior = GpPrior(beta=1.0, rho=math.inf, config=UNIFORM)
        with pytest.raises(ValueError):
            prior_cov(0.2, 0.3, "ff", prior)
        with pytest.raises(ValueError):
            prior_cov(0.2, 0.3, "nope", GpPrior(beta=1.0, rho=0.0, config=UNIFORM))


class TestDiffusePosterior:
    def test_equals_representer_solve(self):
        rng = np.random.default_rng(0)
        t, y, v, cfg, lam, gamma = random_instance(rng)
        fit = solve_coefficients(build_gram(t, cfg, lam, gamma), y, v)
        post = posterior_mean_diffuse(t, y, v, beta=0.4, lam=lam, gamma=gamma,
                                      config=cfg)
        np.testing.assert_allclose(post.fit.d, fit.d, atol=1e-12)
        np.testing.assert_allclose(post.fit.c, fit.c, atol=1e-12)
        np.testing.assert_allclose(post.fit.b, fit.b, atol=1e-12)

    def test_line_data_gives_line_mean(self):
        t = np.array([0.15, 0.4, 0.6, 0.85])
        y = 1.0 - 2.0 * t
        v = np.full(4, -2.0)
        post = posterior_mean_diffuse(t, y, v, beta=1.0, lam=0.3, gamma=2.0,
                                      config=UNIFORM)
        grid = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(post.mean(grid), 1.0 - 2.0 * grid, atol=1e-9)
        np.testing.assert_allclose(post.mean_deriv(grid), -2.0, atol=1e-9)

    def test_unit_weights_match_uniform(self):
        rng = np.random.default_rng(1)
        t = random_knots(rng, 6)
        y = rng.standard_normal(6)
        v = rng.standard_normal(6)
        cfg1 = KernelConfig.piecewise(np.concatenate([[0.0], t, [1.0]]), np.ones(7))
        a = posterior_mean_diffuse(t, y, v, 1.0, 0.02, 1.5, UNIFORM)
        b = posterior_mean_diffuse(t, y, v, 1.0, 0.02, 1.5, cfg1)
        grid = np.linspace(0.0, 1.0, 40)
        np.testing.assert_allclose(a.mean(grid), b.mean(grid), atol=1e-10)

    def test_no_variance_in_diffuse_path(self):
        t = np.array([0.2, 0.8])
        post = posterior_mean_diffuse(t, np.zeros(2), np.zeros(2), 1.0, 0.1, 1.0,
                                      UNIFORM)
        with pytest.raises(ValueError):
            post.variance(0.5)


class TestFiniteRhoPosterior:
    def test_zero_data_gives_zero_mean(self):
        t = np.array([0.2, 0.5, 0.8])
        prior = GpPrior(beta=1.0, rho=5.0, config=UNIFORM)
        post = posterior_mean_finite_rho(t, np.zeros(3), np.zeros(3), prior,
                                         0.05, 1.0)
        grid = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(post.mean(grid), 0.0, atol=1e-14)

    def test_large_rho_matches_diffuse(self):
        rng = np.random.default_rng(2)
        t, y, v, cfg, lam, gamma = random_instance(rng)
        diffuse = posterior_mean_diffuse(t, y, v, 1.0, lam, gamma, cfg)
        prior = GpPrior(beta=1.0, rho=1e10, config=cfg)
        finite = posterior_mean_finite_rho(t, y, v, prior, lam, gamma)
        grid = np.linspace(0.02, 0.98, 50)
        scale = np.abs(diffuse.mean(grid)).max()
        assert np.abs(finite.mean(grid) - diffuse.mean(grid)).max() <= 1e-5 * scale

    def test_convergence_monotone_in_rho(self):
        rng = np.random.default_rng(3)
        t, y, v, cfg, lam, gamma = random_instance(rng, weighted=False)
        diffuse = posterior_mean_diffuse(t, y, v, 1.0, lam, gamma, cfg)
        grid = np.linspace(0.02, 0.98, 50)
        gaps = []
        for rho in (1e2, 1e4, 1e6, 1e8):
            prior = GpPrior(beta=1.0, rho=rho, config=cfg)
            finite = posterior_mean_finite_rho(t, y, v, prior, lam, gamma)
            gaps.append(np.abs(finite.mean(grid) - diffuse.mean(grid)).max())
        for a, b in zip(gaps, gaps[1:]):
            assert b <= 1.1 * a  # decreasing, modest slack at the tiny end

    def test_matches_conditioning_oracle(self):
        rng = np.random.default_rng(4)
        for n in (3, 5, 6):
            t = random_knots(rng, n)
            y = rng.standard_normal(n)
            v = rng.standard_normal(n)
            beta, rho, lam, gamma = 0.7, 3.0, 0.05, 2.0
            for cfg in (UNIFORM, random_config(rng, knots=t)):
                prior = GpPrior(beta=beta, rho=rho, config=cfg)
                post = posterior_mean_finite_rho(t, y, v, prior, lam, gamma)
                ts = np.linspace(0.05, 0.95, 7)
                mean_ref, var_ref = oracles.gp_joint_posterior(
                    t, y, v, ts, cfg, beta, rho, lam, gamma)
                np.testing.assert_allclose(post.mean(ts), mean_ref, atol=1e-8)
                np.testing.assert_allclose(post.variance(ts), var_ref, atol=1e-8)

    def test_variance_positive_and_shrinks_near_data(self):
        rng = np.random.default_rng(5)
        t = random_knots(rng, 6)
        y = rng.standard_normal(6)
        v = rng.standard_normal(6)
        prior = GpPrior(beta=1.0, rho=10.0, config=UNIFORM)
        post = posterior_mean_finite_rho(t, y, v, prior, 0.01, 1.0)
        grid = np.linspace(0.01, 0.99, 30)
        var = post.variance(grid)
        assert np.all(var > 0.0)
        # at large rho the variance converges like 1/rho, with no cancellation
        big = [posterior_mean_finite_rho(t, y, v, GpPrior(1.0, rho, UNIFORM),
                                         0.01, 1.0).variance(grid)
               for rho in (1e6, 1e8)]
        for var in big:
            assert np.all(var >= 0.0)
        np.testing.assert_allclose(big[0], big[1], rtol=1e-6)


class TestLimitIdentities:
    @staticmethod
    def _instance(rng, m=10, k=2):
        A = rng.standard_normal((m, m))
        M = A @ A.T + np.eye(m)
        T = rng.standard_normal((m, k))
        return T, M

    def test_gaps_small_at_large_rho(self):
        rng = np.random.default_rng(6)
        T, M = self._instance(rng)
        gaps = limit_identities_check(T, M, 1e8)
        bound = 1e-6 * np.linalg.norm(np.linalg.inv(M), 2)
        assert gaps.inverse_gap <= bound
        assert gaps.coefficient_gap <= bound

    def test_doubling_rho_halves_inverse_gap(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            T, M = self._instance(rng)
            rho = 10.0 ** rng.uniform(2, 4)
            g1 = limit_identities_check(T, M, rho).inverse_gap
            g2 = limit_identities_check(T, M, 2 * rho).inverse_gap
            assert g2 <= 0.75 * g1
            assert g2 >= g1 / 3.0

    def test_rank_deficient_t_rejected(self):
        rng = np.random.default_rng(8)
        _, M = self._instance(rng)
        with pytest.raises(ValueError):
            limit_identities_check(np.zeros((10, 2)), M, 100.0)

    def test_singular_m_rejected(self):
        rng = np.random.default_rng(9)
        T = rng.standard_normal((6, 2))
        M = np.zeros((6, 6))
        with pytest.raises(SingularSystemError, match="M is numerically singular") as err:
            limit_identities_check(T, M, 10.0)
        # a general M says nothing about knots or penalties
        assert "knots" not in str(err.value)

    def test_vspline_system_satisfies_identities(self):
        # the fitting matrices themselves, treated as a general (T, M) pair
        rng = np.random.default_rng(10)
        t, y, v, cfg, lam, gamma = random_instance(rng, n_range=(4, 8))
        gram = build_gram(t, cfg, lam, gamma)
        g_small = limit_identities_check(gram.T, gram.M, 1e2)
        g_large = limit_identities_check(gram.T, gram.M, 1e6)
        assert g_large.inverse_gap < g_small.inverse_gap / 1e3
        assert g_large.coefficient_gap < g_small.coefficient_gap / 1e3


class TestGpPriorValidation:
    def test_bad_scales_rejected(self):
        with pytest.raises(ValueError):
            GpPrior(beta=0.0, rho=1.0, config=UNIFORM)
        with pytest.raises(ValueError):
            GpPrior(beta=1.0, rho=-1.0, config=UNIFORM)

    def test_finite_rho_requires_positive_rho(self):
        t = np.array([0.2, 0.8])
        prior = GpPrior(beta=1.0, rho=math.inf, config=UNIFORM)
        with pytest.raises(ValueError):
            posterior_mean_finite_rho(t, np.zeros(2), np.zeros(2), prior, 0.1, 1.0)

    def test_non_finite_data_is_named(self):
        # checked like every other route, not by scipy's "array must not
        # contain infs or NaNs" from inside the solve
        t = np.array([0.2, 0.5, 0.8])
        prior = GpPrior(beta=1.0, rho=10.0, config=UNIFORM)
        with pytest.raises(ValueError, match="^y must be finite$"):
            posterior_mean_finite_rho(t, np.array([0.0, np.nan, 1.0]), np.zeros(3),
                                      prior, 0.1, 1.0)
