"""Gaussian-process posterior paths and the vague-limit identities."""

import math

import numpy as np
import pytest

import oracles
from conftest import random_config, random_instance, random_knots
from vspline import (GpPrior, KernelConfig, SingularSystemError, build_gram,
                     posterior_mean_finite_rho)
from vspline.bayes import limit_identities_check, prior_cov
from vspline.fit import fit_vspline
from vspline.kernels import eval_r1

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

    def test_unknown_pairing_rejected(self):
        with pytest.raises(ValueError):
            prior_cov(0.2, 0.3, "nope", GpPrior(beta=1.0, rho=0.0, config=UNIFORM))


class TestDiffusePosterior:
    # the vague limit rho -> inf is the representer fit itself
    def test_line_data_gives_line_mean(self):
        t = np.array([0.15, 0.4, 0.6, 0.85])
        y = 1.0 - 2.0 * t
        v = np.full(4, -2.0)
        fit = fit_vspline(t, y, v, UNIFORM, lam=0.3, gamma=2.0)
        grid = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(fit.evaluate(grid), 1.0 - 2.0 * grid, atol=1e-9)
        np.testing.assert_allclose(fit.evaluate_deriv(grid), -2.0, atol=1e-9)

    def test_unit_weights_match_uniform(self):
        rng = np.random.default_rng(1)
        t = random_knots(rng, 6)
        y = rng.standard_normal(6)
        v = rng.standard_normal(6)
        cfg1 = KernelConfig.piecewise(np.concatenate([[0.0], t, [1.0]]), np.ones(7))
        a = fit_vspline(t, y, v, UNIFORM, 0.02, 1.5)
        b = fit_vspline(t, y, v, cfg1, 0.02, 1.5)
        grid = np.linspace(0.0, 1.0, 40)
        np.testing.assert_allclose(a.evaluate(grid), b.evaluate(grid), atol=1e-10)


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
        diffuse = fit_vspline(t, y, v, cfg, lam, gamma)
        prior = GpPrior(beta=1.0, rho=1e10, config=cfg)
        finite = posterior_mean_finite_rho(t, y, v, prior, lam, gamma)
        grid = np.linspace(0.02, 0.98, 50)
        scale = np.abs(diffuse.evaluate(grid)).max()
        assert np.abs(finite.mean(grid) - diffuse.evaluate(grid)).max() <= 1e-5 * scale

    def test_mean_deriv_is_the_derivative_of_mean(self):
        # a central difference of the mean, step 1e-6: truncation and
        # rounding stay near 1e-9 of the slope scale
        rng = np.random.default_rng(4)
        grid = np.linspace(0.02, 0.98, 50)
        for rho in (1.0, 1e4):
            t, y, v, cfg, lam, gamma = random_instance(rng)
            post = posterior_mean_finite_rho(t, y, v, GpPrior(beta=1.0, rho=rho, config=cfg),
                                             lam, gamma)
            slope = post.mean_deriv(grid)
            central = (post.mean(grid + 1e-6) - post.mean(grid - 1e-6)) / 2e-6
            assert np.abs(central - slope).max() <= 1e-7 * np.abs(slope).max()

    def test_large_rho_mean_deriv_matches_diffuse(self):
        # test_large_rho_matches_diffuse's instance and tolerance, for slopes
        rng = np.random.default_rng(2)
        t, y, v, cfg, lam, gamma = random_instance(rng)
        diffuse = fit_vspline(t, y, v, cfg, lam, gamma)
        prior = GpPrior(beta=1.0, rho=1e10, config=cfg)
        finite = posterior_mean_finite_rho(t, y, v, prior, lam, gamma)
        grid = np.linspace(0.02, 0.98, 50)
        scale = np.abs(diffuse.evaluate_deriv(grid)).max()
        assert (np.abs(finite.mean_deriv(grid) - diffuse.evaluate_deriv(grid)).max()
                <= 1e-5 * scale)

    def test_convergence_monotone_in_rho(self):
        rng = np.random.default_rng(3)
        t, y, v, cfg, lam, gamma = random_instance(rng, weighted=False)
        diffuse = fit_vspline(t, y, v, cfg, lam, gamma)
        grid = np.linspace(0.02, 0.98, 50)
        gaps = []
        for rho in (1e2, 1e4, 1e6, 1e8):
            prior = GpPrior(beta=1.0, rho=rho, config=cfg)
            finite = posterior_mean_finite_rho(t, y, v, prior, lam, gamma)
            gaps.append(np.abs(finite.mean(grid) - diffuse.evaluate(grid)).max())
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

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="^rho must be nonnegative and finite$"):
            GpPrior(beta=1.0, rho=rho, config=UNIFORM)

    def test_posterior_requires_positive_rho(self):
        t = np.array([0.2, 0.8])
        prior = GpPrior(beta=1.0, rho=0.0, config=UNIFORM)
        with pytest.raises(ValueError, match="positive rho"):
            posterior_mean_finite_rho(t, np.zeros(2), np.zeros(2), prior, 0.1, 1.0)

    def test_non_finite_data_is_named(self):
        # checked like every other route, not by scipy's "array must not
        # contain infs or NaNs" from inside the solve
        t = np.array([0.2, 0.5, 0.8])
        prior = GpPrior(beta=1.0, rho=10.0, config=UNIFORM)
        with pytest.raises(ValueError, match="^y must be finite$"):
            posterior_mean_finite_rho(t, np.array([0.0, np.nan, 1.0]), np.zeros(3),
                                      prior, 0.1, 1.0)
