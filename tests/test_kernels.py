"""Kernel closed forms against their defining integrals and properties."""

import numpy as np
import pytest

import oracles
from conftest import random_config
from vspline import (KernelConfig, eval_r0, eval_r1, eval_r1_ds, eval_r1_dsdt,
                     eval_r1_dt, rescale_domain)

UNIFORM = KernelConfig.uniform()


class TestConfigValidation:
    def test_uniform_is_single_unit_interval(self):
        assert UNIFORM.weights.tolist() == [1.0]
        assert UNIFORM.breakpoints.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("breaks, weights", [
        ([0.0, 0.5, 1.0], [1.0]),            # count mismatch
        ([0.1, 0.5, 1.0], [1.0, 1.0]),       # does not start at 0
        ([0.0, 0.5, 0.9], [1.0, 1.0]),       # does not end at 1
        ([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0]),  # not strictly increasing
        ([0.0, 0.5, 1.0], [1.0, 0.0]),       # nonpositive weight
        ([0.0, 0.5, 1.0], [1.0, -2.0]),
    ])
    def test_invalid_configs_rejected(self, breaks, weights):
        with pytest.raises(ValueError):
            KernelConfig.piecewise(breaks, weights)

    def test_arrays_frozen(self):
        cfg = KernelConfig.piecewise([0.0, 0.4, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            cfg.weights[0] = 5.0


class TestFrozenValues:
    """Hand-checked values; the derived ones were computed by quadrature."""

    def test_r0(self):
        assert eval_r0(0.0, 0.0) == 1.0
        assert eval_r0(1.0, 1.0) == 2.0
        assert eval_r0(0.5, 0.4) == pytest.approx(1.2, abs=1e-15)

    def test_r1_at_zero_is_zero(self):
        for t in (0.0, 0.3, 1.0):
            assert eval_r1(0.0, t, UNIFORM) == 0.0

    def test_r1_uniform_derived_value(self):
        # integral of (0.5 - u)(1 - u) over [0, 0.5] = 5/48
        assert eval_r1(0.5, 1.0, UNIFORM) == pytest.approx(5.0 / 48.0, rel=1e-14)

    def test_r1_ds_derived_value(self):
        # integral of (0.8 - u) over [0, 0.3] = 0.195
        assert eval_r1_ds(0.3, 0.8, UNIFORM) == pytest.approx(0.195, rel=1e-14)
        assert eval_r1_ds(0.7, 0.0, UNIFORM) == 0.0

    def test_r1_dt_half_s_squared_when_t_dominates(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            s = rng.uniform(0.0, 0.9)
            t = rng.uniform(s, 1.0)
            assert eval_r1_dt(s, t, UNIFORM) == pytest.approx(s * s / 2.0, abs=1e-15)
        assert eval_r1_dt(0.0, 0.4, UNIFORM) == 0.0

    def test_r1_dsdt_is_min(self):
        assert eval_r1_dsdt(0.3, 0.8, UNIFORM) == pytest.approx(0.3, abs=1e-15)
        assert eval_r1_dsdt(0.0, 0.6, UNIFORM) == 0.0

    def test_weighted_constant_two(self):
        cfg = KernelConfig.piecewise([0.0, 0.25, 0.7, 1.0], [2.0, 2.0, 2.0])
        assert eval_r1_dsdt(0.4, 0.9, cfg) == pytest.approx(0.2, abs=1e-15)


class TestDomainErrors:
    @pytest.mark.parametrize("s, t", [(-0.1, 0.5), (0.5, 1.2), (np.nan, 0.5), (2.0, 2.0)])
    def test_out_of_domain_rejected(self, s, t):
        with pytest.raises(ValueError):
            eval_r0(s, t)
        for op in (eval_r1, eval_r1_ds, eval_r1_dt, eval_r1_dsdt):
            with pytest.raises(ValueError):
                op(s, t, UNIFORM)


def _configs(rng):
    yield UNIFORM
    yield random_config(rng)
    yield random_config(rng)


class TestQuadratureAgreement:
    """Closed forms equal adaptive quadrature of the defining integrals."""

    CASES = [
        (eval_r1, oracles.quad_r1),
        (eval_r1_ds, oracles.quad_r1_ds),
        (eval_r1_dt, oracles.quad_r1_dt),
        (eval_r1_dsdt, oracles.quad_r1_dsdt),
    ]

    @pytest.mark.parametrize("closed, reference", CASES)
    def test_matches_quadrature(self, closed, reference):
        rng = np.random.default_rng(42)
        for cfg in _configs(rng):
            for _ in range(25):
                s, t = rng.uniform(0.0, 1.0, 2)
                want = reference(s, t, cfg)
                got = closed(s, t, cfg)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


class TestIntervalLoopOracle:
    """Prefix-sum accumulation equals the direct loop over weight intervals."""

    KERNELS = (eval_r1, eval_r1_ds, eval_r1_dt, eval_r1_dsdt)

    def test_knot_aligned_weights_at_cli_shape(self):
        # the CLI's --weights layout: n + 1 intervals with a breakpoint at
        # every rescaled knot, evaluated on the breakpoints themselves
        rng = np.random.default_rng(17)
        n = 300
        t_raw = np.sort(rng.uniform(0.0, 40.0, n))
        knots, _, _, _ = rescale_domain(t_raw, np.zeros(n), np.zeros(n))
        cfg = random_config(rng, knots=knots)
        assert cfg.weights.size == n + 1
        on_breaks = cfg.breakpoints
        cols = np.concatenate([on_breaks[rng.choice(n + 2, 40, replace=False)],
                               rng.uniform(0.0, 1.0, 10), [0.0, 1.0]])
        shapes = [
            (on_breaks[:, None], cols[None, :]),
            (cols[None, :], on_breaks[:, None]),
            (on_breaks[:, None], 1.0),
            (0.0, on_breaks[None, :]),
            (on_breaks[:, None], on_breaks[rng.integers(n + 2)]),
        ]
        for s, t in shapes:
            for got, want in zip((op(s, t, cfg) for op in self.KERNELS),
                                 oracles.loop_kernels(s, t, cfg)):
                assert np.shape(got) == np.shape(want)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        for s, t in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, on_breaks[7]),
                     (on_breaks[5], on_breaks[9]), (on_breaks[150], on_breaks[150])]:
            for op, want in zip(self.KERNELS, oracles.loop_kernels(s, t, cfg)):
                got = op(s, t, cfg)
                assert isinstance(got, float)
                assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


class TestSymmetryAndDefiniteness:
    def test_r1_symmetric_exactly(self):
        rng = np.random.default_rng(7)
        for cfg in _configs(rng):
            s = rng.uniform(0, 1, 50)
            t = rng.uniform(0, 1, 50)
            np.testing.assert_array_equal(eval_r1(s, t, cfg), eval_r1(t, s, cfg))
            np.testing.assert_array_equal(eval_r1_dsdt(s, t, cfg),
                                          eval_r1_dsdt(t, s, cfg))

    def test_cross_derivative_partners(self):
        rng = np.random.default_rng(8)
        for cfg in _configs(rng):
            s = rng.uniform(0, 1, 50)
            t = rng.uniform(0, 1, 50)
            np.testing.assert_allclose(eval_r1_ds(s, t, cfg),
                                       eval_r1_dt(t, s, cfg), rtol=0, atol=0)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(9)
        for cfg in _configs(rng):
            for _ in range(5):
                pts = rng.uniform(0, 1, 10)
                G = eval_r0(pts[None, :], pts[:, None]) \
                    + np.atleast_2d(eval_r1(pts[None, :], pts[:, None], cfg))
                eigmin = np.linalg.eigvalsh(G).min()
                assert eigmin >= -1e-10


class TestWeightIdentities:
    def test_unit_weights_match_uniform(self):
        rng = np.random.default_rng(10)
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 4)), [1.0]])
        cfg = KernelConfig.piecewise(breaks, np.ones(5))
        for _ in range(30):
            s, t = rng.uniform(0, 1, 2)
            for op in (eval_r1, eval_r1_ds, eval_r1_dt, eval_r1_dsdt):
                assert op(s, t, cfg) == pytest.approx(op(s, t, UNIFORM),
                                                      rel=1e-14, abs=1e-15)

    def test_constant_weight_scales_uniform(self):
        rng = np.random.default_rng(11)
        c = 2.7
        cfg = KernelConfig.piecewise([0.0, 0.3, 0.8, 1.0], [c, c, c])
        for _ in range(30):
            s, t = rng.uniform(0, 1, 2)
            for op in (eval_r1, eval_r1_ds, eval_r1_dt, eval_r1_dsdt):
                assert op(s, t, cfg) == pytest.approx(op(s, t, UNIFORM) / c,
                                                      rel=1e-13, abs=1e-16)


class TestReproducingProperty:
    """<R_s, f> = f(s) and <dR_s/ds, f> = f'(s) for cubics, by quadrature."""

    def test_value_section_reproduces(self):
        rng = np.random.default_rng(12)
        for cfg in _configs(rng):
            for _ in range(10):
                coeffs = rng.uniform(-2, 2, 4)
                s = rng.uniform(0, 1)
                f, _, _ = oracles.cubic(coeffs)
                got = oracles.inner_product_with_value_section(s, coeffs, cfg)
                assert got == pytest.approx(f(s), abs=1e-8)

    def test_derivative_section_reproduces(self):
        rng = np.random.default_rng(13)
        for cfg in _configs(rng):
            for _ in range(10):
                coeffs = rng.uniform(-2, 2, 4)
                s = rng.uniform(0, 1)
                _, df, _ = oracles.cubic(coeffs)
                got = oracles.inner_product_with_deriv_section(s, coeffs, cfg)
                assert got == pytest.approx(df(s), abs=1e-8)


class TestFiniteDifferenceCrossCheck:
    def test_dt_is_derivative_of_r1(self):
        rng = np.random.default_rng(14)
        h = 1e-6
        for cfg in _configs(rng):
            for _ in range(20):
                s = rng.uniform(0.05, 0.95)
                t = rng.uniform(0.05, 0.95)
                if abs(s - t) < 3 * h:   # avoid the kink at s = t
                    t = min(s + 0.1, 0.95)
                fd = (eval_r1(s, t + h, cfg) - eval_r1(s, t - h, cfg)) / (2 * h)
                assert eval_r1_dt(s, t, cfg) == pytest.approx(fd, abs=1e-6)

    def test_dsdt_is_derivative_of_ds(self):
        rng = np.random.default_rng(15)
        h = 1e-6
        for cfg in _configs(rng):
            for _ in range(20):
                s = rng.uniform(0.05, 0.95)
                t = rng.uniform(0.05, 0.95)
                if abs(s - t) < 3 * h:
                    t = min(s + 0.1, 0.95)
                fd = (eval_r1_ds(s, t + h, cfg) - eval_r1_ds(s, t - h, cfg)) / (2 * h)
                assert eval_r1_dsdt(s, t, cfg) == pytest.approx(fd, abs=1e-6)


def test_broadcasting_matches_scalar_loop():
    rng = np.random.default_rng(16)
    cfg = random_config(rng)
    s = rng.uniform(0, 1, 6)
    t = rng.uniform(0, 1, 4)
    grid = np.atleast_2d(eval_r1(s[:, None], t[None, :], cfg))
    for i in range(6):
        for j in range(4):
            assert grid[i, j] == eval_r1(s[i], t[j], cfg)
