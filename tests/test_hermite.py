"""Cardinal basis, penalty assembly, basis fit, and hat matrices."""

import warnings

import numpy as np
import pytest

import oracles
from scipy.linalg import cho_solve, cholesky_banded

from conftest import (ar1_precision, jittered_knots, mixed_chunk, mixed_failure_problems,
                      random_config, random_instance, random_knots, random_tridiagonal_spd)
from vspline import (HermiteBasis, KernelConfig, SingularSystemError, build_design,
                     build_gram, fit_theta, fit_vspline, hat_matrices,
                     hat_matrices_correlated, solve_coefficients)
from vspline.gcv import _design_for
from vspline.hermite import (_band_inverse, _ErrorWeights, _factor_normal, _fit_point,
                             _fit_stack, _normal_stack)

UNIFORM = KernelConfig.uniform()


class TestBasisCardinality:
    def test_value_and_slope_cardinality(self):
        rng = np.random.default_rng(0)
        t = random_knots(rng, 5)
        basis = HermiteBasis(t)
        n = 5
        for i in range(n):
            e = np.zeros(2 * n)
            e[i] = 1.0
            np.testing.assert_allclose(basis.evaluate(e, t), np.eye(n)[i], atol=1e-14)
            np.testing.assert_allclose(basis.evaluate_deriv(e, t), np.zeros(n), atol=1e-12)
            e = np.zeros(2 * n)
            e[n + i] = 1.0
            np.testing.assert_allclose(basis.evaluate(e, t), np.zeros(n), atol=1e-14)
            np.testing.assert_allclose(basis.evaluate_deriv(e, t), np.eye(n)[i], atol=1e-12)

    def test_c1_continuity_at_knots(self):
        rng = np.random.default_rng(1)
        t = random_knots(rng, 6)
        basis = HermiteBasis(t)
        theta = rng.standard_normal(12)
        eps = 1e-10  # one-sided drift is eps * f'', which can reach ~1e4 here
        for tk in t[1:-1]:
            left = basis.evaluate(theta, tk - eps)
            right = basis.evaluate(theta, tk + eps)
            assert left == pytest.approx(right, abs=1e-8)
            dl = basis.evaluate_deriv(theta, tk - eps)
            dr = basis.evaluate_deriv(theta, tk + eps)
            assert dl == pytest.approx(dr, abs=1e-5)

    def test_linear_tails(self):
        t = np.array([0.3, 0.7])
        basis = HermiteBasis(t)
        theta = np.array([1.0, 2.0, 4.0, -1.0])  # values then slopes
        # left of the first knot: value 1, slope 4
        assert basis.evaluate(theta, 0.1) == pytest.approx(1.0 + 4.0 * (0.1 - 0.3))
        assert basis.evaluate_deriv(theta, 0.05) == pytest.approx(4.0)
        # right of the last knot: value 2, slope -1
        assert basis.evaluate(theta, 0.9) == pytest.approx(2.0 - 1.0 * (0.9 - 0.7))
        assert basis.evaluate_deriv(theta, 0.99) == pytest.approx(-1.0)

    def test_deriv_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        t = random_knots(rng, 7)
        basis = HermiteBasis(t)
        theta = rng.standard_normal(14)
        h = 1e-6
        pts = rng.uniform(0.01, 0.99, 60)
        pts = pts[np.min(np.abs(pts[:, None] - t[None, :]), axis=1) > 5 * h]
        fd = (basis.evaluate(theta, pts + h) - basis.evaluate(theta, pts - h)) / (2 * h)
        np.testing.assert_allclose(basis.evaluate_deriv(theta, pts), fd, atol=1e-5)


class TestPenaltyGram:
    def test_single_interval_classical_stiffness(self):
        t = np.array([0.3, 0.75])
        h = 0.45
        design = build_design(t, 1.0)
        # dof order in omega: [val0, val1, slope0, slope1]
        idx = [0, 2, 1, 3]  # local (val0, slope0, val1, slope1)
        K = design.omega[np.ix_(idx, idx)]
        expect = np.array([
            [12 / h**3, 6 / h**2, -12 / h**3, 6 / h**2],
            [6 / h**2, 4 / h, -6 / h**2, 2 / h],
            [-12 / h**3, -6 / h**2, 12 / h**3, -6 / h**2],
            [6 / h**2, 2 / h, -6 / h**2, 4 / h],
        ])
        np.testing.assert_allclose(K, expect, rtol=1e-12)

    def test_zero_penalty_gives_zero(self):
        design = build_design(np.array([0.2, 0.5, 0.8]), 0.0)
        np.testing.assert_array_equal(design.omega, np.zeros((6, 6)))

    def test_linear_in_lam(self):
        t = np.array([0.15, 0.4, 0.85])
        d1 = build_design(t, 0.7)
        d2 = build_design(t, 1.4)
        np.testing.assert_allclose(d2.omega, 2.0 * d1.omega, rtol=1e-13)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        t = random_knots(rng, 4)
        knot_breaks = np.concatenate([[0.0], t, [1.0]])
        inputs = [
            # knot-aligned layout (as the CLI builds it) with zeros
            (knot_breaks, np.array([0.4, 0.0, 1.7, 0.0, 0.9])),
            # zero-valued outer and inner knot intervals
            (knot_breaks, np.array([0.0, 1.1, 0.0, 0.0, 0.0])),
        ]
        designs = [build_design(t, values).omega for _, values in inputs]
        # a config with breakpoints outside [t1, tn] only, through the
        # mapping onto knot intervals
        outside = KernelConfig.piecewise([0.0, 0.5 * t[0], 0.5 * (t[3] + 1.0), 1.0],
                                         [0.7, 1.3, 2.1])
        inputs.append((outside.breakpoints, outside.weights))
        designs.append(_design_for(t, 1.0, outside).omega)
        for (breaks, values), omega in zip(inputs, designs):
            for i in range(8):
                for j in range(i, 8):
                    want = oracles.quad_penalty_entry(t, breaks, values, i, j)
                    assert omega[i, j] == pytest.approx(want, rel=1e-9, abs=1e-10)
            np.testing.assert_array_equal(omega, omega.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = random_knots(rng, int(rng.integers(2, 10)))
            lam = rng.uniform(0.0, 3.0, t.size + 1)
            design = build_design(t, lam)
            assert np.linalg.eigvalsh(design.omega).min() >= -1e-10

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            build_design(np.array([0.2, 0.8]), -0.1)


class TestFitTheta:
    def test_line_reproduced_exactly(self):
        rng = np.random.default_rng(5)
        t = random_knots(rng, 6)
        y = -1.0 + 4.0 * t
        v = np.full(6, 4.0)
        for gamma in (0.0, 1.0, 10.0):
            theta = fit_theta(build_design(t, 0.3), y, v, gamma)
            np.testing.assert_allclose(theta[:6], y, atol=1e-10)
            np.testing.assert_allclose(theta[6:], v, atol=1e-10)

    def test_identity_weights_match_default(self):
        rng = np.random.default_rng(6)
        t = random_knots(rng, 5)
        y = rng.standard_normal(5)
        v = rng.standard_normal(5)
        design = build_design(t, 0.05)
        base = fit_theta(design, y, v, 1.2)
        eye = np.eye(5)
        np.testing.assert_allclose(fit_theta(design, y, v, 1.2, W=eye, Ucorr=eye),
                                   base, atol=1e-12)

    def test_matches_representer_fit(self):
        rng = np.random.default_rng(7)
        t = random_knots(rng, 8)
        y = rng.standard_normal(8)
        v = rng.standard_normal(8)
        lam, gamma = 0.01, 1.0
        theta = fit_theta(build_design(t, lam), y, v, gamma)
        vfit = fit_vspline(t, y, v, UNIFORM, lam, gamma)
        np.testing.assert_allclose(theta[:8], vfit.evaluate(t), atol=1e-6)
        np.testing.assert_allclose(theta[8:], vfit.evaluate_deriv(t), atol=1e-6)


class TestHatMatrices:
    def test_hats_reproduce_fit(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t, y, v, _, lam, gamma = random_instance(rng, n_range=(3, 12),
                                                     weighted=False)
            design = build_design(t, lam)
            theta = fit_theta(design, y, v, gamma)
            hats = hat_matrices(design, gamma)
            n = t.size
            np.testing.assert_allclose(hats.S @ y + gamma * (hats.T @ v),
                                       theta[:n], atol=1e-10)
            np.testing.assert_allclose(hats.U @ y + gamma * (hats.V @ v),
                                       theta[n:], atol=1e-10)

    def test_symmetry_structure(self):
        rng = np.random.default_rng(9)
        t = random_knots(rng, 7)
        hats = hat_matrices(build_design(t, 0.02), 1.7)
        np.testing.assert_allclose(hats.S, hats.S.T, atol=1e-12)
        np.testing.assert_allclose(hats.V, hats.V.T, atol=1e-12)
        np.testing.assert_allclose(hats.T, hats.U.T, atol=1e-12)

    def test_constant_reproduction(self):
        rng = np.random.default_rng(10)
        t = random_knots(rng, 6)
        hats = hat_matrices(build_design(t, 0.05), 2.0)
        np.testing.assert_allclose(hats.S @ np.ones(6), np.ones(6), atol=1e-10)
        np.testing.assert_allclose(hats.U @ np.ones(6), np.zeros(6), atol=1e-10)

    def test_gamma_zero_matches_classical_hat(self):
        rng = np.random.default_rng(11)
        t = random_knots(rng, 9)
        lam = 0.003
        hats = hat_matrices(build_design(t, lam), 0.0)
        A = oracles.reference_hat(t, 9 * lam)
        np.testing.assert_allclose(hats.S, A, atol=1e-6)

    def test_trace_bounds_and_smooth_limit(self):
        rng = np.random.default_rng(12)
        t = random_knots(rng, 10)
        for lam in (1e-6, 1e-2, 1.0):
            tr = np.trace(hat_matrices(build_design(t, lam), 1.0).S)
            assert 0.0 < tr <= 10.0
        tr_smooth = np.trace(hat_matrices(build_design(t, 1e8), 0.0).S)
        assert tr_smooth == pytest.approx(2.0, abs=1e-2)


class TestCorrelatedHats:
    def test_identity_reduces_to_plain(self):
        rng = np.random.default_rng(13)
        t = random_knots(rng, 5)
        design = build_design(t, 0.04)
        plain = hat_matrices(design, 1.3)
        eye = np.eye(5)
        corr = hat_matrices_correlated(design, 1.3, eye, eye)
        np.testing.assert_allclose(corr.S, plain.S, atol=1e-12)
        np.testing.assert_allclose(corr.V, plain.V, atol=1e-12)

    def test_correlated_hats_reproduce_correlated_fit(self):
        rng = np.random.default_rng(14)
        t = random_knots(rng, 6)
        y = rng.standard_normal(6)
        v = rng.standard_normal(6)
        A = rng.standard_normal((6, 6))
        W = A @ A.T + 6 * np.eye(6)
        B = rng.standard_normal((6, 6))
        Ucorr = B @ B.T + 6 * np.eye(6)
        design = build_design(t, 0.02)
        theta = fit_theta(design, y, v, 0.8, W=W, Ucorr=Ucorr)
        hats = hat_matrices_correlated(design, 0.8, W, Ucorr)
        np.testing.assert_allclose(hats.S @ y + 0.8 * (hats.T @ v), theta[:6],
                                   atol=1e-9)

    def test_asymmetric_weights_read_as_the_fit_reads_them(self):
        # the fit reads the symmetric part of W; the hat oracle used to read
        # the raw matrix, so S y + gamma T v missed the fit by 3e-5 here
        n = 8
        t = np.linspace(0.1, 0.9, n)
        rng = np.random.default_rng(3)
        y, v = np.sin(5 * t) + 0.1 * rng.standard_normal(n), 5 * np.cos(5 * t)
        i = np.arange(n)
        W = 0.5 ** np.abs(i[:, None] - i[None, :])
        W[0, 5] += 1e-3
        design = build_design(t, 1e-3)
        theta = fit_theta(design, y, v, 0.7, W, np.eye(n))
        hats = hat_matrices_correlated(design, 0.7, W, np.eye(n))
        np.testing.assert_allclose(hats.S @ y + 0.7 * (hats.T @ v), theta[:n], rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["W", "Ucorr"])
    def test_non_finite_weights_are_input_errors(self, name, bad):
        # a NaN or inf weight is the caller's input, not an overflow: it used
        # to raise SingularSystemError "overflowed ... (lambda or gamma too large)"
        n = 6
        t = np.linspace(0.1, 0.9, n)
        y, v = np.sin(t), np.cos(t)
        design = build_design(t, 1e-2)
        for tridiagonal in (True, False):   # the banded and the dense route
            mats = {"W": ar1_precision(n, 0.5), "Ucorr": np.eye(n)}
            if not tridiagonal:
                mats["W"][0, 3] = mats["W"][3, 0] = 0.1
            mats[name][2, 2] = bad
            for call in (lambda: fit_theta(design, y, v, 0.7, **mats),
                         lambda: _fit_point(design, y, v, 0.7, **mats, hats="diagonals"),
                         lambda: hat_matrices_correlated(design, 0.7, **mats)):
                with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                    call()


class TestKeystoneEquivalence:
    """Basis regression and the representer system are the same minimizer."""

    def test_uniform_and_weighted_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            t, y, v, cfg, lam, gamma = random_instance(rng, n_range=(4, 16))
            gram = build_gram(t, cfg, lam, gamma)
            vfit = solve_coefficients(gram, y, v)
            design = _design_for(t, lam, cfg)
            theta = fit_theta(design, y, v, gamma)
            n = t.size
            np.testing.assert_allclose(theta[:n], vfit.evaluate(t), atol=1e-6)
            np.testing.assert_allclose(theta[n:], vfit.evaluate_deriv(t), atol=1e-6)


def _max_rel(got, want):
    """Largest deviation relative to the largest reference entry."""
    return np.abs(got - want).max() / np.abs(want).max()


def _dense_theta(design, y, v, gamma, W=None, Ucorr=None):
    """The coefficients by dense Cholesky, whatever the bandwidth of W/Ucorr."""
    cho = _factor_normal(design.band, 1.0, gamma, W, Ucorr)
    rhs = np.concatenate([y if W is None else W @ y, gamma * (v if Ucorr is None else Ucorr @ v)])
    return cho_solve(cho, rhs)


def _inverse_band(L):
    """The (4, size) band of A^-1 from the (4, size) band of its factor, by
    the engine's solve on a stack of one."""
    return _band_inverse(L.T[None])[0].T


def _normal_band(design, gamma, W=None, Ucorr=None):
    """The band of A at the design's penalty, as the engine assembles it."""
    zeros = np.zeros(design.n)
    weights = _ErrorWeights(zeros, zeros, W, Ucorr)
    return _normal_stack(design.band, np.ones(1), np.array([gamma]), weights)[0][0]


class TestBandedEngine:
    """The O(n) route, without error weights and with tridiagonal ones,
    against the dense route and against a 40-digit evaluation of the same
    band."""

    def test_matches_dense_route(self):
        rng = np.random.default_rng(16)
        for weighted in (False, True):
            for _ in range(25):
                n = int(rng.integers(4, 41))
                t = jittered_knots(rng, n)
                cfg = random_config(rng, knots=t) if weighted else UNIFORM
                lam = 10.0 ** rng.uniform(-4.0, 0.0)
                gamma = 10.0 ** rng.uniform(np.log10(0.05), np.log10(20.0))
                y = np.sin(2 * np.pi * t) + 0.15 * rng.standard_normal(n)
                v = 2 * np.pi * np.cos(2 * np.pi * t) + 0.15 * rng.standard_normal(n)
                design = _design_for(t, lam, cfg)
                theta, diags = _fit_point(design, y, v, gamma, hats="diagonals")
                np.testing.assert_array_equal(fit_theta(design, y, v, gamma), theta)
                assert _max_rel(theta, _dense_theta(design, y, v, gamma)) < 1e-7
                hats = hat_matrices(design, gamma)
                for got, block in zip(diags, (hats.S, hats.T, hats.U, hats.V)):
                    assert _max_rel(got, np.diag(block)) < 1e-7

    def test_absent_weights_are_the_identity_band(self):
        # W = Ucorr = None is the explicit identity: the same band, the same
        # fit and the same diagonals, bit for bit, alone and in stacks of one
        # and of a full chunk
        rng = np.random.default_rng(32)
        for weighted in (False, True):
            for _ in range(10):
                n = int(rng.integers(4, 41))
                t = jittered_knots(rng, n)
                cfg = random_config(rng, knots=t) if weighted else UNIFORM
                y, v = rng.standard_normal((2, n))
                eye = np.eye(n)
                np.testing.assert_array_equal(_ErrorWeights(y, v).bands,
                                              _ErrorWeights(y, v, eye, eye).bands)
                design = _design_for(t, 10.0 ** rng.uniform(-4.0, 0.0), cfg)
                gamma = 10.0 ** rng.uniform(-2.0, 2.0)
                got = _fit_point(design, y, v, gamma, hats="diagonals")
                want = _fit_point(design, y, v, gamma, eye, eye, hats="diagonals")
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)
                for count in (1, 64):
                    lams, gammas = 10.0 ** rng.uniform(-4.0, 0.0, (2, count))
                    got = _fit_stack(design.band, lams, gammas, _ErrorWeights(y, v))
                    want = _fit_stack(design.band, lams, gammas, _ErrorWeights(y, v, eye, eye))
                    for a, b in zip(got[:3], want[:3]):
                        np.testing.assert_array_equal(a, b)

    def test_diagonals_match_high_precision_oracle(self):
        rng = np.random.default_rng(17)
        n = 300
        t = jittered_knots(rng, n)
        weights = rng.uniform(0.3, 3.0, n + 1)
        y, v = rng.standard_normal((2, n))
        for lam in (1e-4, 1e-2):
            design = build_design(t, lam * weights)
            zb = oracles.mp_band_inverse_diagonals(_normal_band(design, 1.0))
            z, z_sub = zb[0], zb[1]
            _, (s_diag, t_diag, u_diag, v_diag) = _fit_point(design, y, v, 1.0,
                                                             hats="diagonals")
            np.testing.assert_allclose(s_diag, z[0::2], rtol=1e-6)
            np.testing.assert_allclose(v_diag, z[1::2], rtol=1e-6)
            assert _max_rel(t_diag, z_sub[0::2]) < 1e-6
            np.testing.assert_array_equal(u_diag, t_diag)

    def test_tridiagonal_weights_match_dense_route(self):
        # AR(1) precisions with random phi and scale, the diagonal
        # zero-weight matrices of a leave-one-out refit, and W alone
        rng = np.random.default_rng(18)
        for case in range(80):
            n = int(rng.integers(4, 41))
            t = jittered_knots(rng, n)
            cfg = random_config(rng, knots=t) if case % 8 >= 4 else UNIFORM
            lam = 10.0 ** rng.uniform(-4.0, 0.0)
            gamma = 10.0 ** rng.uniform(np.log10(0.05), np.log10(20.0))
            y = np.sin(2 * np.pi * t) + 0.15 * rng.standard_normal(n)
            v = 2 * np.pi * np.cos(2 * np.pi * t) + 0.15 * rng.standard_normal(n)
            if case % 4 == 2:
                W = Ucorr = np.diag((np.arange(n) != rng.integers(n)).astype(float))
            elif case % 4 == 3:
                W, Ucorr = random_tridiagonal_spd(rng, n), None
            else:
                W, Ucorr = random_tridiagonal_spd(rng, n), random_tridiagonal_spd(rng, n)
            design = _design_for(t, lam, cfg)
            assert _ErrorWeights(y, v, W, Ucorr).bands is not None
            theta, diags = _fit_point(design, y, v, gamma, W, Ucorr, hats="diagonals")
            np.testing.assert_array_equal(fit_theta(design, y, v, gamma, W, Ucorr), theta)
            assert _max_rel(theta, _dense_theta(design, y, v, gamma, W, Ucorr)) < 1e-7
            hats = hat_matrices_correlated(design, gamma, W, Ucorr)
            for got, block in zip(diags, (hats.S, hats.T, hats.U, hats.V)):
                assert _max_rel(got, np.diag(block)) < 1e-7

    def test_wider_weights_take_dense_route(self):
        n = 6
        P = ar1_precision(n, 0.5)

        def dense(W, Ucorr):
            return _ErrorWeights(np.zeros(n), np.zeros(n), W, Ucorr).bands is None

        assert not dense(P, np.eye(n))
        assert not dense(None, np.diag(np.arange(1.0, n + 1)))
        wide = P.copy()
        wide[3, 0] = wide[0, 3] = 0.1
        assert dense(wide, P)
        skew = P.copy()
        skew[1, 0] += 1e-12   # not exactly symmetric: read as its symmetric part, banded
        assert not dense(P, skew)

    def test_rounding_asymmetric_weights_take_banded_route(self, monkeypatch):
        # a rescaled AR(1) precision d_i P_ij d_j rounds differently across
        # the diagonal; fit_theta reads its symmetric part, which is banded
        import vspline.hermite as hermite_mod
        rng = np.random.default_rng(20)
        n = 40
        t = jittered_knots(rng, n)
        y, v = rng.standard_normal((2, n))
        d = np.sqrt(rng.uniform(0.3, 3.0, n))
        W = ar1_precision(n, 0.6)
        Ucorr = d[:, None] * ar1_precision(n, -0.4) * d[None, :]
        assert not np.array_equal(Ucorr, Ucorr.T)
        sym = (Ucorr + Ucorr.T) / 2
        design = build_design(t, 1e-3)
        assert _ErrorWeights(y, v, W, Ucorr).bands is not None
        calls = []
        for name in ("cho_factor", "dpbtrf"):
            def counting(*args, _name=name, _real=getattr(hermite_mod, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(hermite_mod, name, counting)
        theta = fit_theta(design, y, v, 0.7, W, Ucorr)
        assert calls == ["dpbtrf"]   # one banded factorization, no dense one
        assert _max_rel(theta, _dense_theta(design, y, v, 0.7, W, sym)) < 1e-10
        # exactly symmetric input is used as it is: bit-identical
        np.testing.assert_array_equal(fit_theta(design, y, v, 0.7, W, sym), theta)
        # every route reads the engine's weights, which hold the symmetric
        # part; the dense route (a wider W) too
        np.testing.assert_array_equal(_ErrorWeights(y, v, W, Ucorr).Ucorr, sym)
        wide = W.copy()
        wide[3, 0] = wide[0, 3] = 0.1
        dense, _ = _fit_point(design, y, v, 0.7, wide, Ucorr, hats="diagonals")
        np.testing.assert_array_equal(dense, _fit_point(design, y, v, 0.7, wide, sym,
                                                        hats="diagonals")[0])

    def test_band_rows_match_high_precision_oracle(self):
        # all four band rows of A^-1 with AR(1) precision weights, n = 300,
        # a stiff point at lam = 0.1 included (3.2e-7 there)
        rng = np.random.default_rng(19)
        n = 300
        t = jittered_knots(rng, n)
        weights = rng.uniform(0.3, 3.0, n + 1)
        mats = (ar1_precision(n, 0.5), ar1_precision(n, 0.3))
        for lam, gamma in ((1e-4, 1.0), (1e-2, 0.2), (0.1, 1.0)):
            design = build_design(t, lam * weights)
            ab = _normal_band(design, gamma, *mats)
            want = oracles.mp_band_inverse_diagonals(ab)
            got = _inverse_band(cholesky_banded(ab, lower=True))
            assert got.shape == want.shape == (4, 2 * n)
            for r in range(4):
                assert _max_rel(got[r], want[r]) < 1e-6
                assert not np.any(got[r, 2 * n - r:])

    def test_band_rows_are_the_inverse_of_their_factor(self):
        # on the instance above, the band of (L L')^-1 for the double-
        # precision factor L, to rounding: at the stiff points (lam = 0.1)
        # the digits that the band of A^-1 loses are lost in the factor
        rng = np.random.default_rng(19)
        n = 300
        t = jittered_knots(rng, n)
        weights = rng.uniform(0.3, 3.0, n + 1)
        mats = (ar1_precision(n, 0.5), ar1_precision(n, 0.3))
        for lam, gamma in ((1e-4, 1.0), (0.1, 1.0), (0.1, 1e-4)):
            L = cholesky_banded(_normal_band(build_design(t, lam * weights), gamma, *mats),
                                lower=True)
            want = oracles.mp_band_inverse_diagonals(L, factored=True)
            got = _inverse_band(L)
            for r in range(4):
                assert _max_rel(got[r], want[r]) < 1e-12

    def test_band_is_bitwise_the_same_alone_and_in_a_stack(self, monkeypatch):
        # a stack of 29 points is factored and solved in joined calls and its
        # bands of A^-1 come from one joined solve: each point's band, traces
        # and diagonals have the bits of the point fitted alone, signed zeros
        # and the zero tail past the end of each row included
        import vspline.hermite as hermite_mod
        real = hermite_mod._band_inverse
        solves = []

        def spy(L, *args):
            solves.append(real(L, *args))
            return solves[-1]

        monkeypatch.setattr(hermite_mod, "_band_inverse", spy)
        rng = np.random.default_rng(23)
        n = 37
        t = jittered_knots(rng, n)
        design = build_design(t, rng.uniform(0.3, 3.0, n + 1))
        y, v = rng.standard_normal((2, n))
        count = 29
        for mats in ((None, None), (random_tridiagonal_spd(rng, n), ar1_precision(n, -0.4))):
            weights = _ErrorWeights(y, v, *mats)
            lams = rng.permutation(np.geomspace(1e-6, 1e2, count))
            gammas = rng.permutation(np.geomspace(1e-4, 1e4, count))
            solves.clear()
            stack = {hats: _fit_stack(design.band, lams, gammas, weights, hats)
                     for hats in ("diagonals", "traces")}
            assert len(solves) == 2 and all(len(band) == count for band in solves)
            # the traces of one product are the sums of the diagonals, to the
            # rounding of sums of O(1) terms (tr T and tr U cancel for AR(1) weights)
            np.testing.assert_allclose(stack["traces"][2], stack["diagonals"][2].sum(axis=2),
                                       rtol=1e-12, atol=1e-12)
            bands = solves[0]
            assert bands.shape == (count, 2 * n, 4)
            for p in range(count):
                solves.clear()
                for hats, fit in stack.items():
                    alone = _fit_stack(design.band, lams[p:p + 1], gammas[p:p + 1], weights,
                                       hats)
                    assert alone[3] == [None]
                    in_stack = fit[0][p:p + 1], fit[1][p:p + 1], fit[2][:, p:p + 1]
                    for got, want in zip(alone[:3], in_stack):
                        np.testing.assert_array_equal(got, want)
                        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
                assert len(solves) == 2
                for (alone,) in solves:
                    assert alone.shape == (2 * n, 4)
                    np.testing.assert_array_equal(bands[p], alone)
                    np.testing.assert_array_equal(np.signbit(bands[p]), np.signbit(alone))
                    for r in range(1, 4):
                        assert not np.any(alone[2 * n - r:, r])

    def test_failed_points_do_not_change_their_neighbours(self):
        # a chunk of 65 points whose failing points (not positive definite,
        # an overflowed band, an overflowed right-hand side, a finite system
        # whose solution overflows) sit first, in the middle and last: the
        # joined calls give every point the bits and the error of the point
        # fitted alone, without a warning
        rng = np.random.default_rng(34)
        for t, y, v, cfg, mats, fine, failures in mixed_failure_problems(rng):
            band = _design_for(t, 1.0, cfg).band
            weights = _ErrorWeights(y, v, *mats)
            for first in (0, 31, 65 - len(failures)):
                lams, gammas = mixed_chunk(rng, fine, failures, first)
                for hats in (None, "diagonals", "traces"):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        chunk = _fit_stack(band, lams, gammas, weights, hats)
                        alone = [_fit_stack(band, lams[p:p + 1], gammas[p:p + 1], weights, hats)
                                 for p in range(lams.size)]
                    for i, (_, _, message) in enumerate(failures):
                        assert message in str(chunk[3][first + i])
                    assert sum(error is None for error in chunk[3]) == 65 - len(failures)
                    for p, point in enumerate(alone):
                        in_chunk = chunk[0][p:p + 1], chunk[1][p:p + 1]
                        if hats is not None:
                            in_chunk += (chunk[2][:, p:p + 1],)
                        for got, want in zip(point, in_chunk):
                            np.testing.assert_array_equal(got, want)
                            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
                        assert repr(point[3][0]) == repr(chunk[3][p])

    def test_overflowing_band_raises_singular_system_error(self):
        # lam so large that n * lam * omega overflows: a numerical failure,
        # not scipy's "must not contain infs or NaNs"
        t = np.linspace(0.1, 0.9, 12)
        y, v = np.sin(t), np.cos(t)
        with np.errstate(over="ignore", invalid="ignore"):
            design = build_design(t, 1e305)
            with pytest.raises(SingularSystemError, match="overflowed"):
                fit_theta(design, y, v, 1.0)
            with pytest.raises(SingularSystemError, match="overflowed"):
                _fit_point(design, y, v, 1.0, hats="diagonals")
        with pytest.raises(ValueError, match="finite"):
            fit_theta(build_design(t, 1e-3), np.full(12, np.nan), v, 1.0)

    def test_overflowing_right_hand_side_is_one_error_on_every_route(self):
        # W y or gamma Ucorr v overflows: SingularSystemError without a numpy
        # RuntimeWarning on the identity, diagonal, tridiagonal and dense
        # routes, not a warning from the band product or scipy's ValueError
        # about infs or NaNs
        n = 8
        design = build_design(np.linspace(0.1, 0.9, n), 1e-3)
        big, zeros = np.full(n, 1e308), np.zeros(n)
        wide = ar1_precision(n, 0.5)
        wide[3, 0] = wide[0, 3] = 0.1
        cases = [(zeros, big, 4.0, None, None),
                 (big, zeros, 1.0, 2.0 * np.eye(n), None),
                 (zeros, big, 4.0, ar1_precision(n, 0.5), ar1_precision(n, 0.3)),
                 (zeros, big, 4.0, wide, np.eye(n))]
        for y, v, gamma, W, Ucorr in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularSystemError, match="overflowed"):
                    fit_theta(design, y, v, gamma, W, Ucorr)

    def test_overflowing_solution_is_one_error_on_every_route(self):
        # a finite system whose solution overflows: SingularSystemError, not
        # NaN coefficients, on the identity, tridiagonal and dense routes,
        # with and without the hat diagonals or traces, and without a numpy
        # warning
        n = 8
        design = build_design(np.linspace(0.1, 0.9, n), 1e-3)
        big, zeros = np.full(n, 1e308), np.zeros(n)
        tridiagonal = 0.5 * np.eye(n) + 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
        wide = np.eye(n)
        wide[0, 3] = wide[3, 0] = 0.1
        for W in (None, tridiagonal, wide):
            for hats in (None, "diagonals", "traces"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(SingularSystemError, match="non-finite solution"):
                        _fit_point(design, big, zeros, 1.0, W, hats=hats)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularSystemError, match="non-finite solution"):
                    fit_theta(design, big, zeros, 1.0, W)

    def test_overflowing_hats_are_one_error_on_every_route(self):
        # lam so small, with gamma 0, that A^-1 overflows while the knot fit
        # stays finite: with hats asked for, the point's SingularSystemError
        # names the cause, and its hats are NaN, on the identity, tridiagonal
        # and dense routes, without a numpy warning; a fine point of the
        # same stack keeps the bits it has alone
        n = 30
        t = np.linspace(0.05, 0.95, n)
        band = build_design(t, 1.0).band
        y, v = np.sin(6 * t), 6 * np.cos(6 * t)
        i = np.arange(n)
        lams, gammas = np.array([1e-320, 1e-3]), np.array([0.0, 1.0])
        for W in (None, ar1_precision(n, 0.5), 0.4 ** np.abs(i[:, None] - i[None, :])):
            weights = _ErrorWeights(y, v, W, W)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values, slopes, _, errors = _fit_stack(band, lams[:1], gammas[:1], weights, None)
                assert errors == [None] and np.isfinite(values).all() and np.isfinite(slopes).all()
                for hats in ("diagonals", "traces"):
                    stack = _fit_stack(band, lams, gammas, weights, hats)
                    alone = _fit_stack(band, lams[1:], gammas[1:], weights, hats)
                    assert "lambda and gamma too small" in str(stack[3][0])
                    assert stack[3][1] is None and np.isnan(stack[2][:, 0]).all()
                    for got, want in zip(alone[:2], stack[:2]):
                        np.testing.assert_array_equal(got, want[1:])
                    np.testing.assert_array_equal(alone[2], stack[2][:, 1:])

    def test_singular_band_raises_singular_system_error(self):
        # no penalty and no velocity weight leaves the slopes undetermined
        design = build_design(np.array([0.2, 0.5, 0.8]), 0.0)
        with pytest.raises(SingularSystemError):
            fit_theta(design, np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(SingularSystemError):
            _fit_point(design, np.zeros(3), np.zeros(3), 0.0, hats="diagonals")
