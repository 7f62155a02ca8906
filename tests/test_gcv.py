"""Cross-validation identities, GCV reductions, and parameter search."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import (ar1_precision, mixed_chunk, mixed_failure_problems, random_config,
                      random_instance, random_knots)
from vspline import (CorrelationSpec, DegenerateGridError, KernelConfig,
                     build_design, cv_brute_force, cv_closed_form, fit_theta, fit_vspline,
                     gcv_correlated, gcv_score, hat_matrices_correlated, optimize_params)
from vspline.gcv import (_STACK_COLUMNS, _criterion, _design_for, _golden_min, _psd_sqrt,
                         _score, _Scorer)
from vspline.errors import DegenerateScoreError, SingularSystemError
from vspline.hermite import _ErrorWeights, _fit_point

UNIFORM = KernelConfig.uniform()


def _ar1(n, phi):
    idx = np.arange(n)
    return phi ** np.abs(idx[:, None] - idx[None, :])


class TestClosedFormAgainstBruteForce:
    """The leave-one-out identity, verified by literal refits."""

    def test_matches_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            t, y, v, cfg, lam, gamma = random_instance(
                rng, n_range=(4, 25), lam_range=(1e-4, 1.0),
                gamma_range=(1e-2, 10.0))
            brute = cv_brute_force(t, y, v, lam, gamma, cfg)
            closed = cv_closed_form(t, y, v, lam, gamma, cfg)
            assert closed.value == pytest.approx(brute.value, rel=1e-6)

    def test_matches_with_gamma_zero(self):
        rng = np.random.default_rng(1)
        t = random_knots(rng, 10)
        y = np.sin(5 * t) + 0.2 * rng.standard_normal(10)
        brute = cv_brute_force(t, y, np.zeros(10), 0.01, 0.0, UNIFORM)
        closed = cv_closed_form(t, y, np.zeros(10), 0.01, 0.0, UNIFORM)
        assert closed.value == pytest.approx(brute.value, rel=1e-8)

    def test_line_data_scores_zero(self):
        t = np.linspace(0.1, 0.9, 6)
        y = 0.5 + 2.0 * t
        v = np.full(6, 2.0)
        assert cv_brute_force(t, y, v, 0.05, 1.0, UNIFORM).value < 1e-18
        assert cv_closed_form(t, y, v, 0.05, 1.0, UNIFORM).value < 1e-18
        assert gcv_score(t, y, v, 0.05, 1.0, UNIFORM).value < 1e-18

    def test_needs_three_samples(self):
        t = np.array([0.3, 0.7])
        with pytest.raises(ValueError):
            cv_brute_force(t, np.zeros(2), np.zeros(2), 0.1, 1.0, UNIFORM)


class TestOneFactorization:
    def test_each_score_factors_once(self, monkeypatch):
        # the uncorrelated scores run on the banded route only (one LAPACK
        # dpbtrf each), the correlated one on the dense route only
        import vspline.hermite as hermite_mod
        rng = np.random.default_rng(16)
        t, y, v, cfg, lam, gamma = random_instance(rng, n_range=(6, 9))
        corr = CorrelationSpec(W=_ar1(t.size, 0.3), Ucorr=_ar1(t.size, 0.1))
        calls = []
        for name in ("cho_factor", "dpbtrf"):
            def counting(*args, _name=name, _real=getattr(hermite_mod, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(hermite_mod, name, counting)
        for score, expect in (
                (lambda: cv_closed_form(t, y, v, lam, gamma, cfg), ["dpbtrf"]),
                (lambda: gcv_score(t, y, v, lam, gamma, cfg), ["dpbtrf"]),
                (lambda: gcv_correlated(t, y, v, lam, gamma, cfg, corr), ["cho_factor"])):
            calls.clear()
            score()
            assert calls == expect
        # AR(1) precision blocks are tridiagonal: the correlated route, the
        # correlated fit and the zero-weight refits stay banded
        n = t.size
        prec = CorrelationSpec(W=ar1_precision(n, 0.5), Ucorr=ar1_precision(n, 0.3))
        design = _design_for(t, lam, cfg)
        for score, expect in (
                (lambda: gcv_correlated(t, y, v, lam, gamma, cfg, prec), ["dpbtrf"]),
                (lambda: fit_theta(design, y, v, gamma, prec.W, prec.Ucorr), ["dpbtrf"]),
                (lambda: cv_brute_force(t, y, v, lam, gamma, cfg), ["dpbtrf"] * n)):
            calls.clear()
            score()
            assert calls == expect


class TestBandedMemory:
    def test_uncorrelated_route_allocates_no_dense_matrix(self):
        # one float64 2n-by-2n array would be 800 MB at n = 5000
        n = 5000
        t = np.linspace(0.05, 0.95, n)
        y = np.sin(6 * t)
        v = 6 * np.cos(6 * t)
        dense_bytes = 8 * (2 * n) ** 2
        for run in (lambda: cv_closed_form(t, y, v, 1e-6, 1.0, UNIFORM).value,
                    lambda: gcv_score(t, y, v, 1e-6, 1.0, UNIFORM).value,
                    lambda: fit_theta(build_design(t, 1e-6), y, v, 1.0)):
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(out))
            assert peak < dense_bytes / 100

    def test_search_allocates_no_dense_matrix(self):
        # a search at n = 5000, its 5 x 5 grid as one stack of 25 points and
        # its golden-section points as stacks of one, stays below a tenth of
        # one 2n-by-2n array (800 MB)
        n = 5000
        t = np.linspace(0.05, 0.95, n)
        y = np.sin(6 * t)
        v = 6 * np.cos(6 * t)
        tracemalloc.start()
        try:
            res = optimize_params(t, y, v, UNIFORM, lam_bounds=(1e-8, 1e-2),
                                  lam_points=5, gamma_points=5, refine=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(res.score) and res.degenerate_count == 0
        assert peak < 8 * (2 * n) ** 2 / 10

    @pytest.mark.parametrize("criterion", ["cv", "gcv"])
    def test_default_grid_search_stays_small(self, criterion):
        # the engine gets stacks of at most _STACK_COLUMNS unknowns, one
        # point each at n = 1000: the default 15 x 13 search and its golden
        # sweeps stay under 3 MB traced, a few of one point's bands
        n = 1000
        t = np.linspace(0.05, 0.95, n)
        y = np.sin(6 * t) + np.random.default_rng(31).normal(0.0, 0.1, n)
        v = 6 * np.cos(6 * t)
        tracemalloc.start()
        try:
            res = optimize_params(t, y, v, UNIFORM, criterion=criterion)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(res.score) and res.surface.shape == (15 * 13, 3)
        assert peak < 3e6

    def test_tridiagonal_correlated_route_allocates_no_dense_matrix(self):
        # the spec itself holds n-by-n matrices, the square roots of its
        # numerator too (formed here, before tracing); a score and a fit may
        # not allocate even one more (a quarter of one 2n-by-2n array)
        n = 600
        t = np.linspace(0.05, 0.95, n)
        y = np.sin(6 * t)
        v = 6 * np.cos(6 * t)
        corr = CorrelationSpec(W=ar1_precision(n, 0.5), Ucorr=ar1_precision(n, 0.3))
        assert [root.shape for root in corr._roots] == [(n, n), (n, n)]
        for run in (lambda: gcv_correlated(t, y, v, 1e-6, 1.0, UNIFORM, corr).value,
                    lambda: fit_theta(build_design(t, 1e-6), y, v, 1.0, corr.W, corr.Ucorr)):
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(out))
            assert peak < 8 * n * n


class TestClassicalReduction:
    def test_gamma_zero_reduces_to_classical_cv(self):
        rng = np.random.default_rng(2)
        t = random_knots(rng, 12)
        y = np.cos(4 * t) + 0.15 * rng.standard_normal(12)
        lam = 0.002
        closed = cv_closed_form(t, y, np.zeros(12), lam, 0.0, UNIFORM)
        A = oracles.reference_hat(t, 12 * lam)
        classical = np.mean(((A @ y - y) / (1.0 - np.diag(A))) ** 2)
        assert closed.value == pytest.approx(classical, abs=1e-8)


class TestGcvScore:
    def test_equals_cv_when_diagonals_constant(self):
        # feed both formulas the same residuals and constant diagonals
        rng = np.random.default_rng(3)
        n, gamma = 9, 1.4
        r = rng.standard_normal(n)
        rp = rng.standard_normal(n)
        diags = np.array([0.31, 0.12, 0.05, 0.22])[:, None, None] * np.ones((1, n))
        gammas = np.array([gamma])
        cv = _criterion("cv", r[None], rp[None], diags, gammas)[0]
        gcv = _criterion("gcv", r[None], rp[None], diags.sum(axis=2), gammas)[0]
        assert gcv == pytest.approx(cv, rel=1e-12)

    @pytest.mark.parametrize("criterion", ["gcv", "gcv-corr"])
    def test_float_tail_is_bitwise_the_vectorized_formula(self, criterion):
        # the vectorized formula the per-point float tail replaced, fed
        # traces made by hand: ordinary points, a velocity denominator of
        # exactly 0 (with an infinite and a NaN k), denominators that are 0,
        # tiny, so tiny that their square is 0, or so large that it
        # overflows, NaN and inf traces and residuals whose norm overflows;
        # the same score bits and masks,
        # as one stack and point by point, without a warning or an exception
        def reference(r, rp, traces, gammas, corr):
            n = r.shape[1]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                if corr is not None:
                    w_root, u_root = corr._roots
                    r = np.matmul(w_root, r[:, :, None])[:, :, 0]
                    rp = np.matmul(u_root, rp[:, :, None])[:, :, 0]
                tr_s, tr_t, tr_u, tr_v = traces
                dv = n - gammas * tr_v
                k = gammas * tr_t / dv
                den = (n - tr_s - k * tr_u) / n
                bad_dv = np.abs(dv) < 1e-12
                bad_den = np.abs(den) < 1e-12
                scores = ((r + k[:, None] * rp) ** 2).sum(axis=1) / n / den ** 2
            scores[bad_dv | bad_den | ~np.isfinite(scores)] = np.nan
            return scores, bad_dv, bad_den

        rng = np.random.default_rng(41)
        n = 8
        corr = None
        if criterion == "gcv-corr":
            corr = CorrelationSpec(W=ar1_precision(n, 0.5), Ucorr=ar1_precision(n, 0.3))
        inf, nan = np.inf, np.nan
        rows = [  # (gamma, tr S, tr T, tr U, tr V)
            (0.7, 2.1, 0.3, 0.4, 1.9), (1e-4, 3.0, 1e-3, 2.0, 0.5), (40.0, 0.2, 0.01, 0.1, 0.15),
            (2.0, 1.0, 0.5, 0.5, 4.0), (2.0, 1.0, 0.0, 0.5, 4.0), (2.0, 1.0, nan, 0.5, 4.0),
            (0.0, 8.0, 0.0, 1.0, 1.0), (0.0, 8.0 - 1e-12, 0.0, 1.0, 1.0),
            (1.0, 8.0, 8e-170, -1.0, 0.0), (0.0, 7.0 + 1e-11, 0.0, 1.0, 1.0),
            (1.0, -1e200, 0.5, 0.5, 1.0), (1.0, 1e300, -1e300, 1e300, 1e-300),
            (0.5, nan, 0.3, 0.3, 1.0), (0.5, 1.0, 0.3, nan, 1.0), (0.5, 1.0, 0.3, 0.3, nan),
            (0.5, inf, 0.3, 0.3, 1.0), (0.5, 1.0, inf, 0.3, 1.0), (0.5, 1.0, 0.3, inf, 1.0),
            (0.5, 1.0, 0.3, 0.3, inf), (0.0, 1.0, 0.3, 0.3, inf), (0.5, 1.0, 0.3, 0.0, inf),
            (1e300, 1.0, 1e300, 1e10, 1.0), (0.5, 1.0, 0.3, 0.3, 1.0),
        ]
        gammas = [row[0] for row in rows]
        traces = np.array([row[1:] for row in rows]).T.copy()
        r, rp = rng.standard_normal((2, len(rows), n))
        r[-1] = 1e200   # the last point's norm overflows
        want = reference(r, rp, traces, np.array(gammas), corr)
        assert np.isnan(want[0][3:]).sum() < len(rows) - 3   # not every special point is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, (bad_dv, bad_den) = _criterion(criterion, r, rp, traces, gammas, corr)
            alone = [_criterion(criterion, r[p:p + 1], rp[p:p + 1], traces[:, p:p + 1],
                                gammas[p:p + 1], corr) for p in range(len(rows))]
        assert np.array(got).tobytes() == want[0].tobytes()
        assert bad_dv == want[1].tolist() and bad_den == want[2].tolist()
        for p, (score, masks) in enumerate(alone):
            assert np.array(score).tobytes() == want[0][p:p + 1].tobytes()
            assert [mask[0] for mask in masks] == [want[1][p], want[2][p]]

    def test_close_to_cv_on_equispaced_instance(self):
        rng = np.random.default_rng(4)
        n = 20
        t = np.linspace(0.06, 0.94, n)
        y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(n)
        v = 2 * np.pi * np.cos(2 * np.pi * t) + 0.1 * rng.standard_normal(n)
        cv = cv_closed_form(t, y, v, 0.01, 1.0, UNIFORM).value
        gcv = gcv_score(t, y, v, 0.01, 1.0, UNIFORM).value
        assert abs(gcv - cv) / cv <= 0.5

    def test_shift_invariance(self):
        # constants are fitted exactly, so residuals and scores cannot move
        rng = np.random.default_rng(5)
        t = np.linspace(0.1, 0.9, 12)
        y = np.sin(4 * t) + 0.2 * rng.standard_normal(12)
        v = 4 * np.cos(4 * t) + 0.2 * rng.standard_normal(12)
        for score in (cv_closed_form, gcv_score):
            base = score(t, y, v, 0.01, 1.0, UNIFORM).value
            shifted = score(t, y + 13.7, v, 0.01, 1.0, UNIFORM).value
            assert shifted == pytest.approx(base, rel=1e-10)


class TestCorrelationSpec:
    def test_validates_spd(self):
        with pytest.raises(ValueError):
            CorrelationSpec(W=np.array([[1.0, 2.0], [2.0, 1.0]]), Ucorr=np.eye(2))
        with pytest.raises(ValueError):
            CorrelationSpec(W=np.eye(2), Ucorr=np.array([[1.0, 0.5], [0.4, 1.0]]))
        spec = CorrelationSpec(W=_ar1(4, 0.5), Ucorr=np.eye(4))
        assert spec.W.shape == (4, 4)
        # exactly symmetric input is stored bit-identically
        np.testing.assert_array_equal(spec.W, _ar1(4, 0.5))
        # the hermite layer checks the same matrices and gamma
        design = build_design(np.array([0.2, 0.5, 0.8]), 0.1)
        with pytest.raises(ValueError, match="W must be"):
            hat_matrices_correlated(design, 1.0, spec.W, np.eye(3))
        with pytest.raises(ValueError, match="gamma must be"):
            hat_matrices_correlated(design, -1.0, np.eye(3), np.eye(3))


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["W", "Ucorr"])
    def test_non_finite_matrix_is_named(self, name, bad):
        # checked first: NaN used to read "must be symmetric", inf scipy's
        # "array must not contain infs or NaNs" from the Cholesky test
        mats = {"W": _ar1(4, 0.5), "Ucorr": np.eye(4)}
        mats[name] = mats[name].copy()
        mats[name][1, 1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            CorrelationSpec(**mats)

    def test_square_roots_are_formed_on_first_read(self, tmp_path, monkeypatch):
        # only the gcv-corr numerator reads the square roots: building a
        # spec and a fit with --corr take none; the first read gives the
        # bits of the eager roots, cached and read-only
        from vspline import gcv as gcv_mod
        from vspline.cli import main
        n = 12
        W, U = _ar1(n, 0.4), ar1_precision(n, 0.3)
        real = gcv_mod._psd_sqrt

        def refuse(A):
            raise AssertionError("square root taken")

        monkeypatch.setattr(gcv_mod, "_psd_sqrt", refuse)
        spec = CorrelationSpec(W=W, Ucorr=U)
        data, corr_file = tmp_path / "d.csv", tmp_path / "c.csv"
        assert main(["simulate", "--kind", "sine", "--n", str(n), "--seed", "3",
                     "--out", str(data)]) == 0
        np.savetxt(corr_file, np.vstack([W, U]), delimiter=",", fmt="%.17g")
        assert main(["fit", str(data), "--lambda", "1e-3", "--corr", str(corr_file),
                     "--out", str(tmp_path / "r.json")]) == 0
        monkeypatch.setattr(gcv_mod, "_psd_sqrt", real)
        roots = spec._roots
        np.testing.assert_array_equal(roots[0], real(W))
        np.testing.assert_array_equal(roots[1], real(U))
        assert spec._roots is roots and not any(root.flags.writeable for root in roots)

    def test_small_asymmetry_stored_symmetric(self):
        # an accepted 1e-12 asymmetry is averaged away, so the dense route
        # (which reads the lower triangle of A but all of W for W y) and the
        # banded route (which reads the lower band) see one matrix
        rng = np.random.default_rng(20)
        n = 12
        t = random_knots(rng, n)
        y, v = rng.standard_normal((2, n))
        W, U = ar1_precision(n, 0.5), ar1_precision(n, 0.3)
        W_skew = W.copy()
        W_skew[2, 3] += 1e-12
        spec = CorrelationSpec(W=W_skew, Ucorr=U)
        np.testing.assert_array_equal(spec.W, spec.W.T)
        np.testing.assert_array_equal(spec.W, (W_skew + W_skew.T) / 2)
        assert _ErrorWeights(y, v, spec.W, spec.Ucorr).bands is not None
        design = build_design(t, 0.01)
        banded = fit_theta(design, y, v, 0.7, spec.W, spec.Ucorr)
        dense = fit_theta(design, y, v, 0.7, W_skew, U)   # wider than its band: dense
        np.testing.assert_allclose(banded, dense, rtol=1e-9, atol=1e-12)


class TestCorrelatedGcv:
    def test_banded_and_dense_scores_agree(self):
        # the same AR(1) precision spec scored on both routes, lam <= 1
        rng = np.random.default_rng(21)
        n = 40
        t = np.linspace(0.05, 0.95, n)
        y = np.sin(2 * np.pi * t) + 0.1 * rng.standard_normal(n)
        v = 2 * np.pi * np.cos(2 * np.pi * t) + 0.1 * rng.standard_normal(n)
        corr = CorrelationSpec(W=ar1_precision(n, 0.5), Ucorr=ar1_precision(n, 0.3))
        unit = _design_for(t, 1.0, UNIFORM)
        banded = _Scorer(unit, y, v, "gcv-corr", corr)
        assert banded.weights.bands is not None
        dense = _Scorer(unit, y, v, "gcv-corr", corr)
        weights = dense.weights   # force the dense route, with its own products
        weights.bands, weights.wy, weights.uv = None, corr.W @ y, corr.Ucorr @ v
        for lam in np.geomspace(1e-8, 1.0, 9):
            for gamma in np.geomspace(1e-4, 1e4, 9):
                point = np.array([lam]), np.array([gamma])
                got = banded.stack(*point)[0][0]
                want = dense.stack(*point)[0][0]
                assert got == pytest.approx(want, rel=1e-8)

    def test_identity_matrices_reduce_to_plain_gcv(self):
        # identity precisions are ordinary tridiagonal weights: the same
        # fit, traces and numerator as plain GCV, bit for bit, in a search too
        rng = np.random.default_rng(6)
        for i in range(20):
            t, y, v, cfg, lam, gamma = random_instance(rng, weighted=i % 2 == 1)
            n = t.size
            corr = CorrelationSpec(W=np.eye(n), Ucorr=np.eye(n))
            plain = gcv_score(t, y, v, lam, gamma, cfg)
            correlated = gcv_correlated(t, y, v, lam, gamma, cfg, corr)
            assert correlated.value == plain.value
        a = optimize_params(t, y, v, cfg, criterion="gcv", lam_points=7, gamma_points=5)
        b = optimize_params(t, y, v, cfg, corr=corr, criterion="gcv-corr",
                            lam_points=7, gamma_points=5)
        assert (a.lam, a.gamma, a.score) == (b.lam, b.gamma, b.score)
        np.testing.assert_array_equal(a.surface, b.surface)

    def test_numerator_is_the_three_term_form(self):
        # |W^(1/2) r + k Ucorr^(1/2) rp|^2 against
        # r'W r + 2k r'W^(1/2) Ucorr^(1/2) rp + k^2 rp'Ucorr rp, for AR(1),
        # tridiagonal and dense precisions at a stack of points
        rng = np.random.default_rng(7)
        for n in (8, 23, 60):
            M = rng.standard_normal((n, n))
            specs = [CorrelationSpec(_ar1(n, 0.4), _ar1(n, 0.2)),
                     CorrelationSpec(ar1_precision(n, 0.5), ar1_precision(n, -0.3)),
                     CorrelationSpec(M @ M.T + n * np.eye(n), 4.0 * np.eye(n))]
            for corr in specs:
                count = 5
                r, rp = rng.standard_normal((2, count, n))
                traces = rng.uniform(0.0, 0.4, (4, count, n)).sum(axis=2)
                gammas = 10.0 ** rng.uniform(-2, 2, count)
                got = _criterion("gcv-corr", r, rp, traces, gammas, corr)[0]
                tr_s, tr_t, tr_u, tr_v = traces
                k = gammas * tr_t / (n - gammas * tr_v)
                den = n - tr_s - k * tr_u
                cross = _psd_sqrt(corr.W) @ _psd_sqrt(corr.Ucorr)
                for p in range(count):
                    terms = (r[p] @ corr.W @ r[p] + 2.0 * k[p] * (r[p] @ cross @ rp[p])
                             + k[p] ** 2 * (rp[p] @ corr.Ucorr @ rp[p]))
                    assert got[p] == pytest.approx(n * terms / den[p] ** 2, rel=1e-12)

    def test_dense_route_overflow_is_a_numerical_failure(self):
        # gamma * Ucorr v overflows on the dense route: NaN in the search,
        # not scipy's ValueError about infs or NaNs, and SingularSystemError
        # from the public score
        n = 12
        t = np.linspace(0.05, 0.95, n)
        y, v = np.sin(6 * t), 6e4 * np.cos(6 * t)
        corr = CorrelationSpec(W=_ar1(n, 0.4), Ucorr=np.eye(n))
        assert _ErrorWeights(y, v, corr.W, corr.Ucorr).bands is None
        res = optimize_params(t, y, v, UNIFORM, corr=corr, criterion="gcv-corr",
                              gamma_bounds=(1e-4, 1e305), lam_points=3, gamma_points=4)
        _, gamma_col, score_col = res.surface.T
        assert np.all(np.isnan(score_col[gamma_col == 1e305]))
        assert np.isfinite(res.score)
        with pytest.raises(SingularSystemError, match="overflowed"):
            gcv_correlated(t, y, v, 1e-3, 1e305, UNIFORM, corr)

    def test_missing_spec_is_named(self):
        # gcv_correlated without a spec used to fail in the criterion with
        # an AttributeError on None
        t = np.linspace(0.05, 0.95, 10)
        y, v = np.sin(6 * t), 6 * np.cos(6 * t)
        with pytest.raises(ValueError, match="^corr must be a CorrelationSpec"):
            gcv_correlated(t, y, v, 1e-3, 1.0, UNIFORM, None)
        with pytest.raises(ValueError, match="^corr must be a CorrelationSpec"):
            optimize_params(t, y, v, UNIFORM, criterion="gcv-corr", lam_points=3, gamma_points=3)

    def test_spec_of_another_size_is_named(self):
        # a 12 x 12 spec for 10 samples: a ValueError naming both sizes
        # before any fit, not numpy's broadcast error from inside the engine
        n = 10
        t = np.linspace(0.05, 0.95, n)
        y, v = np.sin(6 * t), 6 * np.cos(6 * t)
        corr = CorrelationSpec(W=ar1_precision(12, 0.5), Ucorr=ar1_precision(12, 0.3))
        message = r"W must be an \(10, 10\) matrix for 10 samples, not \(12, 12\)"
        with pytest.raises(ValueError, match=message):
            gcv_correlated(t, y, v, 1e-3, 1.0, UNIFORM, corr)
        with pytest.raises(ValueError, match=message):
            optimize_params(t, y, v, UNIFORM, corr=corr, criterion="gcv-corr",
                            lam_points=3, gamma_points=3)

    def test_psd_sqrt_squares_back(self):
        rng = np.random.default_rng(8)
        A = _ar1(6, 0.6)
        root = _psd_sqrt(A)
        np.testing.assert_allclose(root @ root, A, atol=1e-12)
        np.testing.assert_allclose(root, root.T, atol=1e-12)

    def test_ar1_instance_finite_positive_and_noise_monotone(self):
        rng = np.random.default_rng(9)
        n = 15
        t = np.linspace(0.07, 0.93, n)
        signal = np.sin(2 * np.pi * t)
        dsignal = 2 * np.pi * np.cos(2 * np.pi * t)
        noise_y = rng.standard_normal(n)
        noise_v = rng.standard_normal(n)
        corr = CorrelationSpec(W=_ar1(n, 0.5), Ucorr=np.eye(n))
        scores = []
        for amp in (0.05, 0.1, 0.2):
            score = gcv_correlated(t, signal + amp * noise_y,
                                   dsignal + amp * noise_v, 0.01, 1.0, UNIFORM,
                                   corr)
            assert np.isfinite(score.value) and score.value > 0.0
            scores.append(score.value)
        assert scores[0] < scores[1] < scores[2]


class TestOptimizeParams:
    def test_smooth_signal_selects_interior_lambda(self):
        rng = np.random.default_rng(1)
        n = 40
        t = np.linspace(0.06, 0.94, n)
        y = np.sin(2 * np.pi * t) + 0.4 * rng.standard_normal(n)
        v = 2 * np.pi * np.cos(2 * np.pi * t) + 0.4 * rng.standard_normal(n)
        res = optimize_params(t, y, v, UNIFORM)
        assert 1e-8 * 10 < res.lam < 1e2 / 10
        assert res.degenerate_count < res.surface.shape[0]
        assert res.surface.shape == (15 * 13, 3)

    def test_pure_noise_selects_boundary_lambda(self):
        rng = np.random.default_rng(11)
        n = 25
        t = np.linspace(0.08, 0.92, n)
        y = 1.0 + 0.3 * rng.standard_normal(n)
        v = 0.3 * rng.standard_normal(n)
        res = optimize_params(t, y, v, UNIFORM)
        assert res.lam >= 10.0  # at or near the 1e2 grid maximum

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        t, y, v, cfg, _, _ = random_instance(rng, n_range=(10, 14))
        a = optimize_params(t, y, v, cfg, lam_points=7, gamma_points=5)
        b = optimize_params(t, y, v, cfg, lam_points=7, gamma_points=5)
        assert (a.lam, a.gamma, a.score) == (b.lam, b.gamma, b.score)
        np.testing.assert_array_equal(a.surface, b.surface)

    def test_gcv_criterion_and_corr(self):
        rng = np.random.default_rng(13)
        t, y, v, cfg, _, _ = random_instance(rng, n_range=(10, 12), weighted=False)
        res = optimize_params(t, y, v, cfg, criterion="gcv",
                              lam_points=5, gamma_points=4)
        assert res.criterion == "gcv"
        corr = CorrelationSpec(W=_ar1(t.size, 0.3), Ucorr=np.eye(t.size))
        res2 = optimize_params(t, y, v, cfg, corr=corr, criterion="gcv-corr",
                               lam_points=5, gamma_points=4)
        assert np.isfinite(res2.score)
        with pytest.raises(ValueError):
            optimize_params(t, y, v, cfg, criterion="gcv-corr")
        with pytest.raises(ValueError):
            optimize_params(t, y, v, cfg, criterion="bogus")

    def test_all_degenerate_grid_raises(self, monkeypatch):
        rng = np.random.default_rng(14)
        t, y, v, cfg, _, _ = random_instance(rng, n_range=(6, 8))
        from vspline import gcv as gcv_mod

        # every denominator is below an infinite floor: the cv score of every
        # fit, in one small stack (4 x 3) or a full chunk (8 x 8), is degenerate
        monkeypatch.setattr(gcv_mod, "_DENOM_FLOOR", np.inf)
        for lam_points, gamma_points in ((4, 3), (8, 8)):
            with pytest.raises(DegenerateGridError):
                optimize_params(t, y, v, cfg, criterion="cv",
                                lam_points=lam_points, gamma_points=gamma_points)

    def test_one_point_axis_is_not_refined(self, monkeypatch):
        from vspline import gcv as gcv_mod
        t = np.linspace(0.05, 0.95, 20)
        y = np.sin(2 * np.pi * t)
        v = 2 * np.pi * np.cos(2 * np.pi * t)
        calls = []
        real = gcv_mod._Scorer.scores  # every score of the search

        def counting(self, lams, gammas):
            calls.extend(zip(np.asarray(lams).tolist(), np.asarray(gammas).tolist()))
            return real(self, lams, gammas)

        monkeypatch.setattr(gcv_mod._Scorer, "scores", counting)
        res = optimize_params(t, y, v, UNIFORM, criterion="cv",
                              lam_bounds=(1e-3, 1.0), lam_points=1, gamma_points=5)
        # 5 grid points, then one golden sweep of 44 points over gamma only;
        # its bracket ends are grid points (10**log10(g) == g for these
        # decades), and the second sweep revisits the first's points, so
        # neither scores anything again
        assert len(calls) == 5 + 44 - 2
        assert len(set(calls)) == len(calls)
        assert {lam for lam, _ in calls} == {1e-3}
        assert res.lam == 1e-3

    def test_golden_sweep_opens_with_one_stack(self, monkeypatch):
        # every sweep scores its ends and its two interior points at once
        # (those not already scored), then each of its 40 later points alone
        from vspline import gcv as gcv_mod
        t = np.linspace(0.05, 0.95, 20)
        y = np.sin(2 * np.pi * t) + np.random.default_rng(3).normal(0.0, 0.1, 20)
        v = 2 * np.pi * np.cos(2 * np.pi * t)
        sizes = []
        real = gcv_mod._Scorer.stack

        def spy(self, lams, gammas):
            sizes.append(len(lams))
            return real(self, lams, gammas)

        monkeypatch.setattr(gcv_mod._Scorer, "stack", spy)
        one_axis = optimize_params(t, y, v, UNIFORM, criterion="cv", lam_bounds=(1e-3, 1.0),
                                   lam_points=1, gamma_points=5)
        # the gamma sweep's ends are grid points; the second round scores nothing
        assert sizes == [5, 2] + [1] * 40
        sizes.clear()
        two_axes = optimize_params(t, y, v, UNIFORM, criterion="gcv", lam_points=4,
                                   gamma_points=3)
        # the lambda sweep's ends are grid points, and one end of the gamma
        # sweep is the point the lambda sweep selected
        assert sizes == [12, 2] + [1] * 40 + [3] + [1] * 40
        monkeypatch.undo()
        # the same selection, and scores, as scoring each point alone
        alone = gcv_mod._Scorer.scores
        monkeypatch.setattr(gcv_mod._Scorer, "scores", lambda self, lams, gammas: np.array(
            [alone(self, [lam], [gamma])[0] for lam, gamma in zip(lams, gammas)]))
        for got, kwargs in ((one_axis, dict(criterion="cv", lam_bounds=(1e-3, 1.0),
                                            lam_points=1, gamma_points=5)),
                            (two_axes, dict(criterion="gcv", lam_points=4, gamma_points=3))):
            want = optimize_params(t, y, v, UNIFORM, **kwargs)
            assert (got.lam, got.gamma, got.score) == (want.lam, want.gamma, want.score)
            np.testing.assert_array_equal(got.surface, want.surface)

    @pytest.mark.parametrize("criterion", ["cv", "gcv", "gcv-corr"])
    def test_batched_grid_is_bitwise_the_per_point_scores(self, criterion, monkeypatch):
        # stacks of a grid that is no multiple of the stack size, on random
        # instances with and without interval weights; a point with no
        # penalty and no velocity weight is not positive definite and is
        # NaN, alone
        import vspline.gcv as gcv_mod
        rng = np.random.default_rng(24)
        count = 2 * 64 + 7
        chunks = []
        real = gcv_mod._Scorer.stack

        def spy(self, lams, gammas):
            chunks.append(np.array(lams))
            return real(self, lams, gammas)

        monkeypatch.setattr(gcv_mod._Scorer, "stack", spy)
        for weighted in (False, True, True):
            t, y, v, cfg, _, _ = random_instance(rng, n_range=(8, 30), weighted=weighted)
            n = t.size
            corr = None
            if criterion == "gcv-corr":
                corr = CorrelationSpec(W=ar1_precision(n, 0.5), Ucorr=ar1_precision(n, -0.3))
            unit = _design_for(t, 1.0, cfg)
            lams = 10.0 ** rng.uniform(-8, 2, count)
            gammas = 10.0 ** rng.uniform(-4, 4, count)
            lams[17], gammas[17] = 0.0, 0.0
            chunks.clear()
            got = _Scorer(unit, y, v, criterion, corr).scores(lams, gammas)
            # every stack holds at most the cap's columns, or one point, in grid order
            assert len(chunks) > 1
            assert all(len(c) * 2 * n <= _STACK_COLUMNS or len(c) == 1 for c in chunks)
            np.testing.assert_array_equal(np.concatenate(chunks), lams)
            want = np.full(count, np.nan)
            for i in range(count):
                try:
                    want[i] = _score(unit, y, v, lams[i], gammas[i], criterion, corr)
                except (DegenerateScoreError, SingularSystemError):
                    pass
            np.testing.assert_array_equal(got, want)
            assert np.flatnonzero(np.isnan(got)).tolist() == [17]
            # the search's surface is the same batched computation
            res = optimize_params(t, y, v, cfg, corr=corr, criterion=criterion,
                                  lam_points=9, gamma_points=count // 9, refine=False)
            lam_col, gamma_col, score_col = res.surface.T
            per_point = [_score(unit, y, v, lam, gamma, criterion, corr)
                         for lam, gamma in zip(lam_col, gamma_col)]
            np.testing.assert_array_equal(score_col, per_point)

    def test_cv_scores_are_bitwise_the_fit_path(self):
        # the scorer's cv scores (unit penalty times lam, batched and one
        # at a time) and the public cv_closed_form (penalty built at lam)
        # equal, bit for bit, the closed form on the engine's single fit
        rng = np.random.default_rng(29)

        def closed_form(design, y, v, gamma):
            theta, (s_diag, t_diag, u_diag, v_diag) = _fit_point(design, y, v, gamma,
                                                                 hats="diagonals")
            n = y.size
            k = gamma * t_diag / (1.0 - gamma * v_diag)
            deleted = (theta[:n] - y + k * (theta[n:] - v)) / (1.0 - s_diag - k * u_diag)
            return np.mean(deleted ** 2)

        for weighted in (False, True):
            t, y, v, cfg, _, _ = random_instance(rng, n_range=(8, 30), weighted=weighted)
            unit = _design_for(t, 1.0, cfg)
            for count in (64, 3):
                lams = 10.0 ** rng.uniform(-4, 1, count)
                gammas = 10.0 ** rng.uniform(-2, 2, count)
                got = _Scorer(unit, y, v, "cv").scores(lams, gammas)
                want = [closed_form(dataclasses.replace(unit, band=unit.band * lam), y, v, gamma)
                        for lam, gamma in zip(lams, gammas)]
                np.testing.assert_array_equal(got, want)
            for lam, gamma in zip(lams, gammas):
                assert (cv_closed_form(t, y, v, lam, gamma, cfg).value
                        == closed_form(_design_for(t, lam, cfg), y, v, gamma))

    @pytest.mark.parametrize("kwargs, message", [
        ({"lam_bounds": (-1.0, 1.0)}, "lam_bounds must be positive"),
        ({"lam_bounds": (1e2, 1e-8)}, "lam_bounds must be positive, finite and increasing"),
        ({"lam_points": 0}, "lam_points must be at least 1"),
        ({"lam_bounds": (1e-3, 1e-3), "lam_points": 3}, "lam_bounds must be"),
    ], ids=["negative-bound", "reversed-bounds", "no-points", "equal-bounds"])
    def test_invalid_range_raises(self, kwargs, message):
        # unchecked, each searches something else without a word: a
        # negative bound warns in log10 and returns lam = 1, reversed
        # bounds skip every golden sweep, zero points raise
        # DegenerateGridError, equal bounds score repeated grid points
        t = np.linspace(0.05, 0.95, 20)
        y = np.sin(2 * np.pi * t)
        v = 2 * np.pi * np.cos(2 * np.pi * t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                optimize_params(t, y, v, UNIFORM, **kwargs)
            # the gamma axis is checked the same way
            gamma_kwargs = {key.replace("lam", "gamma"): value for key, value in kwargs.items()}
            with pytest.raises(ValueError, match=message.replace("lam", "gamma")):
                optimize_params(t, y, v, UNIFORM, **gamma_kwargs)

    @pytest.mark.parametrize("criterion", ["cv", "gcv", "gcv-corr"])
    def test_degenerate_and_overflowing_points_warn_nothing(self, criterion):
        # lam = 1e-300 interpolates (degenerate), lam = 1e305 overflows; the
        # 4 x 5 grid is one stack of 20 points, the 15 x 5 grid a full chunk
        t = np.linspace(0.05, 0.95, 20)
        y = np.sin(2 * np.pi * t)
        v = 2 * np.pi * np.cos(2 * np.pi * t)
        corr = None
        if criterion == "gcv-corr":
            corr = CorrelationSpec(W=ar1_precision(20, 0.5), Ucorr=ar1_precision(20, 0.3))
        for lam_points in (4, 15):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = optimize_params(t, y, v, UNIFORM, corr=corr, criterion=criterion,
                                      lam_bounds=(1e-300, 1e305), lam_points=lam_points,
                                      gamma_points=5)
            lam_col, _, score_col = res.surface.T
            assert np.all(np.isnan(score_col[(lam_col == 1e-300) | (lam_col == 1e305)]))
            assert np.isfinite(res.score) and res.degenerate_count < res.surface.shape[0]

    @pytest.mark.parametrize("criterion", ["cv", "gcv", "gcv-corr"])
    def test_overflowing_solutions_are_failed_points(self, criterion):
        # y = 1e308: at these lam the systems are finite but their solutions
        # overflow; each such point carries its SingularSystemError and
        # scores NaN, in a stack of one and in a full chunk, on the banded
        # and the dense route, without a warning;
        # the public score raises it
        n = 8
        t = np.linspace(0.1, 0.9, n)
        y, v = np.full(n, 1e308), np.zeros(n)
        specs = [None]
        if criterion == "gcv-corr":
            wide = np.eye(n)
            wide[0, 3] = wide[3, 0] = 0.1
            specs = [CorrelationSpec(W=0.5 * np.eye(n), Ucorr=np.eye(n)),
                     CorrelationSpec(W=wide, Ucorr=np.eye(n))]
        for corr in specs:
            scorer = _Scorer(_design_for(t, 1.0, UNIFORM), y, v, criterion, corr)
            for count in (1, 64):
                lams, gammas = np.geomspace(0.1, 10.0, count), np.ones(count)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    scores, errors, _ = scorer.stack(lams, gammas)
                assert np.all(np.isnan(scores))
                assert all(isinstance(error, SingularSystemError)
                           and "non-finite solution" in str(error) for error in errors)
            with pytest.raises(SingularSystemError, match="non-finite solution"):
                _score(_design_for(t, 1.0, UNIFORM), y, v, 1.0, 1.0, criterion, corr)

    @pytest.mark.parametrize("criterion", ["cv", "gcv", "gcv-corr"])
    def test_overflowing_scores_are_failed_points(self, criterion):
        # y = 1e308: the fits are finite but every score overflows; a score
        # that is not finite is NaN in the search, which then has no point
        # left, and a numerical failure from the public score, without a
        # warning
        t = np.array([0.05, 0.35, 0.65, 0.95])
        y, v = np.full(4, 1e308), np.zeros(4)
        corr = CorrelationSpec(W=0.5 * np.eye(4), Ucorr=ar1_precision(4, 0.3))
        public = {"cv": lambda: cv_closed_form(t, y, v, 1e-8, 1e-4, UNIFORM),
                  "gcv": lambda: gcv_score(t, y, v, 1e-8, 1e-4, UNIFORM),
                  "gcv-corr": lambda: gcv_correlated(t, y, v, 1e-8, 1e-4, UNIFORM, corr)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="non-finite criterion"):
                public[criterion]()
            with pytest.raises(DegenerateGridError):
                optimize_params(t, y, v, UNIFORM, corr=corr, criterion=criterion)

    @pytest.mark.parametrize("criterion", ["cv", "gcv"])
    def test_interpolating_points_in_a_chunk_are_nan(self, criterion):
        # at lam = 1e-300 and gamma = 1 the fit interpolates both channels,
        # so 1 - gamma V_ii (and n - gamma tr V) vanish: NaN in the chunk,
        # DegenerateScoreError from the public score
        rng = np.random.default_rng(27)
        public = {"cv": cv_closed_form, "gcv": gcv_score}[criterion]
        for weighted in (False, True):
            t, y, v, cfg, _, _ = random_instance(rng, n_range=(8, 30), weighted=weighted)
            lams = 10.0 ** rng.uniform(-8, 2, 64)
            gammas = 10.0 ** rng.uniform(-4, 4, 64)
            tiny = [3, 20, 41]
            lams[tiny], gammas[tiny] = 1e-300, 1.0
            got = _Scorer(_design_for(t, 1.0, cfg), y, v, criterion).scores(lams, gammas)
            assert np.flatnonzero(np.isnan(got)).tolist() == tiny
            with pytest.raises(DegenerateScoreError, match="velocity"):
                public(t, y, v, 1e-300, 1.0, cfg)

    @pytest.mark.parametrize("criterion", ["cv", "gcv", "gcv-corr"])
    def test_stack_of_one_is_bitwise_the_chunk(self, criterion):
        # a golden-section point is a stack of one; inside a chunk the same
        # point gets the same bits, on the banded route and (gcv-corr with a
        # wider W) on the dense one
        rng = np.random.default_rng(28)
        for weighted in (False, True):
            t, y, v, cfg, _, _ = random_instance(rng, n_range=(8, 30), weighted=weighted)
            n = t.size
            specs = [None]
            if criterion == "gcv-corr":
                specs = [CorrelationSpec(W=ar1_precision(n, 0.5), Ucorr=ar1_precision(n, -0.3)),
                         CorrelationSpec(W=_ar1(n, 0.4), Ucorr=np.eye(n))]
            for corr in specs:
                scorer = _Scorer(_design_for(t, 1.0, cfg), y, v, criterion, corr)
                count = 8 if scorer.weights.bands is None else 64
                lams = 10.0 ** rng.uniform(-8, 2, count)
                gammas = 10.0 ** rng.uniform(-4, 4, count)
                chunk = scorer.stack(lams, gammas)[0]
                for i in range(count):
                    one = scorer.stack(lams[i:i + 1], gammas[i:i + 1])[0]
                    np.testing.assert_array_equal(one, chunk[i:i + 1])

    @pytest.mark.parametrize("criterion", ["cv", "gcv", "gcv-corr"])
    def test_failed_points_do_not_change_their_neighbours(self, criterion):
        # the chunk of the engine's test, scored: each point's score, error
        # and degenerate flags are those of the point scored alone
        rng = np.random.default_rng(35)
        for t, y, v, cfg, mats, fine, failures in mixed_failure_problems(rng):
            corr = None
            if criterion == "gcv-corr":
                corr = CorrelationSpec(*(np.eye(t.size) if m is None else m for m in mats))
            scorer = _Scorer(_design_for(t, 1.0, cfg), y, v, criterion, corr)
            for first in (0, 31, 65 - len(failures)):
                lams, gammas = mixed_chunk(rng, fine, failures, first)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    scores, errors, degenerate = scorer.stack(lams, gammas)
                    alone = [scorer.stack(lams[p:p + 1], gammas[p:p + 1])
                             for p in range(lams.size)]
                assert sum(error is None for error in errors) == 65 - len(failures)
                for p, (score, error, flags) in enumerate(alone):
                    np.testing.assert_array_equal(score, scores[p:p + 1])
                    assert repr(error[0]) == repr(errors[p])
                    assert [bool(f[0]) for f in flags] == [bool(f[p]) for f in degenerate]
            if np.abs(y).max() < 1e300:   # ordinary data: every fine point scores
                assert np.isfinite(scores).sum() == 65 - len(failures)

    def test_failed_stack_is_refitted_point_by_point(self, monkeypatch):
        # a stack that mixes a point whose factorization fails (no penalty,
        # no velocity weight) with a fine point is refitted point by point:
        # one solve for the bands of A^-1 runs, of the fine point alone, with
        # the factor and score of that point scored on its own; a stack whose
        # every point fails runs none
        import vspline.hermite as hermite_mod
        real = hermite_mod._band_inverse
        swept = []
        monkeypatch.setattr(hermite_mod, "_band_inverse",
                            lambda L, *args: swept.append(L.copy()) or real(L, *args))
        t = np.linspace(0.05, 0.95, 20)
        y = np.sin(2 * np.pi * t)
        v = 2 * np.pi * np.cos(2 * np.pi * t)
        scorer = _Scorer(_design_for(t, 1.0, UNIFORM), y, v, "cv")
        scores = scorer.scores([0.0, 1e-3], [0.0, 1.0])
        assert np.isnan(scores[0]) and np.isfinite(scores[1])
        assert len(swept) == 1 and swept[0].shape[0] == 1
        assert scorer.scores([1e-3], [1.0]) == scores[1:]
        np.testing.assert_array_equal(swept[1], swept[0])
        swept.clear()
        assert np.isnan(scorer.scores([0.0, 0.0], [0.0, 0.0])).all()
        assert not swept

    def test_sweep_to_the_largest_float_does_not_raise(self):
        # a gamma bracket that ends at the largest float: 10 ** log10(gamma)
        # overflows there, which makes an infinite gamma (a failed point),
        # not an OverflowError; nor does the search grid warn at that bound
        t = np.linspace(0.05, 0.95, 20)
        y = np.sin(2 * np.pi * t)
        v = 2 * np.pi * np.cos(2 * np.pi * t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_params(t, y, v, UNIFORM, criterion="cv", lam_points=3,
                                  gamma_bounds=(1e-4, np.finfo(float).max), gamma_points=2)
        assert np.isfinite(res.score) and np.isfinite(res.gamma)

    def test_golden_min_finds_quadratic_minimum(self):
        score, x = _golden_min(lambda xs: [(x - 0.3) ** 2 + 1.0 for x in xs], -1.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert score == pytest.approx(1.0, abs=1e-12)


class TestWeightedConfigScores:
    def test_brute_matches_closed_on_weighted_config(self):
        # interval weights on the knots, as the command line builds them
        rng = np.random.default_rng(15)
        for _ in range(5):
            t, y, v, _, lam, gamma = random_instance(
                rng, n_range=(5, 12), lam_range=(1e-3, 0.3),
                gamma_range=(0.1, 5.0))
            cfg = random_config(rng, knots=t)
            brute = cv_brute_force(t, y, v, lam, gamma, cfg)
            closed = cv_closed_form(t, y, v, lam, gamma, cfg)
            assert closed.value == pytest.approx(brute.value, rel=1e-6)

    def test_overflowing_weighted_penalty_is_a_numerical_failure(self):
        # lam times a weight above 1 overflows before the band is built: the
        # engine's overflow error, as for an unweighted lam whose band
        # overflows, without a warning; build_design still rejects an
        # infinite penalty value as an input fault
        n = 12
        t = np.linspace(0.05, 0.95, n)
        y, v = np.sin(6 * t), 6 * np.cos(6 * t)
        cfg = KernelConfig.piecewise(np.concatenate([[0.0], t, [1.0]]),
                                     np.where(np.arange(n + 1) % 2, 2.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for config in (cfg, UNIFORM):
                with pytest.raises(SingularSystemError, match="overflowed"):
                    cv_closed_form(t, y, v, 1e308, 1.0, config)
            with pytest.raises(ValueError, match="penalty values must be finite") as info:
                build_design(t, np.full(n + 1, np.inf))
            assert not isinstance(info.value, SingularSystemError)

    def test_penalty_changing_inside_a_knot_interval_is_rejected(self):
        # the basis is cubic between knots, so it cannot represent the
        # minimizer of such a penalty: every basis entry point names the
        # breakpoint, and the representer route still fits the config
        rng = np.random.default_rng(30)
        n = 30
        t = np.linspace(0.05, 0.95, n)
        y, v = np.sin(6 * t), 6 * np.cos(6 * t)
        cfg = KernelConfig.piecewise([0.0, 0.33, 0.71, 1.0], [1.0, 3.0, 0.5])
        corr = CorrelationSpec(W=ar1_precision(n, 0.5), Ucorr=ar1_precision(n, 0.3))
        lam, gamma = 1e-3, 0.5
        entry_points = [
            lambda: cv_closed_form(t, y, v, lam, gamma, cfg),
            lambda: gcv_score(t, y, v, lam, gamma, cfg),
            lambda: gcv_correlated(t, y, v, lam, gamma, cfg, corr),
            lambda: cv_brute_force(t, y, v, lam, gamma, cfg),
            lambda: optimize_params(t, y, v, cfg, lam_points=3, gamma_points=3),
        ]
        for run in entry_points:
            with pytest.raises(ValueError, match="breakpoint 0.33, inside the knot interval"):
                run()
        assert np.all(np.isfinite(fit_vspline(t, y, v, cfg, lam, gamma).evaluate(t)))
        # a random grid is rejected at its first breakpoint inside a knot interval
        knots = random_knots(rng, 8)
        breaks = np.sort(rng.uniform(knots[0], knots[-1], 3))
        grid = KernelConfig.piecewise(np.concatenate([[0.0], breaks, [1.0]]),
                                      [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match=f"breakpoint {float(breaks[0])!r}"):
            _design_for(knots, 1.0, grid)

    def test_penalty_constant_on_knot_intervals_matches_representer(self):
        # breakpoints on the knots, outside [t1, tn], or between equal
        # values: accepted by every entry point, and the basis fit is the
        # representer fit at the knots (criterion 5's tolerance)
        rng = np.random.default_rng(31)
        n = 30
        t = np.linspace(0.05, 0.95, n)
        y = np.sin(6 * t) + 0.1 * rng.standard_normal(n)
        v = 6 * np.cos(6 * t) + 0.1 * rng.standard_normal(n)
        corr = CorrelationSpec(W=ar1_precision(n, 0.5), Ucorr=ar1_precision(n, 0.3))
        configs = [
            KernelConfig.piecewise([0.0, t[9], t[21], 1.0], [1.0, 3.0, 0.5]),
            KernelConfig.piecewise([0.0, 0.02, 0.97, 1.0], [1.0, 3.0, 0.5]),
            KernelConfig.piecewise([0.0, 0.33, 0.71, 1.0], [2.0, 2.0, 2.0]),
            KernelConfig.piecewise([0.0, 0.01, t[4], 0.33, t[12], 0.99, 1.0],
                                   [5.0, 1.0, 3.0, 3.0, 0.5, 0.2]),
        ]
        for cfg in configs:
            for lam, gamma in ((1e-3, 0.5), (1e-5, 2.0), (0.1, 0.05)):
                theta = fit_theta(_design_for(t, lam, cfg), y, v, gamma)
                vfit = fit_vspline(t, y, v, cfg, lam, gamma)
                assert np.abs(theta[:n] - vfit.evaluate(t)).max() <= 1e-6
                assert np.abs(theta[n:] - vfit.evaluate_deriv(t)).max() <= 1e-6
            closed = cv_closed_form(t, y, v, 1e-3, 0.5, cfg).value
            assert closed == pytest.approx(cv_brute_force(t, y, v, 1e-3, 0.5, cfg).value,
                                           rel=1e-6)
            assert np.isfinite(gcv_score(t, y, v, 1e-3, 0.5, cfg).value)
            assert np.isfinite(gcv_correlated(t, y, v, 1e-3, 0.5, cfg, corr).value)
            res = optimize_params(t, y, v, cfg, lam_points=3, gamma_points=3, refine=False)
            assert np.isfinite(res.score)
