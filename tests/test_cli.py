"""End-to-end CLI behavior: files, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import ar1_precision
from vspline.cli import _csv_text, main, simulate_dataset
from vspline import KernelConfig, build_gram, fitted_knot_values, solve_coefficients
from vspline.errors import DegenerateGridError
from vspline.fit import rescale_domain


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


class TestModuleForm:
    """``python -m vspline.cli`` from a source checkout runs the command line."""

    @staticmethod
    def _run(cwd, *args):
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run([sys.executable, "-m", "vspline.cli", *args], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)

    def test_simulate_writes_its_file(self, tmp_path):
        proc = self._run(tmp_path, "simulate", "--n", "5", "--seed", "1", "--out", "x.csv")
        assert proc.returncode == 0, proc.stderr
        assert main(["simulate", "--n", "5", "--seed", "1", "--out", str(tmp_path / "y.csv")]) == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()

    def test_fit_on_a_missing_input_exits_2(self, tmp_path):
        proc = self._run(tmp_path, "fit", "missing.csv", "--lambda", "1e-3", "--out", "f.json")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error while reading input: cannot read missing.csv")
        assert not (tmp_path / "f.json").exists()

    def test_select_to_the_largest_float_prints_no_numpy_warning(self, tmp_path):
        # the log-spaced search grid reaches the largest float without
        # numpy's overflow warning on stderr
        assert main(["simulate", "--kind", "sine", "--n", "20", "--seed", "1",
                     "--out", str(tmp_path / "d.csv")]) == 0
        proc = self._run(tmp_path, "select", "d.csv", "--lambda-steps", "3",
                         "--gamma-max", "1.7976931348623157e308", "--out", "s.json")
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestSimulate:
    def test_line_noiseless_is_exact(self, tmp_path):
        out = tmp_path / "line.csv"
        rc = main(["simulate", "--kind", "line", "--n", "9", "--noise", "0",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        header, data = _read_csv(out)
        assert header == ["t", "y", "v"]
        np.testing.assert_allclose(data[:, 1], 1.0 + 2.5 * data[:, 0], atol=1e-15)
        np.testing.assert_allclose(data[:, 2], 2.5, atol=1e-15)

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["simulate", "--kind", "iwp", "--n", "30", "--noise", "0.1",
                  "--seed", "11", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_write_read_round_trip(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "14", "--noise", "0.2",
              "--seed", "5", "--out", str(out)])
        t, y, v = simulate_dataset("sine", 14, 0.2, 5)
        _, data = _read_csv(out)
        np.testing.assert_array_equal(data, np.column_stack([t, y, v]))

    def test_iwp_variance_growth(self):
        # position variance of the doubly integrated noise is t^3/3
        finals = []
        for seed in range(1000):
            _, y, _ = simulate_dataset("iwp", 9, 0.0, seed)
            finals.append(y[-1])
        var = np.var(finals)
        assert var == pytest.approx(1.0 / 3.0, rel=0.15)

    def test_flag_validation(self, tmp_path, capsys):
        assert main(["simulate", "--kind", "line", "--n", "1", "--noise", "0",
                     "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["simulate", "--kind", "line", "--n", "5", "--noise", "-1",
                     "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "8", "--noise", "0.1",
              "--seed", "3", "--out", str(data)])
        out = str(tmp_path / "r.json")
        bad_select = [
            ["--lambda-min", "-1"], ["--lambda-min", "0"], ["--lambda-max", "inf"],
            ["--lambda-min", "nan"], ["--lambda-min", "1", "--lambda-max", "1"],
            ["--lambda-min", "10", "--lambda-max", "1"], ["--lambda-steps", "0"],
            ["--gamma-min", "-1"], ["--gamma-max", "nan"],
            ["--gamma-min", "5", "--gamma-max", "2"], ["--gamma-steps", "0"],
            ["--grid", "0"], ["--grid", "1"],
        ]
        bad_fit = [
            ["--lambda", "1e-3", "--grid", "0"], ["--lambda", "1e-3", "--grid", "1"],
            ["--lambda", "nan"], ["--lambda", "inf"], ["--lambda", "1e-3", "--gamma", "nan"],
        ]
        capsys.readouterr()
        for flags in bad_select:
            assert main(["select", str(data), *flags, "--out", out]) == 2, flags
            assert "error while parsing flags" in capsys.readouterr().err, flags
        for flags in bad_fit:
            assert main(["fit", str(data), *flags, "--out", out]) == 2, flags
            assert "error while parsing flags" in capsys.readouterr().err, flags
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "r.curve.csv").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exit_2(self, tmp_path, capsys, noise):
        # nan used to write noise-free data (nan > 0 is false), inf a file of inf
        rc = main(["simulate", "--kind", "sine", "--n", "5", "--noise", noise, "--seed", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error while simulating: noise must be finite\n"
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="^noise must be finite$"):
            simulate_dataset("sine", 5, float(noise), 1)


def _hermite_curve(knots, f, df, x):
    """Cubic Hermite interpolant of values ``f`` and slopes ``df`` at the
    knots, and its derivative, at ``x`` within the knot range."""
    k = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
    h = knots[k + 1] - knots[k]
    s = (x - knots[k]) / h
    val = (f[k] * (2 * s**3 - 3 * s**2 + 1) + df[k] * h * (s**3 - 2 * s**2 + s)
           + f[k + 1] * (3 * s**2 - 2 * s**3) + df[k + 1] * h * (s**3 - s**2))
    der = ((f[k] - f[k + 1]) * (6 * s**2 - 6 * s) / h
           + df[k] * (3 * s**2 - 4 * s + 1) + df[k + 1] * (3 * s**2 - 2 * s))
    return val, der


def _write_dataset(path, t, y, v):
    with open(path, "w") as fh:
        fh.write("t,y,v\n")
        for row in zip(t, y, v):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


class TestFit:
    def test_line_dataset_reproduced(self, tmp_path):
        data = tmp_path / "line.csv"
        rep = tmp_path / "rep.json"
        main(["simulate", "--kind", "line", "--n", "12", "--noise", "0",
              "--seed", "1", "--out", str(data)])
        rc = main(["fit", str(data), "--lambda", "0.5", "--gamma", "2.0",
                   "--grid", "80", "--out", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        _, curve = _read_csv(report["curve_file"])
        assert curve.shape == (80, 3)
        np.testing.assert_allclose(curve[:, 1], 1.0 + 2.5 * curve[:, 0], atol=1e-8)
        np.testing.assert_allclose(curve[:, 2], 2.5, atol=1e-8)

    def test_gamma_zero_matches_classical_oracle(self, tmp_path):
        rng = np.random.default_rng(8)
        t_raw = np.linspace(0.0, 3.0, 15)
        y = np.sin(t_raw * 2.1) + 0.1 * rng.standard_normal(15)
        v = np.zeros(15)
        data = tmp_path / "d.csv"
        with open(data, "w") as fh:
            fh.write("t,y,v\n")
            for row in zip(t_raw, y, v):
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        rep = tmp_path / "rep.json"
        lam = 1e-4
        rc = main(["fit", str(data), "--lambda", repr(lam), "--gamma", "0",
                   "--grid", "120", "--out", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        _, curve = _read_csv(report["curve_file"])
        # classical smoothing spline on the internally rescaled knots
        tu, yu, _, scale = rescale_domain(t_raw, y, v, margin=0.05)
        spline, fitted = oracles.reference_smoothing_curve(tu, yu, 15 * lam)
        want = spline(scale.to_unit(curve[:, 0]))
        np.testing.assert_allclose(curve[:, 1], want, atol=1e-6)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["fit", str(tmp_path / "nope.csv"), "--lambda", "0.1",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_rows_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y,v\n1,2,oops\n2,3,4\n")
        assert main(["fit", str(bad), "--lambda", "0.1",
                     "--out", str(tmp_path / "r.json")]) == 2
        dup = tmp_path / "dup.csv"
        dup.write_text("t,y,v\n1,2,0\n1,3,0\n2,3,4\n")
        assert main(["fit", str(dup), "--lambda", "0.1",
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "8", "--noise", "0.1",
              "--seed", "2", "--out", str(data)])
        import vspline.hermite as hermite_mod

        def not_positive_definite(ab, **kwargs):
            return ab, 1   # LAPACK: the first leading minor is not positive

        # the banded factorization turns this into SingularSystemError
        monkeypatch.setattr(hermite_mod, "dpbtrf", not_positive_definite)
        rc = main(["fit", str(data), "--lambda", "0.1",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert "fitting" in capsys.readouterr().err

    def test_overflowing_lambda_exit_3(self, tmp_path, capsys):
        # n * lambda * omega overflows: a numerical failure with the
        # documented exit code, not a ValueError about infs or NaNs
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "30", "--seed", "1", "--out", str(data)])
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["fit", str(data), "--lambda", "1e305", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error while fitting: ") and "overflowed" in err
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_lambda_prints_only_its_error(self, tmp_path, capsys):
        # no numpy RuntimeWarning ahead of the CLI's own error line
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "30", "--seed", "1", "--out", str(data)])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fit", str(data), "--lambda", "1e305", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error while fitting: ")

    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weights"])
    def test_largest_lambda_exit_3_with_and_without_weights(self, tmp_path, capsys, weighted):
        # lam = 1e308 overflows the band, or with a weight above 1 the
        # weighted penalty itself: one numerical failure, exit 3, no
        # report, and no numpy warning
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "30", "--seed", "1", "--out", str(data)])
        capsys.readouterr()
        args = ["fit", str(data), "--lambda", "1e308", "--out", str(tmp_path / "r.json")]
        if weighted:
            wfile = tmp_path / "w.txt"
            wfile.write_text("\n".join(["0.5", "2.0"] * 15 + ["2.0"]) + "\n")
            args += ["--weights", str(wfile)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(args)
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error while fitting: ")
        assert "overflowed" in err[0]
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_solution_exit_3(self, tmp_path, capsys):
        # finite data whose fit overflows inside the solve: exit 3 and no
        # files, not a report full of NaN tokens (which is not JSON)
        data = tmp_path / "d.csv"
        data.write_text("t,y,v\n0,1e308,0\n1,1e308,0\n2,1e308,0\n3,1e308,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", str(data), "--lambda", "1e-3", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error while fitting: ") and "non-finite solution" in err
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("text, gamma", [
        ("t,y,v\n0,1e308,0\n1,1e308,0\n2,1e308,0\n3,1e308,0\n", "1e-4"),
        ("t,y,v\n0,0,0\n0.0001,1e305,0\n0.0002,2e305,0\n0.0003,3e305,0\n", "0"),
    ], ids=["between-knots", "raw-slope"])
    def test_overflowing_curve_exit_3(self, tmp_path, capsys, text, gamma):
        # the knot fit is finite but its curve overflows between the knots,
        # or its slope once mapped back to raw time units: exit 3 and no
        # files, not a curve of NaN tokens or a report holding Infinity
        data = tmp_path / "huge.csv"
        data.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", str(data), "--lambda", "1e-8", "--gamma", gamma,
                       "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error while fitting: ") and "curve overflowed" in err
        assert list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("blocks", [None, "ar1", "dense"])
    def test_overflowing_hats_exit_3(self, tmp_path, capsys, blocks):
        # lambda so small, and gamma 0, that A^-1 overflows while the knot
        # fit stays finite: exit 3 and no files, not a report whose traces
        # are NaN tokens (which is not JSON), on the identity, AR(1) and
        # dense routes, without a numpy warning
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "30", "--seed", "1", "--out", str(data)])
        inputs = [data]
        args = ["fit", str(data), "--lambda", "1e-320", "--gamma", "0"]
        if blocks is not None:
            i = np.arange(30)
            W = (ar1_precision(30, 0.5) if blocks == "ar1"
                 else 0.4 ** np.abs(i[:, None] - i[None, :]))
            inputs.append(tmp_path / "c.csv")
            np.savetxt(inputs[-1], np.vstack([W, W]), delimiter=",", fmt="%.17g")
            args += ["--corr", str(inputs[-1])]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*args, "--out", str(tmp_path / "r.json")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error while fitting: ")
        assert "lambda and gamma too small" in err[0]
        assert sorted(tmp_path.iterdir()) == sorted(inputs)

    def test_weights_file(self, tmp_path):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "10", "--noise", "0.1",
              "--seed", "4", "--out", str(data)])
        wfile = tmp_path / "w.txt"
        wfile.write_text("\n".join(["1.0"] * 11) + "\n")
        rc = main(["fit", str(data), "--lambda", "0.01", "--gamma", "1",
                   "--weights", str(wfile), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        short = tmp_path / "short.txt"
        short.write_text("1.0\n1.0\n")
        assert main(["fit", str(data), "--lambda", "0.01",
                     "--weights", str(short),
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_corr_file(self, tmp_path):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "6", "--noise", "0.1",
              "--seed", "4", "--out", str(data)])
        corr = tmp_path / "c.csv"
        blocks = np.vstack([np.eye(6), np.eye(6)])
        np.savetxt(corr, blocks, delimiter=",")
        rc = main(["fit", str(data), "--lambda", "0.01", "--gamma", "1",
                   "--corr", str(corr), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["method"] == "hermite-basis"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("block", [0, 1], ids=["W", "Ucorr"])
    def test_non_finite_corr_file_exit_2(self, tmp_path, capsys, block, bad):
        # a NaN or inf in either block is an input error with its own
        # message, from fit and from a gcv-corr select, and writes no report
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "6", "--seed", "4", "--out", str(data)])
        blocks = np.vstack([ar1_precision(6, 0.5), ar1_precision(6, 0.3)]).astype(object)
        blocks[6 * block + 2, 2] = bad
        corr = tmp_path / "c.csv"
        corr.write_text("\n".join(",".join(map(str, row)) for row in blocks) + "\n")
        capsys.readouterr()
        name = ("W", "Ucorr")[block]
        for command in (["fit", str(data), "--lambda", "0.01"],
                        ["select", str(data), "--criterion", "gcv-corr"]):
            out = tmp_path / "r.json"
            assert main([*command, "--corr", str(corr), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error while reading correlation matrices: {corr}: {name} must be finite\n"
            assert sorted(tmp_path.iterdir()) == sorted([data, corr])

    def test_tridiagonal_corr_file_runs_banded(self, tmp_path, monkeypatch):
        # AR(1) precision blocks: fit and select factor only banded (LAPACK
        # dpbtrf, never the dense cho_factor)
        import vspline.hermite as hermite_mod
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "12", "--noise", "0.1",
              "--seed", "4", "--out", str(data)])
        corr = tmp_path / "c.csv"
        np.savetxt(corr, np.vstack([ar1_precision(12, 0.5), ar1_precision(12, 0.3)]),
                   delimiter=",")
        calls = []
        for name in ("cho_factor", "dpbtrf"):
            def counting(*args, _name=name, _real=getattr(hermite_mod, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(hermite_mod, name, counting)
        assert main(["fit", str(data), "--lambda", "0.01", "--gamma", "1",
                     "--corr", str(corr), "--out", str(tmp_path / "f.json")]) == 0
        # a 3 x 6 grid is scored in one small stack, an 8 x 6 grid in a full chunk
        for steps in ("3", "6"), ("8", "6"):
            assert main(["select", str(data), "--criterion", "gcv-corr", "--corr", str(corr),
                         "--lambda-steps", steps[0], "--gamma-steps", steps[1],
                         "--out", str(tmp_path / "s.json")]) == 0
        assert calls and set(calls) == {"dpbtrf"}
        fit = json.loads((tmp_path / "f.json").read_text())
        sel = json.loads((tmp_path / "s.json").read_text())
        assert fit["method"] == sel["method"] == "hermite-basis"
        assert set(sel) - set(fit) == {"selection"}


    def test_every_report_comes_from_the_basis_route(self, tmp_path, monkeypatch):
        # gamma > 0 without --corr, weighted and not, and a select: no Gram
        # and no representer solve; the curve is the knot fit's cubic
        import vspline.fit as fit_mod
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "25", "--noise", "0.1",
              "--seed", "12", "--out", str(data)])
        wfile = tmp_path / "w.txt"
        weights = np.random.default_rng(12).uniform(0.3, 3.0, 26)
        wfile.write_text("".join(repr(float(w)) + "\n" for w in weights))
        calls = []
        for name in ("build_gram", "solve_coefficients"):
            def counting(*args, _name=name, _real=getattr(fit_mod, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(fit_mod, name, counting)
        runs = {
            "fit": ["fit", str(data), "--lambda", "1e-3", "--gamma", "1"],
            "weighted": ["fit", str(data), "--lambda", "1e-3", "--gamma", "1",
                         "--weights", str(wfile)],
            "select": ["select", str(data), "--criterion", "cv",
                       "--lambda-steps", "3", "--gamma-steps", "3"],
        }
        _, raw = _read_csv(data)
        for name, argv in runs.items():
            out = tmp_path / f"{name}.json"
            assert main(argv + ["--grid", "57", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["method"] == "hermite-basis"
            _, curve = _read_csv(report["curve_file"])
            val, der = _hermite_curve(raw[:, 0], np.array(report["knot_fit"]["f"]),
                                      np.array(report["knot_fit"]["df_raw"]), curve[:, 0])
            np.testing.assert_allclose(curve[:, 1], val, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(curve[:, 2], der, rtol=0.0, atol=1e-12)
        assert calls == []

    def test_report_matches_independent_representer_fit(self, tmp_path):
        # acceptance criterion 5 on the report: knot-aligned weights, n = 300
        rng = np.random.default_rng(31)
        n = 300
        t = 10.0 * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n)) / n
        y = np.sin(1.3 * t) + 0.1 * rng.standard_normal(n)
        v = 1.3 * np.cos(1.3 * t) + 0.1 * rng.standard_normal(n)
        weights = rng.uniform(0.3, 3.0, n + 1)
        data, wfile = tmp_path / "d.csv", tmp_path / "w.txt"
        _write_dataset(data, t, y, v)
        wfile.write_text("".join(repr(float(w)) + "\n" for w in weights))
        tu, yu, vu, scale = rescale_domain(t, y, v, margin=0.05)
        cfg = KernelConfig.piecewise(np.concatenate([[0.0], tu, [1.0]]), weights)
        for lam in (1e-4, 1e-3, 1e-2):
            out = tmp_path / "r.json"
            assert main(["fit", str(data), "--lambda", repr(lam), "--weights", str(wfile),
                         "--out", str(out)]) == 0
            knot_fit = json.loads(out.read_text())["knot_fit"]
            gram = build_gram(tu, cfg, lam, 1.0)
            vfit = solve_coefficients(gram, yu, vu)
            f, fp = fitted_knot_values(gram, vfit.d, vfit.c, vfit.b)
            np.testing.assert_allclose(knot_fit["f"], f, rtol=0.0, atol=1e-6)
            np.testing.assert_allclose(np.array(knot_fit["df_raw"]) * scale.time_factor, fp,
                                       rtol=0.0, atol=1e-6)

    def test_report_allocates_no_dense_matrix(self, tmp_path):
        # one float64 2n-by-2n array would be 800 MB at n = 5000
        n = 5000
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", str(n), "--noise", "0.1",
              "--seed", "5", "--out", str(data)])
        tracemalloc.start()
        try:
            rc = main(["fit", str(data), "--lambda", "1e-3", "--gamma", "1",
                       "--out", str(tmp_path / "r.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 8 * (2 * n) ** 2 / 100


class TestTooLarge:
    """Flags whose arrays do not fit in memory exit 2 without a traceback.

    The allocation is made to raise ``MemoryError``: a real one of hundreds
    of GiB could be killed by an overcommitting host instead of failing.
    """

    def test_fit_grid(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "6", "--seed", "4", "--out", str(data)])
        capsys.readouterr()
        real = np.linspace

        def refusing(start, stop, num=50, *args, **kwargs):
            if num > 1e9:
                raise MemoryError("refused")
            return real(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", refusing)
        for command in (["fit", str(data), "--lambda", "1e-3"],
                        ["select", str(data), "--lambda-steps", "2", "--gamma-steps", "2"]):
            rc = main([*command, "--grid", "100000000000", "--out", str(tmp_path / "r.json")])
            assert rc == 2
            err = capsys.readouterr().err.splitlines()[-1]
            assert err.startswith("error while fitting") and "--grid 100000000000" in err
            assert list(tmp_path.iterdir()) == [data]

    def test_simulate_n(self, tmp_path, capsys, monkeypatch):
        # exited 1 with numpy's MemoryError traceback
        real = np.linspace

        def refusing(start, stop, num=50, *args, **kwargs):
            if num > 1e9:
                raise MemoryError("refused")
            return real(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", refusing)
        for kind in ("iwp", "line", "sine"):
            rc = main(["simulate", "--kind", kind, "--n", "10000000000000", "--seed", "1",
                       "--out", str(tmp_path / "x.csv")])
            assert rc == 2
            assert capsys.readouterr().err == ("error while simulating: --n 10000000000000 is "
                                               "too large to allocate; choose fewer points\n")
            assert list(tmp_path.iterdir()) == []

    def test_select_steps(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "6", "--seed", "4", "--out", str(data)])
        capsys.readouterr()
        real = np.meshgrid

        def refusing(*axes, **kwargs):
            if np.prod([np.size(axis) for axis in axes], dtype=float) > 1e9:
                raise MemoryError("refused")
            return real(*axes, **kwargs)

        monkeypatch.setattr(np, "meshgrid", refusing)
        rc = main(["select", str(data), "--lambda-steps", "100000", "--gamma-steps", "100000",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error while selecting parameters: ")
        assert "--lambda-steps 100000 by --gamma-steps 100000" in err
        assert list(tmp_path.iterdir()) == [data]


class TestDatasetFormat:
    """What the dataset reader accepts: a header row, then numeric t, y, v."""

    ROWS = "0,1,2{nl}1,2,3{nl}2,3,4{nl}"

    def _fit(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        out = tmp_path / "r.json"
        return main(["fit", str(path), "--lambda", "0.1", "--grid", "5", "--out", str(out)]), out

    def test_headerless_file_exit_2(self, tmp_path, capsys):
        # dropping the first row as a header would silently lose a sample
        rc, out = self._fit(tmp_path, self.ROWS.format(nl="\n"))
        assert rc == 2
        assert "missing the header row t,y,v" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        # an input error at the reading stage, not a UnicodeDecodeError traceback
        path = tmp_path / "d.csv"
        path.write_bytes(b"t,y,v\n0,1,2\n1,2,\xff3\n2,3,4\n")
        out = tmp_path / "r.json"
        assert main(["fit", str(path), "--lambda", "0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error while reading input: ")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "t,y,v\n" + ROWS.format(nl="\n") + "\n",            # trailing blank line
        "t,y,v\n0,1,2\n\n1,2,3\n  \n2,3,4\n",               # interior blank lines
        "t,y,v\r\n" + ROWS.format(nl="\r\n"),                # CRLF
        't,y,v\n"0","1","2"\n"1","2","3"\n"2","3","4"\n',    # quoted numbers
        "t,y,v,w\n0,1,2,x\n1,2,3,9\n2,3,4\n",                # extra columns ignored
    ])
    def test_accepted_variants_fit_the_same_three_samples(self, tmp_path, text):
        plain, _ = self._fit(tmp_path, "t,y,v\n" + self.ROWS.format(nl="\n"))
        want = (tmp_path / "r.json").read_text()
        rc, out = self._fit(tmp_path, text)
        assert plain == rc == 0
        assert json.loads(out.read_text())["n"] == 3
        assert out.read_text() == want

    @pytest.mark.parametrize("text, message", [
        ("t,y,v\n0,1,2\n1,2\n2,3,4\n", "rows must hold numeric t, y, v"),
        ("t,y\n0,1\n1,2\n2,3\n", "rows must hold numeric t, y, v"),
        ("t;y;v\n0;1;2\n1;2;3\n2;3;4\n", "rows must hold numeric t, y, v"),
        ("t,y,v\n# note\n0,1,2\n1,2,3\n", "rows must hold numeric t, y, v"),
        ("t,y,v\n0,1,nan\n1,2,3\n2,3,4\n", "non-finite values"),
        ("t,y,v\n0,1,2\n\n", "need a header and at least 2 rows"),
    ])
    def test_rejected_variants_exit_2(self, tmp_path, capsys, text, message):
        rc, _ = self._fit(tmp_path, text)
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit", "--lambda", "0.1"], ["select"]],
                             ids=["fit", "select"])
    @pytest.mark.parametrize("times, velocity, message", [
        (["-1", "0", "1e-20", "1"], "0", "strictly increasing inside (0, 1)"),
        (["0", "5e-324", "1e-323"], "0", "strictly increasing inside (0, 1)"),
        (["-1e308", "0", "1e308"], "0", "the span of the sample times overflows"),
        (["0", "1e300", "2e300"], "1e10", "velocities overflow on the unit axis"),
    ], ids=["colliding", "subnormal", "overflowing-span", "overflowing-velocity"])
    def test_unrepresentable_time_axis_exit_2(self, tmp_path, capsys, command, times, velocity,
                                              message):
        # distinct, finite raw samples that the unit rescaling cannot
        # represent (times that collide at 0.5 or land past 1, a span or
        # velocities that overflow): an input error while reading, without
        # a numpy warning, and no file written
        path = tmp_path / "d.csv"
        path.write_text("t,y,v\n" + "".join(f"{t},{i},{velocity}\n"
                                             for i, t in enumerate(times)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command[0], str(path), *command[1:], "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error while reading input: {path}: ") and message in err
        assert list(tmp_path.iterdir()) == [path]


class TestSelect:
    def test_pipeline_interior_minimum_and_determinism(self, tmp_path):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "40", "--noise", "0.4",
              "--seed", "1", "--out", str(data)])
        out1 = tmp_path / "sel1.json"
        out2 = tmp_path / "sel2.json"
        args = ["select", str(data), "--criterion", "cv", "--grid", "50"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        rep1 = json.loads(out1.read_text())
        rep2 = json.loads(out2.read_text())
        assert rep1["selection"]["lambda"] == rep2["selection"]["lambda"]
        assert rep1["selection"]["score"] == rep2["selection"]["score"]
        lam = rep1["selection"]["lambda"]
        assert 1e-7 <= lam <= 10.0  # interior of the default 1e-8..1e2 grid
        _, surface = _read_csv(rep1["selection"]["surface_file"])
        assert surface.shape == (15 * 13, 3)
        assert rep1["selection"]["at_bound"]["lambda"] is False

    def test_selection_on_a_bound_is_reported_and_warned(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "30", "--noise", "0.05",
              "--seed", "3", "--out", str(data)])
        capsys.readouterr()
        out = tmp_path / "sel.json"
        # low noise wants far less smoothing than lambda >= 1 allows
        assert main(["select", str(data), "--lambda-min", "1", "--lambda-max", "100",
                     "--lambda-steps", "3", "--gamma-steps", "1", "--grid", "20",
                     "--out", str(out)]) == 0
        selection = json.loads(out.read_text())["selection"]
        assert selection["lambda"] == 1.0
        # a one-point axis is not searched, so it is never on a bound
        assert selection["at_bound"] == {"lambda": True, "gamma": False}
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("warning: selected lambda=1 on the search bound")
        assert "--lambda-min/--lambda-max" in err and "gamma" not in err

    def test_cv_close_to_gcv_on_equispaced_case(self, tmp_path):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "24", "--noise", "0.3",
              "--seed", "9", "--out", str(data)])
        from vspline import KernelConfig, cv_closed_form, gcv_score
        t, y, v = simulate_dataset("sine", 24, 0.3, 9)
        tu, yu, vu, _ = rescale_domain(t, y, v, margin=0.05)
        cv = cv_closed_form(tu, yu, vu, 0.01, 1.0, KernelConfig.uniform()).value
        gcv = gcv_score(tu, yu, vu, 0.01, 1.0, KernelConfig.uniform()).value
        assert abs(cv - gcv) / cv <= 0.1

    def test_overflowing_grid_points_are_degenerate(self, tmp_path, capsys):
        # grid points whose normal matrix overflows score NaN; the search
        # goes on, and exits 4 only when every point overflowed
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "30", "--seed", "1", "--out", str(data)])
        capsys.readouterr()
        out = tmp_path / "sel.json"
        with np.errstate(over="ignore"):
            rc = main(["select", str(data), "--lambda-max", "1e305", "--out", str(out)])
        assert rc == 0
        selection = json.loads(out.read_text())["selection"]
        _, surface = _read_csv(selection["surface_file"])
        overflowed = surface[:, 0] == 1e305
        assert overflowed.sum() == 13 and np.all(np.isnan(surface[overflowed, 2]))
        assert selection["degenerate_grid_points"] >= 13
        assert np.isfinite(selection["score"])
        with np.errstate(over="ignore"):
            rc = main(["select", str(data), "--lambda-min", "1e304", "--lambda-max", "1e305",
                       "--out", str(tmp_path / "all.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == ("error while selecting parameters: "
                                        "every grid point produced a degenerate score")

    def test_overflowing_scores_exit_4(self, tmp_path, capsys):
        # every grid score overflows: no point is left to select, so exit 4
        # with no files and no numpy warning, not a report with an infinite
        # score (which is not JSON) and a curve of NaN tokens
        data = tmp_path / "huge.csv"
        data.write_text("t,y,v\n0,1e308,0\n1,1e308,0\n2,1e308,0\n3,1e308,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["select", str(data), "--out", str(tmp_path / "sel.json")])
        assert rc == 4
        assert capsys.readouterr().err == ("error while selecting parameters: "
                                           "every grid point produced a degenerate score\n")
        assert list(tmp_path.iterdir()) == [data]

    def test_overflowing_grid_prints_only_its_lines(self, tmp_path, capsys):
        # overflowing grid points are NaN without a numpy RuntimeWarning; the
        # only stderr line is the CLI's own note on the selection's bound
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "30", "--seed", "1", "--out", str(data)])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["select", str(data), "--lambda-max", "1e305",
                       "--out", str(tmp_path / "sel.json")])
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert all(line.startswith("warning: selected ") for line in err)

    def test_all_degenerate_exit_4(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "10", "--noise", "0.1",
              "--seed", "2", "--out", str(data)])
        import vspline.cli as cli_mod

        def boom(*args, **kwargs):
            raise DegenerateGridError("all degenerate")

        monkeypatch.setattr(cli_mod, "optimize_params", boom)
        rc = main(["select", str(data), "--out", str(tmp_path / "r.json")])
        assert rc == 4
        assert "selecting" in capsys.readouterr().err

    def test_failed_report_fit_writes_no_surface(self, tmp_path, capsys, monkeypatch):
        # the surface is written only once the report at the selection is
        data = tmp_path / "d.csv"
        main(["simulate", "--kind", "sine", "--n", "10", "--noise", "0.1",
              "--seed", "2", "--out", str(data)])
        import vspline.cli as cli_mod
        from vspline.errors import SingularSystemError

        def boom(*args, **kwargs):
            raise SingularSystemError("the fitted curve overflowed")

        monkeypatch.setattr(cli_mod, "_fit_report", boom)
        rc = main(["select", str(data), "--lambda-steps", "3", "--gamma-steps", "3",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert "fitting at selected parameters" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]


class TestUnwritableOutput:
    """An output that cannot be written exits 2 and leaves no file behind."""

    @staticmethod
    def _data(tmp_path):
        data = tmp_path / "d.csv"
        assert main(["simulate", "--kind", "sine", "--n", "10", "--noise", "0.1",
                     "--seed", "2", "--out", str(data)]) == 0
        return data

    @staticmethod
    def _assert_refused(rc, capsys, path):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error while writing output: cannot write {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_out_is_a_directory(self, tmp_path, capsys, command):
        data = self._data(tmp_path)
        out = tmp_path / "outdir"
        out.mkdir()
        flags = ["--lambda", "1e-3"] if command == "fit" else ["--lambda-steps", "3",
                                                               "--gamma-steps", "3"]
        rc = main([command, str(data), *flags, "--out", str(out)])
        # the curve file outdir.curve.csv, written first, is removed again
        self._assert_refused(rc, capsys, out)
        assert sorted(tmp_path.iterdir()) == [data, out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "select", "simulate"])
    def test_out_in_a_missing_directory(self, tmp_path, capsys, command):
        data = self._data(tmp_path)
        out = tmp_path / "missing" / "x.json"
        args = {"fit": ["fit", str(data), "--lambda", "1e-3"],
                "select": ["select", str(data), "--lambda-steps", "3", "--gamma-steps", "3"],
                "simulate": ["simulate", "--n", "5", "--seed", "1"]}[command]
        rc = main([*args, "--out", str(out)])
        # fit and select fail at their first file, the curve
        first = out if command == "simulate" else out.with_name("x.curve.csv")
        self._assert_refused(rc, capsys, first)
        assert list(tmp_path.iterdir()) == [data]

    def test_simulate_out_is_a_directory(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "5", "--seed", "1", "--out", str(tmp_path)])
        self._assert_refused(rc, capsys, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_select_unwritable_surface_removes_report_and_curve(self, tmp_path, capsys):
        data = self._data(tmp_path)
        blocker = tmp_path / "r.surface.csv"
        blocker.mkdir()
        rc = main(["select", str(data), "--lambda-steps", "3", "--gamma-steps", "3",
                   "--out", str(tmp_path / "r.json")])
        self._assert_refused(rc, capsys, blocker)
        assert sorted(tmp_path.iterdir()) == [data, blocker]


class TestRoundTrip:
    def test_simulate_fit_tiny_lambda_reproduces_knots(self, tmp_path):
        data = tmp_path / "d.csv"
        rep = tmp_path / "r.json"
        main(["simulate", "--kind", "sine", "--n", "10", "--noise", "0",
              "--seed", "6", "--out", str(data)])
        rc = main(["fit", str(data), "--lambda", "1e-9", "--gamma", "1",
                   "--out", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        _, raw = _read_csv(data)
        np.testing.assert_allclose(report["knot_fit"]["f"], raw[:, 1], atol=1e-4)
        np.testing.assert_allclose(report["knot_fit"]["df_raw"], raw[:, 2], atol=1e-4)

    def test_outputs_parse_back(self, tmp_path):
        data = tmp_path / "d.csv"
        rep = tmp_path / "r.json"
        main(["simulate", "--kind", "iwp", "--n", "12", "--noise", "0.05",
              "--seed", "8", "--out", str(data)])
        main(["fit", str(data), "--lambda", "1e-3", "--out", str(rep)])
        report = json.loads(rep.read_text())
        _, curve = _read_csv(report["curve_file"])
        assert np.all(np.isfinite(curve))
        # write-read-write idempotence of the dataset representation
        _, d1 = _read_csv(data)
        data2 = tmp_path / "d2.csv"
        with open(data2, "w") as fh:
            fh.write("t,y,v\n")
            for row in d1:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        _, d2 = _read_csv(data2)
        np.testing.assert_array_equal(d1, d2)


class TestOutputBytes:
    """Every written file has the bytes of the standard library's csv and
    json writers."""

    @staticmethod
    def _csv_oracle(header, rows):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([[repr(float(x)) for x in row] for row in rows])
        return buf.getvalue().encode()

    def _assert_csv(self, path, rows=None):
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        if rows is None:
            rows = [[float(x) for x in row] for row in body]
        assert Path(path).read_bytes() == self._csv_oracle(header, rows)

    @staticmethod
    def _assert_report(path):
        with open(path) as fh:
            report = json.load(fh)
        buf = io.StringIO()
        json.dump(report, buf, indent=2, sort_keys=True)
        buf.write("\n")
        assert Path(path).read_bytes() == buf.getvalue().encode()

    def test_simulate_fit_select_match_the_stdlib_writers(self, tmp_path):
        n = 12
        data = tmp_path / "d.csv"
        assert main(["simulate", "--kind", "iwp", "--n", str(n), "--noise", "0.1",
                     "--seed", "4", "--out", str(data)]) == 0
        t, y, v = simulate_dataset("iwp", n, 0.1, 4)
        self._assert_csv(data, np.column_stack([t, y, v]))

        weights = tmp_path / "w.txt"
        np.savetxt(weights, np.linspace(0.5, 2.0, n + 1))
        rep = tmp_path / "fit.json"
        assert main(["fit", str(data), "--lambda", "1e-3", "--weights", str(weights),
                     "--grid", "31", "--out", str(rep)]) == 0
        self._assert_report(rep)
        self._assert_csv(json.loads(rep.read_text())["curve_file"])

        corr = tmp_path / "corr.csv"
        np.savetxt(corr, np.vstack([ar1_precision(n, 0.5), ar1_precision(n, 0.3)]),
                   delimiter=",", fmt="%.17g")
        sel = tmp_path / "sel.json"
        assert main(["select", str(data), "--criterion", "gcv-corr", "--corr", str(corr),
                     "--lambda-steps", "4", "--gamma-steps", "3", "--grid", "23",
                     "--out", str(sel)]) == 0
        self._assert_report(sel)
        report = json.loads(sel.read_text())
        self._assert_csv(report["curve_file"])
        self._assert_csv(report["selection"]["surface_file"])

    def test_report_keys_and_layout_are_pinned(self, tmp_path):
        # the knot fit appears once, in raw units; every report is the text
        # of json.dumps with two-space indents and sorted keys
        data = tmp_path / "d.csv"
        assert main(["simulate", "--kind", "sine", "--n", "12", "--noise", "0.1",
                     "--seed", "3", "--out", str(data)]) == 0
        fit, sel = tmp_path / "fit.json", tmp_path / "sel.json"
        assert main(["fit", str(data), "--lambda", "1e-3", "--out", str(fit)]) == 0
        assert main(["select", str(data), "--lambda-steps", "3", "--gamma-steps", "3",
                     "--out", str(sel)]) == 0
        keys = {"n", "lambda", "gamma", "weighted", "correlated", "method", "trace_s",
                "trace_v", "domain", "curve_file", "knot_fit"}
        for path, top in (fit, keys), (sel, keys | {"selection"}):
            self._assert_report(path)
            report = json.loads(path.read_text())
            assert set(report) == top
            assert set(report["domain"]) == {"t_min", "t_max", "margin"}
            assert set(report["knot_fit"]) == {"f", "df_raw"}
            assert len(report["knot_fit"]["f"]) == len(report["knot_fit"]["df_raw"]) == 12
        selection = json.loads(sel.read_text())["selection"]
        assert set(selection) == {"criterion", "lambda", "gamma", "score",
                                  "degenerate_grid_points", "at_bound", "surface_file"}
        assert set(selection["at_bound"]) == {"lambda", "gamma"}

    def test_fit_at_5000_samples_matches_the_stdlib_writers(self, tmp_path):
        data = tmp_path / "d.csv"
        assert main(["simulate", "--kind", "sine", "--n", "5000", "--noise", "0.1",
                     "--seed", "4", "--out", str(data)]) == 0
        rep = tmp_path / "fit.json"
        assert main(["fit", str(data), "--lambda", "1e-3", "--gamma", "1",
                     "--out", str(rep)]) == 0
        self._assert_report(rep)
        self._assert_csv(json.loads(rep.read_text())["curve_file"])


# deterministic and small, so the suite's run time barely moves
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5]),
    st.floats().map(np.float64))


class TestWriters:
    """The CSV writer against the standard library's."""

    @PROPERTY
    @given(st.integers(1, 4), st.integers(0, 6), st.data())
    def test_csv_text_is_csv_writer(self, columns, count, data):
        header = data.draw(st.lists(st.text("tfdvylambdagmscore", min_size=1, max_size=6),
                                    min_size=columns, max_size=columns))
        rows = np.array(data.draw(st.lists(st.lists(_FLOATS, min_size=columns,
                                                    max_size=columns),
                                           min_size=count, max_size=count)),
                        dtype=float).reshape(count, columns)
        assert _csv_text(header, rows).encode() == TestOutputBytes._csv_oracle(header, rows)
