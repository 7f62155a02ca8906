"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload generates its inputs from the benchmark's own seeded
generator during set-up and writes them to files; the program only ever
sees those files (or, for the library workload, those arrays).  Inputs
never come from ``vspline simulate``, so a change to the program cannot
change the workload.

Sample times sit on a nominal-rate grid with +-30% jitter, which keeps
every gap above 0.4 of the nominal step (the test suite's
``random_knots`` asks for 0.3).  Near-coincident times are excluded on
purpose; see README.md.

An operation's output is checked after the operation, outside its timed
wall.  A check raises :class:`CheckFailed`; the caller counts that, a
nonzero exit code, or any exception as a failed operation.  Reference
values that cost more than the operation are computed once per distinct
input and reused, so check time stays bounded however fast the program
gets.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vspline
import vspline.bayes
import vspline.cli

MARGIN = 0.05          # the CLI's documented rescaling margin
GRID = 200             # curve sample count of every operation
KNOT_TOL = 1e-6        # acceptance criterion 5 (basis vs representer at the knots)
CV_REL_TOL = 1e-6      # acceptance criterion 6 (closed-form vs brute-force CV)
SEARCH_ROWS = 15 * 13  # the CLI's default (lambda, gamma) grid


class CheckFailed(Exception):
    """An operation's output is wrong or malformed."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs


def jittered_times(rng, n, lo, hi):
    """n strictly increasing times on [lo, hi]: nominal grid, +-30% jitter."""
    step = (hi - lo) / n
    return lo + step * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n))


def ar1_noise(rng, n, phi):
    """Stationary AR(1) sequence with unit marginal variance."""
    e = np.empty(n)
    e[0] = rng.standard_normal()
    scale = np.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        e[i] = phi * e[i - 1] + scale * rng.standard_normal()
    return e


def ar1_precision(n, phi):
    """Precision matrix of :func:`ar1_noise` (tridiagonal)."""
    P = np.diag(np.full(n, 1.0 + phi * phi))
    P[0, 0] = P[-1, -1] = 1.0
    i = np.arange(n - 1)
    P[i, i + 1] = P[i + 1, i] = -phi
    return P / (1.0 - phi * phi)


def sine_sample(rng, n, lo=0.0, hi=10.0, noise=0.1, phi=None):
    """Jittered times and noisy position/velocity of a random sinusoid.

    ``phi`` = (position, velocity) AR(1) coefficients makes the noise of
    each channel serially correlated; otherwise it is white.
    """
    t = jittered_times(rng, n, lo, hi)
    amp = rng.uniform(0.5, 2.0)
    omega = 2.0 * np.pi * rng.uniform(1.0, 3.0) / (hi - lo)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    y = amp * np.sin(omega * t + phase)
    v = amp * omega * np.cos(omega * t + phase)
    if phi is None:
        y = y + noise * rng.standard_normal(n)
        v = v + noise * rng.standard_normal(n)
    else:
        y = y + noise * ar1_noise(rng, n, phi[0])
        v = v + noise * ar1_noise(rng, n, phi[1])
    return t, y, v


def write_dataset(path, t, y, v):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y", "v"])
        writer.writerows([[repr(float(a)), repr(float(b)), repr(float(c))]
                          for a, b, c in zip(t, y, v)])


def write_column(path, values):
    with open(path, "w") as fh:
        fh.writelines(repr(float(x)) + "\n" for x in values)


def write_matrix(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[repr(float(x)) for x in row] for row in rows])


# ---------------------------------------------------------------- checks


def unit_axis(t_raw, y, v):
    """The CLI's documented rescaling onto (0, 1), computed independently."""
    span = t_raw[-1] - t_raw[0]
    tu = MARGIN + (t_raw - t_raw[0]) * (1.0 - 2.0 * MARGIN) / span
    factor = span / (1.0 - 2.0 * MARGIN)
    return tu, y, v * factor, factor


def hermite_curve(knots, f, df, x):
    """Cubic Hermite interpolant of values f and slopes df, at x in range."""
    k = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
    h = knots[k + 1] - knots[k]
    s = (x - knots[k]) / h
    val = (f[k] * (2 * s**3 - 3 * s**2 + 1) + df[k] * h * (s**3 - 2 * s**2 + s)
           + f[k + 1] * (3 * s**2 - 2 * s**3) + df[k + 1] * h * (s**3 - s**2))
    der = ((f[k] - f[k + 1]) * (6 * s**2 - 6 * s) / h
           + df[k] * (3 * s**2 - 4 * s + 1) + df[k + 1] * (3 * s**2 - 2 * s))
    return val, der


def read_rows(path, header, n_rows):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == header, f"{path}: header is not {header}")
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    except ValueError:
        raise CheckFailed(f"{path}: non-numeric entry")
    _require(data.shape == (n_rows, len(header)),
             f"{path}: expected {n_rows} rows of {len(header)} values, got {data.shape}")
    return data


def read_report(path, n):
    with open(path) as fh:
        report = json.load(fh)
    knot = report["knot_fit"]
    f = np.asarray(knot["f"], dtype=float)
    df = np.asarray(knot["df_raw"], dtype=float)
    _require(f.shape == (n,) and df.shape == (n,), "knot_fit has the wrong length")
    _require(np.all(np.isfinite(f)) and np.all(np.isfinite(df)), "knot_fit is not finite")
    for key in ("lambda", "gamma", "trace_s", "trace_v"):
        _require(np.isfinite(report[key]), f"report {key} is not finite")
    return report, f, df


def check_curve(report_path, t_raw, f, df):
    """The curve file holds GRID finite rows on the knot fit's cubic."""
    curve = read_rows(Path(report_path).with_suffix(".curve.csv"), ["t", "f", "df"], GRID)
    _require(np.all(np.isfinite(curve)), "curve has non-finite values")
    _require(np.allclose(curve[:, 0], np.linspace(t_raw[0], t_raw[-1], GRID),
                         rtol=0.0, atol=1e-12 * (1.0 + abs(t_raw[-1]))),
             "curve grid is not the documented linspace")
    val, der = hermite_curve(t_raw, f, df, curve[:, 0])
    gap = max(np.abs(curve[:, 1] - val).max(), np.abs(curve[:, 2] - der).max())
    _require(gap <= KNOT_TOL, f"curve departs from the knot fit by {gap:.3e}")


def check_surface(report_path, selection):
    """Surface rows parse; NaNs match the degenerate count; score is minimal."""
    surface = read_rows(Path(report_path).with_suffix(".surface.csv"),
                        ["lambda", "gamma", "score"], SEARCH_ROWS)
    _require(np.all(np.isfinite(surface[:, :2])), "surface has non-finite parameters")
    scores = surface[:, 2]
    nan = np.isnan(scores)
    _require(int(nan.sum()) == selection["degenerate_grid_points"],
             "surface NaN count differs from degenerate_grid_points")
    _require(np.all(np.isfinite(scores[~nan])), "surface has infinite scores")
    _require(selection["score"] <= scores[~nan].min(),
             f"reported score {selection['score']!r} exceeds the surface minimum")


def representer_knot_fit(tu, yu, vu, cfg, lam, gamma):
    """Representer-route fit (``fit_vspline``) evaluated at the knots."""
    gram = vspline.build_gram(tu, cfg, lam, gamma)
    vfit = vspline.solve_coefficients(gram, yu, vu)
    return vspline.fitted_knot_values(gram, vfit.d, vfit.c, vfit.b)


def check_knot_fit(f, df, factor, reference):
    ref_f, ref_fp = reference
    gap = max(np.abs(f - ref_f).max(), np.abs(df * factor - ref_fp).max())
    _require(gap <= KNOT_TOL, f"knot_fit departs from the representer fit by {gap:.3e}")


# ---------------------------------------------------------------- workloads


@dataclass
class Case:
    """One distinct input: arrays kept for the checks, files for the program."""

    t: np.ndarray
    y: np.ndarray
    v: np.ndarray
    files: dict
    extra: dict = field(default_factory=dict)


class Workload:
    """A pool of distinct inputs, cycled by operation index.

    Consecutive operations never see the same input, so a cache the
    program might keep across calls cannot turn the loop into repeats.
    """

    name = ""
    sizes = {"full": 0, "tiny": 0}
    pool = 4

    def __init__(self, workdir: Path, rng, size="full"):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.n = self.sizes[size]
        self.cases = [self.make_case(rng, j) for j in range(self.pool)]
        self._references: dict = {}

    def case(self, i) -> Case:
        return self.cases[i % self.pool]

    def reference(self, key, compute):
        """Memoized reference value for one distinct input."""
        if key not in self._references:
            self._references[key] = compute()
        return self._references[key]

    def make_case(self, rng, j) -> Case:
        raise NotImplementedError

    def run(self, i):
        """Run operation i; return what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, i, output):
        """Raise :class:`CheckFailed` unless operation i's output is right."""
        raise NotImplementedError


class SelectCv(Workload):
    """CLI ``select --criterion cv``, uniform penalty, default grid.

    The CV/GCV engine path: 371 closed-form scores per operation, almost
    all of it in ``hermite``, while ``kernels`` barely runs.  Kernel
    changes should not move it.
    """

    name = "select_cv"
    sizes = {"full": 120, "tiny": 10}

    def make_case(self, rng, j):
        t, y, v = sine_sample(rng, self.n)
        path = self.workdir / f"data{j}.csv"
        write_dataset(path, t, y, v)
        return Case(t, y, v, {"data": str(path), "out": str(self.workdir / f"out{j}.json")})

    def run(self, i):
        case = self.case(i)
        return vspline.cli.main(["select", case.files["data"], "--criterion", "cv",
                                 "--out", case.files["out"]])

    def check(self, i, rc):
        _require(rc == 0, f"exit code {rc}")
        case = self.case(i)
        report, f, df = read_report(case.files["out"], self.n)
        sel = report["selection"]
        check_surface(case.files["out"], sel)
        check_curve(case.files["out"], case.t, f, df)
        tu, yu, vu, factor = unit_axis(case.t, case.y, case.v)
        lam, gamma = sel["lambda"], sel["gamma"]

        def refs():
            cfg = vspline.KernelConfig.uniform()
            brute = vspline.cv_brute_force(tu, yu, vu, lam, gamma, cfg).value
            return brute, representer_knot_fit(tu, yu, vu, cfg, lam, gamma)

        brute, knots = self.reference((i % self.pool, lam, gamma), refs)
        rel = abs(sel["score"] - brute) / abs(brute)
        _require(rel <= CV_REL_TOL, f"reported CV score differs from brute force by {rel:.3e}")
        check_knot_fit(f, df, factor, knots)


class FitWeighted(Workload):
    """CLI ``fit --weights`` with n + 1 knot-aligned interval weights.

    The kernel/representer path: a few large Gram and curve-evaluation
    calls per operation.  Hermite-engine changes should barely move it.
    """

    name = "fit_weighted"
    sizes = {"full": 300, "tiny": 12}
    pool = 2
    lams = (1e-4, 1e-3, 1e-2)

    def lam(self, i):
        return self.lams[i % len(self.lams)]

    def make_case(self, rng, j):
        t, y, v = sine_sample(rng, self.n)
        weights = rng.uniform(0.3, 3.0, self.n + 1)
        data = self.workdir / f"data{j}.csv"
        wfile = self.workdir / f"weights{j}.txt"
        write_dataset(data, t, y, v)
        write_column(wfile, weights)
        return Case(t, y, v, {"data": str(data), "weights": str(wfile),
                              "out": str(self.workdir / f"out{j}.json")},
                    {"weights": weights})

    def run(self, i):
        case = self.case(i)
        return vspline.cli.main(["fit", case.files["data"], "--lambda", repr(self.lam(i)),
                                 "--weights", case.files["weights"], "--grid", str(GRID),
                                 "--out", case.files["out"]])

    def check(self, i, rc):
        _require(rc == 0, f"exit code {rc}")
        case, lam = self.case(i), self.lam(i)
        report, f, df = read_report(case.files["out"], self.n)
        _require(report["lambda"] == lam and report["weighted"], "report echoes the wrong fit")
        check_curve(case.files["out"], case.t, f, df)
        tu, yu, vu, factor = unit_axis(case.t, case.y, case.v)

        def refs():
            cfg = vspline.KernelConfig.piecewise(np.concatenate([[0.0], tu, [1.0]]),
                                                 case.extra["weights"])
            return representer_knot_fit(tu, yu, vu, cfg, lam, report["gamma"])

        check_knot_fit(f, df, factor, self.reference((i % self.pool, lam), refs))


class FitWeightedStiff(FitWeighted):
    """``fit_weighted`` at lambda = 0.1, where the basis route loses precision.

    At n = 300 the basis route's normal equations have a condition number
    near 6e11, and its ``knot_fit`` misses the representer fit by more than
    the 1e-6 of criterion 5 on about 2% of inputs.  The failure is reported
    as it is; see README.md.
    """

    name = "fit_weighted_stiff"
    lams = (1e-1,)


class SelectGcvCorr(Workload):
    """CLI ``select --criterion gcv-corr`` with AR(1) precision blocks.

    The same ``hermite``/``gcv`` layers through the dense correlated route,
    which stays dense by design; the only path through ``_psd_sqrt`` and
    the basis-route curve.  The noise is AR(1) too, matching the blocks.
    """

    name = "select_gcv_corr"
    sizes = {"full": 60, "tiny": 10}
    phi = (0.5, 0.3)   # positions, velocities

    def __init__(self, workdir, rng, size="full"):
        super().__init__(workdir, rng, size)
        self.corr_file = self.workdir / "corr.csv"
        write_matrix(self.corr_file, np.vstack([ar1_precision(self.n, self.phi[0]),
                                                ar1_precision(self.n, self.phi[1])]))

    def make_case(self, rng, j):
        t, y, v = sine_sample(rng, self.n, phi=self.phi)
        path = self.workdir / f"data{j}.csv"
        write_dataset(path, t, y, v)
        return Case(t, y, v, {"data": str(path), "out": str(self.workdir / f"out{j}.json")})

    def run(self, i):
        case = self.case(i)
        return vspline.cli.main(["select", case.files["data"], "--criterion", "gcv-corr",
                                 "--corr", str(self.corr_file), "--out", case.files["out"]])

    def check(self, i, rc):
        _require(rc == 0, f"exit code {rc}")
        case = self.case(i)
        report, f, df = read_report(case.files["out"], self.n)
        _require(report["correlated"] and report["method"] == "hermite-basis",
                 "report is not a correlated basis fit")
        check_surface(case.files["out"], report["selection"])
        check_curve(case.files["out"], case.t, f, df)


class PosteriorBand(Workload):
    """Library ``posterior_mean_finite_rho``, then ``.mean`` and ``.variance``.

    The only path through ``vspline.bayes``.  ``kernels`` runs as about 800
    tiny calls per operation, where ``fit_weighted`` makes a few large
    ones, so per-call set-up cost shows here.  At rho = 1e6 the variance
    comes out negative and the operation fails; that is reported, not
    avoided.
    """

    name = "posterior_band"
    sizes = {"full": 150, "tiny": 12}
    rhos = (1e2, 1e6)
    lam, gamma, noise = 1e-3, 1.0, 0.1

    def rho(self, i):
        return self.rhos[i % len(self.rhos)]

    def make_case(self, rng, j):
        # generated on the unit axis; the library call takes arrays, not files
        t, y, v = sine_sample(rng, self.n, lo=MARGIN, hi=1.0 - MARGIN, noise=self.noise)
        weights = rng.uniform(0.3, 3.0, self.n + 1)
        return Case(t, y, v, {}, {"weights": weights})

    def run(self, i):
        case = self.case(i)
        cfg = vspline.KernelConfig.piecewise(np.concatenate([[0.0], case.t, [1.0]]),
                                             case.extra["weights"])
        beta = self.noise**2 / (self.n * self.lam)
        prior = vspline.bayes.GpPrior(beta=beta, rho=self.rho(i), config=cfg)
        post = vspline.bayes.posterior_mean_finite_rho(case.t, case.y, case.v, prior,
                                                       self.lam, self.gamma)
        grid = np.linspace(case.t[0], case.t[-1], GRID)
        return post.mean(grid), post.variance(grid)

    def check(self, i, output):
        mean, var = (np.asarray(a, dtype=float) for a in output)
        _require(mean.shape == (GRID,) and var.shape == (GRID,), "wrong output length")
        _require(np.all(np.isfinite(mean)) and np.all(np.isfinite(var)),
                 "posterior mean or variance is not finite")
        _require(var.min() >= 0.0,
                 f"negative posterior variance {var.min():.3e} (rho={self.rho(i):g})")


WORKLOADS = {cls.name: cls for cls in (SelectCv, FitWeighted, FitWeightedStiff,
                                        SelectGcvCorr, PosteriorBand)}
