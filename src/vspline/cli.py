"""Command-line front end: simulate, fit, and select subcommands.

Datasets are CSV files with a header row and columns t, y, v (raw time,
position, velocity).  Time axes are rescaled internally onto (0, 1) with a
5% margin at each end; penalties apply on that unit axis and all reported
curves are mapped back to raw units.  Reports are single JSON documents,
written by ``json.dumps`` with sorted keys, that hold the knot fit once, in
raw units, as ``knot_fit``; curves and search surfaces are plot-ready CSV.

Exit codes: 0 success, 2 parse or input error (a ``ValueError``, or flags
whose arrays do not fit in memory), 3 numerical failure (a singular or
overflowed system), 4 all search-grid points degenerate; :func:`_stage`
maps the library's exceptions to them for every stage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__, gcv
from .errors import DegenerateGridError, SingularSystemError
from .fit import _check_param, rescale_domain
from .gcv import CorrelationSpec, optimize_params
from .hermite import _fit_point
from .kernels import KernelConfig

MARGIN = 0.05


class CliError(Exception):
    def __init__(self, code: int, stage: str, message: str):
        super().__init__(message)
        self.code = code
        self.stage = stage


@contextlib.contextmanager
def _stage(stage, sized="the input is"):
    """Run one stage of a command under the one map from exceptions to exit
    codes: :class:`DegenerateGridError` 4, ``np.linalg.LinAlgError``
    (:class:`SingularSystemError` included; a ``ValueError`` subclass, so
    caught first) 3, ``ValueError`` 2, and ``MemoryError`` 2, naming the
    flag ``sized`` whose arrays did not fit."""
    try:
        yield
    except DegenerateGridError as exc:
        raise CliError(4, stage, str(exc))
    except np.linalg.LinAlgError as exc:
        raise CliError(3, stage, str(exc))
    except ValueError as exc:
        raise CliError(2, stage, str(exc))
    except MemoryError:
        raise CliError(2, stage, f"{sized} too large to allocate; choose fewer points")


def simulate_dataset(kind: str, n: int, noise: float, seed: int):
    """Reproducible synthetic (t, y, v) data on the raw axis [0, 1].

    "line" and "sine" use analytic derivatives; "iwp" draws a twice
    integrated white-noise path by exact joint increments of the position
    and its derivative (position variance grows like t^3/3), with the
    derivative channel serving as the velocity.  Observation noise of the
    given standard deviation is added independently to both channels.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if noise < 0.0:
        raise ValueError("noise must be nonnegative")
    if not np.isfinite(noise):
        raise ValueError("noise must be finite")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    if kind == "line":
        y = 1.0 + 2.5 * t
        v = np.full(n, 2.5)
    elif kind == "sine":
        y = np.sin(2.0 * np.pi * t)
        v = 2.0 * np.pi * np.cos(2.0 * np.pi * t)
    elif kind == "iwp":
        y = np.zeros(n)
        v = np.zeros(n)
        for k in range(n - 1):
            h = t[k + 1] - t[k]
            # exact covariance of the (position, slope) increment pair
            cov = np.array([[h**3 / 3.0, h**2 / 2.0], [h**2 / 2.0, h]])
            dz, dw = np.linalg.cholesky(cov) @ rng.standard_normal(2)
            y[k + 1] = y[k] + h * v[k] + dz
            v[k + 1] = v[k] + dw
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if noise > 0.0:
        y = y + rng.normal(0.0, noise, n)
        v = v + rng.normal(0.0, noise, n)
    return t, y, v


def _parse_rows(lines):
    """The first three CSV columns as floats (numpy's C reader), or None."""
    try:
        return np.loadtxt(lines, delimiter=",", usecols=(0, 1, 2), ndmin=2,
                          comments=None, quotechar='"')
    except ValueError:
        return None


def _read_dataset(path):
    """The samples of a dataset file on the unit axis: ``(t, y, v, scale)``
    as :func:`rescale_domain` returns them.  Raw times that the rescaling
    cannot represent are an input error, like a malformed file."""
    try:
        with open(path) as fh:
            lines = [line for line in fh.read().split("\n") if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, "reading input", f"cannot read {path}: {exc}")
    if len(lines) < 3:
        raise CliError(2, "reading input", f"{path}: need a header and at least 2 rows")
    if _parse_rows(lines[:1]) is not None:
        raise CliError(2, "reading input", f"{path}: missing the header row t,y,v")
    data = _parse_rows(lines[1:])
    if data is None:
        raise CliError(2, "reading input", f"{path}: rows must hold numeric t, y, v")
    if not np.all(np.isfinite(data)):
        raise CliError(2, "reading input", f"{path}: non-finite values")
    try:
        return rescale_domain(*data.T, margin=MARGIN)
    except ValueError as exc:
        raise CliError(2, "reading input", f"{path}: {exc}")


def _read_weights(path, n):
    try:
        w = np.loadtxt(path, dtype=float, ndmin=1)
    except OSError as exc:
        raise CliError(2, "reading weights", f"cannot read {path}: {exc}")
    except ValueError:
        raise CliError(2, "reading weights", f"{path}: expected one number per line")
    if w.shape != (n + 1,):
        raise CliError(2, "reading weights",
                       f"{path}: expected {n + 1} interval weights, got {w.size}")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise CliError(2, "reading weights", f"{path}: weights must be positive")
    return w


def _read_corr(path, n):
    try:
        raw = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except OSError as exc:
        raise CliError(2, "reading correlation matrices", f"cannot read {path}: {exc}")
    except ValueError:
        raise CliError(2, "reading correlation matrices", f"{path}: malformed CSV")
    if raw.shape != (2 * n, n):
        raise CliError(2, "reading correlation matrices",
                       f"{path}: expected two stacked {n}x{n} blocks (W then Ucorr)")
    try:
        return CorrelationSpec(W=raw[:n], Ucorr=raw[n:])
    except ValueError as exc:
        raise CliError(2, "reading correlation matrices", f"{path}: {exc}")


def _reprs(a):
    """The ``repr`` of each value of a float array, in one pass: the text
    that ``csv.writer`` writes for a Python float."""
    return list(map(float.__repr__, np.asarray(a, dtype=float).ravel().tolist()))


def _csv_text(header, rows):
    """``csv.writer``'s text for a header and an array of float rows: CRLF
    line ends, and no quotes, which no float repr needs."""
    cells = iter(_reprs(rows))
    lines = map(",".join, zip(*[cells] * len(header)))
    return "\r\n".join([",".join(header), *lines, ""])


def _write_outputs(files):
    """Write each ``(path, text)`` of ``files`` in turn.  An ``OSError`` is an
    output error (exit 2) that leaves none of the files behind."""
    written = []
    try:
        for path, text in files:
            with open(path, "w", newline="") as fh:
                written.append(path)
                fh.write(text)
    except OSError as exc:
        for done in written:
            with contextlib.suppress(OSError):
                os.remove(done)
        raise CliError(2, "writing output", f"cannot write {path}: {exc}")


def _sibling_path(out_path: str, suffix: str) -> str:
    """The report path with its ``.json`` extension, if any, replaced by ``suffix``."""
    return (out_path[:-5] if out_path.endswith(".json") else out_path) + suffix


def _penalty_config(tu, weights) -> KernelConfig:
    """The penalty profile on the unit axis: the interval weights of
    ``--weights`` on the knots ``tu``, else uniform."""
    if weights is None:
        return KernelConfig.uniform()
    return KernelConfig.piecewise(np.concatenate([[0.0], tu, [1.0]]), weights)


def _fit_report(tu, yu, vu, scale, lam, gamma, weights, corr, grid, out_path,
                selection=None):
    """Fit at fixed parameters, on the unit-axis data of :func:`_read_dataset`,
    and return the curve and report files as ``(path, text)`` pairs.

    Every report comes from the Hermite-basis fit: one factorization gives
    the knot values and slopes and the hat traces, and the curve is the
    cubic Hermite interpolant of that knot fit.  A curve that overflowed
    raises :class:`SingularSystemError`.
    """
    n = tu.size
    design = gcv._design_for(tu, lam, _penalty_config(tu, weights))
    mats = () if corr is None else (corr.W, corr.Ucorr)
    theta, (trace_s, _, _, trace_v) = _fit_point(design, yu, vu, gamma, *mats, hats="traces")

    grid_raw = np.linspace(scale.s_min, scale.s_max, grid)
    grid_unit = scale.to_unit(grid_raw)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        f_curve = design.basis.evaluate(theta, grid_unit)
        df_curve = design.basis.evaluate_deriv(theta, grid_unit) / scale.time_factor
    if not (np.isfinite(f_curve).all() and np.isfinite(df_curve).all()):
        raise SingularSystemError("the fitted curve overflowed: non-finite values on its grid")

    curve_file = _sibling_path(out_path, ".curve.csv")
    report = {
        "n": int(n),
        "lambda": float(lam),
        "gamma": float(gamma),
        "weighted": weights is not None,
        "correlated": corr is not None,
        "method": "hermite-basis",
        "trace_s": float(trace_s),
        "trace_v": float(trace_v),
        "domain": {"t_min": scale.s_min, "t_max": scale.s_max, "margin": MARGIN},
        "curve_file": curve_file,
        "knot_fit": {"f": theta[:n].tolist(),
                     "df_raw": (theta[n:] / scale.time_factor).tolist()},
    }
    if selection is not None:
        report["selection"] = selection
    curve = np.column_stack([grid_raw, f_curve, df_curve])
    report_text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return [(curve_file, _csv_text(["t", "f", "df"], curve)), (out_path, report_text)]


def cmd_simulate(args) -> int:
    with _stage("simulating", f"--n {args.n} is"):
        t, y, v = simulate_dataset(args.kind, args.n, args.noise, args.seed)
    _write_outputs([(args.out, _csv_text(["t", "y", "v"], np.column_stack([t, y, v])))])
    print(f"wrote {args.out} ({args.kind}, n={args.n}, seed={args.seed})")
    return 0


def _check_grid(grid):
    if grid < 2:
        raise CliError(2, "parsing flags", "--grid must be at least 2")


def cmd_fit(args) -> int:
    with _stage("parsing flags"):
        _check_param("--lambda", args.lam, positive=True)
        _check_param("--gamma", args.gamma, positive=False)
    _check_grid(args.grid)
    data = _read_dataset(args.input)
    n = data[0].size
    weights = _read_weights(args.weights, n) if args.weights else None
    corr = _read_corr(args.corr, n) if args.corr else None
    with _stage("fitting", f"--grid {args.grid} is"):
        files = _fit_report(*data, args.lam, args.gamma, weights, corr, args.grid, args.out)
    _write_outputs(files)
    print(f"wrote {args.out} and {files[0][0]}")
    return 0


def _at_bound(value, lo, hi, steps):
    """Whether a searched axis (more than one grid step) ended on a bound."""
    return steps > 1 and bool(np.isclose(value, lo, rtol=1e-9, atol=0.0)
                              or np.isclose(value, hi, rtol=1e-9, atol=0.0))


def cmd_select(args) -> int:
    with _stage("parsing flags"):   # the range checks of optimize_params, before any input
        gcv._check_range((args.lambda_min, args.lambda_max), args.lambda_steps,
                         "--lambda-min/--lambda-max", "--lambda-steps")
        gcv._check_range((args.gamma_min, args.gamma_max), args.gamma_steps,
                         "--gamma-min/--gamma-max", "--gamma-steps")
    _check_grid(args.grid)
    if args.criterion == "gcv-corr" and args.corr is None:
        raise CliError(2, "parsing flags", "--criterion gcv-corr requires --corr")
    data = tu, yu, vu, _ = _read_dataset(args.input)
    weights = _read_weights(args.weights, tu.size) if args.weights else None
    corr = _read_corr(args.corr, tu.size) if args.corr else None
    with _stage("selecting parameters", f"the search grid of --lambda-steps "
                f"{args.lambda_steps} by --gamma-steps {args.gamma_steps} points is"):
        result = optimize_params(
            tu, yu, vu, _penalty_config(tu, weights), corr=corr, criterion=args.criterion,
            lam_bounds=(args.lambda_min, args.lambda_max),
            gamma_bounds=(args.gamma_min, args.gamma_max),
            lam_points=args.lambda_steps, gamma_points=args.gamma_steps)
    surface_file = _sibling_path(args.out, ".surface.csv")
    selected = {"lambda": result.lam, "gamma": result.gamma}
    at_bound = {
        "lambda": _at_bound(result.lam, args.lambda_min, args.lambda_max, args.lambda_steps),
        "gamma": _at_bound(result.gamma, args.gamma_min, args.gamma_max, args.gamma_steps),
    }
    hits = [name for name, hit in at_bound.items() if hit]
    if hits:
        values = ", ".join(f"{name}={selected[name]:.6g}" for name in hits)
        flags = ", ".join(f"--{name}-min/--{name}-max" for name in hits)
        print(f"warning: selected {values} on the search bound; the minimum may lie "
              f"outside the range ({flags})", file=sys.stderr)
    selection = {
        "criterion": result.criterion,
        "lambda": result.lam,
        "gamma": result.gamma,
        "score": result.score,
        "degenerate_grid_points": result.degenerate_count,
        "at_bound": at_bound,
        "surface_file": surface_file,
    }
    with _stage("fitting at selected parameters", f"--grid {args.grid} is"):
        files = _fit_report(*data, result.lam, result.gamma, weights, corr,
                            args.grid, args.out, selection=selection)
    files.append((surface_file, _csv_text(["lambda", "gamma", "score"], result.surface)))
    _write_outputs(files)
    print(f"selected lambda={result.lam:.6g} gamma={result.gamma:.6g} "
          f"(criterion={result.criterion}, score={result.score:.6g})")
    print(f"wrote {args.out} and {surface_file}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vspline",
        description="Fit cubic smoothing splines to paired position/velocity data.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset CSV")
    sim.add_argument("--kind", choices=("iwp", "line", "sine"), default="iwp")
    sim.add_argument("--n", type=int, default=50)
    sim.add_argument("--noise", type=float, default=0.1)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit_p = sub.add_parser("fit", help="fit at fixed parameters")
    fit_p.add_argument("input")
    fit_p.add_argument("--lambda", dest="lam", type=float, required=True)
    fit_p.add_argument("--gamma", type=float, default=1.0)
    fit_p.add_argument("--weights", help="file with one interval weight per line (n + 1 lines)")
    fit_p.add_argument("--corr", help="CSV with stacked W and Ucorr blocks")
    fit_p.add_argument("--grid", type=int, default=200, help="curve sample count")
    fit_p.add_argument("--out", required=True, help="report JSON path")
    fit_p.set_defaults(func=cmd_fit)

    sel = sub.add_parser("select", help="search (lambda, gamma) by cross-validation")
    sel.add_argument("input")
    sel.add_argument("--criterion", choices=("cv", "gcv", "gcv-corr"), default="cv")
    sel.add_argument("--lambda-min", type=float, default=1e-8)
    sel.add_argument("--lambda-max", type=float, default=1e2)
    sel.add_argument("--lambda-steps", type=int, default=15)
    sel.add_argument("--gamma-min", type=float, default=1e-4)
    sel.add_argument("--gamma-max", type=float, default=1e4)
    sel.add_argument("--gamma-steps", type=int, default=13)
    sel.add_argument("--weights")
    sel.add_argument("--corr")
    sel.add_argument("--grid", type=int, default=200)
    sel.add_argument("--out", required=True)
    sel.set_defaults(func=cmd_select)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error while {exc.stage}: {exc}", file=sys.stderr)
        return exc.code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
