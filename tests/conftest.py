"""Shared random-instance generators for the test suite."""

import numpy as np

from vspline import KernelConfig


def random_config(rng, knots=None, uniform=False):
    """A kernel config: uniform, or weighted on a random or knot grid."""
    if uniform:
        return KernelConfig.uniform()
    if knots is None:
        k = int(rng.integers(1, 6))
        inner = np.sort(rng.uniform(0.05, 0.95, k))
        breakpoints = np.concatenate([[0.0], inner, [1.0]])
    else:
        breakpoints = np.concatenate([[0.0], np.asarray(knots), [1.0]])
    weights = rng.uniform(0.3, 3.0, breakpoints.size - 1)
    return KernelConfig.piecewise(breakpoints, weights)


def random_knots(rng, n, lo=0.05, hi=0.95, min_gap=None):
    """Strictly increasing knots in (0, 1) with a minimum spacing."""
    if min_gap is None:
        min_gap = 0.3 * (hi - lo) / n
    while True:
        t = np.sort(rng.uniform(lo, hi, n))
        if t.size < 2 or np.diff(t).min() > min_gap:
            return t


def jittered_knots(rng, n, lo=0.05, hi=0.95):
    """A uniform knot grid on [lo, hi], interior knots moved by up to 0.3 spacings.

    Gaps stay above 0.4 spacings for any n, in one draw.
    """
    t = np.linspace(lo, hi, n)
    t[1:-1] += rng.uniform(-0.3, 0.3, n - 2) * (hi - lo) / (n - 1)
    return t


def ar1_precision(n, phi):
    """Precision matrix of a unit-variance AR(1) sequence: tridiagonal SPD."""
    P = np.diag(np.full(n, 1.0 + phi * phi))
    P[0, 0] = P[-1, -1] = 1.0
    i = np.arange(n - 1)
    P[i + 1, i] = P[i, i + 1] = -phi
    return P / (1.0 - phi * phi)


def random_tridiagonal_spd(rng, n):
    """An AR(1) precision with random phi, rescaled by a random positive diagonal."""
    d = np.sqrt(rng.uniform(0.3, 3.0, n))
    M = d[:, None] * ar1_precision(n, rng.uniform(-0.9, 0.9)) * d[None, :]
    return (M + M.T) / 2   # the products above round differently across the diagonal


def random_instance(rng, n_range=(4, 16), lam_range=(1e-3, 1.0),
                    gamma_range=(0.05, 20.0), weighted=None):
    """A random fitting problem: smooth signal plus noise at random knots."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    t = random_knots(rng, n)
    freq = rng.uniform(0.5, 2.0)
    amp = rng.uniform(0.5, 2.0)
    y = amp * np.sin(2 * np.pi * freq * t) + 0.15 * rng.standard_normal(n)
    v = amp * 2 * np.pi * freq * np.cos(2 * np.pi * freq * t) \
        + 0.15 * rng.standard_normal(n)
    lam = float(np.exp(rng.uniform(np.log(lam_range[0]), np.log(lam_range[1]))))
    gamma = float(np.exp(rng.uniform(np.log(gamma_range[0]), np.log(gamma_range[1]))))
    if weighted is None:
        weighted = bool(rng.integers(0, 2))
    cfg = random_config(rng, knots=t) if weighted else KernelConfig.uniform()
    return t, y, v, cfg, lam, gamma


def mixed_failure_problems(rng):
    """Problems on which one stack mixes fine points with points that fail.

    Each is ``(t, y, v, cfg, (W, Ucorr), fine, failures)``: ``fine`` the
    log10 boxes ``((lam_lo, lam_hi), (gamma_lo, gamma_hi))`` of points that
    fit, ``failures`` the failing points as ``(lam, gamma, message)``.  The
    4-row y = 1e308 data of the command-line tests (with velocities 1e300)
    and a random weighted instance near the overflow threshold, with AR(1)
    precisions, fail in all four ways: a system that is not positive
    definite (no penalty, no velocity weight), a band that overflowed, a
    right-hand side that overflowed (gamma Ucorr v) and a finite system
    whose solution overflows.  A random instance of ordinary size fails in
    the first three ways, and its fine points have finite scores.  The two
    random instances come again with a ``W`` wider than tridiagonal, which
    takes the dense route, where an overflowed system is a non-finite
    "matrix".
    """
    from vspline.fit import rescale_domain
    pd, band = (0.0, 0.0, "not positive definite"), (1e305, 1.0, "non-finite band")
    near = [pd, band, (1e-8, 1e10, "non-finite right-hand side"),
            (0.1, 1.0, "non-finite solution")]
    t, y, v, _ = rescale_domain(np.arange(4.0), np.full(4, 1e308), np.full(4, 1e300),
                                margin=0.05)
    problems = [(t, y, v, KernelConfig.uniform(), (None, None), ((-9, -6), (-4, -2)), near)]
    t, y, v, cfg, _, _ = random_instance(rng, n_range=(20, 30), weighted=True)
    mats = ar1_precision(t.size, 0.5), ar1_precision(t.size, -0.3)
    problems.append((t, y / np.abs(y).max() * 1e306, v / np.abs(v).max() * 1e300, cfg, mats,
                     ((-9, -6), (-4, -2)), near))
    t, y, v, cfg, _, _ = random_instance(rng, n_range=(20, 30), weighted=True)
    mats = ar1_precision(t.size, 0.4), ar1_precision(t.size, 0.2)
    rhs = (1e-3, 1e308 / np.abs(v).max(), "non-finite right-hand side")
    problems.append((t, y, 100.0 * v, cfg, mats, ((-6, -1), (-2, 2)), [pd, band, rhs]))
    for t, y, v, cfg, (_, Ucorr), fine, failures in problems[1:]:
        i = np.arange(t.size)
        wide = 0.4 ** np.abs(i[:, None] - i[None, :])
        failures = [(lam, gamma, "non-finite matrix" if (lam, gamma) == band[:2] else message)
                    for lam, gamma, message in failures]
        problems.append((t, y, v, cfg, (wide, Ucorr), fine, failures))
    return problems


def mixed_chunk(rng, fine, failures, first, count=65):
    """``count`` points drawn log-uniformly from the ``fine`` boxes, with
    ``failures`` (as above) in a row from position ``first``."""
    (lam_lo, lam_hi), (gamma_lo, gamma_hi) = fine
    lams = 10.0 ** rng.uniform(lam_lo, lam_hi, count)
    gammas = 10.0 ** rng.uniform(gamma_lo, gamma_hi, count)
    for i, (lam, gamma, _) in enumerate(failures):
        lams[first + i], gammas[first + i] = lam, gamma
    return lams, gammas
