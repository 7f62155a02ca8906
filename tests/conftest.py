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
