"""Closed-form reproducing kernels on the unit interval.

The kernel behind the velocity-spline inner product splits into a
polynomial part ``1 + s*t`` and a curvature part built from integrals of
clipped ramps, ``(s - u)_+ (t - u)_+``.  Two inner products are supported:
the uniform one, and one whose curvature term is weighted interval by
interval, in which case every interval contributes its clipped integral
divided by the interval weight.

Because the integrands are quadratics restricted to ``u < min(s, t)``, all
four kernels needed by the fitting routines (the value kernel and its
partial derivatives in either argument) have exact piecewise-polynomial
closed forms.  The test suite pins each one against adaptive quadrature of
the defining integral.

Each antiderivative is a polynomial in the integration variable, so the
sum over whole weight intervals is a dot product with prefix sums of the
interval powers; only the one interval cut by ``min(s, t)`` is computed
per entry.  An ``n``-by-``m`` kernel matrix on ``k`` weight intervals
therefore costs O(n*m + k), whatever the number of intervals.

Evaluation points outside ``[0, 1]`` are rejected, not clamped; callers
rescale their time axis first (:func:`vspline.fit.rescale_domain`).  The
``eval_*`` kernels serve the representer and the posterior, and are
imported from here; only :class:`KernelConfig` is at the top level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelConfig",
    "eval_r0",
    "eval_r1",
    "eval_r1_ds",
    "eval_r1_dt",
    "eval_r1_dsdt",
]


@dataclass(frozen=True, eq=False)
class KernelConfig:
    """Weight structure of the curvature inner product on ``[0, 1]``.

    Parameters
    ----------
    breakpoints : array, shape (k + 1,)
        Interval edges, strictly increasing, starting at exactly 0.0 and
        ending at exactly 1.0.
    weights : array, shape (k,)
        Strictly positive weight for each interval.

    The kernels take any grid; the basis route and the scores need a
    profile constant on each knot interval (:func:`vspline.gcv._design_for`).
    """

    breakpoints: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float, copy=True)
        w = np.array(self.weights, dtype=float, copy=True)
        if bp.ndim != 1 or w.ndim != 1 or bp.size != w.size + 1:
            raise ValueError("need k + 1 breakpoints for k interval weights")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not np.all(np.isfinite(bp)) or np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("interval weights must be strictly positive")
        bp.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls) -> "KernelConfig":
        """The unweighted inner product (a single unit-weight interval)."""
        return cls(np.array([0.0, 1.0]), np.array([1.0]))

    @classmethod
    def piecewise(cls, breakpoints, weights) -> "KernelConfig":
        """Interval-weighted inner product on the given breakpoint grid."""
        return cls(np.asarray(breakpoints, dtype=float),
                   np.asarray(weights, dtype=float))


def _unit_args(*vals):
    out = []
    for x in vals:
        a = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(a)) or np.any(a < 0.0) or np.any(a > 1.0):
            raise ValueError("kernel arguments must be finite and lie in [0, 1]")
        out.append(a)
    return out


def _maybe_scalar(a):
    return float(a) if np.ndim(a) == 0 else a


def _accumulate(cfg: KernelConfig, upper, coeffs):
    """Sum ``(F(min(upper, hi)) - F(lo)) / w`` over the weight intervals.

    ``F(u) = sum_p coeffs[p - 1] * u**p`` (p = 1, 2, ...) is an
    antiderivative of the (already clipped) integrand; the coefficients
    may be arrays broadcasting against ``upper``.  Intervals entirely
    above ``upper`` contribute nothing, and one ending exactly at
    ``upper`` contributes in full (right-continuous convention).

    Whole intervals below ``upper`` come from prefix sums of
    ``(hi**p - lo**p) / w``; the single partial interval holding
    ``upper`` is found by ``searchsorted``.  For an ``n``-by-``m``
    ``upper`` on ``k`` intervals that costs O(n*m + k).  Works for scalar
    or broadcast array ``upper``.
    """
    bp = cfg.breakpoints
    w = cfg.weights
    upper = np.asarray(upper, dtype=float)
    # index of the interval [lo, hi) holding each upper; 1.0 falls in the last
    idx = np.searchsorted(bp[1:-1], upper, side="right")
    w_at = w[idx]
    power = np.ones(upper.shape)
    term = np.empty(upper.shape)
    total = np.zeros(upper.shape)
    for p, coeff in enumerate(coeffs, start=1):
        edges = bp**p
        whole = np.concatenate(([0.0], np.cumsum(np.diff(edges) / w)))
        power *= upper
        np.subtract(power, edges[idx], out=term)
        term /= w_at
        term += whole[idx]
        term *= coeff
        total += term
    return total


def eval_r0(s, t):
    """Polynomial kernel part, ``1 + s t``."""
    s, t = _unit_args(s, t)
    return _maybe_scalar(1.0 + s * t)


def eval_r1(s, t, cfg: KernelConfig):
    """Curvature kernel: the weighted integral of ``(s - u)_+ (t - u)_+``.

    The integrand equals ``s t - (s + t) u + u^2`` on ``u < min(s, t)`` and
    vanishes beyond, so each weight interval contributes a cubic
    antiderivative difference on its clipped range.
    """
    s, t = _unit_args(s, t)
    return _maybe_scalar(_accumulate(cfg, np.minimum(s, t),
                                     (s * t, -0.5 * (s + t), 1.0 / 3.0)))


def eval_r1_dt(s, t, cfg: KernelConfig):
    """Partial derivative of :func:`eval_r1` in its second argument.

    Equals the weighted integral of ``(s - u)_+`` below ``min(s, t)``.  The
    polynomial kernel's own contribution (the constant ``s``) is excluded;
    callers that need the full derivative kernel add it explicitly.
    """
    s, t = _unit_args(s, t)
    return _maybe_scalar(_accumulate(cfg, np.minimum(s, t), (s, -0.5)))


def eval_r1_ds(s, t, cfg: KernelConfig):
    """Partial derivative of :func:`eval_r1` in its first argument.

    Equals the weighted integral of ``(t - u)_+`` below ``min(s, t)``; the
    polynomial part's contribution (the constant ``t``) is excluded.
    Mirror image of :func:`eval_r1_dt`: ``eval_r1_ds(s, t) ==
    eval_r1_dt(t, s)``.
    """
    s, t = _unit_args(s, t)
    return _maybe_scalar(_accumulate(cfg, np.minimum(s, t), (t, -0.5)))


def eval_r1_dsdt(s, t, cfg: KernelConfig):
    """Mixed second partial of :func:`eval_r1`.

    The integrand collapses to an indicator, so the uniform value is
    ``min(s, t)`` and the weighted value is the total clipped interval
    length, each interval divided by its weight.  Zero-length overlaps use
    the right-continuous convention (indicator is 1 at the step), which
    makes the diagonal ``min(s, s)`` exact.
    """
    s, t = _unit_args(s, t)
    return _maybe_scalar(_accumulate(cfg, np.minimum(s, t), (1.0,)))
