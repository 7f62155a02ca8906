"""Gaussian-process view of the velocity spline.

The penalized fit equals the posterior mean of a Gaussian process whose
affine component is given an arbitrarily vague prior.  This module
exposes the prior covariances (value and derivative pairings), the
posterior mean at finite vagueness ``rho`` together with its pointwise
variance, and a numeric diagnostic for the two limit identities
connecting them.  The vague limit is the representer solve itself, and
the posterior mean shares it, with ``I/rho`` added to its 2x2 system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_solve

from . import kernels
from .fit import GramSystem, VSplineFit, _lu_checked, _projected_solve, build_gram
from .kernels import KernelConfig

__all__ = [
    "GpPrior",
    "LimitIdentityGaps",
    "PosteriorSummary",
    "limit_identities_check",
    "posterior_mean_finite_rho",
    "prior_cov",
]

_SELECTORS = ("ff", "fdf", "dff", "dfdf")


@dataclass(frozen=True, eq=False)
class GpPrior:
    """Prior scales for the Gaussian-process formulation.

    ``beta`` multiplies the curvature kernel family and equals the noise
    variance divided by ``n * lam``.  ``rho`` is the vagueness ratio of
    the affine component, finite and nonnegative: 0 switches it off, and
    the fully vague limit is the penalized fit (``solve_coefficients``).
    """

    beta: float
    rho: float
    config: KernelConfig

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be positive and finite")
        if not (np.isfinite(self.rho) and self.rho >= 0.0):
            raise ValueError("rho must be nonnegative and finite")


def prior_cov(s, t, which: str, prior: GpPrior):
    """Prior covariance between f or f' at ``s`` and f or f' at ``t``.

    ``which`` selects the pairing: "ff", "fdf" (f at s with f' at t),
    "dff", or "dfdf".  The value is ``beta`` times the matching curvature
    kernel plus ``rho * beta`` times the affine kernel part.
    """
    if which not in _SELECTORS:
        raise ValueError(f"which must be one of {_SELECTORS}")
    cfg = prior.config
    # The base kernel call validates the domain; the affine parts are the
    # matching partial derivatives of 1 + s t.
    if which == "ff":
        base = kernels.eval_r1(s, t, cfg)
        poly = kernels.eval_r0(s, t)
    elif which == "fdf":
        base = kernels.eval_r1_dt(s, t, cfg)
        poly = np.asarray(s, dtype=float)
    elif which == "dff":
        base = kernels.eval_r1_ds(s, t, cfg)
        poly = np.asarray(t, dtype=float)
    else:
        base = kernels.eval_r1_dsdt(s, t, cfg)
        poly = 1.0
    out = prior.beta * (np.asarray(base) + prior.rho * np.asarray(poly))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class PosteriorSummary:
    """Posterior mean of the process fit, evaluable anywhere on [0, 1].

    The mean is stored in the representer form shared with
    :class:`vspline.fit.VSplineFit`; the LU factors of its solve, of ``M``
    and of ``T' M^-1 T + I/rho``, serve :meth:`variance`.
    """

    fit: VSplineFit
    prior: GpPrior
    _gram: GramSystem
    _mlu: tuple
    _cap_lu: tuple

    def mean(self, t):
        return self.fit.evaluate(t)

    def mean_deriv(self, t):
        return self.fit.evaluate_deriv(t)

    def variance(self, t):
        """Pointwise posterior variance of f(t).

        Uses the explicit-basis form (Rasmussen & Williams 2006, eq. 2.42)

            beta [k0(t,t) - k0' M^-1 k0 + r' (T' M^-1 T + I/rho)^-1 r],

        with ``k0`` the curvature-kernel covariances of f(t) with the data
        and ``r = (1, t) - T' M^-1 k0``.  Every term stays bounded as rho
        grows, so no two numbers of size rho are subtracted; all points
        share one solve against each of the stored factors.
        """
        cfg = self.prior.config
        knots = self.fit.knots[:, None]
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        k0 = np.vstack([np.atleast_2d(kernels.eval_r1(knots, tt[None, :], cfg)),
                        np.atleast_2d(kernels.eval_r1_dt(tt[None, :], knots, cfg))])
        mk = lu_solve(self._mlu, k0)
        r = np.vstack([np.ones_like(tt), tt]) - self._gram.T.T @ mk
        out = self.prior.beta * (kernels.eval_r1(tt, tt, cfg) - np.sum(k0 * mk, axis=0)
                                 + np.sum(r * lu_solve(self._cap_lu, r), axis=0))
        return float(out[0]) if np.ndim(t) == 0 else out


def posterior_mean_finite_rho(knots, y, v, prior: GpPrior,
                              lam: float, gamma: float) -> PosteriorSummary:
    """Posterior mean with a finite-vagueness affine prior (``rho > 0``).

    Conditions the joint Gaussian of the observations on the data through
    the scaled covariance ``rho T T' + M`` (all entries divided by
    ``beta``); the mean collapses to the representer form with affine
    coefficients ``rho T' (rho T T' + M)^-1 [y; v]``.  The inverse is
    applied through the rank-two update identity

        (rho T T' + M)^-1 = M^-1 - M^-1 T (T' M^-1 T + I/rho)^-1 T' M^-1,

    which stays accurate for arbitrarily large rho where the directly
    assembled matrix would drown M in roundoff: the representer solve
    with ``I/rho`` added to its 2x2 system.
    """
    if not prior.rho > 0.0:
        raise ValueError("posterior_mean_finite_rho needs a positive rho")
    gram = build_gram(knots, prior.config, lam, gamma)
    fit, mlu, cap_lu = _projected_solve(gram, y, v, 1.0 / prior.rho)
    return PosteriorSummary(fit=fit, prior=prior, _gram=gram, _mlu=mlu, _cap_lu=cap_lu)


@dataclass(frozen=True, eq=False)
class LimitIdentityGaps:
    """Distances to the two vague-limit identities at a given rho.

    ``inverse_gap`` measures ``(rho T T' + M)^-1`` against the projected
    inverse ``M^-1 - M^-1 T (T' M^-1 T)^-1 T' M^-1``; ``coefficient_gap``
    measures ``rho T' (rho T T' + M)^-1`` against
    ``(T' M^-1 T)^-1 T' M^-1``.  Both decay like 1/rho.
    """

    rho: float
    inverse_gap: float
    coefficient_gap: float


def limit_identities_check(T, M, rho: float) -> LimitIdentityGaps:
    """Evaluate both limit identities numerically for general square M.

    ``M`` must be nonsingular (symmetry is not assumed) and ``T`` of full
    column rank; spectral norms of the two discrepancies are returned.
    """
    T = np.asarray(T, dtype=float)
    M = np.asarray(M, dtype=float)
    if T.ndim != 2 or M.shape != (T.shape[0], T.shape[0]):
        raise ValueError("T must be (m, k) and M must be (m, m)")
    if not (np.isfinite(rho) and rho > 0.0):
        raise ValueError("rho must be positive and finite")
    sv = np.linalg.svd(T, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise ValueError("T must have full column rank")
    Minv = lu_solve(_lu_checked(M, "M", hint=None), np.eye(M.shape[0]))
    left = Minv @ T
    right = T.T @ Minv
    mid = np.linalg.inv(T.T @ Minv @ T)
    limit_inverse = Minv - left @ mid @ right
    limit_coeff = mid @ right
    Ginv = np.linalg.inv(rho * (T @ T.T) + M)
    gap1 = np.linalg.norm(Ginv - limit_inverse, 2)
    gap2 = np.linalg.norm(rho * (T.T @ Ginv) - limit_coeff, 2)
    return LimitIdentityGaps(rho=float(rho), inverse_gap=float(gap1),
                             coefficient_gap=float(gap2))
