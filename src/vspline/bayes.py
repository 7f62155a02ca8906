"""Gaussian-process view of the velocity spline.

The penalized fit equals the posterior mean of a Gaussian process whose
affine component is given an arbitrarily vague prior.  This module
exposes the prior covariances (value and derivative pairings), the
posterior mean at finite vagueness ``rho`` together with its pointwise
variance, the vague limit (which reuses the representer solve), and a
numeric diagnostic for the two limit identities connecting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_solve

from . import kernels
from .fit import GramSystem, VSplineFit, _check_data, _lu_checked, build_gram, solve_coefficients
from .kernels import KernelConfig

__all__ = [
    "GpPrior",
    "LimitIdentityGaps",
    "PosteriorSummary",
    "limit_identities_check",
    "posterior_mean_diffuse",
    "posterior_mean_finite_rho",
    "prior_cov",
]

_SELECTORS = ("ff", "fdf", "dff", "dfdf")


@dataclass(frozen=True, eq=False)
class GpPrior:
    """Prior scales for the Gaussian-process formulation.

    ``beta`` multiplies the curvature kernel family and equals the noise
    variance divided by ``n * lam``.  ``rho`` is the vagueness ratio of
    the affine component: 0 switches it off, ``math.inf`` is the fully
    vague prior whose posterior mean is the penalized fit itself.
    """

    beta: float
    rho: float
    config: KernelConfig

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be positive and finite")
        if math.isnan(self.rho) or self.rho < 0.0:
            raise ValueError("rho must be nonnegative (math.inf for the vague prior)")


def prior_cov(s, t, which: str, prior: GpPrior):
    """Prior covariance between f or f' at ``s`` and f or f' at ``t``.

    ``which`` selects the pairing: "ff", "fdf" (f at s with f' at t),
    "dff", or "dfdf".  The value is ``beta`` times the matching curvature
    kernel plus ``rho * beta`` times the affine kernel part; requires a
    finite ``rho``.
    """
    if which not in _SELECTORS:
        raise ValueError(f"which must be one of {_SELECTORS}")
    if math.isinf(prior.rho):
        raise ValueError("the vague prior has no finite pointwise covariance")
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
    :class:`vspline.fit.VSplineFit`.  The finite-rho path also carries the
    factored data covariance, enabling :meth:`variance`; the vague limit
    does not define a finite pointwise variance, so that path raises.
    """

    fit: VSplineFit
    prior: GpPrior
    lam: float
    gamma: float
    _gram: GramSystem | None = None
    _mlu: tuple | None = None
    _cap: np.ndarray | None = None

    def mean(self, t):
        return self.fit.evaluate(t)

    def mean_deriv(self, t):
        return self.fit.evaluate_deriv(t)

    def variance(self, t):
        """Pointwise posterior variance of f(t); finite-rho path only.

        Uses the explicit-basis form (Rasmussen & Williams 2006, eq. 2.42)

            beta [k0(t,t) - k0' M^-1 k0 + r' (T' M^-1 T + I/rho)^-1 r],

        with ``k0`` the curvature-kernel covariances of f(t) with the data
        and ``r = (1, t) - T' M^-1 k0``.  Every term stays bounded as rho
        grows, so no two numbers of size rho are subtracted; all points
        share one solve against the stored factors.
        """
        if self._mlu is None or self._gram is None:
            raise ValueError("posterior variance is only defined for the finite-rho posterior")
        cfg = self.prior.config
        knots = self.fit.knots[:, None]
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        k0 = np.vstack([np.atleast_2d(kernels.eval_r1(knots, tt[None, :], cfg)),
                        np.atleast_2d(kernels.eval_r1_dt(tt[None, :], knots, cfg))])
        mk = lu_solve(self._mlu, k0)
        r = np.vstack([np.ones_like(tt), tt]) - self._gram.T.T @ mk
        out = self.prior.beta * (kernels.eval_r1(tt, tt, cfg) - np.sum(k0 * mk, axis=0)
                                 + np.sum(r * np.linalg.solve(self._cap, r), axis=0))
        return float(out[0]) if np.ndim(t) == 0 else out


def posterior_mean_finite_rho(knots, y, v, prior: GpPrior,
                              lam: float, gamma: float) -> PosteriorSummary:
    """Posterior mean with a finite-vagueness affine prior.

    Conditions the joint Gaussian of the observations on the data through
    the scaled covariance ``rho T T' + M`` (all entries divided by
    ``beta``); the mean collapses to the representer form with affine
    coefficients ``rho T' (rho T T' + M)^-1 [y; v]``.  The inverse is
    applied through the rank-two update identity

        (rho T T' + M)^-1 = M^-1 - M^-1 T (T' M^-1 T + I/rho)^-1 T' M^-1,

    which stays accurate for arbitrarily large rho where the directly
    assembled matrix would drown M in roundoff.
    """
    if not (np.isfinite(prior.rho) and prior.rho > 0.0):
        raise ValueError("posterior_mean_finite_rho needs a finite, positive rho")
    gram = build_gram(knots, prior.config, lam, gamma)
    n = gram.n
    if n < 2:
        raise ValueError("need at least 2 knots")
    y, v = _check_data("y", y, n), _check_data("v", v, n)
    mlu = _lu_checked(gram.M, "the kernel block system")
    sol = lu_solve(mlu, np.column_stack([gram.T, np.concatenate([y, v])]))
    MiT, Miz = sol[:, :2], sol[:, 2]
    cap = gram.T.T @ MiT + np.eye(2) / prior.rho
    d = np.linalg.solve(cap, gram.T.T @ Miz)
    w = Miz - MiT @ d
    fit = VSplineFit(d=d, c=w[:n], b=w[n:], knots=gram.knots,
                     config=gram.config, lam=gram.lam, gamma=gram.gamma)
    return PosteriorSummary(fit=fit, prior=prior, lam=gram.lam, gamma=gram.gamma,
                            _gram=gram, _mlu=mlu, _cap=cap)


def posterior_mean_diffuse(knots, y, v, beta: float, lam: float, gamma: float,
                           config: KernelConfig) -> PosteriorSummary:
    """Vague-limit posterior mean; identical to the representer solve."""
    prior = GpPrior(beta=beta, rho=math.inf, config=config)
    fit = solve_coefficients(build_gram(knots, config, lam, gamma), y, v)
    return PosteriorSummary(fit=fit, prior=prior, lam=float(lam), gamma=float(gamma))


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
