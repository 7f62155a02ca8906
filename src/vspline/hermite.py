"""Direct penalized regression in a cardinal piecewise-cubic basis.

The fit is parameterized by its values and first derivatives at the knots
(2n degrees of freedom): basis function ``i < n`` is 1 at knot ``i`` with
zero slope there and vanishes with zero slope at every other knot; basis
function ``n + i`` has unit slope at knot ``i`` and is zero elsewhere.
Between knots the functions are the classical cubic Hermite blends;
outside the first and last knot they continue linearly, so the curvature
penalty sees only the interior and fitted curves have linear tails, which
is exactly the shape of the penalized minimizer.

Cardinality makes the value and derivative design matrices identity
blocks, so they are never formed, and one factorization of the normal
matrix yields the coefficients and the hat matrices (plain sub-blocks of
its inverse): the cross-validation identities of :mod:`vspline.gcv` come cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import SingularSystemError
from .fit import check_knots

__all__ = [
    "DesignMatrices",
    "HatMatrices",
    "HermiteBasis",
    "build_design",
    "fit_theta",
    "hat_matrices",
    "penalty_gram",
]


@dataclass(frozen=True, eq=False)
class HermiteBasis:
    """Cardinal value/slope basis on a strictly increasing knot vector."""

    knots: np.ndarray

    def __post_init__(self):
        knots = check_knots(self.knots)
        if knots.size < 2:
            raise ValueError("need at least 2 knots")
        knots = knots.copy()
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)

    @property
    def n(self) -> int:
        return self.knots.size

    def _pieces(self, t):
        """Interval index, local coordinate, and length for each t."""
        k = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, self.n - 2)
        h = self.knots[k + 1] - self.knots[k]
        x = (t - self.knots[k]) / h
        return k, x, h

    def evaluate(self, theta, t):
        """Value of the combination ``theta`` at ``t`` in [0, 1]."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (2 * self.n,):
            raise ValueError(f"theta must have shape ({2 * self.n},)")
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(tt < 0.0) or np.any(tt > 1.0) or not np.all(np.isfinite(tt)):
            raise ValueError("evaluation points must lie in [0, 1]")
        vals, slopes = theta[:self.n], theta[self.n:]
        k, x, h = self._pieces(tt)
        cubic = (vals[k] * (2 * x**3 - 3 * x**2 + 1)
                 + slopes[k] * h * (x**3 - 2 * x**2 + x)
                 + vals[k + 1] * (-2 * x**3 + 3 * x**2)
                 + slopes[k + 1] * h * (x**3 - x**2))
        left = vals[0] + slopes[0] * (tt - self.knots[0])
        right = vals[-1] + slopes[-1] * (tt - self.knots[-1])
        out = np.where(tt < self.knots[0], left,
                       np.where(tt > self.knots[-1], right, cubic))
        return float(out[0]) if np.ndim(t) == 0 else out

    def evaluate_deriv(self, theta, t):
        """First derivative of the combination ``theta`` at ``t``."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (2 * self.n,):
            raise ValueError(f"theta must have shape ({2 * self.n},)")
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(tt < 0.0) or np.any(tt > 1.0) or not np.all(np.isfinite(tt)):
            raise ValueError("evaluation points must lie in [0, 1]")
        vals, slopes = theta[:self.n], theta[self.n:]
        k, x, h = self._pieces(tt)
        cubic = (vals[k] * (6 * x**2 - 6 * x) / h
                 + slopes[k] * (3 * x**2 - 4 * x + 1)
                 + vals[k + 1] * (6 * x - 6 * x**2) / h
                 + slopes[k + 1] * (3 * x**2 - 2 * x))
        out = np.where(tt < self.knots[0], slopes[0],
                       np.where(tt > self.knots[-1], slopes[-1], cubic))
        return float(out[0]) if np.ndim(t) == 0 else out


def penalty_gram(basis: HermiteBasis, lam_breakpoints, lam_values) -> np.ndarray:
    """Exact penalty Gram matrix: integral of lam(t) Ni''(t) Nj''(t).

    ``lam(t)`` is piecewise constant on ``lam_breakpoints`` (which must
    cover [0, 1]) with values ``lam_values``.  The knot range is cut at
    the knots and at the interior breakpoints; on each piece lam is
    constant and the basis second derivatives are linear, so a two-point
    Gauss rule per piece integrates the products exactly.  All pieces are
    evaluated at once and their 4x4 blocks scattered into the matrix.
    Intervals outside the knot range contribute nothing because the basis
    is linear there.
    """
    breaks = np.asarray(lam_breakpoints, dtype=float)
    values = np.asarray(lam_values, dtype=float)
    if breaks.ndim != 1 or values.ndim != 1 or breaks.size != values.size + 1:
        raise ValueError("need k + 1 breakpoints for k penalty values")
    if breaks[0] > 0.0 or breaks[-1] < 1.0 or np.any(np.diff(breaks) <= 0.0):
        raise ValueError("penalty breakpoints must be increasing and cover [0, 1]")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("penalty values must be finite and nonnegative")
    n = basis.n
    knots = basis.knots
    cuts = np.union1d(knots, breaks[(breaks > knots[0]) & (breaks < knots[-1])])
    lo, hi = cuts[:-1], cuts[1:]
    mid = 0.5 * (lo + hi)
    k = np.searchsorted(knots, mid) - 1
    lam = values[np.searchsorted(breaks, mid) - 1]
    a = knots[k]
    h = knots[k + 1] - a
    gauss_off = 0.5 / np.sqrt(3.0)
    blocks = np.zeros((k.size, 4, 4))
    for sign in (-1.0, 1.0):
        x = ((mid + sign * gauss_off * (hi - lo)) - a) / h
        d2 = np.stack([(12 * x - 6) / h**2,
                       (6 * x - 4) / h,
                       (6 - 12 * x) / h**2,
                       (6 * x - 2) / h], axis=1)
        blocks += (d2[:, :, None] * d2[:, None, :]) * (lam * 0.5 * (hi - lo))[:, None, None]
    dofs = np.stack([k, n + k, k + 1, n + k + 1], axis=1)
    omega = np.zeros((2 * n, 2 * n))
    np.add.at(omega, (dofs[:, :, None], dofs[:, None, :]), blocks)
    return omega


@dataclass(frozen=True, eq=False)
class DesignMatrices:
    """The basis and penalty Gram matrix of one basis fit.

    The design matrices ``B = [I | 0]`` and ``C = [0 | I]`` (values, then
    slopes) are implied by cardinality and never formed.
    """

    basis: HermiteBasis
    omega: np.ndarray
    lam_breakpoints: np.ndarray
    lam_values: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.n


def build_design(knots, lam, lam_breakpoints=None) -> DesignMatrices:
    """Basis and penalty matrix for the basis fit.

    ``lam`` is either a scalar (constant penalty) or ``n + 1`` values on
    the partition ``[0, t1], [t1, t2], ..., [tn, 1]`` induced by the
    knots.  Passing ``lam_breakpoints`` overrides that partition with an
    arbitrary grid covering [0, 1], in which case ``lam`` must hold one
    value per grid interval.
    """
    basis = HermiteBasis(knots)
    n = basis.n
    if lam_breakpoints is None:
        breaks = np.concatenate([[0.0], basis.knots, [1.0]])
        if np.ndim(lam) == 0:
            values = np.full(n + 1, float(lam))
        else:
            values = np.asarray(lam, dtype=float)
            if values.shape != (n + 1,):
                raise ValueError(f"lam must be scalar or have {n + 1} interval values")
    else:
        breaks = np.asarray(lam_breakpoints, dtype=float)
        values = np.asarray(lam, dtype=float)
    omega = penalty_gram(basis, breaks, values)
    return DesignMatrices(basis=basis, omega=omega,
                          lam_breakpoints=breaks, lam_values=values)


def _factor_normal(design: DesignMatrices, gamma, y=None, v=None, W=None, Ucorr=None):
    """Cholesky factor of ``A = blockdiag(W, gamma Ucorr) + n omega`` and,
    given data, the right-hand side ``[W y; gamma Ucorr v]``.

    The only assembly and factorization of ``A`` and the only argument
    checks of the fits and hats below.  ``W``/``Ucorr`` default to the
    identity, which is added on the diagonal rather than multiplied in.
    """
    n = design.n
    gamma = float(gamma)
    if gamma < 0.0 or not np.isfinite(gamma):
        raise ValueError("gamma must be a finite, nonnegative number")
    for name, mat in (("W", W), ("Ucorr", Ucorr)):
        if mat is not None and np.shape(mat) != (n, n):
            raise ValueError(f"{name} must be an ({n}, {n}) matrix")
    if y is not None:
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        if y.shape != (n,) or v.shape != (n,):
            raise ValueError(f"y and v must have shape ({n},)")
    A = n * design.omega
    diag = np.diag_indices(n)
    if W is None:
        A[:n, :n][diag] += 1.0
    else:
        A[:n, :n] += W
    if Ucorr is None:
        A[n:, n:][diag] += gamma
    else:
        A[n:, n:] += gamma * Ucorr
    try:
        cho = cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"penalized normal equations not positive definite: {exc}")
    if y is None:
        return cho, None
    return cho, np.concatenate([y if W is None else W @ y,
                                gamma * (v if Ucorr is None else Ucorr @ v)])


def fit_theta(design: DesignMatrices, y, v, gamma, W=None, Ucorr=None) -> np.ndarray:
    """Penalized least-squares coefficients for the basis fit.

    Minimizes the W-weighted position residual plus gamma times the
    Ucorr-weighted velocity residual (both divided by the sample count)
    plus the curvature penalty ``theta' omega theta``.  ``W``/``Ucorr``
    default to identity (uncorrelated errors); zeroing a sample's weights
    leaves it out while keeping the objective's normalization.
    """
    cho, rhs = _factor_normal(design, gamma, y, v, W, Ucorr)
    return cho_solve(cho, rhs)


@dataclass(frozen=True, eq=False)
class HatMatrices:
    """The four n-by-n blocks mapping data to fitted values.

    Fitted positions are ``S y + gamma T v`` and fitted derivatives are
    ``U y + gamma V v``.  (These are hat blocks; do not confuse them with
    the error-correlation matrices, which this package calls ``W`` and
    ``Ucorr`` everywhere.)
    """

    S: np.ndarray
    T: np.ndarray
    U: np.ndarray
    V: np.ndarray


def _hat_blocks(Ainv, W=None, Ucorr=None) -> HatMatrices:
    """Hat blocks from ``A^-1``: its sub-blocks times the error weights."""
    n = Ainv.shape[0] // 2
    S, T, U, V = Ainv[:n, :n], Ainv[:n, n:], Ainv[n:, :n], Ainv[n:, n:]
    if W is not None:
        S, U = S @ W, U @ W
    if Ucorr is not None:
        T, V = T @ Ucorr, V @ Ucorr
    return HatMatrices(S=S, T=T, U=U, V=V)


def _fit_and_hats(design: DesignMatrices, y, v, gamma, W=None, Ucorr=None):
    """Coefficients and hat blocks from one ``cho_solve`` on ``[rhs | I]``
    (a direct solve for the coefficients, never ``A^-1`` times the data)."""
    cho, rhs = _factor_normal(design, gamma, y, v, W, Ucorr)
    sol = cho_solve(cho, np.column_stack([rhs, np.eye(rhs.size)]))
    return sol[:, 0], _hat_blocks(sol[:, 1:], W, Ucorr)


def hat_matrices(design: DesignMatrices, gamma) -> HatMatrices:
    """Hat blocks for the uncorrelated fit at the design's penalty."""
    cho, _ = _factor_normal(design, gamma)
    return _hat_blocks(cho_solve(cho, np.eye(2 * design.n)))


def hat_matrices_correlated(design: DesignMatrices, gamma, W, Ucorr) -> HatMatrices:
    """Hat blocks of the correlated-error fit: ``f = S y + gamma T v``.

    Same structure as :func:`hat_matrices` with the precision matrices
    inserted, so the blocks are no longer symmetric.
    """
    cho, _ = _factor_normal(design, gamma, W=W, Ucorr=Ucorr)
    return _hat_blocks(cho_solve(cho, np.eye(2 * design.n)), W, Ucorr)
