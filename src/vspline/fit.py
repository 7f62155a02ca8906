"""Assembly and solution of the velocity-spline coefficient system.

The fitted curve has the representer form

    f(t) = d1 + d2 t + sum_j c_j R1(t_j, t) + sum_j b_j dR1/ds(t_j, t)

with the curvature kernel ``R1`` from :mod:`vspline.kernels`.  Its
coefficients solve a ridge-regularized linear system whose blocks are the
kernel Gram matrices at the knots; the ridge couples the position penalty
``n * lam`` and the velocity weight ``gamma``.  The same coefficients are
the vague-prior limit of the Gaussian-process posterior mean (see
:mod:`vspline.bayes`), and the fitted values agree with the direct
Hermite-basis regression of :mod:`vspline.hermite`; the test suite checks
all three routes against each other.  The command line reports the
basis fit only; this O(n^3) route is a library function and the
reference the basis fit is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_solve
from scipy.linalg.lapack import dgecon, dgetrf, dlange

from . import kernels
from .errors import SingularSystemError
from .kernels import KernelConfig

__all__ = [
    "DomainScale",
    "GramSystem",
    "VSplineFit",
    "build_gram",
    "check_knots",
    "fit_vspline",
    "fitted_knot_values",
    "objective_value",
    "penalty_quadratic",
    "rescale_domain",
    "solve_coefficients",
    "stationarity_residuals",
]

# An estimated reciprocal 1-norm condition number below this declares the
# system singular (double-precision margin).
_RCOND_FLOOR = 1e-13


def check_knots(t) -> np.ndarray:
    """Validate a knot vector: finite, strictly increasing, inside (0, 1)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim != 1 or t.size < 1:
        raise ValueError("knots must be a one-dimensional, non-empty array")
    if not np.all(np.isfinite(t)):
        raise ValueError("knots must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("knots must be strictly increasing (no duplicate times)")
    if t[0] <= 0.0 or t[-1] >= 1.0:
        raise ValueError("knots must lie strictly inside (0, 1); rescale first")
    return t


def _check_param(name, value, *, positive) -> float:
    """A scalar parameter (``lam``, ``gamma`` or the CLI flag ``name``) as a
    float: finite and positive (``positive``) or nonnegative, else
    ``ValueError`` naming it."""
    value = float(value)
    if not (np.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'} and finite")
    return value


def _check_data(name, x, n):
    """The data channel ``name`` (``y`` or ``v``) as a finite float array of
    shape ``(n,)``, else ``ValueError`` naming it."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


@dataclass(frozen=True, eq=False)
class DomainScale:
    """Affine map between a raw time axis and the (0, 1) fitting interval.

    ``to_unit`` sends the raw range ``[s_min, s_max]`` onto
    ``[margin, 1 - margin]``; ``time_factor`` is d(raw)/d(unit), the factor
    raw velocities are multiplied by so they stay df/dt on the unit axis.
    """

    s_min: float
    s_max: float
    margin: float

    @property
    def time_factor(self) -> float:
        return (self.s_max - self.s_min) / (1.0 - 2.0 * self.margin)

    def to_unit(self, s):
        s = np.asarray(s, dtype=float)
        u = self.margin + (s - self.s_min) * (1.0 - 2.0 * self.margin) / (self.s_max - self.s_min)
        return float(u) if u.ndim == 0 else u

    def from_unit(self, t):
        t = np.asarray(t, dtype=float)
        s = self.s_min + (t - self.margin) * (self.s_max - self.s_min) / (1.0 - 2.0 * self.margin)
        return float(s) if s.ndim == 0 else s


def rescale_domain(s, y, v, margin: float = 0.05):
    """Map raw samples onto (0, 1), scaling velocities consistently.

    Parameters
    ----------
    s, y, v : arrays of equal length >= 2
        Raw times (strictly increasing), positions, velocities.
    margin : float in (0, 0.5)
        Fraction of the unit interval left free at each end, so the first
        and last sample land at ``margin`` and ``1 - margin``.

    Returns
    -------
    (t, y, v_scaled, scale) where ``t`` lies in (0, 1), ``v_scaled`` is the
    derivative of position with respect to the unit axis, and ``scale``
    is the :class:`DomainScale` that undoes the map.  Raw times whose span
    overflows, or that are too close together to stay strictly increasing
    inside (0, 1), and velocities that overflow on the unit axis raise
    ``ValueError``, without a numpy warning.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("need at least 2 samples to rescale")
    if not np.all(np.isfinite(s)):
        raise ValueError("sample times must be finite")
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("sample times must be strictly increasing (no duplicates)")
    if not (0.0 < margin < 0.5):
        raise ValueError("margin must lie in (0, 0.5)")
    y, v = _check_data("y", y, s.size), _check_data("v", v, s.size)
    scale = DomainScale(float(s[0]), float(s[-1]), float(margin))
    if not np.isfinite(scale.time_factor):   # float arithmetic: inf, no warning
        raise ValueError("the span of the sample times overflows")
    t = scale.to_unit(s)
    if np.any(np.diff(t) <= 0.0) or t[0] <= 0.0 or t[-1] >= 1.0:
        raise ValueError("sample times too close together to rescale: on the unit axis "
                         "they must stay strictly increasing inside (0, 1)")
    with np.errstate(over="ignore"):   # checked below
        v_scaled = v * scale.time_factor
    if not np.all(np.isfinite(v_scaled)):
        raise ValueError("velocities overflow on the unit axis")
    return t, y.copy(), v_scaled, scale


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Kernel Gram matrices at the knots plus the assembled blocks.

    ``Q``, ``Qp``, ``P``, ``Pp`` hold the curvature kernel and its partial
    derivatives, indexed ``[i, j] = kernel(knot_j, knot_i)``; ``S`` and
    ``Sp`` are the affine design rows ``[1, t_i]`` and ``[0, 1]``.  ``T``
    stacks ``[S; Sp]`` and ``M`` is the ridge-shifted block matrix
    ``[[Q + n lam I, P], [Qp, Pp + (n lam / gamma) I]]``.
    """

    knots: np.ndarray
    config: KernelConfig
    lam: float
    gamma: float
    S: np.ndarray
    Sp: np.ndarray
    Q: np.ndarray
    Qp: np.ndarray
    P: np.ndarray
    Pp: np.ndarray
    T: np.ndarray
    M: np.ndarray

    @property
    def n(self) -> int:
        return self.knots.size


def build_gram(knots, config: KernelConfig, lam: float, gamma: float) -> GramSystem:
    """Populate the Gram system for the given knots and parameters."""
    knots = check_knots(knots)
    lam = _check_param("lam", lam, positive=True)
    gamma = _check_param("gamma", gamma, positive=True)
    n = knots.size
    s_grid = knots[None, :]
    t_grid = knots[:, None]
    Q = np.atleast_2d(kernels.eval_r1(s_grid, t_grid, config))
    Qp = np.atleast_2d(kernels.eval_r1_dt(s_grid, t_grid, config))
    P = np.atleast_2d(kernels.eval_r1_ds(s_grid, t_grid, config))
    Pp = np.atleast_2d(kernels.eval_r1_dsdt(s_grid, t_grid, config))
    S = np.column_stack([np.ones(n), knots])
    Sp = np.column_stack([np.zeros(n), np.ones(n)])
    T = np.vstack([S, Sp])
    ridge = n * lam
    eye = np.eye(n)
    M = np.block([[Q + ridge * eye, P], [Qp, Pp + (ridge / gamma) * eye]])
    return GramSystem(knots=knots, config=config, lam=lam, gamma=gamma,
                      S=S, Sp=Sp, Q=Q, Qp=Qp, P=P, Pp=Pp, T=T, M=M)


@dataclass(frozen=True, eq=False)
class VSplineFit:
    """Fitted velocity spline: immutable, safe to evaluate concurrently."""

    d: np.ndarray
    c: np.ndarray
    b: np.ndarray
    knots: np.ndarray
    config: KernelConfig
    lam: float
    gamma: float

    def evaluate(self, t):
        """Fitted position at ``t`` in [0, 1] (scalar or array)."""
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        K = np.atleast_2d(kernels.eval_r1(self.knots[:, None], tt[None, :], self.config))
        Kd = np.atleast_2d(kernels.eval_r1_ds(self.knots[:, None], tt[None, :], self.config))
        out = self.d[0] + self.d[1] * tt + self.c @ K + self.b @ Kd
        return float(out[0]) if np.ndim(t) == 0 else out

    def evaluate_deriv(self, t):
        """Fitted velocity (df/dt on the unit axis) at ``t``."""
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        Kt = np.atleast_2d(kernels.eval_r1_dt(self.knots[:, None], tt[None, :], self.config))
        Kst = np.atleast_2d(kernels.eval_r1_dsdt(self.knots[:, None], tt[None, :], self.config))
        out = self.d[1] + self.c @ Kt + self.b @ Kst
        return float(out[0]) if np.ndim(t) == 0 else out


def _lu_checked(A, what: str,
                hint: str | None = "check for coincident knots or a non-positive penalty"):
    """LU factors of ``A`` for ``lu_solve``, refused when ``A`` is singular.

    The reciprocal condition number is LAPACK's 1-norm estimate from the
    factors themselves (``dgecon``), so the check costs O(size) on top of
    the factorization the solve needs anyway.  This is the package's one
    conditioning check; every representer-system solve goes through it.
    ``hint`` ends the error message; the default suits the fitting
    systems, and a caller factoring an arbitrary matrix passes ``None``.
    """
    lu = np.array(A, dtype=float, order="F")  # factored in place below
    anorm = dlange("1", lu)
    lu, piv, info = dgetrf(lu, overwrite_a=True)
    rcond = 0.0
    if info == 0:  # info > 0 flags an exactly zero pivot
        rcond, info = dgecon(lu, anorm, norm="1")
    if info != 0 or not rcond >= _RCOND_FLOOR:
        raise SingularSystemError(
            f"{what} is numerically singular (rcond ~ {rcond:.2e})"
            + (f"; {hint}" if hint else ""))
    return lu, piv


def solve_coefficients(gram: GramSystem, y, v) -> VSplineFit:
    """Solve the representer system for the coefficients (d, c, b).

    Factors the block matrix ``M`` once, forms the 2x2 reduced system for
    the affine part, and back-substitutes:

        d = (T' M^-1 T)^-1 T' M^-1 [y; v]
        [c; b] = (M^-1 - M^-1 T (T' M^-1 T)^-1 T' M^-1) [y; v]

    Requires at least 2 knots so the affine design has full column rank.
    """
    n = gram.n
    if n < 2:
        raise ValueError("need at least 2 knots to determine the affine part")
    y, v = _check_data("y", y, n), _check_data("v", v, n)
    z = np.concatenate([y, v])
    lu = _lu_checked(gram.M, "the kernel block system")
    sol = lu_solve(lu, np.column_stack([gram.T, z]))
    MiT = sol[:, :2]
    Miz = sol[:, 2]
    A2 = gram.T.T @ MiT
    d = lu_solve(_lu_checked(A2, "the reduced affine system"), gram.T.T @ Miz)
    cb = Miz - MiT @ d
    return VSplineFit(d=d, c=cb[:n], b=cb[n:], knots=gram.knots,
                      config=gram.config, lam=gram.lam, gamma=gram.gamma)


def fit_vspline(t, y, v, config: KernelConfig | None = None,
                lam: float = 1e-3, gamma: float = 1.0) -> VSplineFit:
    """Build the Gram system and solve it in one call."""
    if config is None:
        config = KernelConfig.uniform()
    return solve_coefficients(build_gram(t, config, lam, gamma), y, v)


def fitted_knot_values(gram: GramSystem, d, c, b):
    """Fitted positions and velocities at the knots via the Gram blocks."""
    f = gram.S @ d + gram.Q @ c + gram.P @ b
    fp = gram.Sp @ d + gram.Qp @ c + gram.Pp @ b
    return f, fp


def penalty_quadratic(gram: GramSystem, c, b) -> float:
    """Curvature penalty of the fit, ``c'Qc + 2 c'Pb + b'Pp b``."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(c @ gram.Q @ c + 2.0 * (c @ gram.P @ b) + b @ gram.Pp @ b)


def objective_value(gram: GramSystem, d, c, b, y, v) -> float:
    """Penalized objective for arbitrary coefficients.

    Mean squared position residual plus gamma times the mean squared
    velocity residual plus lam times the curvature quadratic form.
    """
    n = gram.n
    y, v = _check_data("y", y, n), _check_data("v", v, n)
    f, fp = fitted_knot_values(gram, np.asarray(d, float), np.asarray(c, float),
                               np.asarray(b, float))
    loss = np.sum((y - f) ** 2) / n + gram.gamma * np.sum((v - fp) ** 2) / n
    return loss + gram.lam * penalty_quadratic(gram, c, b)


def stationarity_residuals(gram: GramSystem, d, c, b, y, v) -> np.ndarray:
    """Relative residuals of the three first-order optimality conditions.

    The gradients of the objective with respect to (d, c, b) are formed
    exactly as derived from the quadratic form (transposes written out, no
    symmetry shortcuts) and normalized by their data-dependent right-hand
    sides.  A correct fit drives all three far below 1e-8.
    """
    n = gram.n
    d = np.asarray(d, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    y, v = _check_data("y", y, n), _check_data("v", v, n)
    gamma = gram.gamma
    ridge = n * gram.lam
    e_y = gram.S @ d + gram.Q @ c + gram.P @ b - y
    e_v = gram.Sp @ d + gram.Qp @ c + gram.Pp @ b - v
    g_d = gram.S.T @ e_y + gamma * (gram.Sp.T @ e_v)
    g_c = gram.Q.T @ e_y + gamma * (gram.Qp.T @ e_v) + ridge * (gram.Q @ c + gram.P @ b)
    g_b = gram.P.T @ e_y + gamma * (gram.Pp.T @ e_v) + ridge * (gram.P.T @ c + gram.Pp @ b)
    rhs_d = gram.S.T @ y + gamma * (gram.Sp.T @ v)
    rhs_c = gram.Q.T @ y + gamma * (gram.Qp.T @ v)
    rhs_b = gram.P.T @ y + gamma * (gram.Pp.T @ v)
    out = []
    for g, rhs in ((g_d, rhs_d), (g_c, rhs_c), (g_b, rhs_b)):
        scale = np.linalg.norm(rhs)
        out.append(np.linalg.norm(g) / (scale if scale > 0.0 else 1.0))
    return np.array(out)
