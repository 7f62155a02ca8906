"""Independent reference implementations used to pin the library's results.

Everything here is deliberately computed from definitions (adaptive
quadrature of the kernel integrals, the textbook natural smoothing-spline
hat matrix, direct joint-Gaussian conditioning) rather than reusing the
library's closed forms or solve paths.
"""

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, CubicSpline

QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-12, limit=200)


def _interval_quad(func, a, b, kinks):
    pts = sorted(x for x in kinks if a < x < b)
    val, _ = quad(func, a, b, points=pts or None, **QUAD_OPTS)
    return val


def quad_r1(s, t, cfg):
    """Defining integral of the curvature kernel by adaptive quadrature."""
    total = 0.0
    for a, b, w in zip(cfg.breakpoints[:-1], cfg.breakpoints[1:], cfg.weights):
        total += _interval_quad(
            lambda u: max(s - u, 0.0) * max(t - u, 0.0), a, b, (s, t)) / w
    return total


def quad_r1_ds(s, t, cfg):
    total = 0.0
    for a, b, w in zip(cfg.breakpoints[:-1], cfg.breakpoints[1:], cfg.weights):
        total += _interval_quad(
            lambda u: (1.0 if u < s else 0.0) * max(t - u, 0.0), a, b, (s, t)) / w
    return total


def quad_r1_dt(s, t, cfg):
    total = 0.0
    for a, b, w in zip(cfg.breakpoints[:-1], cfg.breakpoints[1:], cfg.weights):
        total += _interval_quad(
            lambda u: max(s - u, 0.0) * (1.0 if u < t else 0.0), a, b, (s, t)) / w
    return total


def quad_r1_dsdt(s, t, cfg):
    total = 0.0
    for a, b, w in zip(cfg.breakpoints[:-1], cfg.breakpoints[1:], cfg.weights):
        total += _interval_quad(
            lambda u: (1.0 if u < s else 0.0) * (1.0 if u < t else 0.0),
            a, b, (s, t)) / w
    return total


def accumulate_by_interval(cfg, upper, antideriv):
    """Sum ``(F(min(upper, hi)) - F(lo)) / w`` one weight interval at a time.

    The direct per-interval loop (O(size(upper) * k)); ``antideriv`` is
    ``F``, and an interval ending exactly at ``upper`` counts in full.
    """
    total = np.zeros(np.shape(upper))
    bp = cfg.breakpoints
    for lo, hi, w in zip(bp[:-1], bp[1:], cfg.weights):
        top = np.minimum(upper, hi)
        live = top > lo
        if not np.any(live):
            break
        total = total + np.where(live, (antideriv(top) - antideriv(lo)) / w, 0.0)
    return total


def loop_kernels(s, t, cfg):
    """All four curvature kernels by :func:`accumulate_by_interval`.

    Returns ``(r1, r1_ds, r1_dt, r1_dsdt)`` at broadcast ``(s, t)``.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    m = np.minimum(s, t)
    st = s * t
    sp = s + t
    return (
        accumulate_by_interval(cfg, m, lambda u: u * (st - 0.5 * sp * u + u * u / 3.0)),
        accumulate_by_interval(cfg, m, lambda u: u * (t - 0.5 * u)),
        accumulate_by_interval(cfg, m, lambda u: u * (s - 0.5 * u)),
        accumulate_by_interval(cfg, m, lambda u: u),
    )


def cubic(coeffs):
    """A cubic polynomial bundle: value, derivative, second derivative."""
    a0, a1, a2, a3 = coeffs

    def f(u):
        return a0 + u * (a1 + u * (a2 + u * a3))

    def df(u):
        return a1 + u * (2 * a2 + 3 * a3 * u)

    def d2f(u):
        return 2 * a2 + 6 * a3 * u

    return f, df, d2f


def inner_product_with_value_section(s, coeffs, cfg):
    """<R_s, f> for the weighted inner product, by quadrature.

    Uses the section's boundary data (R_s(0) = 1, R_s'(0) = s) and its
    second derivative (s - u)_+ / w(u); a correct kernel returns f(s).
    """
    f, df, d2f = cubic(coeffs)
    total = 1.0 * f(0.0) + s * df(0.0)
    for a, b, w in zip(cfg.breakpoints[:-1], cfg.breakpoints[1:], cfg.weights):
        total += w * _interval_quad(
            lambda u: (max(s - u, 0.0) / w) * d2f(u), a, b, (s,))
    return total


def inner_product_with_deriv_section(s, coeffs, cfg):
    """<dR_s/ds, f> by quadrature; a correct kernel returns f'(s).

    The derivative section has boundary data 0 and 1 and second
    derivative Theta(s - u) / w(u).
    """
    f, df, d2f = cubic(coeffs)
    total = 0.0 * f(0.0) + 1.0 * df(0.0)
    for a, b, w in zip(cfg.breakpoints[:-1], cfg.breakpoints[1:], cfg.weights):
        total += w * _interval_quad(
            lambda u: ((1.0 if u < s else 0.0) / w) * d2f(u), a, b, (s,))
    return total


def reference_hat(knots, alpha):
    """Natural cubic smoothing-spline hat matrix (textbook Reinsch form).

    Minimizes sum (y_i - f(t_i))^2 + alpha * integral f''^2 over natural
    cubic splines; fitted values are hat @ y.
    """
    knots = np.asarray(knots, dtype=float)
    n = knots.size
    h = np.diff(knots)
    Q = np.zeros((n, n - 2))
    R = np.zeros((n - 2, n - 2))
    for j in range(1, n - 1):
        jj = j - 1
        Q[j - 1, jj] = 1.0 / h[j - 1]
        Q[j, jj] = -1.0 / h[j - 1] - 1.0 / h[j]
        Q[j + 1, jj] = 1.0 / h[j]
        R[jj, jj] = (h[j - 1] + h[j]) / 3.0
        if jj + 1 < n - 2:
            R[jj, jj + 1] = R[jj + 1, jj] = h[j] / 6.0
    K = Q @ np.linalg.solve(R, Q.T)
    return np.linalg.inv(np.eye(n) + alpha * K)


def reference_smoothing_curve(knots, y, alpha):
    """Classical smoothing-spline curve: natural interpolant of its fit."""
    fitted = reference_hat(knots, alpha) @ np.asarray(y, dtype=float)
    return CubicSpline(knots, fitted, bc_type="natural"), fitted


def hermite_segment_d2(knots, which, index):
    """Second derivative of one cardinal basis function, via scipy.

    ``which`` is "value" or "slope".  Built from CubicHermiteSpline so it
    is independent of the library's stiffness formulas; only valid inside
    the knot range (the true basis is linear outside).
    """
    n = len(knots)
    values = np.zeros(n)
    slopes = np.zeros(n)
    if which == "value":
        values[index] = 1.0
    else:
        slopes[index] = 1.0
    return CubicHermiteSpline(knots, values, slopes).derivative(2)


def quad_penalty_entry(knots, lam_breaks, lam_values, dof_i, dof_j):
    """Quadrature of integral lam(t) Ni'' Nj'' over the knot range."""
    n = len(knots)
    spec_i = ("value", dof_i) if dof_i < n else ("slope", dof_i - n)
    spec_j = ("value", dof_j) if dof_j < n else ("slope", dof_j - n)
    d2i = hermite_segment_d2(knots, *spec_i)
    d2j = hermite_segment_d2(knots, *spec_j)
    total = 0.0
    for lo, hi, lam in zip(lam_breaks[:-1], lam_breaks[1:], lam_values):
        a, b = max(lo, knots[0]), min(hi, knots[-1])
        if b <= a or lam == 0.0:
            continue
        total += lam * _interval_quad(lambda u: d2i(u) * d2j(u), a, b, knots)
    return total


def gp_joint_posterior(t, y, v, t_eval, cfg, beta, rho, lam, gamma):
    """Posterior mean and variance by direct joint-normal conditioning.

    Assembles the full covariance of (y, v, f(t_eval)) from the prior
    covariance pairings and the two noise variances, then conditions; no
    representer algebra involved.
    """
    from vspline.kernels import eval_r1, eval_r1_dsdt, eval_r1_dt

    t = np.asarray(t, dtype=float)
    t_eval = np.asarray(t_eval, dtype=float)
    n = t.size
    sig2 = beta * n * lam
    tau2 = rho * beta

    def pair(a, b, kind):
        A, B = np.meshgrid(b, a)  # A[i,j]=b[j], B[i,j]=a[i]
        if kind == "ff":
            return tau2 * (1.0 + B * A) + beta * np.atleast_2d(eval_r1(B, A, cfg))
        if kind == "fdf":
            return tau2 * B + beta * np.atleast_2d(eval_r1_dt(B, A, cfg))
        return tau2 + beta * np.atleast_2d(eval_r1_dsdt(B, A, cfg))

    Cyy = pair(t, t, "ff") + sig2 * np.eye(n)
    Cyv = pair(t, t, "fdf")
    Cvv = pair(t, t, "dfdf") + (sig2 / gamma) * np.eye(n)
    D = np.block([[Cyy, Cyv], [Cyv.T, Cvv]])
    Kfy = pair(t_eval, t, "ff")
    Kfv = pair(t_eval, t, "fdf")
    Kstar = np.hstack([Kfy, Kfv])
    sol = np.linalg.solve(D, np.concatenate([y, v]))
    mean = Kstar @ sol
    prior_var = tau2 * (1.0 + t_eval**2) + beta * np.array(
        [eval_r1(x, x, cfg) for x in t_eval])
    var = prior_var - np.einsum("ij,ji->i", Kstar, np.linalg.solve(D, Kstar.T))
    return mean, var


def mp_band_inverse_diagonals(ab, digits=40, factored=False):
    """All ``p + 1`` band rows of ``A^-1`` for a symmetric band matrix.

    ``ab`` is the lower band in scipy's layout (row ``r`` holds the r-th
    subdiagonal), and so is the result: ``out[r, j] = A^-1[j + r, j]``,
    zero past the end of each row.  The double-precision entries of ``ab``
    are taken exactly, then factored by banded Cholesky and inverted
    inside the band by the selected-inverse recursion, all in
    ``digits``-digit mpmath arithmetic, so the result is the exact answer
    for that band up to the final rounding to double.  With ``factored``,
    ``ab`` is the band of a Cholesky factor ``L`` instead, taken exactly,
    and the result is the band of ``(L L')^-1``: what an inversion of that
    factor, without the rounding of the factorization, should give.
    """
    import mpmath

    p, size = ab.shape[0] - 1, ab.shape[1]
    with mpmath.workdps(digits):
        band = {(j + r, j): mpmath.mpf(float(ab[r, j]))
                for r in range(p + 1) for j in range(size - r)}
        if factored:
            L = band
        else:
            A, L = band, {}
            for j in range(size):
                first = max(0, j - p)
                L[j, j] = mpmath.sqrt(A[j, j] - mpmath.fsum(L[j, k] ** 2
                                                            for k in range(first, j)))
                for i in range(j + 1, min(size, j + p + 1)):
                    dot = mpmath.fsum(L[i, k] * L[j, k] for k in range(max(0, i - p), j))
                    L[i, j] = (A[i, j] - dot) / L[j, j]
        Z = {}

        def z(i, k):
            return Z[i, k] if i >= k else Z[k, i]

        for j in range(size - 1, -1, -1):
            later = range(j + 1, min(size, j + p + 1))
            for i in later:
                Z[i, j] = -mpmath.fsum(L[k, j] * z(i, k) for k in later) / L[j, j]
            Z[j, j] = (1 / L[j, j] - mpmath.fsum(L[k, j] * Z[k, j] for k in later)) / L[j, j]
        out = np.zeros((p + 1, size))
        for r in range(p + 1):
            out[r, :size - r] = [float(Z[j + r, j]) for j in range(size - r)]
    return out


def mp_objective(t, y, v, theta, lam, gamma, digits=40):
    """The penalized objective of a candidate fit, in ``digits``-digit
    mpmath arithmetic and O(n) operations, times n:

        |y - f|^2 + gamma |v - f'|^2 + n sum_k lam_k h_k (a_k^2 + a_k b_k + b_k^2) / 3

    ``theta`` holds the candidate's values, then slopes, at the knots
    ``t``; ``lam`` is a scalar or the ``n + 1`` interval values of
    :func:`vspline.build_design`, of which only the ``n - 1`` knot
    intervals count, since the candidate is linear outside the knots.
    Between knots the candidate is the cubic Hermite interpolant of
    ``theta``, whose second derivative is linear, so the curvature
    integral over knot interval k is exact from its end curvatures
    ``a_k`` and ``b_k``.  The double inputs are taken exactly.  The
    problem is strictly convex, so of two candidates the one with the
    lower objective is the better fit.  Returns an ``mpmath.mpf``.
    """
    import mpmath

    n = len(t)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n + 1,))
    with mpmath.workdps(digits):
        mp = [[mpmath.mpf(float(x)) for x in a] for a in (t, y, v, theta, lam)]
        t, y, v, theta, lam = mp
        f, df = theta[:n], theta[n:]
        fit = mpmath.fsum((y[i] - f[i]) ** 2 for i in range(n))
        fit += mpmath.mpf(float(gamma)) * mpmath.fsum((v[i] - df[i]) ** 2 for i in range(n))
        curvature = []
        for k in range(n - 1):
            h = t[k + 1] - t[k]
            rise = 6 * (f[k + 1] - f[k]) / h
            a = (rise - 4 * df[k] - 2 * df[k + 1]) / h
            b = (-rise + 2 * df[k] + 4 * df[k + 1]) / h
            curvature.append(lam[k + 1] * h * (a * a + a * b + b * b) / 3)
        return +(fit + n * mpmath.fsum(curvature))
