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
blocks, so they are never formed, and the hat matrices are plain
sub-blocks of the inverse normal matrix ``A``.  With the unknowns
interleaved as (value_0, slope_0, value_1, ...) each knot interval couples
four consecutive unknowns, so ``A`` has bandwidth 3.

One engine, :func:`_fit_stack`, runs every basis fit: :func:`fit_theta`,
the command-line report, and each score and parameter search of
:mod:`vspline.gcv`.  It fits a stack of (lam, gamma) points (a single fit
is a stack of one) and returns their values, slopes, hat diagonals or
traces if asked, and per-point errors.  The route is decided once per
problem, by :class:`_ErrorWeights` from the bandwidth of the error
weights ``W``/``Ucorr``; absent weights are the identity, an ordinary
diagonal band.  At most tridiagonal (none, diagonal weights, or AR(1)
precisions), they keep the bandwidth of ``A``: the stack is assembled as
one block-diagonal band, which one banded Cholesky factorization and one
banded solve cover, and the hat diagonals and traces come from the band
of ``A^-1``, which the selected-inverse recursion gives as the solution
of one banded triangular system for the whole stack; the traces are one
product of that band with a fixed matrix.  So a stack costs three
LAPACK/BLAS calls and a few array operations, whatever its size: O(n)
time and memory per point, no 2n-by-2n matrix.  The caller bounds the
size of a stack (:class:`vspline.gcv._Scorer`).  Wider ``W``/``Ucorr``
fill ``A`` in and take the dense route, one point at a time.  A stack
that meets any failure is refitted point by point, so each point gets
its own result or error.  The full hat blocks of
:func:`hat_matrices` and :func:`hat_matrices_correlated` stay dense, as
the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import SingularSystemError
from .fit import _check_data, _check_param, check_knots

__all__ = [
    "DesignMatrices",
    "HatMatrices",
    "HermiteBasis",
    "build_design",
    "fit_theta",
    "hat_matrices",
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

    def _locate(self, theta, t):
        """Checked ``theta`` and points, the knot values and slopes, and the
        interval index, local coordinate and length of each point."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (2 * self.n,):
            raise ValueError(f"theta must have shape ({2 * self.n},)")
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(tt < 0.0) or np.any(tt > 1.0) or not np.all(np.isfinite(tt)):
            raise ValueError("evaluation points must lie in [0, 1]")
        k = np.clip(np.searchsorted(self.knots, tt, side="right") - 1, 0, self.n - 2)
        h = self.knots[k + 1] - self.knots[k]
        return tt, theta[:self.n], theta[self.n:], k, (tt - self.knots[k]) / h, h

    def evaluate(self, theta, t):
        """Value of the combination ``theta`` at ``t`` in [0, 1].

        O(log n) per point: each point finds its knot interval by bisection.
        """
        tt, vals, slopes, k, x, h = self._locate(theta, t)
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
        tt, vals, slopes, k, x, h = self._locate(theta, t)
        cubic = (vals[k] * (6 * x**2 - 6 * x) / h
                 + slopes[k] * (3 * x**2 - 4 * x + 1)
                 + vals[k + 1] * (6 * x - 6 * x**2) / h
                 + slopes[k + 1] * (3 * x**2 - 2 * x))
        out = np.where(tt < self.knots[0], slopes[0],
                       np.where(tt > self.knots[-1], slopes[-1], cubic))
        return float(out[0]) if np.ndim(t) == 0 else out


def _penalty_band(basis: HermiteBasis, values) -> np.ndarray:
    """Exact penalty Gram, integral of lam(t) Ni''(t) Nj''(t), as a band.

    ``lam(t)`` is ``values[k]`` on the k-th interval of ``[0, t1], [t1, t2],
    ..., [tn, 1]``.  On each knot interval lam is constant and the basis
    second derivatives are linear, so a two-point Gauss rule per interval
    integrates the products exactly; each of the ten lower entries of the
    4x4 blocks is added into the band for all intervals at once.  The
    outer intervals contribute nothing: the basis is linear there.

    With the unknowns interleaved as (value_0, slope_0, value_1, ...) the
    Gram has bandwidth 3; row ``r`` of the returned (4, 2n) array holds its
    r-th subdiagonal, ``band[r, j] = omega[j + r, j]`` (scipy's lower
    banded layout, zero past the end of each row).
    """
    lo, hi = basis.knots[:-1], basis.knots[1:]
    h, mid = hi - lo, 0.5 * (lo + hi)
    gauss_off = 0.5 / np.sqrt(3.0)
    blocks = np.zeros((lo.size, 4, 4))
    band = np.zeros((4, 2 * basis.n))
    # a lam so large that the band overflows leaves non-finite entries,
    # which every factorization below rejects as a SingularSystemError
    with np.errstate(over="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            x = ((mid + sign * gauss_off * h) - lo) / h
            d2 = np.stack([(12 * x - 6) / h**2,
                           (6 * x - 4) / h,
                           (6 - 12 * x) / h**2,
                           (6 * x - 2) / h], axis=1)
            blocks += (d2[:, :, None] * d2[:, None, :]) * (values[1:-1] * 0.5 * h)[:, None, None]
        # knot interval k couples the unknowns 2k .. 2k + 3: its entry (row, col)
        # lands on band[row - col, 2k + col], which sums at most two intervals' terms
        for row, col in zip(*np.tril_indices(4)):
            band[row - col, col:col + 2 * lo.size:2] += blocks[:, row, col]
    return band


def _dense_from_band(band) -> np.ndarray:
    """The symmetric matrix of a lower band, reordered to values, then slopes."""
    size = band.shape[1]
    j = np.arange(size)
    pos = j // 2 + (size // 2) * (j % 2)
    out = np.zeros((size, size))
    for r in range(band.shape[0]):
        lower, upper = pos[r:], pos[:size - r]
        out[lower, upper] = out[upper, lower] = band[r, :size - r]
    return out


@dataclass(frozen=True, eq=False)
class DesignMatrices:
    """The basis and penalty of one basis fit: nothing else is stored.

    ``band`` is the penalty Gram, for a lam constant on each knot interval,
    in the banded, interleaved layout of :func:`_penalty_band` (4 by 2n);
    ``omega`` expands it on each access to the dense (2n, 2n) matrix,
    values then slopes, for inspection.  The design matrices ``B = [I | 0]``
    and ``C = [0 | I]`` are implied by cardinality and never formed.
    """

    basis: HermiteBasis
    band: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def omega(self) -> np.ndarray:
        return _dense_from_band(self.band)


def build_design(knots, lam) -> DesignMatrices:
    """Basis and penalty matrix for the basis fit.

    ``lam`` is either a scalar (constant penalty) or ``n + 1`` finite,
    nonnegative values, one per interval of the partition
    ``[0, t1], [t1, t2], ..., [tn, 1]`` induced by the knots.  The basis
    is one cubic per knot interval, so it represents the minimizer for
    exactly these penalties; :func:`vspline.gcv._design_for` rejects a
    config whose weight changes inside a knot interval.
    """
    basis = HermiteBasis(knots)
    n = basis.n
    if np.ndim(lam) == 0:
        values = np.full(n + 1, float(lam))
    else:
        values = np.asarray(lam, dtype=float)
        if values.shape != (n + 1,):
            raise ValueError(f"lam must be scalar or have {n + 1} interval values")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("penalty values must be finite and nonnegative")
    return DesignMatrices(basis=basis, band=_penalty_band(basis, values))


def _weight_matrix(name, M, n):
    """The error weight ``W`` or ``Ucorr`` (``name``) of ``n`` samples, as
    every fit and hat block reads it: ``None`` (the identity) as it is,
    else the finite (n, n) matrix's symmetric part ``(M + M') / 2`` (exact
    symmetric input without a copy); ``ValueError`` naming it otherwise or
    for a negative diagonal entry (a zero one leaves a sample out).

    The dense factorization reads only the lower triangle while ``W y`` and
    the hat blocks read all of ``W``, so on the symmetric part every route
    solves the same problem, and rounding asymmetry does not change the
    route.  With the data checked by :func:`vspline.fit._check_data`, a
    non-finite system, solution or hat further on can only come from
    overflow (:func:`_banded_solve`, :func:`_dense_solve`).
    """
    if M is None:
        return None
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"{name} must be an ({n}, {n}) matrix for {n} samples, not {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite")
    if (np.diagonal(M) < 0.0).any():
        raise ValueError(f"{name} must be positive semidefinite: a diagonal entry is negative")
    return M if np.array_equal(M, M.T) else (M + M.T) / 2


def _not_positive_definite(exc):
    return SingularSystemError(f"penalized normal equations not positive definite: {exc}")


def _overflowed(what):
    return SingularSystemError(f"penalized normal equations overflowed: non-finite {what} "
                               "(lambda or gamma too large)")


def _hats_overflowed():
    return SingularSystemError("hat matrices overflowed: non-finite inverse of the penalized "
                               "normal equations (lambda and gamma too small)")


def _factor_normal(band, lam, gamma, W=None, Ucorr=None):
    """Dense Cholesky factor of ``A = blockdiag(W, gamma Ucorr) + n lam omega``
    (values, then slopes) for the penalty ``band`` of ``omega``.

    The factor helper of the dense route (``W``/``Ucorr`` wider than
    tridiagonal) and of the full hat blocks.  ``W``/``Ucorr`` default to
    the identity, which is added on the diagonal rather than multiplied
    in.  ``lam`` scales the penalty with the rounding of a design built
    at that lam.  An overflowed or not positive definite ``A`` raises
    :class:`SingularSystemError`.
    """
    n = band.shape[1] // 2
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        A = _dense_from_band((band * lam) * n)
        diag = np.diag_indices(n)
        if W is None:
            A[:n, :n][diag] += 1.0
        else:
            A[:n, :n] += W
        if Ucorr is None:
            A[n:, n:][diag] += gamma
        else:
            A[n:, n:] += gamma * Ucorr
    if not np.all(np.isfinite(A)):
        raise _overflowed("matrix")
    try:
        return cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(exc)


def _tridiagonal_band(M, n):
    """The (2, n) lower band of a symmetric tridiagonal ``M``: its diagonal,
    then its first subdiagonal (last entry zero).

    The identity's band for ``None``; ``None`` when ``M`` has a nonzero entry
    beyond its first sub- and superdiagonal.
    """
    band = np.zeros((2, n))
    if M is None:
        band[0] = 1.0
        return band
    band[0] = np.diagonal(M)
    band[1, :-1] = np.diagonal(M, -1)
    # every nonzero of M must lie on the three diagonals just read
    if np.count_nonzero(M) != np.count_nonzero(band[0]) + 2 * np.count_nonzero(band[1]):
        return None
    return band


def _band_matvec(band, x):
    """``M x`` for the symmetric tridiagonal ``M`` of a (2, n) lower band."""
    out = band[0] * x
    out[1:] += band[1, :-1] * x[:-1]
    out[:-1] += band[1, :-1] * x[1:]
    return out


class _ErrorWeights:
    """The error weights ``W`` and ``Ucorr`` of one problem (``None`` is the
    identity) and its checked data ``y``, ``v``, read once for every fit of
    it.  The route is decided here and nowhere else.

    ``W`` and ``Ucorr`` hold the checked symmetric parts of
    :func:`_weight_matrix`, so every route solves the same problem.
    ``bands`` holds their tridiagonal bands as one (2, 2, n) array, the
    identity's for an absent matrix, which selects the banded route;
    ``None`` when either is wider, which leaves only the dense route.  ``wy`` and ``uv`` are
    ``W y`` and ``Ucorr v``, the data part of every right-hand side; an
    overflow leaves them non-finite, without a warning, for the solve to
    reject.  Detecting the bands is O(n^2).  On the banded route the trace
    matrix of :func:`_fit_stack` (``trace_matrix``) is formed on its first
    read, once per problem.
    """

    def __init__(self, y, v, W=None, Ucorr=None):
        self.W, self.Ucorr = mats = (_weight_matrix("W", W, y.size),
                                     _weight_matrix("Ucorr", Ucorr, y.size))
        bands = [_tridiagonal_band(M, y.size) for M in mats]
        self.bands = None if bands[0] is None or bands[1] is None else np.array(bands)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.bands is not None:
                self.wy, self.uv = _band_matvec(self.bands[0], y), _band_matvec(self.bands[1], v)
            else:   # the dense route keeps an absent matrix out of its products
                self.wy = y if self.W is None else self.W @ y
                self.uv = v if self.Ucorr is None else self.Ucorr @ v

    @cached_property
    def trace_matrix(self):
        """The (8n, 4) matrix ``C`` whose product with a point's band of
        ``Z = A^-1``, read unknown by unknown as :func:`_band_inverse`
        returns it (``x[4j + r] = Z[j + r, j]``), gives its four traces
        ``(tr S, tr T, tr U, tr V)``.

        The diagonal of each hat block sums three products inside the band
        (:func:`_hat_diagonals`); summed over the knots, the products of an
        off-diagonal weight with the entries after and before it add up.
        Knot ``i`` owns ``x[8i .. 8i + 7]``: ``Z[v_i, v_i]``,
        ``Z[s_i, v_i]``, ``Z[v_i+1, v_i]``, ``Z[s_i+1, v_i]``,
        ``Z[s_i, s_i]``, ``Z[v_i+1, s_i]``, ``Z[s_i+1, s_i]`` and one entry
        no trace reads.
        """
        (w, w_sub), (u, u_sub) = self.bands
        C = np.zeros((w.size, 8, 4))
        C[:, 0, 0], C[:, 2, 0] = w, 2.0 * w_sub                        # tr S
        C[:, 1, 1], C[:, 3, 1], C[:, 5, 1] = u, u_sub, u_sub           # tr T
        C[:, 1, 2], C[:, 3, 2], C[:, 5, 2] = w, w_sub, w_sub           # tr U
        C[:, 4, 3], C[:, 6, 3] = u, 2.0 * u_sub                        # tr V
        return C.reshape(-1, 4)


def _normal_stack(band, lams, gammas, weights: _ErrorWeights):
    """The banded systems of a stack of points: the (count, 4, 2n) bands of
    ``A`` with the penalty ``band`` (unit lam) times ``lams[p]`` and the
    velocity weight ``gammas[p]`` (both arrays), and the (count, 2n)
    interleaved right-hand sides ``[W y; gamma Ucorr v]``, for the
    tridiagonal bands of ``weights`` (the identity's included).

    Value ``i`` is unknown ``2i`` and slope ``i`` is ``2i + 1``, so
    ``W[i, i]`` and ``W[i + 1, i]`` land on band rows 0 and 2 of the even
    columns and ``gamma Ucorr`` on the same rows of the odd columns: ``A``
    keeps the penalty's bandwidth 3.  The bands are views of one C-ordered
    (count, 2n, 4) buffer, so each is Fortran-ordered and the whole stack,
    read as a Fortran (4, count 2n) band, is one block-diagonal band
    (every band is zero past the end of each row), which
    :func:`_banded_solve` factors and solves in place.  The penalty is
    rounded as on a design built at that lam, ``(band lam) n``.  Overflow
    leaves non-finite entries, which :func:`_banded_solve` rejects, silent
    under its ``np.errstate``.
    """
    count, size = lams.size, band.shape[1]
    ab = np.empty((count, size, 4)).transpose(0, 2, 1)
    rhs = np.empty((count, size))
    rhs[:, 0::2] = weights.wy
    w, u = weights.bands
    np.multiply(band, lams[:, None, None], out=ab)
    ab *= size // 2
    ab[:, 0::2, 0::2] += w
    ab[:, 0::2, 1::2] += gammas[:, None, None] * u
    np.multiply(gammas[:, None], weights.uv, out=rhs[:, 1::2])
    return ab, rhs


def _band_inverse(L):
    """The bands of ``Z = A^-1`` of a stack of factors: ``L[p]`` is point
    ``p``'s band of ``L``, (size, 4), ``L[p, j, r] = L[j + r, j]``, zero
    past the end of each row (the buffer layout of :func:`_normal_stack`);
    the returned (count, size, 4) array holds ``Z[j + r, j]`` in the same
    place.

    The selected-inverse recursion (Takahashi, Fagan & Chin 1973;
    Hutchinson & de Hoog 1985): ``L' Z = L^-1`` gives, for
    ``j <= i <= j + 3``,

        Z[i, j] = delta_ij / L[j, j]^2 - sum_{k=j+1..j+3} (L[k, j] / L[j, j]) Z[i, k]

    which reads ``Z`` only inside the band of the three later columns.
    The recursion is affine in the band of ``Z``, so the whole band is the
    solution of one unit upper triangular banded system: O(size) work, no
    inverse formed and no Python loop over the columns.  The unknowns are
    ``x[4j + r] = Z[j + r, j]``; with ``l_k = L[j + k, j] / L[j, j]``,
    column ``j`` gives the four rows

        4j:      Z[j, j]   + l1 Z[j+1, j]   + l2 Z[j+2, j]   + l3 Z[j+3, j]   = 1 / L[j, j]^2
        4j + 1:  Z[j+1, j] + l1 Z[j+1, j+1] + l2 Z[j+2, j+1] + l3 Z[j+3, j+1] = 0
        4j + 2:  Z[j+2, j] + l1 Z[j+2, j+1] + l2 Z[j+2, j+2] + l3 Z[j+3, j+2] = 0
        4j + 3:  Z[j+3, j] + l1 Z[j+3, j+1] + l2 Z[j+3, j+2] + l3 Z[j+3, j+3] = 0

    with every coefficient 1 to 9 places right of the diagonal.  The
    stack is solved as one system, its columns joined end to end, by one
    BLAS ``dtbsv``: ``l_k`` is zero wherever ``j + k`` passes the end of a
    point, so no coefficient couples two points and the joined system is
    block diagonal.  Its band, ``system``, is (count size, 40): per column,
    the 10 band entries of each of its four unknowns in turn, of which 12
    are set (the unit diagonal is never read).
    """
    count, size = L.shape[:2]
    L = L.reshape(-1, 4)
    system = np.zeros((L.shape[0], 40))
    inv = 1.0 / L[:, 0]
    ratios = L[:, 1:] * inv[:, None]   # l1, l2, l3 of each column
    # the coefficient of unknown 4c + q in row i sits at system[c, 10 q + 9 - (4c + q - i)];
    # column j's ratios enter the rows 4j .. 4j + 3 at the unknowns of columns j .. j + 3
    system[:, 18:37:9] = ratios               # row 4j: unknowns 4j + 1, 4j + 2, 4j + 3
    system[1:, 6:25:9] = ratios[:-1]          # row 4j + 1: unknowns 4j + 4, 4j + 5, 4j + 6
    system[1:, 16:27:10] = ratios[:-1, :1]    # l1 in rows 4j + 2 and 4j + 3
    system[2:, 3:14:10] = ratios[:-2, 1:2]    # l2 in rows 4j + 2 and 4j + 3
    system[2:, 12] = ratios[:-2, 2]           # l3 in row 4j + 2
    system[3:, 0] = ratios[:-3, 2]            # l3 in row 4j + 3
    x = np.zeros((count, size, 4))
    np.multiply(inv, inv, out=x.reshape(-1, 4)[:, 0])
    return dtbsv(9, system.reshape(-1, 10).T, x.reshape(-1), diag=1,
                 overwrite_x=1).reshape(count, size, 4)


def _hat_diagonals(zb, bands):
    """The hat diagonals ``(S_ii, T_ii, U_ii, V_ii)`` of a stack of points,
    one C-ordered (4, count, n) array, from their bands ``zb`` of
    ``Z = A^-1`` (count, 4, 2n) and the tridiagonal ``bands`` of ``W`` and
    ``Ucorr`` (the identity's included).  C order, whatever the order of
    ``zb``: each point's later sums run over its own contiguous row, with
    the bits of a stack of one.

    With ``Zvv``, ``Zvs``, ``Zsv``, ``Zss`` the value/slope blocks of
    ``Z``, the hat blocks are ``S = Zvv W``, ``T = Zvs Ucorr``,
    ``U = Zsv W`` and ``V = Zss Ucorr``.  A tridiagonal weight reaches
    only the neighbouring knots, so each diagonal entry sums three
    products, e.g. ``S_ii = Zvv[i, i] W[i, i] +
    Zvv[i+1, i] W[i+1, i] + Zvv[i, i-1] W[i-1, i]``, all inside the band
    of ``Z``.  The four diagonals are computed together: fewer numpy
    calls, which is most of the cost for a single point at small n.
    """
    zvv, zss = zb[:, 0, 0::2], zb[:, 0, 1::2]            # Z[v_i, v_i], Z[s_i, s_i]
    zsv = zb[:, 1, 0::2]                                 # Z[s_i, v_i]
    zvs_next = zb[:, 1, 1::2]                            # Z[v_i+1, s_i]
    zvv_next, zss_next = zb[:, 2, 0::2], zb[:, 2, 1::2]  # Z[v_i+1, v_i], Z[s_i+1, s_i]
    zsv_next = zb[:, 3, 0::2]                            # Z[s_i+1, v_i]
    own, after, before = np.array(((zvv, zsv, zsv, zss),
                                   (zvv_next, zsv_next, zvs_next, zss_next),
                                   (zvv_next, zvs_next, zsv_next, zss_next)), order="C")
    weights = np.concatenate((bands, bands))[:, :, None]   # W, Ucorr, W, Ucorr: (4, 2, 1, n)
    weight, sub = weights[:, 0], weights[:, 1]
    # own_i weight_i + after_i sub_i + before_(i-1) sub_(i-1)
    out = own * weight + after * sub
    out[..., 1:] += before[..., :-1] * sub[..., :-1]
    return out


def _banded_solve(band, lams, gammas, weights: _ErrorWeights, hats):
    """:func:`_fit_stack` on the banded route for a stack that fits: the
    values, the slopes and the hats, from one ``dpbtrf``, one ``dpbtrs`` and
    one :func:`_band_inverse` call for the whole stack, read as one
    block-diagonal band, under one ``np.errstate``.

    Raises the first :class:`SingularSystemError` met: a non-finite band
    (lam or gamma so large that ``A`` overflowed), a band that is not
    positive definite (the leading minor of its point), a non-finite
    right-hand side, a non-finite solution, or non-finite hats (``A``
    nearly singular, its inverse overflowed)."""
    count, size = lams.size, band.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ab, x = _normal_stack(band, lams, gammas, weights)
        if not np.isfinite(ab).all():
            raise _overflowed("band")
        joined = ab.transpose(1, 0, 2).reshape(4, -1)   # a view: (4, count size), Fortran
        _, info = dpbtrf(joined, lower=1, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        if info > 0:
            raise _not_positive_definite(f"{(info - 1) % size + 1}-th leading minor")
        if not np.isfinite(x).all():
            raise _overflowed("right-hand side")
        _, info = dpbtrs(joined, x.reshape(-1), lower=1, overwrite_b=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        if not np.isfinite(x).all():
            raise _overflowed("solution")
        out = None
        if hats is not None:
            zb = _band_inverse(ab.transpose(0, 2, 1))   # the factors, in buffer order
            if hats == "traces":
                out = np.matmul(zb.reshape(count, 1, -1), weights.trace_matrix)[:, 0].T
            else:
                out = _hat_diagonals(np.ascontiguousarray(zb.transpose(0, 2, 1)), weights.bands)
            if not np.isfinite(out).all():
                raise _hats_overflowed()
    return x[:, 0::2], x[:, 1::2], out


def _dense_solve(band, lams, gammas, weights: _ErrorWeights, hats):
    """:func:`_fit_stack` on the dense route for a stack of one point that
    fits: one dense factorization and one ``cho_solve``, on ``[rhs | I]``
    for the coefficients and ``A^-1`` with ``hats`` (the coefficients by a
    direct solve, never ``A^-1`` times the data), on ``rhs`` without.

    Raises the point's :class:`SingularSystemError` in the order of
    :func:`_banded_solve`."""
    (lam,), (gamma,) = lams, gammas
    n = band.shape[1] // 2
    cho = _factor_normal(band, lam, gamma, weights.W, weights.Ucorr)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.concatenate([weights.wy, gamma * weights.uv])
        if not np.isfinite(rhs).all():
            raise _overflowed("right-hand side")
        sol = cho_solve(cho, rhs if hats is None else np.column_stack([rhs, np.eye(2 * n)]))
        coefs = sol if hats is None else sol[:, 0]
        if not np.isfinite(coefs).all():
            raise _overflowed("solution")
        out = None
        if hats is not None:
            blocks = _hat_blocks(sol[:, 1:], weights.W, weights.Ucorr)
            out = np.array([np.diagonal(h) for h in (blocks.S, blocks.T, blocks.U, blocks.V)])
            out = out[:, None] if hats == "diagonals" else out.sum(axis=1)[:, None]
            if not np.isfinite(out).all():
                raise _hats_overflowed()
    return coefs[None, :n], coefs[None, n:], out


def _fit_stack(band, lams, gammas, weights: _ErrorWeights, hats="diagonals"):
    """The basis fit at a stack of points: the penalty ``band`` (unit lam)
    times ``lams[p]``, the velocity weight ``gammas[p]`` (both arrays), and
    the error ``weights``.  Every basis fit, report and score runs here.

    Returns the fitted values and slopes, (count, n) each; the ``hats``:
    with "diagonals", the hat diagonals ``(S_ii, T_ii, U_ii, V_ii)`` as one
    C-ordered (4, count, n) array, with "traces" their sums
    ``(tr S, tr T, tr U, tr V)``, (4, count), with ``None`` nothing; and,
    per point, ``None`` or the :class:`SingularSystemError` it raised.  A
    failed point's values and slopes are zeros and its hats NaN, so every
    criterion scores it NaN.

    The banded route (``weights.bands``, :func:`_banded_solve`) fits the
    whole stack in one call per stage; memory grows with the stack, which
    the caller bounds.  The dense route (:func:`_dense_solve`) fits one
    point per call.  A stack that meets any failure, and every stack of
    more than one point on the dense route, is fitted point by point
    here, the one place where a failed point is handled; a single point is
    fitted once.  A point has the same bits alone and in any stack.
    """
    count = lams.size
    if count == 1 or weights.bands is not None:
        solve = _dense_solve if weights.bands is None else _banded_solve
        try:
            return (*solve(band, lams, gammas, weights, hats), [None] * count)
        except SingularSystemError as exc:
            if count == 1:
                n = band.shape[1] // 2
                shape = (4, 1, n) if hats == "diagonals" else (4, 1)
                return (np.zeros((1, n)), np.zeros((1, n)),
                        None if hats is None else np.full(shape, np.nan), [exc])
    fits = [_fit_stack(band, lams[p:p + 1], gammas[p:p + 1], weights, hats) for p in range(count)]
    values, slopes = (np.concatenate([fit[i] for fit in fits]) for i in (0, 1))
    out = None if hats is None else np.concatenate([fit[2] for fit in fits], axis=1)
    return values, slopes, out, [fit[3][0] for fit in fits]


def _fit_point(design: DesignMatrices, y, v, gamma, W=None, Ucorr=None, hats=None):
    """One basis fit at the design's penalty through :func:`_fit_stack` (a
    stack of one): the coefficients (values, then slopes) and the point's
    ``hats`` of :func:`_fit_stack` ("diagonals", (4, n); "traces", (4,);
    ``None``).  Raises the point's :class:`SingularSystemError`."""
    gamma = _check_param("gamma", gamma, positive=False)
    y, v = _check_data("y", y, design.n), _check_data("v", v, design.n)
    values, slopes, out, errors = _fit_stack(design.band, np.ones(1), np.array([gamma]),
                                             _ErrorWeights(y, v, W, Ucorr), hats)
    if errors[0] is not None:
        raise errors[0]
    return np.concatenate([values[0], slopes[0]]), None if out is None else out[:, 0]


def fit_theta(design: DesignMatrices, y, v, gamma, W=None, Ucorr=None) -> np.ndarray:
    """Penalized least-squares coefficients for the basis fit.

    Minimizes the W-weighted position residual plus gamma times the
    Ucorr-weighted velocity residual (both divided by the sample count)
    plus the curvature penalty ``theta' omega theta``.  ``W``/``Ucorr``
    default to identity (uncorrelated errors).  When both are at most
    tridiagonal (diagonal weights, AR(1) precisions) the fit is O(n) by
    banded Cholesky; wider matrices take the dense O(n^3) route.  Both
    are read as their symmetric part ``(M + M') / 2``, so rounding
    asymmetry does not change the route.  Zeroing a sample's weights
    leaves it out while keeping the objective's normalization.  A bad
    argument raises ``ValueError`` naming it; a system or solution that
    overflowed raises :class:`SingularSystemError`.
    """
    return _fit_point(design, y, v, gamma, W, Ucorr)[0]


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


def hat_matrices(design: DesignMatrices, gamma) -> HatMatrices:
    """Hat blocks for the uncorrelated fit at the design's penalty: those of
    :func:`hat_matrices_correlated` without error weights.

    Dense, from the full inverse; the fits and scores need only the
    diagonals, which the banded route computes without it.
    """
    return hat_matrices_correlated(design, gamma, None, None)


def hat_matrices_correlated(design: DesignMatrices, gamma, W, Ucorr) -> HatMatrices:
    """Hat blocks of the correlated-error fit: ``f = S y + gamma T v``.

    Same structure as :func:`hat_matrices` with the precision matrices
    inserted, so the blocks are no longer symmetric.  ``W`` and ``Ucorr``
    are read as in :func:`fit_theta`, as their symmetric part (``None`` is
    the identity).
    """
    gamma = _check_param("gamma", gamma, positive=False)
    W, Ucorr = _weight_matrix("W", W, design.n), _weight_matrix("Ucorr", Ucorr, design.n)
    cho = _factor_normal(design.band, 1.0, gamma, W, Ucorr)
    return _hat_blocks(cho_solve(cho, np.eye(2 * design.n)), W, Ucorr)
