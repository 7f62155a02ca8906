"""Cross-validation scores and parameter selection.

Leave-one-out prediction error is available three ways: by brute-force
refits (the definition), by a closed-form identity needing only the
full-data fit and the hat-matrix diagonals, and by the trace (GCV)
approximation that replaces each diagonal with its average.  A correlated
variant accepts known precision structures for the two observation
channels.  :func:`optimize_params` grid-searches the penalty and the
velocity weight on log scales and then refines each coordinate with
golden-section sweeps.  One scorer per search holds everything that no
(lam, gamma) changes and evaluates the criterion over a stack of points
(at most ``_STACK_COLUMNS`` unknowns of the grid, the opening points of a
golden-section sweep, or one later point); no (lam, gamma) is scored twice.

All scores are computed through the Hermite-basis formulation of
:mod:`vspline.hermite`, which covers ``gamma = 0`` and penalties constant
on each knot interval (:func:`_design_for`); the uncorrelated scores, and
the correlated one with at most tridiagonal precisions, take its O(n) route.
Leave-one-out removes the whole observation pair (position and velocity)
while keeping the penalty function and the objective normalization of the
full problem, so the closed form and the brute force agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, eigh

from .errors import DegenerateGridError, DegenerateScoreError, SingularSystemError
from .fit import _check_data, _check_param, check_knots
from .hermite import (_ErrorWeights, _fit_stack, _overflowed, _weight_matrix, build_design,
                      fit_theta)
from .kernels import KernelConfig

__all__ = [
    "CorrelationSpec",
    "CvScore",
    "SelectionResult",
    "cv_brute_force",
    "cv_closed_form",
    "gcv_correlated",
    "gcv_score",
    "optimize_params",
]

_DENOM_FLOOR = 1e-12

# per criterion, the messages of its velocity and its position denominator
# test (see _criterion)
_DEGENERATE = {
    "cv": ("velocity hat denominator 1 - gamma*V_ii vanished",
           "position hat denominator vanished; the fit interpolates (penalty too small)"),
    "gcv": ("velocity trace denominator tr(I - gamma V) vanished",
            "trace denominator tr(I - S - k U) vanished"),
}
_DEGENERATE["gcv-corr"] = _DEGENERATE["gcv"]

# The most unknowns (2n per point) of one engine call: the stack's bands of
# A and A^-1, its band system and its hats stay within a few megabytes.  A
# point with more unknowns is a stack of its own.
_STACK_COLUMNS = 2048


@dataclass(frozen=True, eq=False)
class CvScore:
    """A cross-validation score together with the parameters it scores."""

    value: float
    lam: float
    gamma: float


def _psd_sqrt(A):
    """Symmetric PSD square root via eigendecomposition."""
    w, Q = eigh(np.asarray(A, dtype=float))
    w = np.clip(w, 0.0, None)
    return (Q * np.sqrt(w)) @ Q.T


@dataclass(frozen=True, eq=False)
class CorrelationSpec:
    """Known precision structures of the two error channels.

    ``W`` weights position residuals, ``Ucorr`` velocity residuals; both
    must be square, finite and symmetric positive definite (checked by
    factorization).  Each is stored as the symmetric part that
    :func:`vspline.hermite._weight_matrix` gives every fit, so every route
    reads the same exactly symmetric matrix (bit-identical for exactly
    symmetric input).  The name ``Ucorr`` keeps the correlation matrix
    distinct from the hat block ``U`` of
    :class:`vspline.hermite.HatMatrices`.  The symmetric PSD square roots
    that whiten the residuals of the correlated GCV numerator are formed
    on their first read (``_roots``): no fit needs their two
    eigendecompositions.
    """

    W: np.ndarray
    Ucorr: np.ndarray

    def __post_init__(self):
        mats = []
        for name, raw in (("W", self.W), ("Ucorr", self.Ucorr)):
            mat = np.array(raw, dtype=float)   # a copy, made read-only below
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square")
            sym = _weight_matrix(name, mat, mat.shape[0])   # finite; its symmetric part
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise ValueError(f"{name} must be symmetric")
            try:
                cholesky(sym, lower=True)
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} must be positive definite")
            mats.append(sym)
        W, U = mats
        if W.shape != U.shape:
            raise ValueError("W and Ucorr must have the same size")
        for mat in (W, U):
            mat.flags.writeable = False
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Ucorr", U)

    @cached_property
    def _roots(self):
        """``(W^(1/2), Ucorr^(1/2))``, read-only."""
        roots = (_psd_sqrt(self.W), _psd_sqrt(self.Ucorr))
        for root in roots:
            root.flags.writeable = False
        return roots


def _check_inputs(t, y, v, lam, gamma):
    t = check_knots(t)
    return (t, _check_data("y", y, t.size), _check_data("v", v, t.size),
            _check_param("lam", lam, positive=True),
            _check_param("gamma", gamma, positive=False))


def _design_for(t, lam, cfg: KernelConfig):
    """Basis design whose penalty is lam times the config's weight profile,
    read on each knot interval ``[0, t1], ..., [tn, 1]``: the one place
    where a :class:`KernelConfig` meets the basis route.  The basis is one
    cubic per knot interval, so a value that changes strictly inside one
    raises ``ValueError`` naming the breakpoint; breakpoints on the knots,
    outside ``[t1, tn]``, or between equal values are accepted.  A lam so
    large that a weighted value overflows raises the engine's overflow
    :class:`SingularSystemError`, as the band it would fill does.
    """
    breaks = cfg.breakpoints
    with np.errstate(over="ignore"):   # checked below
        values = lam * cfg.weights
    inner = breaks[1:-1]
    on_knot = t.take(np.searchsorted(t, inner), mode="clip") == inner   # t is sorted
    jumps = (values[1:] != values[:-1]) & (inner > t[0]) & (inner < t[-1]) & ~on_knot
    if jumps.any():
        b = float(inner[jumps][0])
        k = np.searchsorted(t, b)
        raise ValueError(f"the penalty changes at breakpoint {b!r}, inside the knot interval "
                         f"[{float(t[k - 1])!r}, {float(t[k])!r}] of the basis route")
    if not np.isfinite(values).all():
        raise _overflowed("penalty")
    mid = 0.5 * (np.append(0.0, t) + np.append(t, 1.0))
    return build_design(t, values[np.searchsorted(breaks, mid) - 1])


def cv_brute_force(t, y, v, lam, gamma, cfg: KernelConfig) -> CvScore:
    """Leave-one-out score by literally refitting without each sample.

    Each refit gives both observations of the left-out time zero weight
    but keeps the penalty function and the 1/n normalization of the full
    objective, so it solves the same problem the closed form describes.
    Quadratic in n on top of the per-fit solve; use :func:`cv_closed_form`
    for anything but verification.
    """
    t, y, v, lam, gamma = _check_inputs(t, y, v, lam, gamma)
    n = t.size
    if n < 3:
        raise ValueError("leave-one-out needs at least 3 samples")
    design = _design_for(t, lam, cfg)
    errors = np.empty(n)
    for i in range(n):
        keep = np.diag((np.arange(n) != i).astype(float))
        theta = fit_theta(design, y, v, gamma, W=keep, Ucorr=keep)
        errors[i] = y[i] - theta[i]
    return CvScore(value=float(np.mean(errors**2)), lam=lam, gamma=gamma)


def _criterion(criterion, r, rp, hats, gammas, corr: CorrelationSpec | None = None):
    """The score ``criterion`` at a stack of points from each point's fit:
    the residuals ``r`` and ``rp`` of its values and slopes, (count, n),
    and its ``hats`` of :func:`vspline.hermite._fit_stack` at the velocity
    weights ``gammas`` (a list of floats): the hat diagonals, C-ordered
    (4, count, n), for "cv", their traces, (4, count), for "gcv" and
    "gcv-corr".  The formulas are those of :func:`cv_closed_form`,
    :func:`gcv_score` and :func:`gcv_correlated` ("gcv" on the residuals
    whitened point by point, ``W^(1/2) r`` and ``Ucorr^(1/2) rp``).

    Returns, as lists, the scores (NaN where degenerate or not finite) and
    the masks of the points whose velocity and whose position denominator
    is below ``_DENOM_FLOOR`` (the trace denominator relative to ``n``).
    Array operations are elementwise or reduce one point's row, so a point
    has the same bits in any stack.  A point's GCV scalars are Python
    floats in the order of the whole-array formula, so with its bits;
    nothing raises: a ``dv`` of 0 gives a NaN ``k`` (numpy's inf or NaN,
    masked either way), and ``den`` is squared as ``den * den``.
    """
    n = r.shape[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if criterion == "gcv-corr":   # one product per point, the bits of a stack of one
            w_root, u_root = corr._roots
            r = np.matmul(w_root, r[:, :, None])[:, :, 0]
            rp = np.matmul(u_root, rp[:, :, None])[:, :, 0]
        if criterion == "cv":
            s_diag, t_diag, u_diag, v_diag = hats
            g = np.array(gammas)[:, None]
            dv = 1.0 - g * v_diag
            k = g * t_diag / dv
            den = 1.0 - s_diag - k * u_diag
            scores = (((r + k * rp) / den) ** 2).sum(axis=1) / n   # np.mean's bits
            bad_dv = (np.abs(dv) < _DENOM_FLOOR).any(axis=1)
            bad_den = (np.abs(den) < _DENOM_FLOOR).any(axis=1)
            scores[bad_dv | bad_den | ~np.isfinite(scores)] = np.nan
            return scores.tolist(), (bad_dv.tolist(), bad_den.tolist())
        ks, dvs, dens = [], [], []
        for g, tr_s, tr_t, tr_u, tr_v in zip(gammas, *hats.tolist()):
            dvs.append(n - g * tr_v)
            ks.append(g * tr_t / dvs[-1] if dvs[-1] else math.nan)   # masked by bad_dv
            dens.append((n - tr_s - ks[-1] * tr_u) / n)
        norms = ((r + np.array(ks)[:, None] * rp) ** 2).sum(axis=1).tolist()
    scores, bad_dv, bad_den = [], [], []
    for norm, dv, den in zip(norms, dvs, dens):
        bad_dv.append(abs(dv) < _DENOM_FLOOR)
        bad_den.append(abs(den) < _DENOM_FLOOR)
        score = math.nan if bad_dv[-1] or bad_den[-1] else norm / n / (den * den)
        scores.append(score if math.isfinite(score) else math.nan)
    return scores, (bad_dv, bad_den)


class _Scorer:
    """One criterion of one problem, scored at many (lam, gamma).

    Built once per search, it holds what no point changes: the checked
    data, the penalty at unit lam, and the error weights of
    :class:`vspline.hermite._ErrorWeights` (the route and the products
    ``W y`` and ``Ucorr v``).  A point then costs its share of one
    :func:`vspline.hermite._fit_stack` call, which returns the hat
    diagonals for "cv" and only the four traces for the GCV criteria;
    :func:`_criterion` runs once per stack.  :meth:`scores` is the one
    place that sizes the stacks: at most ``_STACK_COLUMNS`` unknowns each,
    or one point when a point has more.  A missing ``corr`` for
    "gcv-corr", or one of another size than the data
    (:class:`vspline.hermite._ErrorWeights`), fails here.
    """

    def __init__(self, design, y, v, criterion, corr: CorrelationSpec | None = None):
        self.band, self.y, self.v = design.band, y, v
        self.criterion, self.corr = criterion, corr
        if criterion == "gcv-corr" and corr is None:
            raise ValueError("corr must be a CorrelationSpec for criterion 'gcv-corr'")
        mats = () if corr is None else (corr.W, corr.Ucorr)
        self.weights = _ErrorWeights(y, v, *mats)

    def scores(self, lams, gammas):
        """The scores at the points ``(lams[i], gammas[i])`` as a list, NaN as in
        :meth:`stack`, in consecutive stacks of at most ``_STACK_COLUMNS``
        unknowns (one point when a point has more), each point with its bits alone."""
        step = max(1, _STACK_COLUMNS // self.band.shape[1])
        return [score for i in range(0, len(lams), step)
                for score in self.stack(lams[i:i + step], gammas[i:i + step])[0]]

    def stack(self, lams, gammas):
        """The scores at a stack of points (NaN where a point failed), the
        :class:`SingularSystemError` of each point or ``None``, and the
        degenerate masks of :func:`_criterion`."""
        lams, gammas = np.asarray(lams, dtype=float), np.asarray(gammas, dtype=float)
        hats = "diagonals" if self.criterion == "cv" else "traces"
        values, slopes, out, errors = _fit_stack(self.band, lams, gammas, self.weights, hats)
        scores, degenerate = _criterion(self.criterion, values - self.y, slopes - self.v,
                                        out, gammas.tolist(), self.corr)
        return scores, errors, degenerate


def cv_closed_form(t, y, v, lam, gamma, cfg: KernelConfig) -> CvScore:
    """Leave-one-out score without refitting.

    Uses the identity expressing each deleted residual through the full
    fit's residuals and the hat diagonals:

        (f(t_i) - y_i + g_i (f'(t_i) - v_i)) / (1 - S_ii - g_i U_ii)

    with ``g_i = gamma T_ii / (1 - gamma V_ii)``; the score is the mean of
    these squared.  Equals :func:`cv_brute_force` to rounding.
    """
    t, y, v, lam, gamma = _check_inputs(t, y, v, lam, gamma)
    value = _score(_design_for(t, lam, cfg), y, v, 1.0, gamma, "cv")
    return CvScore(value=value, lam=lam, gamma=gamma)


def gcv_score(t, y, v, lam, gamma, cfg: KernelConfig) -> CvScore:
    """Generalized cross-validation: hat diagonals replaced by traces.

    Needs only four traces instead of the diagonals, which is the usual
    computational argument for GCV; with constant diagonals it reproduces
    :func:`cv_closed_form` exactly.
    """
    t, y, v, lam, gamma = _check_inputs(t, y, v, lam, gamma)
    value = _score(_design_for(t, lam, cfg), y, v, 1.0, gamma, "gcv")
    return CvScore(value=value, lam=lam, gamma=gamma)


def gcv_correlated(t, y, v, lam, gamma, cfg: KernelConfig,
                   corr: CorrelationSpec) -> CvScore:
    """GCV for correlated errors with known precision structures.

    The fit and the hat blocks carry ``W`` and ``Ucorr``; the numerator
    is the plain GCV numerator of the residuals whitened by the symmetric
    PSD square roots, ``|W^(1/2) r + k Ucorr^(1/2) rp|^2``, which equals
    ``r'W r + 2k r'W^(1/2) Ucorr^(1/2) rp + k^2 rp'Ucorr rp``.  Identity
    matrices reduce this exactly, bit for bit, to :func:`gcv_score`.  With
    at most tridiagonal ``W``/``Ucorr`` (AR(1) precisions) the fit and
    traces are O(n) by the banded route and the whitening O(n^2); wider
    matrices are O(n^3).
    """
    t, y, v, lam, gamma = _check_inputs(t, y, v, lam, gamma)
    value = _score(_design_for(t, lam, cfg), y, v, 1.0, gamma, "gcv-corr", corr)
    return CvScore(value=value, lam=lam, gamma=gamma)


def _score(design, y, v, lam, gamma, criterion, corr: CorrelationSpec | None = None):
    """The score ``criterion`` of the fit with the penalty of ``design`` times
    ``lam`` (checked arguments): the stack of one of a search, raising
    :class:`SingularSystemError` or :class:`DegenerateScoreError` where the
    search gives NaN."""
    scores, errors, degenerate = _Scorer(design, y, v, criterion, corr).stack([lam], [gamma])
    if errors[0] is not None:
        raise errors[0]
    for message, mask in zip(_DEGENERATE[criterion], degenerate):
        if mask[0]:
            raise DegenerateScoreError(message)
    if math.isnan(scores[0]):
        raise SingularSystemError("the score overflowed: non-finite criterion value")
    return scores[0]


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of the parameter search.

    ``surface`` holds one (lam, gamma, score) row per coarse grid point,
    with NaN scores where the criterion was degenerate; the selected
    parameters may sit between grid points after refinement.
    """

    lam: float
    gamma: float
    score: float
    criterion: str
    surface: np.ndarray
    degenerate_count: int


def _check_range(bounds, points, bounds_name, points_name):
    """A positive, finite, increasing search range with at least one point,
    else ``ValueError`` naming the arguments (or the CLI's flags)."""
    lo, hi = bounds
    if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"{bounds_name} must be positive, finite and increasing "
                         f"(got {lo!r}, {hi!r})")
    if points < 1:
        raise ValueError(f"{points_name} must be at least 1")


def _exp10(x):
    """``10 ** x``; inf past the float range, as numpy's scalar power gives."""
    try:
        return 10.0**x
    except OverflowError:
        return math.inf


def _golden_min(f, lo, hi):
    """Deterministic golden-section minimum on [lo, hi] of f, which scores
    a list of floats: the four opening points (both ends and the two
    interior points) in one call, then each of 40 later points in its own.
    Returns the best ``(score, point)`` actually evaluated, so a
    non-unimodal f cannot make the result worse than the bracket endpoints.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    f_lo, f_hi, fc, fd = f([lo, hi, c, d])
    pts = [(f_lo, lo), (f_hi, hi), (fc, c), (fd, d)]
    for _ in range(40):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            (fc,) = f([c])
            pts.append((fc, c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            (fd,) = f([d])
            pts.append((fd, d))
    return min(pts, key=lambda p: p[0])


def optimize_params(t, y, v, cfg: KernelConfig, corr: CorrelationSpec | None = None,
                    criterion: str = "cv",
                    lam_bounds=(1e-8, 1e2), gamma_bounds=(1e-4, 1e4),
                    lam_points: int = 15, gamma_points: int = 13,
                    refine: bool = True) -> SelectionResult:
    """Pick (lam, gamma) minimizing a cross-validation criterion.

    A log-spaced coarse grid is scored first; the best point is then
    refined by two sweeps of golden-section search per coordinate, each
    confined between the neighboring grid points.  Deterministic for
    fixed inputs.  ``criterion`` may be "cv" (closed-form leave-one-out,
    the default), "gcv", or "gcv-corr" (requires ``corr``).  Both bounds
    of each range must be positive and finite with ``lo < hi``, and each
    axis needs at least one point (``ValueError`` otherwise); a one-point
    axis stays at its lower bound.

    What no (lam, gamma) changes is computed once per search: the penalty
    at unit lam (it is linear in lam), the route, ``W y`` and ``Ucorr v``,
    and on the banded route the weight bands laid out like ``A`` and the
    trace matrix.  Without ``corr`` every score is O(n) (banded route).
    "gcv-corr" takes the banded route too when ``W`` and ``Ucorr`` are at
    most tridiagonal (plus the O(n^2) whitening of its residuals) and is
    dense, O(n^3) per score, only for wider matrices.  The grid, and the
    four opening points of each golden-section sweep not already scored,
    go to the engine in stacks of at most ``_STACK_COLUMNS`` unknowns
    (:meth:`_Scorer.scores`), and each later point is a stack of one.  On
    the banded route a stack of any size that fits costs one LAPACK
    factorization, one LAPACK solve, and one BLAS banded triangular solve
    for its bands of ``A^-1``; the GCV criteria read each point's four
    traces from one product.  A stack that meets a singular or
    overflowing point is refitted point by point
    (:func:`vspline.hermite._fit_stack`).  Each point's GCV scalars and
    the sweeps' points are Python floats (:func:`_criterion`); a
    degenerate, singular or overflowing point, or one whose score is not
    finite, scores NaN without a warning.  No (lam, gamma)
    pair is scored twice in one search: a point that a sweep revisits
    takes the score already computed.  Scores and selection are the same
    bits as scoring every point on its own.
    """
    t, y, v, _, _ = _check_inputs(t, y, v, 1.0, 1.0)
    if criterion not in _DEGENERATE:
        raise ValueError("criterion must be 'cv', 'gcv', or 'gcv-corr'")
    if criterion != "gcv-corr":
        corr = None
    _check_range(lam_bounds, lam_points, "lam_bounds", "lam_points")
    _check_range(gamma_bounds, gamma_points, "gamma_bounds", "gamma_points")
    scorer = _Scorer(_design_for(t, 1.0, cfg), y, v, criterion, corr)

    with np.errstate(over="ignore"):   # geomspace's power overflows near the largest float
        lams = np.geomspace(lam_bounds[0], lam_bounds[1], lam_points)
        gammas = np.geomspace(gamma_bounds[0], gamma_bounds[1], gamma_points)
    grid_lams, grid_gammas = (g.ravel().tolist() for g in np.meshgrid(lams, gammas, indexing="ij"))
    scores = scorer.scores(grid_lams, grid_gammas)
    surface = np.column_stack([grid_lams, grid_gammas, scores])
    memo = dict(zip(zip(grid_lams, grid_gammas), scores))

    def sweep_scores(points):
        """The scores at the ``(lam, gamma)`` points, inf for NaN; those not
        yet scored are scored in one call."""
        new = [key for key in dict.fromkeys(points) if key not in memo]
        if new:
            memo.update(zip(new, scorer.scores([lam for lam, _ in new], [g for _, g in new])))
        return [math.inf if math.isnan(memo[key]) else memo[key] for key in points]

    degenerate = int(np.isnan(surface[:, 2]).sum())
    if degenerate == surface.shape[0]:
        raise DegenerateGridError("every grid point produced a degenerate score")
    best_row = int(np.nanargmin(surface[:, 2]))
    best_lam, best_gamma, best_score = surface[best_row].tolist()

    if refine:
        log_lams, log_gammas = np.log10(lams).tolist(), np.log10(gammas).tolist()
        li, gi = divmod(best_row, gamma_points)
        lam_lo, lam_hi = log_lams[max(li - 1, 0)], log_lams[min(li + 1, lam_points - 1)]
        gam_lo, gam_hi = log_gammas[max(gi - 1, 0)], log_gammas[min(gi + 1, gamma_points - 1)]
        for _ in range(2):
            # an axis whose bracket is a single point has nothing to refine
            if lam_lo < lam_hi:
                score, log_best = _golden_min(
                    lambda lls: sweep_scores([(_exp10(ll), best_gamma) for ll in lls]),
                    lam_lo, lam_hi)
                if math.isfinite(score) and score <= best_score:
                    best_lam, best_score = _exp10(log_best), score
            if gam_lo < gam_hi:
                score, log_best = _golden_min(
                    lambda lgs: sweep_scores([(best_lam, _exp10(lg)) for lg in lgs]),
                    gam_lo, gam_hi)
                if math.isfinite(score) and score <= best_score:
                    best_gamma, best_score = _exp10(log_best), score

    return SelectionResult(lam=best_lam, gamma=best_gamma, score=best_score, criterion=criterion,
                           surface=surface, degenerate_count=degenerate)
