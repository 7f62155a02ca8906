"""Velocity-informed cubic smoothing splines.

Fits paired position/velocity observations with a curvature-penalized
cubic spline, computable three mutually verifying ways: a kernel
representer system, the vague-prior Gaussian-process posterior mean, and
a direct cardinal-basis regression whose hat matrices drive closed-form
cross-validation.  A CLI wraps simulation, fitting, and parameter
selection.
"""

__version__ = "0.1.0"

from .bayes import (GpPrior, LimitIdentityGaps, PosteriorSummary,
                    limit_identities_check, posterior_mean_diffuse,
                    posterior_mean_finite_rho, prior_cov)
from .errors import DegenerateGridError, DegenerateScoreError, SingularSystemError
from .fit import (DomainScale, GramSystem, VSplineFit, build_gram, fit_vspline,
                  fitted_knot_values, objective_value, penalty_quadratic,
                  rescale_domain, solve_coefficients, stationarity_residuals)
from .gcv import (CorrelationSpec, CvScore, SelectionResult, cv_brute_force,
                  cv_closed_form, gcv_correlated, gcv_score, optimize_params)
from .hermite import (DesignMatrices, HatMatrices, HermiteBasis, build_design,
                      fit_theta, hat_matrices, hat_matrices_correlated)
from .kernels import (KernelConfig, eval_r0, eval_r1, eval_r1_ds, eval_r1_dsdt,
                      eval_r1_dt)

__all__ = [
    "CorrelationSpec",
    "CvScore",
    "DegenerateGridError",
    "DegenerateScoreError",
    "DesignMatrices",
    "DomainScale",
    "GpPrior",
    "GramSystem",
    "HatMatrices",
    "HermiteBasis",
    "KernelConfig",
    "LimitIdentityGaps",
    "PosteriorSummary",
    "SelectionResult",
    "SingularSystemError",
    "VSplineFit",
    "build_design",
    "build_gram",
    "cv_brute_force",
    "cv_closed_form",
    "eval_r0",
    "eval_r1",
    "eval_r1_ds",
    "eval_r1_dsdt",
    "eval_r1_dt",
    "fit_theta",
    "fit_vspline",
    "fitted_knot_values",
    "gcv_correlated",
    "gcv_score",
    "hat_matrices",
    "hat_matrices_correlated",
    "limit_identities_check",
    "objective_value",
    "optimize_params",
    "penalty_quadratic",
    "posterior_mean_diffuse",
    "posterior_mean_finite_rho",
    "prior_cov",
    "rescale_domain",
    "solve_coefficients",
    "stationarity_residuals",
]
