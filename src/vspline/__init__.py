"""Velocity-informed cubic smoothing splines.

Fits paired position/velocity observations with a curvature-penalized
cubic spline, computable three mutually verifying ways: a kernel
representer system, the vague-prior Gaussian-process posterior mean, and
a direct cardinal-basis regression whose hat matrices drive closed-form
cross-validation.  A CLI wraps simulation, fitting, and parameter
selection.  The top level keeps the engine, its scores and search, and
the finite-rho posterior; the kernels, the reference diagnostics and the
return types are imported from their modules.
"""

__version__ = "0.1.0"

from .bayes import GpPrior, posterior_mean_finite_rho
from .errors import DegenerateGridError, DegenerateScoreError, SingularSystemError
from .fit import build_gram, fitted_knot_values, rescale_domain, solve_coefficients
from .gcv import (CorrelationSpec, cv_brute_force, cv_closed_form, gcv_correlated,
                  gcv_score, optimize_params)
from .hermite import build_design, fit_theta, hat_matrices, hat_matrices_correlated
from .kernels import KernelConfig

__all__ = [
    "CorrelationSpec",
    "DegenerateGridError",
    "DegenerateScoreError",
    "GpPrior",
    "KernelConfig",
    "SingularSystemError",
    "build_design",
    "build_gram",
    "cv_brute_force",
    "cv_closed_form",
    "fit_theta",
    "fitted_knot_values",
    "gcv_correlated",
    "gcv_score",
    "hat_matrices",
    "hat_matrices_correlated",
    "optimize_params",
    "posterior_mean_finite_rho",
    "rescale_domain",
    "solve_coefficients",
]
