"""The top-level namespace exports what a user calls, and nothing twice."""

import importlib

import pytest

import vspline
import vspline.fit

TOP_LEVEL = [
    "CorrelationSpec", "DegenerateGridError", "DegenerateScoreError", "GpPrior",
    "KernelConfig", "SingularSystemError", "build_design", "build_gram", "cv_brute_force",
    "cv_closed_form", "fit_theta", "fitted_knot_values", "gcv_correlated", "gcv_score",
    "hat_matrices", "hat_matrices_correlated", "optimize_params",
    "posterior_mean_finite_rho", "rescale_domain", "solve_coefficients",
]

# return types, the kernels and the reference diagnostics, each importable
# from the module that defines it
MODULE_ONLY = {
    "vspline.bayes": ["LimitIdentityGaps", "PosteriorSummary", "limit_identities_check",
                      "prior_cov"],
    "vspline.fit": ["DomainScale", "GramSystem", "VSplineFit", "fit_vspline",
                    "objective_value", "penalty_quadratic", "stationarity_residuals"],
    "vspline.gcv": ["CvScore", "SelectionResult"],
    "vspline.hermite": ["DesignMatrices", "HatMatrices", "HermiteBasis"],
    "vspline.kernels": ["eval_r0", "eval_r1", "eval_r1_ds", "eval_r1_dsdt", "eval_r1_dt"],
}


def test_all_is_exactly_the_user_calls():
    assert sorted(vspline.__all__) == TOP_LEVEL
    for name in TOP_LEVEL:
        assert getattr(vspline, name) is not None


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_dropped_names_import_from_their_module(module):
    mod = importlib.import_module(module)
    for name in MODULE_ONLY[module]:
        assert getattr(mod, name).__module__ == module
        assert not hasattr(vspline, name)


def test_benchmark_held_names_are_the_fit_modules():
    # the benchmark's representer workload reads these three at the top level
    for name in ("build_gram", "solve_coefficients", "fitted_knot_values"):
        assert getattr(vspline, name) is getattr(vspline.fit, name)
