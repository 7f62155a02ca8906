"""One error policy: an input fault raises ``ValueError`` whose message
starts with the argument's name, on every public entry point that takes
the argument.  ``SingularSystemError`` (a ``LinAlgError``, and so a
``ValueError`` too) is kept for numerical failures and must not appear."""

import numpy as np
import pytest

from conftest import ar1_precision
from vspline import (CorrelationSpec, GpPrior, KernelConfig, build_design, cv_brute_force,
                     cv_closed_form, fit_theta, gcv_correlated, gcv_score, hat_matrices,
                     hat_matrices_correlated, optimize_params, posterior_mean_finite_rho)
from vspline.fit import check_knots, fit_vspline
from vspline.hermite import HermiteBasis

UNIFORM = KernelConfig.uniform()
N = 8
T = np.linspace(0.1, 0.9, N)
LAM = 1e-3
DESIGN = build_design(T, LAM)
GOOD = {"y": np.sin(5 * T), "v": 5 * np.cos(5 * T), "gamma": 0.7, "W": ar1_precision(N, 0.5)}

# one bad value per case, named by the argument it is passed as
BAD = {
    "nan-y": ("y", np.where(np.arange(N) == 3, np.nan, GOOD["y"])),
    "short-v": ("v", GOOD["v"][:-1]),
    "negative-gamma": ("gamma", -1.0),
    "nan-gamma": ("gamma", np.nan),
    "wrong-size-W": ("W", ar1_precision(N + 2, 0.5)),
    "negative-diagonal-W": ("W", -np.eye(N)),
}


def _spec(W):
    """A valid spec around ``W``: its size is checked against the data later."""
    return CorrelationSpec(W=W, Ucorr=np.eye(W.shape[0]))


# each entry point: the arguments it takes, and a call with them
ENTRIES = {
    "fit_theta": ("y v gamma W",
                  lambda a: fit_theta(DESIGN, a["y"], a["v"], a["gamma"], a["W"])),
    "hat_matrices": ("gamma", lambda a: hat_matrices(DESIGN, a["gamma"])),
    "hat_matrices_correlated": (
        "gamma W", lambda a: hat_matrices_correlated(DESIGN, a["gamma"], a["W"], None)),
    "cv_closed_form": ("y v gamma",
                       lambda a: cv_closed_form(T, a["y"], a["v"], LAM, a["gamma"], UNIFORM)),
    "gcv_score": ("y v gamma",
                  lambda a: gcv_score(T, a["y"], a["v"], LAM, a["gamma"], UNIFORM)),
    "gcv_correlated": ("y v gamma W", lambda a: gcv_correlated(
        T, a["y"], a["v"], LAM, a["gamma"], UNIFORM, _spec(a["W"]))),
    "cv_brute_force": ("y v gamma",
                       lambda a: cv_brute_force(T, a["y"], a["v"], LAM, a["gamma"], UNIFORM)),
    "optimize_params": ("y v W", lambda a: optimize_params(
        T, a["y"], a["v"], UNIFORM, corr=_spec(a["W"]), criterion="gcv-corr",
        lam_points=2, gamma_points=2)),
    "fit_vspline": ("y v gamma",
                    lambda a: fit_vspline(T, a["y"], a["v"], UNIFORM, LAM, a["gamma"])),
    "posterior_mean_finite_rho": ("y v gamma", lambda a: posterior_mean_finite_rho(
        T, a["y"], a["v"], GpPrior(beta=1.0, rho=10.0, config=UNIFORM), LAM, a["gamma"])),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_good_inputs_are_accepted(entry):
    ENTRIES[entry][1](GOOD)


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{bad}")
    for entry, (takes, _) in ENTRIES.items()
    for bad, (name, _) in BAD.items() if name in takes.split()])
def test_input_fault_is_a_value_error_naming_the_argument(entry, bad):
    name, value = BAD[bad]
    with pytest.raises(ValueError, match=f"^{name} must ") as err:
        ENTRIES[entry][1]({**GOOD, name: value})
    assert not isinstance(err.value, np.linalg.LinAlgError)


def test_negative_weight_diagonal_is_an_input_fault():
    # a W or Ucorr with a negative diagonal entry is not positive
    # semidefinite: a ValueError naming it on the banded and the dense
    # route, not a failed factorization; a zeroed diagonal entry leaves a
    # sample out and is accepted
    wide = ar1_precision(N, 0.5) + 0.01 * np.eye(N, k=3) + 0.01 * np.eye(N, k=-3)
    for name in ("W", "Ucorr"):
        for M in (-np.eye(N), np.where(np.eye(N) == 1, -0.5, wide)):
            with pytest.raises(ValueError, match=f"^{name} must be positive semidefinite") as err:
                fit_theta(DESIGN, GOOD["y"], GOOD["v"], 1.0, **{name: M})
            assert not isinstance(err.value, np.linalg.LinAlgError)
    keep = np.diag((np.arange(N) != 3).astype(float))
    assert np.isfinite(fit_theta(DESIGN, GOOD["y"], GOOD["v"], 1.0, W=keep, Ucorr=keep)).all()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: CorrelationSpec(W=np.ones((3, 4)), Ucorr=np.eye(3)),
                 "^W must be square$", id="non-square-W"),
    pytest.param(lambda: CorrelationSpec(W=np.eye(3), Ucorr=np.eye(4)),
                 "^W and Ucorr must have the same size$", id="W-Ucorr-sizes"),
    pytest.param(lambda: HermiteBasis(np.array([0.5])), "^need at least 2 knots$",
                 id="one-knot-basis"),
    pytest.param(lambda: DESIGN.basis.evaluate(np.zeros(2 * N - 1), 0.5),
                 rf"^theta must have shape \({2 * N},\)$", id="theta-shape"),
    pytest.param(lambda: DESIGN.basis.evaluate_deriv(np.zeros((2, N)), 0.5),
                 rf"^theta must have shape \({2 * N},\)$", id="theta-2d"),
    pytest.param(lambda: DESIGN.basis.evaluate(np.zeros(2 * N), [0.5, 1.5]),
                 r"^evaluation points must lie in \[0, 1\]$", id="point-above-1"),
    pytest.param(lambda: DESIGN.basis.evaluate_deriv(np.zeros(2 * N), -0.1),
                 r"^evaluation points must lie in \[0, 1\]$", id="point-below-0"),
    pytest.param(lambda: DESIGN.basis.evaluate(np.zeros(2 * N), np.nan),
                 r"^evaluation points must lie in \[0, 1\]$", id="nan-point"),
    pytest.param(lambda: build_design(T, np.full(N, LAM)),
                 f"^lam must be scalar or have {N + 1} interval values$", id="lam-length"),
    pytest.param(lambda: check_knots(T.reshape(2, -1)),
                 "^knots must be a one-dimensional, non-empty array$", id="2d-knots"),
    pytest.param(lambda: check_knots(np.where(np.arange(N) == 2, np.nan, T)),
                 "^knots must be finite$", id="nan-knot"),
    pytest.param(lambda: check_knots(np.append(T, np.inf)), "^knots must be finite$",
                 id="inf-knot"),
])
def test_shape_and_domain_faults_are_value_errors(call, message):
    # the shape and domain checks of the spec, the basis, the design and
    # the knots: each a ValueError with its own message, never a
    # numerical failure
    with pytest.raises(ValueError, match=message) as err:
        call()
    assert not isinstance(err.value, np.linalg.LinAlgError)
