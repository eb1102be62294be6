"""OLS, LAD, and fixed-cutoff Huber baselines.

LAD runs iteratively reweighted least squares with weight 1/max(|r|, eps);
that is an exact majorize-minimize scheme for the eps-smoothed absolute
loss, so descent is checked on the smoothed objective. Huber alternates
the closed-form outlier-shift update with least squares on the adjusted
response, which is block coordinate descent on a jointly convex problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated
from .linalg import Dataset, factor_qr, lstsq_qr

MAX_ITER = 1000
BETA_TOL = 1e-8
# smoothing floor for the LAD weights
LAD_EPS = 1e-8


@dataclass(frozen=True)
class ClassicFit:
    """Coefficients, loss value at the optimum, and convergence record."""

    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool


def fit_ols(data: Dataset) -> ClassicFit:
    """Ordinary least squares; objective is half the residual sum of squares."""
    beta = lstsq_qr(data.design, data.y)
    r = data.y - data.design @ beta
    return ClassicFit(beta=beta, objective=0.5 * float(r @ r), iterations=0, converged=True)


def lad_objective(r: np.ndarray) -> float:
    return float(np.sum(np.abs(r)))


def _smoothed_abs(r: np.ndarray, eps: float) -> float:
    # quadratic below eps, |r| above; the exact objective the IRLS step descends
    a = np.abs(r)
    return float(np.sum(np.where(a <= eps, r * r / (2.0 * eps) + eps / 2.0, a)))


def fit_lad(data: Dataset) -> ClassicFit:
    """Least absolute deviation via IRLS with a 1e-8 weight floor."""
    X, y = data.design, data.y
    beta = lstsq_qr(X, y)
    r = y - X @ beta
    smoothed = _smoothed_abs(r, LAD_EPS)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        w = 1.0 / np.maximum(np.abs(r), LAD_EPS)
        sw = np.sqrt(w)
        beta_new = lstsq_qr(X * sw[:, None], y * sw)
        r = y - X @ beta_new
        smoothed_new = _smoothed_abs(r, LAD_EPS)
        if not smoothed_new <= smoothed + 1e-12 * max(1.0, smoothed):
            raise InvariantViolated("IRLS step increased the smoothed objective")
        smoothed = smoothed_new
        if np.max(np.abs(beta_new - beta)) < BETA_TOL:
            beta = beta_new
            converged = True
            break
        beta = beta_new
    return ClassicFit(beta=beta, objective=lad_objective(r), iterations=it, converged=converged)


def huber_rho(r: np.ndarray, psi: float) -> np.ndarray:
    """Elementwise Huber loss: quadratic inside [-psi, psi], linear outside."""
    a = np.abs(r)
    return np.where(a <= psi, 0.5 * r * r, psi * a - 0.5 * psi * psi)


def huber_objective(r: np.ndarray, psi: float) -> float:
    return float(np.sum(huber_rho(r, psi)))


def fit_huber(data: Dataset, psi: float) -> ClassicFit:
    """Huber regression with fixed cutoff psi.

    Alternates the closed-form shift update (residuals soft-thresholded at
    psi) with least squares on the shift-adjusted response until the
    coefficient change falls below 1e-8 in max-norm.
    """
    if psi <= 0:
        raise ValueError("psi must be positive")
    from .l1 import soft_threshold_alpha

    X, y = data.design, data.y
    solve = factor_qr(X)
    beta = solve(y)
    obj = huber_objective(y - X @ beta, psi)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        alpha = soft_threshold_alpha(y - X @ beta, psi)
        beta_new = solve(y - alpha)
        obj_new = huber_objective(y - X @ beta_new, psi)
        if not obj_new <= obj + 1e-12 * max(1.0, obj):
            raise InvariantViolated("Huber block update increased the objective")
        obj = obj_new
        if np.max(np.abs(beta_new - beta)) < BETA_TOL:
            beta = beta_new
            converged = True
            break
        beta = beta_new
    return ClassicFit(beta=beta, objective=obj, iterations=it, converged=converged)


def initial_beta(data: Dataset) -> np.ndarray:
    """Robust starting point for the sparse-outlier estimators (LAD fit)."""
    return fit_lad(data).beta


__all__ = [
    "ClassicFit",
    "fit_ols",
    "fit_lad",
    "fit_huber",
    "huber_rho",
    "huber_objective",
    "lad_objective",
    "initial_beta",
]
