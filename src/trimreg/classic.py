"""OLS, LAD, and fixed-cutoff Huber baselines, and the shift alternation.

LAD runs iteratively reweighted least squares with weight 1/max(|r|, eps);
that is an exact majorize-minimize scheme for the eps-smoothed absolute
loss, so descent is checked on the smoothed objective.

`shift_alternation` is the one loop behind both Huber and the L1 estimator
(`l1`): it alternates the closed-form outlier-shift update (residuals
soft-thresholded at psi) with least squares on the shift-adjusted
response. That is block coordinate descent on the jointly convex problem
0.5 ||y - X b - a||^2 + psi ||a||_1, whose profile in b is the Huber loss
at cutoff psi, so descent is checked on the Huber loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated
from .linalg import Dataset, factor_qr, lstsq_qr

MAX_ITER = 1000
# cap of the shift alternation shared by Huber and L1
SHIFT_MAX_ITER = 2000
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


def soft_threshold_alpha(r: np.ndarray, psi: float) -> np.ndarray:
    """Closed-form shift update: shrink residuals toward zero by psi.

    Entries with |r| <= psi map to exactly zero: r less r clipped to
    [-psi, psi]. This is the one check of the threshold for Huber and L1:
    psi must satisfy 0 < psi < inf.
    """
    if not 0 < psi < np.inf:
        raise ValueError(f"psi must lie in (0, inf), not {psi}")
    r = np.asarray(r, dtype=np.float64)
    return r - np.clip(r, -psi, psi)


def shift_alternation(
    data: Dataset, psi: float, beta: np.ndarray, solve
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int, bool]:
    """Alternate the shift update with least squares on y - alpha, from `beta`.

    `solve` is the least-squares solver of the design (`factor_qr`). Stops
    once the coefficient change falls below BETA_TOL in max-norm, or after
    SHIFT_MAX_ITER steps. Returns (beta, r, alpha, loss, iterations,
    converged): r = y - X beta at the returned beta, alpha its shifts and
    loss its Huber loss. Each step forms one residual, and the shifts are
    taken before the loss, so a psi outside (0, inf) raises before it can warn.
    """
    X, y = data.design, data.y
    r = y - X @ beta
    alpha = soft_threshold_alpha(r, psi)
    loss = huber_objective(r, psi)
    converged = False
    it = 0
    for it in range(1, SHIFT_MAX_ITER + 1):
        beta_new = solve(y - alpha)
        r = y - X @ beta_new
        alpha = soft_threshold_alpha(r, psi)
        loss_new = huber_objective(r, psi)
        if not loss_new <= loss + 1e-12 * max(1.0, loss):
            raise InvariantViolated("shift update increased the Huber objective")
        loss = loss_new
        converged = bool(np.max(np.abs(beta_new - beta)) < BETA_TOL)
        beta = beta_new
        if converged:
            break
    return beta, r, alpha, loss, it, converged


def fit_huber(data: Dataset, psi: float) -> ClassicFit:
    """Huber regression with fixed cutoff psi: the shift alternation from OLS."""
    solve = factor_qr(data.design)
    beta, _, _, loss, it, converged = shift_alternation(data, psi, solve(data.y), solve)
    return ClassicFit(beta=beta, objective=loss, iterations=it, converged=converged)


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
    "shift_alternation",
    "soft_threshold_alpha",
]
