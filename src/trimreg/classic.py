"""OLS and LAD baselines (`ClassicFit`), and LAD as the sparse-outlier start.

LAD runs iteratively reweighted least squares with weight 1/max(|r|, eps);
that is an exact majorize-minimize scheme for the eps-smoothed absolute
loss, so descent is checked on the smoothed objective. Huber, the other
comparator, is the L1 shift fit from OLS and lives in `l1`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, InvariantViolated
from .linalg import Dataset, lstsq_qr

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
    """Ordinary least squares; objective is half the residual sum of squares.

    Raises DegenerateFit when that sum overflows."""
    beta = lstsq_qr(data.design, data.y)
    with np.errstate(over="ignore", invalid="ignore"):
        r = data.y - data.design @ beta
        rss = float(r @ r)
    if not np.isfinite(rss):
        raise DegenerateFit(f"residual sum of squares overflows ({rss})")
    return ClassicFit(beta=beta, objective=0.5 * rss, iterations=0, converged=True)


def _smoothed_abs(r: np.ndarray, a: np.ndarray) -> float:
    # quadratic below LAD_EPS, |r| = a above; the exact objective the IRLS
    # step descends. Only the entries at or below LAD_EPS (none, or about
    # q near the optimum) are recomputed, each as the elementwise formula
    # would, so the sum carries its bits.
    small = a <= LAD_EPS
    if not small.any():
        return float(a.sum())
    s = a.copy()
    r_small = r[small]
    s[small] = r_small * r_small / (2.0 * LAD_EPS) + LAD_EPS / 2.0
    return float(s.sum())


def fit_lad(data: Dataset) -> ClassicFit:
    """Least absolute deviation via IRLS with a 1e-8 weight floor."""
    X, y = data.design, data.y
    beta = lstsq_qr(X, y)
    r = y - X @ beta
    a = np.abs(r)
    smoothed = _smoothed_abs(r, a)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        sw = np.sqrt(1.0 / np.maximum(a, LAD_EPS))
        beta_new = lstsq_qr(X * sw[:, None], y * sw)
        r = y - X @ beta_new
        a = np.abs(r)
        smoothed_new = _smoothed_abs(r, a)
        if not smoothed_new <= smoothed + 1e-12 * max(1.0, smoothed):
            raise InvariantViolated("IRLS step increased the smoothed objective")
        smoothed = smoothed_new
        done = all(abs(n - o) < BETA_TOL for n, o in zip(beta_new.tolist(), beta.tolist()))
        beta = beta_new
        if done:
            converged = True
            break
    return ClassicFit(beta=beta, objective=float(np.sum(np.abs(r))), iterations=it,
                      converged=converged)


def initial_beta(data: Dataset) -> np.ndarray:
    """Robust starting point for the sparse-outlier estimators (LAD fit)."""
    return fit_lad(data).beta


__all__ = [
    "ClassicFit",
    "fit_ols",
    "fit_lad",
    "initial_beta",
]
