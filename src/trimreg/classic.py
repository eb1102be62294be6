"""OLS, LAD, and fixed-cutoff Huber baselines, and the shift alternation.

LAD runs iteratively reweighted least squares with weight 1/max(|r|, eps);
that is an exact majorize-minimize scheme for the eps-smoothed absolute
loss, so descent is checked on the smoothed objective.

`shift_alternation` is the one loop behind both Huber and the L1 estimator
(`l1`): it alternates the closed-form outlier-shift update (residuals
soft-thresholded at psi) with least squares on the shift-adjusted
response. That is block coordinate descent on the jointly convex problem
0.5 ||y - X b - a||^2 + psi ||a||_1, whose profile in b is the Huber loss
at cutoff psi, so descent is checked on the Huber loss. It runs a list of
thresholds in lockstep, one lane per psi (Huber and `fit_l1` pass one, the
BIC grid all of them), and every lane carries the bits of a one-psi run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated
from .linalg import Dataset, factor_qr, lstsq_qr

MAX_ITER = 1000
# cap of the shift alternation shared by Huber and L1
SHIFT_MAX_ITER = 2000
# elements per (lanes, N) array of the shift alternation, which runs its lanes
# in blocks of LANE_BLOCK // N (at least one)
LANE_BLOCK = 1 << 16
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
    return ClassicFit(beta=beta, objective=lad_objective(r), iterations=it, converged=converged)


def _shifts_and_rho(r: np.ndarray, psi) -> tuple[np.ndarray, np.ndarray]:
    """Shifts r - c and elementwise Huber loss from one clip c = clip(r, -psi, psi):
    with h = 0.5 c^2, the loss is h where the shift is zero, else psi |r| - h."""
    c = np.minimum(np.maximum(r, -psi), psi)  # clip(r, -psi, psi)
    alpha = r - c
    h = (0.5 * c) * c
    return alpha, np.where(alpha == 0, h, psi * np.abs(r) - h)


def huber_rho(r: np.ndarray, psi: float) -> np.ndarray:
    """Elementwise Huber loss: quadratic inside [-psi, psi], linear outside."""
    return _shifts_and_rho(np.asarray(r, dtype=np.float64), psi)[1]


def huber_objective(r: np.ndarray, psi: float) -> float:
    return float(np.sum(huber_rho(r, psi)))


def soft_threshold_alpha(r: np.ndarray, psi) -> np.ndarray:
    """Closed-form shift update: shrink residuals toward zero by psi.

    Entries with |r| <= psi map to exactly zero: r less r clipped to
    [-psi, psi]. This is the one check of the threshold for Huber and L1:
    every psi (a column of them gives one row of shifts per psi) must
    satisfy 0 < psi < inf.
    """
    psi = np.asarray(psi, dtype=np.float64)
    if not ((0 < psi) & (psi < np.inf)).all():
        raise ValueError(f"psi must lie in (0, inf), not {psi}")
    r = np.asarray(r, dtype=np.float64)
    return r - np.clip(r, -psi, psi)


def shift_alternation(data: Dataset, psis, beta: np.ndarray, solve) -> list[tuple]:
    """Alternate the shift update with least squares on y - alpha, from
    `beta`, at every threshold of `psis` in lockstep, one lane per psi.

    `solve` is the least-squares solver of the design (`factor_qr`). A lane
    stops once its coefficient change falls below BETA_TOL in max-norm, or
    after SHIFT_MAX_ITER steps. Returns, per psi in order, (beta, r, alpha,
    loss, iterations, converged): r = y - X beta at the lane's beta, alpha
    its shifts and loss its Huber loss. The shifts are taken before the
    loss, so a psi outside (0, inf) raises before it can warn. Shifts, losses
    and stopping tests run on (lanes, N) arrays row by row, and every
    BLAS/LAPACK call takes one lane's vector, so each lane carries the bits
    of a one-psi call. A lane leaves the arrays once it stops.
    """
    psi = np.asarray(psis, dtype=np.float64).reshape(-1, 1)
    step = max(1, LANE_BLOCK // data.n_obs)
    if psi.shape[0] > step:  # one block of `step` lanes at a time
        return [lane for i in range(0, psi.shape[0], step)
                for lane in shift_alternation(data, psi[i:i + step], beta, solve)]
    X, y = data.design, data.y
    r = y - X @ beta
    alpha = soft_threshold_alpha(r, psi)
    loss = huber_rho(r, psi).sum(axis=1)
    b = np.tile(beta, (psi.shape[0], 1))
    b_new, xb = np.empty_like(b), np.empty_like(alpha)
    run = np.arange(psi.shape[0])  # the lane of each row
    lanes = [None] * psi.shape[0]
    for it in range(1, SHIFT_MAX_ITER + 1):
        for v, b_j, xb_j in zip(y - alpha, b_new, xb):
            b_j[:] = solve(v)
            np.dot(X, b_j, out=xb_j)
        r = y - xb
        alpha, rho = _shifts_and_rho(r, psi)
        loss_new = rho.sum(axis=1)
        if not all(n <= o + 1e-12 * max(1.0, o) for n, o in zip(loss_new.tolist(), loss.tolist())):
            raise InvariantViolated("shift update increased the Huber objective")
        done = (np.abs(b_new - b) < BETA_TOL).all(axis=1)
        b, b_new, loss = b_new, b, loss_new
        leave = done if it < SHIFT_MAX_ITER else np.ones_like(done)
        if leave.any():
            for i in np.flatnonzero(leave):
                lanes[run[i]] = (b[i].copy(), r[i].copy(), alpha[i].copy(),
                                 float(loss[i]), it, bool(done[i]))
            stay = ~leave
            if not stay.any():
                break
            run, b, alpha, loss, psi = run[stay], b[stay], alpha[stay], loss[stay], psi[stay]
            b_new, xb = b_new[:run.size], xb[:run.size]
    return lanes


def fit_huber(data: Dataset, psi: float) -> ClassicFit:
    """Huber regression with fixed cutoff psi: the shift alternation from OLS."""
    solve = factor_qr(data.design)
    [(beta, _, _, loss, it, converged)] = shift_alternation(data, [psi], solve(data.y), solve)
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
