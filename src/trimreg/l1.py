"""Soft-threshold robust regression with an L1 penalty on per-row shifts.

Minimizes 0.5 ||y - X b - a||^2 + psi ||a||_1 by block coordinate descent
(`_fit_l1`): the shift vector `a` is the residuals soft-thresholded at psi,
and b is least squares of y - a on X. The profile in b is the Huber loss
at cutoff psi, so descent is checked on the Huber loss and each fit
cross-checks its penalized objective against it. Huber regression
(`fit_huber`, from OLS) is this fit from another start than `fit_l1`'s
LAD. `_fit_l1` runs a list of thresholds in lockstep, one lane per psi:
Huber and `fit_l1` pass one, and `select_psi_bic` its whole grid, from
the LAD start its caller passes and one factorization; each lane equals
`fit_l1` at its psi, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classic import BETA_TOL, initial_beta
from .errors import AllFitsFailed, DegenerateFit, InvariantViolated, NotConverged
from .l0 import BIC_SELECTION_MULT, Selection, bic, select_by_score
from .linalg import Dataset, factor_qr

PSI_GRID_SIZE = 30
# MAD-to-sigma factor for the default grid scale
MAD_SCALE = 1.4826
# cap of the shift alternation shared by Huber and L1
SHIFT_MAX_ITER = 2000
# elements per (lanes, N) array of the shift alternation, which runs its lanes
# in blocks of LANE_BLOCK // N (at least one)
LANE_BLOCK = 1 << 16


@dataclass(frozen=True)
class L1Solution:
    """Fit of the penalized problem at a fixed psi, with the alternation's steps and convergence.

    `selection`, set on the solution `select_psi_bic` returns, never takes
    part in comparisons.
    """

    beta: np.ndarray
    alpha: np.ndarray
    psi: float
    objective: float
    iterations: int
    converged: bool
    selection: Selection | None = field(default=None, compare=False, repr=False)


def _shifts_and_rho(r: np.ndarray, psi) -> tuple[np.ndarray, np.ndarray]:
    """Shifts r - c and elementwise Huber loss from one clip c = clip(r, -psi, psi):
    with h = 0.5 c^2, the loss is h where the shift is zero, else psi |r| - h.
    A column of checked psi (`_checked_psi`) gives one row of each per psi."""
    c = np.minimum(np.maximum(r, -psi), psi)  # clip(r, -psi, psi)
    alpha = r - c
    h = (0.5 * c) * c
    return alpha, np.where(alpha == 0, h, psi * np.abs(r) - h)


def _checked_psi(psi) -> np.ndarray:
    """`psi` as floats. This is the one check of the threshold for Huber and
    L1: every psi must satisfy 0 < psi < inf, else ValueError."""
    psi = np.asarray(psi, dtype=np.float64)
    if not ((0 < psi) & (psi < np.inf)).all():
        raise ValueError(f"psi must lie in (0, inf), not {psi}")
    return psi


def huber_rho(r: np.ndarray, psi: float) -> np.ndarray:
    """Elementwise Huber loss: quadratic inside [-psi, psi], linear outside."""
    return _shifts_and_rho(np.asarray(r, dtype=np.float64), _checked_psi(psi))[1]


def soft_threshold_alpha(r: np.ndarray, psi) -> np.ndarray:
    """Closed-form shift update: shrink residuals toward zero by psi.

    Entries with |r| <= psi map to exactly zero: r less r clipped to
    [-psi, psi]. A column of psi gives one row of shifts per psi.
    """
    return _shifts_and_rho(np.asarray(r, dtype=np.float64), _checked_psi(psi))[0]


def fit_l1(data: Dataset, psi: float) -> L1Solution:
    """The shift alternation at fixed psi, from the LAD fit (`classic.initial_beta`).

    Raises NotConverged if it has not converged after SHIFT_MAX_ITER steps,
    and ValueError unless 0 < psi < inf.
    """
    [sol] = _fit_l1(data, [psi], initial_beta(data), factor_qr(data.design))
    if not sol.converged:
        raise NotConverged(f"fit_l1 did not converge in {sol.iterations} iterations")
    return sol


def fit_huber(data: Dataset, psi: float) -> L1Solution:
    """Huber regression with fixed cutoff psi: the shift alternation from OLS.
    A fit that has not converged is returned, with `converged` false."""
    solve = factor_qr(data.design)
    [sol] = _fit_l1(data, [psi], solve(data.y), solve)
    return sol


def _fit_l1(data: Dataset, psis, beta: np.ndarray, solve) -> list[L1Solution]:
    """Alternate the shift update with least squares on y - alpha, from
    `beta`, at every threshold of `psis` in lockstep, one lane per psi:
    one solution per psi, in order, converged or not.

    `solve` is the least-squares solver of the design (`factor_qr`). A lane
    stops once its coefficient change falls below BETA_TOL in max-norm, or
    after SHIFT_MAX_ITER steps, and leaves the arrays as its solution once
    its penalized objective passes the profile check. Raises DegenerateFit
    when the Huber loss at `beta` overflows at any psi, and ValueError
    before any arithmetic when a psi lies outside (0, inf). Shifts, losses
    and stopping tests run on (lanes, N) arrays row by row, and every
    BLAS/LAPACK call takes one lane's vector, so each lane carries the bits
    of a one-psi call.
    """
    psi = _checked_psi(psis).reshape(-1, 1)
    step = max(1, LANE_BLOCK // data.n_obs)
    if psi.shape[0] > step:  # one block of `step` lanes at a time
        return [sol for i in range(0, psi.shape[0], step)
                for sol in _fit_l1(data, psis[i:i + step], beta, solve)]
    X, y = data.design, data.y
    r = y - X @ beta
    with np.errstate(invalid="ignore"):  # inf - inf: the check below reports it
        alpha, rho = _shifts_and_rho(r, psi)
    loss = rho.sum(axis=1)
    if not np.isfinite(loss).all():  # descent keeps every later loss finite
        raise DegenerateFit("Huber loss overflows")
    b = np.tile(beta, (psi.shape[0], 1))
    b_new, xb = np.empty_like(b), np.empty_like(alpha)
    run = np.arange(psi.shape[0])  # the lane of each row
    fits = [None] * psi.shape[0]
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
                p, profile, r_adj = psis[run[i]], float(loss[i]), r[i] - alpha[i]
                obj = 0.5 * float(r_adj @ r_adj) + p * float(np.sum(np.abs(alpha[i])))
                # profile identity: the penalized objective at the alpha-argmin
                # equals the Huber loss `profile` of the residuals at cutoff psi
                if not abs(obj - profile) <= 1e-8 * (1.0 + abs(profile)):
                    raise InvariantViolated("penalized objective disagrees with its profiled form")
                fits[run[i]] = L1Solution(beta=b[i].copy(), alpha=alpha[i].copy(), psi=p,
                                          objective=obj, iterations=it, converged=bool(done[i]))
            stay = ~leave
            if not stay.any():
                break
            run, b, alpha, loss, psi = run[stay], b[stay], alpha[stay], loss[stay], psi[stay]
            b_new, xb = b_new[:run.size], xb[:run.size]
    return fits


def default_psi_grid(data: Dataset, size: int, lad_beta: np.ndarray) -> np.ndarray:
    """Log-spaced grid from 0.1*s to 10*s, s = 1.4826 * MAD of the residuals at `lad_beta`."""
    r = data.y - data.design @ lad_beta
    mad = float(np.median(np.abs(r - np.median(r))))
    scale = MAD_SCALE * mad
    if scale <= 0:
        scale = max(float(np.max(np.abs(r))), 1e-8)
    return np.geomspace(0.1 * scale, 10.0 * scale, size)


def select_psi_bic(
    data: Dataset, beta0: np.ndarray, size: int = PSI_GRID_SIZE,
    penalty_mult: float = BIC_SELECTION_MULT,
) -> L1Solution:
    """Fit every psi of the `size`-point default grid, score by BIC, return
    the minimizer; a size below 1 raises ValueError.

    `beta0` is the LAD fit's coefficients (`classic.initial_beta`), which
    the caller fits once and may share with other estimators: it scales
    the grid (`default_psi_grid`) and starts every grid point, so the
    points stay order-independent; they also share one factorization of
    the design. Ties break toward larger psi (fewer flagged rows).
    Non-convergent grid points are skipped; if none converge, raises
    AllFitsFailed. The `selection` traces every converged point in
    ascending psi.
    """
    if size < 1:
        raise ValueError(f"psi grid size must be at least 1, not {size}")
    grid = default_psi_grid(data, size, beta0).tolist()  # ascending
    fits = [f for f in _fit_l1(data, grid, beta0, factor_qr(data.design)) if f.converged]
    if not fits:
        raise AllFitsFailed("no psi on the grid produced a converged fit")
    return select_by_score(fits, "psi", lambda sol: bic(
        data, sol.beta, sol.alpha, penalty_mult * np.count_nonzero(sol.alpha)), prefer_last=True)


__all__ = [
    "L1Solution",
    "huber_rho",
    "soft_threshold_alpha",
    "fit_l1",
    "fit_huber",
    "default_psi_grid",
    "select_psi_bic",
]
