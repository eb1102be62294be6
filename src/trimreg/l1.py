"""Soft-threshold robust regression with an L1 penalty on per-row shifts.

Minimizes 0.5 ||y - X b - a||^2 + psi ||a||_1 with the shift alternation
`classic.shift_alternation`, the same loop Huber runs: the shift vector
`a` is the residuals soft-thresholded at psi, and b is least squares of
y - a on X. The profiled objective coincides with the Huber loss at
cutoff psi, which the fit cross-checks at convergence. `select_psi_bic`
runs its whole grid through one call, one lane per psi, from the LAD start
its caller passes and one factorization; each lane equals `fit_l1` at its
psi, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classic import SHIFT_MAX_ITER, fit_lad, shift_alternation, soft_threshold_alpha
from .errors import AllFitsFailed, InvariantViolated, NotConverged
from .l0 import BIC_SELECTION_MULT, select_by_score
from .linalg import Dataset, factor_qr

PSI_GRID_SIZE = 30
# MAD-to-sigma factor for the default grid scale
MAD_SCALE = 1.4826


@dataclass(frozen=True)
class L1Solution:
    """Fit of the penalized problem at a fixed threshold psi.

    `info` carries selection diagnostics and never takes part in
    comparisons.
    """

    beta: np.ndarray
    alpha: np.ndarray
    psi: float
    objective: float
    n_outliers: int
    info: dict = field(default_factory=dict, compare=False, repr=False)


def _penalized_objective(r_adj: np.ndarray, alpha: np.ndarray, psi: float) -> float:
    return 0.5 * float(r_adj @ r_adj) + psi * float(np.sum(np.abs(alpha)))


def fit_l1(data: Dataset, psi: float) -> L1Solution:
    """The shift alternation at fixed psi, from the LAD fit.

    Raises NotConverged if it has not converged after SHIFT_MAX_ITER steps,
    and ValueError unless 0 < psi < inf.
    """
    fits = _fit_l1(data, [psi], fit_lad(data).beta, factor_qr(data.design))
    if not fits:
        raise NotConverged(f"fit_l1 did not converge in {SHIFT_MAX_ITER} iterations")
    return fits[0]


def _fit_l1(data: Dataset, psis, beta0: np.ndarray, solve) -> list[L1Solution]:
    """`fit_l1` at every psi of `psis` in lockstep from `beta0`, with `solve`
    the least-squares solver of the design; one solution per converged
    psi, in order."""
    fits = []
    for psi, lane in zip(psis, shift_alternation(data, psis, beta0, solve)):
        beta, r, alpha, profile, _, converged = lane
        if not converged:
            continue
        obj = _penalized_objective(r - alpha, alpha, psi)
        # profile identity: the penalized objective at the alpha-argmin equals
        # the Huber loss `profile` of the residuals at cutoff psi
        if not abs(obj - profile) <= 1e-8 * (1.0 + abs(profile)):
            raise InvariantViolated("penalized objective disagrees with its profiled form")
        fits.append(L1Solution(beta=beta, alpha=alpha, psi=psi, objective=obj,
                               n_outliers=int(np.count_nonzero(alpha))))
    return fits


def default_psi_grid(data: Dataset, size: int, lad_beta: np.ndarray) -> np.ndarray:
    """Log-spaced grid from 0.1*s to 10*s, s = 1.4826 * MAD of the residuals at `lad_beta`."""
    r = data.y - data.design @ lad_beta
    mad = float(np.median(np.abs(r - np.median(r))))
    scale = MAD_SCALE * mad
    if scale <= 0:
        scale = max(float(np.max(np.abs(r))), 1e-8)
    return np.geomspace(0.1 * scale, 10.0 * scale, size)


def bic_l1(data: Dataset, sol: L1Solution, mult: float) -> float:
    """BIC score with the detected-outlier count as the complexity term."""
    n = data.n_obs
    r = data.y - data.design @ sol.beta - sol.alpha
    rss = max(float(r @ r), 1e-300)
    return n * np.log(rss / n) + mult * sol.n_outliers * np.log(n)


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
    AllFitsFailed.
    `info` carries the selected score under "bic" and, under "bic_trace",
    one (psi, objective, score, rows flagged) tuple per converged point in
    ascending psi.
    """
    if size < 1:
        raise ValueError(f"psi grid size must be at least 1, not {size}")
    grid = default_psi_grid(data, size, beta0).tolist()  # ascending
    fits = _fit_l1(data, grid, beta0, factor_qr(data.design))
    if not fits:
        raise AllFitsFailed("no psi on the grid produced a converged fit")
    best, score, trace = select_by_score(
        fits, lambda sol: bic_l1(data, sol, penalty_mult), prefer_last=True
    )
    best.info["bic"] = score
    best.info["bic_trace"] = [(sol.psi, sol.objective, s, sol.n_outliers) for sol, s in trace]
    return best


__all__ = [
    "L1Solution",
    "soft_threshold_alpha",
    "fit_l1",
    "default_psi_grid",
    "bic_l1",
    "select_psi_bic",
]
