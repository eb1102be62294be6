"""Dense least-squares primitives shared by every estimator.

The solver is column-pivoted QR throughout: trimmed subsets can be badly
conditioned, and the pivot sequence gives a deterministic rank test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import RankDeficient, TooFewRows

# Pivot below this fraction of the leading pivot means rank deficiency.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """Response vector and regressor matrix, with optional intercept column.

    `y` has length N, `x` is N x d (no intercept column). When
    `add_intercept` is true the effective design is [1, x], N x (d+1),
    and coefficient vectors carry the intercept first.
    """

    y: np.ndarray
    x: np.ndarray
    add_intercept: bool = True
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2:
            raise ValueError("x must be a 2-D array")
        if y.shape[0] < 1:
            raise ValueError("need at least one observation")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
            raise ValueError("inputs contain NaN or Inf")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if self.add_intercept:
            design = np.hstack([np.ones((y.shape[0], 1)), x])
        else:
            design = x
        design.setflags(write=False)
        object.__setattr__(self, "design", design)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def n_coef(self) -> int:
        """Width of the effective design (d+1 with intercept)."""
        return self.design.shape[1]


def factor_qr(X: np.ndarray):
    """Factor X once by column-pivoted QR; return `solve(v) -> beta`.

    `solve(v)` is the least-squares coefficient vector of v on X, so a
    fixed design refit against many responses is factored only once.
    Raises RankDeficient when a pivot falls below RANK_TOL times the
    leading pivot, and TooFewRows when there are fewer rows than columns.
    """
    n, q = X.shape
    if n < q:
        raise TooFewRows(f"{n} rows < {q} columns")
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0:
        return lambda v: np.zeros(0)
    if diag[0] == 0.0 or np.min(diag) < RANK_TOL * diag[0]:
        raise RankDeficient(
            f"pivot ratio {np.min(diag) / max(diag[0], 1e-300):.2e} below {RANK_TOL:.0e}"
        )

    def solve(v: np.ndarray) -> np.ndarray:
        coef_piv = sla.solve_triangular(R, Q.T @ v, lower=False)
        beta = np.empty(q)
        beta[piv] = coef_piv
        return beta

    return solve


def lstsq_qr(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on X via column-pivoted QR.

    Raises as `factor_qr` does.
    """
    return factor_qr(X)(y)


def solve_least_squares(data: Dataset, active) -> np.ndarray:
    """Minimize the squared loss over the rows in `active`.

    `active` is a sequence of row indices; the returned coefficient vector
    has the intercept first when the dataset carries one.
    """
    idx = np.asarray(active, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("active must be a 1-D index set")
    if idx.shape[0] < data.n_coef:
        raise TooFewRows(f"|active|={idx.shape[0]} < {data.n_coef} coefficients")
    return lstsq_qr(data.design[idx], data.y[idx])


def residuals(data: Dataset, beta: np.ndarray) -> np.ndarray:
    """r_i = y_i - [1, x_i]' beta for every row."""
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    if beta.shape[0] != data.n_coef:
        raise ValueError(
            f"beta has length {beta.shape[0]}, design width is {data.n_coef}"
        )
    return data.y - data.design @ beta
