"""Dense least-squares primitives shared by every estimator.

The solver is column-pivoted QR throughout: trimmed subsets can be badly
conditioned, and the pivot sequence gives a deterministic rank test.

`factor_qr` calls LAPACK through `scipy.linalg.lapack` directly: `dgeqp3`
factors, `dorgqr` forms Q, and `dtrtrs` solves with R. These are the
routines `scipy.linalg.qr(mode="economic", pivoting=True)` and
`solve_triangular` call, with the same arguments, workspace sizes and
memory layouts, so the coefficients carry the same bits; skipping the
wrappers' validation and dispatch roughly halves the cost of a small
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .errors import RankDeficient, TooFewRows

# Pivot below this fraction of the leading pivot means rank deficiency.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """Response vector and regressor matrix, with the intercept column.

    `y` has length N, `x` is N x d (no intercept column); the design is
    [1, x], N x (d+1), and coefficient vectors carry the intercept first.
    `y` and `x` are read-only copies of the inputs, so later edits to the
    caller's arrays move no fit.
    """

    y: np.ndarray
    x: np.ndarray
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.array(self.y, dtype=np.float64).reshape(-1)
        x = np.array(self.x, dtype=np.float64)
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
        design = np.hstack([np.ones((y.shape[0], 1)), x])
        for arr in (y, x, design):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "design", design)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def n_coef(self) -> int:
        """Width of the design, d+1."""
        return self.design.shape[1]


# optimal workspace size per (routine, input shapes), filled on first use
_LWORK: dict = {}


def _lapack(routine, *args, **kwargs):
    """Call a LAPACK routine with its optimal workspace, queried (`lwork=-1`)
    once per routine and input shapes, as `scipy.linalg` does: the blocked
    path depends on `lwork`, so the bits do too. Returns the outputs before
    `work` and `info`."""
    key = (routine, *(a.shape for a in args))
    if key not in _LWORK:
        _LWORK[key] = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    out = routine(*args, lwork=_LWORK[key], **kwargs)
    if out[-1] != 0:
        raise ValueError(f"illegal value in argument {-out[-1]} of {routine.__name__}")
    return out[:-2]


def pivoted_qr(X: np.ndarray):
    """Thin column-pivoted QR, X[:, piv] = Q R, of a finite X with at
    least as many rows as columns; return Q, R' and piv.

    Raises RankDeficient when a pivot falls below RANK_TOL times the
    leading pivot; its message names the column of X, a design column
    (0 = intercept), at the smallest pivot.
    """
    q = X.shape[1]
    # one Fortran-ordered copy, factored and then overwritten by Q in place
    qr = np.array(X, dtype=np.float64, order="F")
    qr, jpvt, tau = _lapack(lapack.dgeqp3, qr, overwrite_a=1)
    diag = np.abs(qr.diagonal()).tolist()
    if diag[0] == 0.0 or min(diag) < RANK_TOL * diag[0]:
        col = jpvt[diag.index(min(diag))] - 1
        raise RankDeficient(
            f"the design is rank deficient: column {col} (0 = intercept) has pivot ratio "
            f"{min(diag) / max(diag[0], 1e-300):.2e} below {RANK_TOL:.0e}"
        )
    # R' in Fortran order, the layout `solve_triangular` hands dtrtrs for
    # a C-ordered R. Its strictly upper part keeps Householder entries,
    # which dtrtrs with lower=1 never reads, so R needs no zeroing.
    R_t = np.array(qr[:q], order="C").T  # a copy: dorgqr overwrites qr
    (Q,) = _lapack(lapack.dorgqr, qr, tau, overwrite_a=1)
    return Q, R_t, jpvt - 1


def _factors(X: np.ndarray):
    """Q, R' and piv of a finite X with at least as many rows as columns
    (`pivoted_qr`), or None when X has no columns; raises as `factor_qr`."""
    n, q = X.shape
    if n < q:
        raise TooFewRows(f"{n} rows < {q} columns")
    if q == 0:
        return None
    if not np.isfinite(X).all():
        raise ValueError("array must not contain infs or NaNs")
    return pivoted_qr(X)


def _solve_pivoted(Q, R_t, v: np.ndarray) -> np.ndarray:
    """Coefficients of v on X[:, piv] = Q R, in pivot order."""
    qtv = Q.T @ v
    if not np.isfinite(qtv).all():
        raise ValueError("array must not contain infs or NaNs")
    coef_piv, info = lapack.dtrtrs(R_t, qtv, lower=1, trans=1, overwrite_b=1)
    if info != 0:  # a zero pivot, which the rank test has ruled out
        raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
    return coef_piv


def factor_qr(X: np.ndarray):
    """Factor X once by column-pivoted QR; return `solve(v) -> beta`.

    `solve(v)` is the least-squares coefficient vector of v on X, so a
    fixed design refit against many responses is factored only once.
    Raises RankDeficient when a pivot falls below RANK_TOL times the
    leading pivot, TooFewRows when there are fewer rows than columns, and
    ValueError when X, or Q'v in `solve`, holds NaN or Inf.
    """
    factors = _factors(X)
    if factors is None:
        return lambda v: np.zeros(0)
    Q, R_t, piv = factors
    unpivot = np.argsort(piv)  # coefficient j sits at position unpivot[j]
    return lambda v: _solve_pivoted(Q, R_t, v)[unpivot]


def lstsq_qr(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on X via column-pivoted QR: one
    solve, with the bits of `factor_qr(X)(y)`.

    Raises as `factor_qr` does.
    """
    factors = _factors(X)
    if factors is None:
        return np.zeros(0)
    Q, R_t, piv = factors
    beta = np.empty(X.shape[1])
    beta[piv] = _solve_pivoted(Q, R_t, y)
    return beta
