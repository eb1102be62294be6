"""Sparse outlier-shift regression under an exact cardinality budget.

The estimator minimizes 0.5 * sum of squared residuals over the rows it
keeps, where at most k rows may be discarded (their shifts absorb the
residual entirely). Three layers of search are provided:

* `fit_iht`: alternate hard-thresholding of the residuals with least
  squares on the kept rows until the kept set stabilizes; each kept set
  is solved once, and the last solve is the answer.
* `fit_lcs`: refine an IHT solution by exhaustively trying swaps of up
  to `l` rows between the kept and discarded sets (l = 1 or 2).
* `neighborhood_search`: solve for every budget k = 1..K, re-seeding
  each budget from its neighbors until the solutions stop improving.

Swap candidates are scored exactly from one pivoted QR of the kept rows,
as every solve is: one kernel (`_readmit_scores`) readmits one discarded
row, or a pair, by a Woodbury update in that factor's orthonormal basis,
then applies leave-out downdates for the dropped kept rows. No Gram is
formed, whose normal equations would lose digits (Higham 2002, ch. 20).
At order 2 a readmitted pair's table of two-row drops, one entry per
pair of kept rows, is built only when a lower bound on its best entry,
from the leverages and residuals the readmission already gives, does
not exceed a score some candidate already attains; a skipped table could
neither win nor tie, so the result keeps its bits (`_swap_pass`). The
winning support is always refit by pivoted QR before acceptance.

Each kept set is solved, each support swap-searched, and each
coefficient vector's residuals ranked, once per call. The outermost
public search call in progress (`fit_iht`, `local_swap_search`,
`fit_lcs`, `neighborhood_search` or `fit_l0_auto`) holds one memo, which
the searches nested in it share and which is dropped when it returns,
or raises. It maps (k, discarded rows) to the trimmed solution, (l,
discarded rows) to the order-l swap pass with the discard set of its
move, and the bytes of a beta to the stable ranking of its residuals
by magnitude, from which `fit_iht` takes every budget's discard set.
All are pure functions of their keys, so a hit changes no output: a
solution comes back as a new object with the same read-only arrays and
a fresh `info` dict, and `local_swap_search` writes the same `info`
entries as after a fresh pass. The searches re-visit supports often: a
swap's refit is usually the first support of the alternation that
follows it, a budget sweep's refits start from coefficients an earlier
alternation reached and land on supports an earlier refit reached, and
`fit_l0_auto`'s closing polish starts on the support the sweep selected.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from math import comb, isfinite

import numpy as np
from scipy.linalg import lapack

from .errors import DegenerateFit, InvariantViolated, RankDeficient, TooFewInliers
from .linalg import Dataset, lstsq_qr, pivoted_qr

IHT_MAX_ITER = 100
LCS_MAX_OUTER = 50
SWEEP_MAX = 20
# relative margin a swap must clear to count as a strict improvement
IMPROVE_TOL = 1e-12
# leave-out denominators below this are treated as degenerate candidates
DOWNDATE_TOL = 1e-10
# readmitted pairs scored per batch: the scoring arrays then hold a few
# times PAIR_BLOCK * (N - k) floats however many pairs there are; a
# pair's two-drop table adds a few (N - k)^2 arrays, one pair at a time
PAIR_BLOCK = 256
# a readmitted pair's two-drop bound is off where 2 min(1 - h) - 1, the
# bound's floor on the 2 x 2 leave-out eigenvalues, is at or below this
PAIR_GAP_FLOOR = 0.25
# relative margin a pair's bound keeps below the scores it bounds, far
# above their rounding error (about 1e-13 relative once the gap > 0.25)
PAIR_BOUND_MARGIN = 1e-9
# complexity charge per discarded row, as a multiple of log N, when
# selecting the budget here or psi in `l1` (where rows are flagged). The
# plain value 1 never stops: trimming one more clean row always cuts the
# trimmed RSS by about the squared noise maximum (~2 log N per row),
# which beats a log N charge for any N. Calibrated so the selected budget
# tracks the planted count when shifts are separable.
BIC_SELECTION_MULT = 2.75


@dataclass(frozen=True)
class Selection:
    """BIC selection of `param`, "k" or "psi": the selected `score`, and one
    (value, objective, score, rows flagged) `trace` entry per candidate."""

    param: str
    score: float
    trace: tuple


@dataclass(frozen=True)
class SparsitySolution:
    """Solution at budget k: coefficients, shifts, and the row partition.

    `outliers` are the rows with nonzero shift; their shift equals the raw
    residual, so they contribute nothing to the objective. The arrays are
    read-only, as a search may hand the same ones to several solutions.
    `info` carries search diagnostics (candidate counts, certificates),
    belongs to this solution alone and never takes part in comparisons;
    nor does `selection`, set on the solution a BIC selection returns.
    """

    beta: np.ndarray
    alpha: np.ndarray
    k: int
    inliers: np.ndarray
    outliers: np.ndarray
    objective: float
    info: dict = field(default_factory=dict, compare=False, repr=False)
    selection: Selection | None = field(default=None, compare=False, repr=False)


def hard_threshold(c: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of c, zero the rest.

    Ties in magnitude resolve toward the lowest index.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    out = np.zeros_like(c)
    keep = _top_k_indices(c, k)
    out[keep] = c[keep]
    return out


def _top_k_indices(r: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest |r| in ascending order; among ties in
    magnitude the lowest index is kept."""
    return np.sort(_magnitude_order(r)[:k])


def _magnitude_order(r: np.ndarray) -> np.ndarray:
    """Indices by descending |r|, ties in the lower index first."""
    return np.argsort(-np.abs(r), kind="stable")


# (data, memo) of the outermost public search call in progress, else None
_ACTIVE_MEMO: ContextVar[tuple | None] = ContextVar("trimreg_l0_memo", default=None)


def _solves_once_per_call(search):
    """Give each outermost call of `search` on a dataset its own memo,
    shared by the searches it calls and dropped when it returns or raises."""

    @functools.wraps(search)
    def call(data, *args, **kwargs):
        active = _ACTIVE_MEMO.get()
        if active is not None and active[0] is data:
            return search(data, *args, **kwargs)
        token = _ACTIVE_MEMO.set((data, {}))
        try:
            return search(data, *args, **kwargs)
        finally:
            _ACTIVE_MEMO.reset(token)

    return call


def _call_memo(data: Dataset) -> dict | None:
    """The memo of the public search call in progress on `data`, if any."""
    active = _ACTIVE_MEMO.get()
    return active[1] if active is not None and active[0] is data else None


def _trimmed_solution(data: Dataset, drop_rows: np.ndarray, k: int) -> SparsitySolution:
    """Restricted least squares with the given rows fully absorbed.

    Raises DegenerateFit when the kept rows' residual sum of squares
    overflows. The arrays of the solution are read-only. Inside a public
    search call a repeated (k, drop_rows) is answered from that call's
    memo: a new solution with the same arrays and a fresh `info` dict.
    """
    memo = _call_memo(data)
    if memo is not None:
        key = (k, np.asarray(drop_rows, dtype=np.intp).tobytes())
        hit = memo.get(key)
        if hit is not None:
            return SparsitySolution(beta=hit.beta, alpha=hit.alpha, k=k, inliers=hit.inliers,
                                    outliers=hit.outliers, objective=hit.objective)
    n = data.n_obs
    mask = np.ones(n, dtype=bool)
    mask[drop_rows] = False
    kept = np.flatnonzero(mask)
    if kept.shape[0] < data.n_coef:
        raise TooFewInliers(
            f"{kept.shape[0]} kept rows < {data.n_coef} coefficients"
        )
    beta = lstsq_qr(data.design[kept], data.y[kept])
    r = data.y - data.design @ beta
    alpha = np.zeros(n)
    alpha[drop_rows] = r[drop_rows]
    outliers = np.flatnonzero(alpha != 0.0)
    inliers = np.flatnonzero(alpha == 0.0)
    objective = 0.5 * float(r[inliers] @ r[inliers])
    if not isfinite(objective):
        raise DegenerateFit(f"residual sum of squares overflows ({objective})")
    for arr in (beta, alpha, inliers, outliers):
        arr.setflags(write=False)
    sol = SparsitySolution(
        beta=beta, alpha=alpha, k=k, inliers=inliers, outliers=outliers,
        objective=objective,
    )
    if memo is not None:
        memo[key] = sol
    return sol


@_solves_once_per_call
def fit_iht(data: Dataset, k: int, beta0: np.ndarray) -> SparsitySolution:
    """Alternate residual hard-thresholding with trimmed least squares.

    Each iteration discards the k largest residuals and solves the kept
    rows once (`_trimmed_solution`); the last solve is the answer. Stops
    once the discarded set repeats (then the coefficients are a fixed
    point) or the coefficient change drops below 1e-10 in max-norm. The
    trimmed objective is non-increasing across iterations. `beta0` must
    be finite and as long as a row of the design, also at k = 0.
    """
    n, q = data.n_obs, data.n_coef
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if n - k < q:
        raise TooFewInliers(f"N - k = {n - k} < {q} coefficients")
    beta = np.asarray(beta0, dtype=np.float64).reshape(-1)
    if beta.shape[0] != q or not np.all(np.isfinite(beta)):
        raise ValueError("beta0 must be a finite vector matching the design width")
    if k == 0:
        return _trimmed_solution(data, np.empty(0, dtype=np.intp), 0)
    memo = _call_memo(data)  # never None: this is a public search call
    sol: SparsitySolution | None = None
    prev_key = None
    obj = np.inf
    iterations = 0
    for iterations in range(1, IHT_MAX_ITER + 1):
        order_key = ("order", beta.tobytes())
        order = memo.get(order_key)
        if order is None:
            order = memo[order_key] = _magnitude_order(data.y - data.design @ beta)
        drop = np.sort(order[:k])
        key = drop.tobytes()
        if key == prev_key:
            break
        sol = _trimmed_solution(data, drop, k)
        if not sol.objective <= obj + IMPROVE_TOL * max(1.0, obj):
            raise InvariantViolated("hard-threshold iteration increased the trimmed objective")
        obj = sol.objective
        delta = max(abs(a - b) for a, b in zip(sol.beta.tolist(), beta.tolist()))
        beta = sol.beta
        prev_key = key
        if delta < 1e-10:
            break
    sol.info["iterations"] = iterations
    return sol


def count_swap_candidates(n_inliers: int, n_outliers: int, l: int) -> int:
    """Size of the swap neighborhood: sum over moves of up to l rows each way."""
    total = 0
    for s2 in range(1, min(l, n_outliers) + 1):
        per_base = sum(comb(n_inliers, s1) for s1 in range(0, s2 + 1))
        total += comb(n_outliers, s2) * per_base
    return total


def _kept_fit(X_in, y_in):
    """(T, Q, Q'y_in, rss0, e0, 1 - h0) of the m kept rows, from their
    `pivoted_qr` X_in[:, piv] = Q R: T is R^-1 with its rows in design
    order (X_in T = Q), then the fit's RSS, residuals and leave-out
    denominators. Raises RankDeficient as `pivoted_qr` does."""
    Q, R_t, piv = pivoted_qr(X_in)
    # dtrtri, not dtrtrs: a matrix right-hand side takes the threaded BLAS
    # path, far slower at this size. Row i of R^-1 is Rt_inv[i:, i]; above
    # the diagonal Rt_inv keeps R_t's Householder entries.
    Rt_inv, info = lapack.dtrtri(R_t, lower=1)
    if info != 0:  # a zero pivot, which the rank test has ruled out
        raise np.linalg.LinAlgError(f"dtrtri failed with info={info}")
    T = np.zeros_like(Rt_inv)
    for i, row in enumerate(piv):
        T[row, i:] = Rt_inv[i:, i]
    qty = Q.T @ y_in
    e0 = y_in - Q @ qty
    return T, Q, qty, float(e0 @ e0), e0, 1.0 - np.einsum("ij,ij->i", Q, Q)


def _readmit_scores(kept, X_A, y_A):
    """Score readmitting each of P row sets A, alone and with one kept row.

    `kept` is `_kept_fit` of the m kept rows; `X_A` is (P, s, q) and `y_A`
    (P, s), for s = 1 or 2 readmitted rows. Returns the
    (P, 1 + m) RSS table, whose [p, 0] readmits A_p and [p, 1 + j] also
    drops kept row j (inf where 1 - h_j <= DOWNDATE_TOL), with the kept
    rows' residuals e and denominators 1 - h after each readmission, and
    W and C^-1 W for the leverage update H = H0 - W' C^-1 W.

    Woodbury in the kept rows' orthonormal basis: with Z = X_A T, C = I +
    Z Z' (never singular, since C >= I), r = y_A - Z Q'y_in and W = Z Q',
    readmitting A adds r' C^-1 r to the RSS, moves e by -W' C^-1 r and
    1 - h by the diagonal of W' C^-1 W; the drop then removes e_j^2 / (1 - h_j).
    """
    T, Q, qty, rss0, e0, d0 = kept
    P, s, q = X_A.shape
    Z = X_A.reshape(P * s, q) @ T  # row p * s + t is row t of set p
    W = Z @ Q.T
    r = y_A.reshape(-1) - Z @ qty
    if s == 1:  # a 1 x 1 solve is a divide
        c = 1.0 + np.einsum("ij,ij->i", Z, Z)
        Cr, CW = r / c, W / c[:, None]
    else:
        C = np.eye(2) + Z.reshape(P, 2, q) @ Z.reshape(P, 2, q).transpose(0, 2, 1)
        Cr = np.linalg.solve(C, r.reshape(P, 2, 1)).reshape(-1)
        CW = np.linalg.solve(C, W.reshape(P, 2, -1)).reshape(P * 2, -1)

    def per_set(a):  # sum over the s rows of each set
        return a if s == 1 else a[0::2] + a[1::2]

    base = np.maximum(rss0 + per_set(r * Cr), 0.0)
    e = e0 - per_set(W * Cr[:, None])
    denom = d0 + per_set(W * CW)
    with np.errstate(divide="ignore", invalid="ignore"):
        drops = np.where(denom > DOWNDATE_TOL, base[:, None] - e * e / denom, np.inf)
    return np.column_stack([base, drops]), e, denom, W.reshape(P, s, -1), CW.reshape(P, s, -1)


def _pair_bounds(base, e, denom):
    """Lower bound on each readmitted pair's best two-drop score, or -inf
    where the bound is off.

    `base`, `e` and `denom` are `_readmit_scores`' column 0, residuals and
    denominators 1 - h for P pairs. The hat matrix after a readmission is
    a projection, so its 2 x 2 block H_SS on any two kept rows has
    λ_max <= trace = h_i + h_j, and the leave-out matrix I - H_SS has
    λ_min >= g = 2 min(1 - h) - 1. Dropping two rows then removes at most
    (e_(1)^2 + e_(2)^2) / g, from the two largest squared residuals; the
    bound is base minus that, less `PAIR_BOUND_MARGIN` of its terms, which
    covers the rounding of the scores it bounds. Off (-inf) where g is at
    or below `PAIR_GAP_FLOOR`, as with a high-leverage kept row, or where
    the bound is NaN.
    """
    g = 2.0 * denom.min(axis=1) - 1.0
    top2 = np.partition(e * e, e.shape[1] - 2, axis=1)[:, -2:].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = top2 / g
    bound = base - cut - PAIR_BOUND_MARGIN * (np.abs(base) + cut)
    return np.where((g > PAIR_GAP_FLOOR) & ~np.isnan(bound), bound, -np.inf)


def _best_two_drop(base, e, denom, h12, i1, i2):
    """(score, index into i1/i2) of the best kept-row pair to drop after
    one readmission, from its residuals e, denominators 1 - h and the
    off-diagonal h12 of the kept pairs (i1, i2). A pair whose 2 x 2
    leave-out matrix is degenerate scores inf."""
    d1, d2 = denom.take(i1), denom.take(i2)
    det = d1 * d2 - h12 * h12
    e1, e2 = e.take(i1), e.take(i2)
    corr = e1 * e1 * d2 + e2 * e2 * d1 + 2.0 * e1 * e2 * h12
    ok = (det > DOWNDATE_TOL) & (d1 > DOWNDATE_TOL) & (d2 > DOWNDATE_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        rss2 = np.where(ok, base - corr / det, np.inf)
    at = int(np.argmin(rss2))
    return rss2[at], at


def _swap_pass(X, y, in_idx, out_idx, l):
    """Best swap candidate by exact leave-out downdating.

    Returns (best_rss, rows_to_drop, rows_to_readmit, n_candidates) where
    the rows are global indices; rows_to_drop come from the current kept
    set and rows_to_readmit from the discarded set. Every readmission (one
    row, or a pair when l = 2) is scored from one pivoted QR of the kept
    rows (`_readmit_scores`). Of equal scores the first wins, in the
    order singles then pairs, each with no drop, then one, then two.
    Degenerate candidates (singular after removal) score inf but are
    counted; every candidate does if the kept rows fail the rank test.

    A readmitted pair's two-drop table (all m(m - 1)/2 kept-row pairs) is
    built only if its `_pair_bounds` bound does not exceed v, the smallest
    score some candidate already attains: the best so far, the block's
    no-drop and one-drop scores, and the two-drop bests built so far.
    Pairs are visited in ascending bound, so once one is skipped all the
    rest are. A skipped pair's scores all lie strictly above v, so they
    could neither win nor tie: the winner, its score's bits and the tie
    order are those of the full table, and the count is unchanged. Near
    a high-leverage kept row the bound is off and every table is built.
    """
    m, ko = in_idx.shape[0], out_idx.shape[0]
    n_cand = count_swap_candidates(m, ko, l)
    best_rss, best_drop, best_add = np.inf, [], out_idx[:0]
    try:
        kept = _kept_fit(X[in_idx], y[in_idx])
    except RankDeficient:
        return best_rss, in_idx[:0], best_add, n_cand
    readmits = [out_idx[:, None]]  # in tie order: singles, then pairs
    if l == 2 and ko >= 2:
        pairs = out_idx[np.column_stack(np.triu_indices(ko, 1))]
        readmits += np.split(pairs, range(PAIR_BLOCK, pairs.shape[0], PAIR_BLOCK))
        H0_12 = None  # H0 = Q Q', formed once a pair's table is built
    for A in readmits:
        table, e, denom, W, CW = _readmit_scores(kept, X[A], y[A])
        if A.shape[1] == 2:  # also drop two kept rows: each pair's best
            two = np.full(A.shape[0], np.inf)
            two_at = np.zeros(A.shape[0], dtype=np.intp)
            if m >= 2:
                bound = _pair_bounds(table[:, 0], e, denom)
                v = min(best_rss, table.min())
                for p in np.argsort(bound):
                    if bound[p] > v:
                        break
                    if H0_12 is None:
                        i1, i2 = np.triu_indices(m, 1)  # the kept-row pairs a pair may drop
                        flat = i1 * m + i2  # their entries in an m x m matrix
                        H0_12 = (kept[1] @ kept[1].T).take(flat)
                    h12 = H0_12 - (W[p].T @ CW[p]).take(flat)
                    two[p], two_at[p] = _best_two_drop(table[p, 0], e[p], denom[p], h12, i1, i2)
                    v = min(v, two[p])
            table = np.column_stack([table, two])
        p, col = divmod(int(np.argmin(table)), table.shape[1])
        if table[p, col] < best_rss:
            best_rss, best_add = float(table[p, col]), A[p]
            if col <= m:
                best_drop = [col - 1] if col else []
            else:
                best_drop = [i1[two_at[p]], i2[two_at[p]]]
    return best_rss, in_idx[best_drop], best_add, n_cand


@_solves_once_per_call
def local_swap_search(data: Dataset, sol: SparsitySolution, l: int) -> SparsitySolution:
    """Best solution over swaps of up to l rows between kept and discarded.

    Moves at most l discarded rows back in and at most as many kept rows
    out, scoring every such support by restricted least squares. If no
    candidate beats the current objective by more than a 1e-12 relative
    margin, the input is returned unchanged and certified swap-inescapable
    of order l. The swap pass, and the discard set of its move once
    accepted, come from the call's memo when the same (l, discarded rows)
    was searched before.
    """
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    margin = IMPROVE_TOL * max(1.0, sol.objective)
    if sol.outliers.shape[0] == 0:
        sol.info["swap_candidates"] = 0
        sol.info["inescapable_order"] = l
        return sol
    memo = _call_memo(data)  # never None: this is a public search call
    key = ("swap", l, np.asarray(sol.outliers, dtype=np.intp).tobytes())
    entry = memo.get(key)
    if entry is None:  # the pass, then the discard set of its move once accepted
        entry = memo[key] = [*_swap_pass(data.design, data.y, sol.inliers, sol.outliers, l), None]
    best_rss, drop_rows, add_rows, n_cand, move = entry
    sol.info["swap_candidates"] = n_cand
    if 0.5 * best_rss < sol.objective - margin:
        if move is None:
            # no more rows go out than come back in, so at least q rows stay
            move = np.setdiff1d(sol.outliers, add_rows, assume_unique=True)
            move = entry[4] = np.union1d(move, drop_rows).astype(np.intp)
        cand = _trimmed_solution(data, move, sol.k)
        if cand.objective < sol.objective - margin:
            cand.info["swap_candidates"] = n_cand
            return cand
    sol.info["inescapable_order"] = l
    return sol


@_solves_once_per_call
def fit_lcs(data: Dataset, k: int, beta0: np.ndarray, l: int) -> SparsitySolution:
    """Hard-thresholding alternation refined by exhaustive local swaps.

    Runs the alternating fit, then rounds of the order-l swap search;
    each strict improvement restarts the alternation from the improved
    coefficients. Terminates at a swap-inescapable solution (or after
    `LCS_MAX_OUTER` rounds), with the objective non-increasing throughout.
    """
    cur = fit_iht(data, k, beta0)
    for _ in range(LCS_MAX_OUTER):
        swapped = local_swap_search(data, cur, l)
        if swapped is cur:
            break
        if not swapped.objective <= cur.objective:
            raise InvariantViolated("swap accepted without descent")
        nxt = fit_iht(data, k, swapped.beta)
        if not nxt.objective <= swapped.objective + IMPROVE_TOL * max(1.0, swapped.objective):
            raise InvariantViolated("re-threshold after swap increased the objective")
        cur = nxt
    return cur


def sweep_cap(n: int, q: int) -> int:
    """The largest budget a sweep may scan, min(N // 2, N - q - 1): half
    the rows and at least q + 1 rows stay, so every budget's fit keeps a
    residual degree of freedom. At N - q rows stay, the fit interpolates,
    and its RSS, rounding error near 1e-30, would win the BIC selection
    by log(RSS) alone. Below 1, no budget fits."""
    return min(n // 2, n - q - 1)


@_solves_once_per_call
def neighborhood_search(
    data: Dataset, beta0: np.ndarray, K: int, l: int
) -> list[SparsitySolution]:
    """Solve every budget 1..K, re-seeding each from adjacent budgets.

    Every fit is `fit_lcs`. After the initial pass, budgets are swept in
    ascending order; budget k keeps the best of its current solution and
    refits started from the coefficients at k-1 (already updated this
    sweep) and k+1. Sweeps stop when the summed objective is unchanged.
    Per-budget objectives never increase across sweeps. Refits share this
    call's memo, so a refit that lands on a support solved or
    swap-searched before repeats neither.
    K must lie in [1, `sweep_cap`]: K >= N - q raises TooFewInliers, and
    any other K outside it ValueError.
    """
    n, q = data.n_obs, data.n_coef
    if K < 1:
        raise ValueError("K must be >= 1")
    if K >= n - q:
        raise TooFewInliers(f"K={K} leaves N - K = {n - K} rows, fewer than q + 1 = {q + 1}")
    if K > n // 2:
        raise ValueError(f"K={K} exceeds floor(N/2)={n // 2}")
    sols = [fit_lcs(data, k, beta0, l) for k in range(1, K + 1)]
    total = sum(s.objective for s in sols)
    for _ in range(SWEEP_MAX):
        for j in range(K):
            best = sols[j]
            # every budget was fitted once already, so no refit can fail
            for init in [sols[i].beta for i in (j - 1, j + 1) if 0 <= i < K]:
                cand = fit_lcs(data, j + 1, init, l)
                if cand.objective < best.objective:
                    best = cand
            if not best.objective <= sols[j].objective:
                raise InvariantViolated("sweep increased an objective")
            sols[j] = best
        new_total = sum(s.objective for s in sols)
        if abs(new_total - total) <= IMPROVE_TOL * max(1.0, total):
            break
        total = new_total
    return sols


def bic(data: Dataset, beta: np.ndarray, alpha: np.ndarray, complexity: float) -> float:
    """N log(RSS/N) + complexity log N with the shifts subtracted from the
    residual, for both families. DegenerateFit where RSS <= (N eps |y|)^2,
    the rounding level of residuals of y, whose log would rank rounding
    noise, or where RSS underflows the smallest normal float."""
    n = data.n_obs
    r = data.y - data.design @ beta - alpha
    rss = float(r @ r)
    # the rounding level is tested on the norms, which do not overflow
    if rss < np.finfo(float).tiny or (
        np.linalg.norm(r) <= n * np.finfo(float).eps * np.linalg.norm(data.y)
    ):
        raise DegenerateFit("residual sum of squares is zero up to rounding")
    return n * np.log(rss / n) + complexity * np.log(n)


def bic_score(data: Dataset, sol: SparsitySolution) -> float:
    """N log(RSS/N) + k log N (`bic` with complexity k)."""
    return bic(data, sol.beta, sol.alpha, sol.k)


def select_by_score(candidates: list, param: str, score, prefer_last: bool = False):
    """Score every candidate solution; return the selected one as a new
    solution whose `selection` traces the candidates' `param`, "k" or "psi".

    The minimum score wins; among equal scores the earliest candidate
    wins, or the latest when `prefer_last` is set. Raises ValueError if
    no candidate is selected (every score is NaN, or infinite without
    `prefer_last`).
    """
    trace = tuple((getattr(c, param), c.objective, score(c), int(np.count_nonzero(c.alpha)))
                  for c in candidates)
    selected, best = None, np.inf
    for c, (_, _, s, _) in zip(candidates, trace):
        if s < best or (prefer_last and s == best):
            selected, best = c, s
    if selected is None:
        raise ValueError("no candidate scores below infinity")
    return replace(selected, selection=Selection(param, best, trace))


def select_k_bic(data: Dataset, beta0: np.ndarray, K: int, l: int) -> SparsitySolution:
    """Budget sweep followed by BIC selection, the complexity term scaled
    by `BIC_SELECTION_MULT`; ties go to the smaller k. The `selection`
    traces every budget in ascending k."""
    return select_by_score(
        neighborhood_search(data, beta0, K, l), "k",
        lambda sol: bic_score(data, sol) + (BIC_SELECTION_MULT - 1.0) * sol.k * np.log(data.n_obs),
    )


@_solves_once_per_call
def fit_l0_auto(data: Dataset, beta0: np.ndarray, K: int, l_final: int = 2) -> SparsitySolution:
    """Full pipeline: order-1 budget sweep from `beta0`, BIC choice,
    order-l_final polish.

    `beta0` is the sweep's start, as in `select_k_bic`; the paper's
    pipeline starts from the LAD fit (`classic.initial_beta`), which the
    caller fits once and may share with other estimators. Returns the
    polished solution at the selected budget (or the selected one, if
    polishing does not lower the objective), with the sweep's `selection`.
    """
    selected = select_k_bic(data, beta0, K, 1)
    if l_final > 1:
        final = fit_lcs(data, selected.k, selected.beta, l_final)
        if final.objective <= selected.objective:
            return replace(final, selection=selected.selection)
    return selected


__all__ = [
    "Selection",
    "SparsitySolution",
    "hard_threshold",
    "fit_iht",
    "local_swap_search",
    "fit_lcs",
    "neighborhood_search",
    "sweep_cap",
    "bic",
    "bic_score",
    "select_by_score",
    "select_k_bic",
    "fit_l0_auto",
    "count_swap_candidates",
]
