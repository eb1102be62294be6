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

Swap candidates are scored exactly from one inverse of the kept rows'
Gram (a Sherman-Morrison readmission, then leave-out downdates), so the
order-1 neighborhood costs a few small matrix products rather than one QR
per candidate. The winning support is always refit through the
pivoted-QR path before acceptance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .classic import initial_beta
from .errors import DegenerateFit, InvariantViolated, TooFewInliers
from .linalg import Dataset, lstsq_qr

IHT_MAX_ITER = 100
LCS_MAX_OUTER = 50
SWEEP_MAX = 20
# relative margin a swap must clear to count as a strict improvement
IMPROVE_TOL = 1e-12
# leave-out denominators below this are treated as degenerate candidates
DOWNDATE_TOL = 1e-10
# complexity charge per discarded row used when selecting the budget, as a
# multiple of log N. The plain value 1 never stops: trimming one more clean
# row always cuts the trimmed RSS by about the squared noise maximum
# (~2 log N per row), which beats a log N charge for any N. Calibrated so
# the selected budget tracks the planted count when shifts are separable.
BIC_SELECTION_MULT = 2.75


@dataclass(frozen=True)
class SparsitySolution:
    """Solution at budget k: coefficients, shifts, and the row partition.

    `outliers` are the rows with nonzero shift; their shift equals the raw
    residual, so they contribute nothing to the objective. `info` carries
    search diagnostics (candidate counts, certificates) and never takes
    part in comparisons.
    """

    beta: np.ndarray
    alpha: np.ndarray
    k: int
    inliers: np.ndarray
    outliers: np.ndarray
    objective: float
    info: dict = field(default_factory=dict, compare=False, repr=False)


def hard_threshold(c: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of c, zero the rest.

    Ties in magnitude resolve toward the lowest index.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    out = np.zeros_like(c)
    if k > 0:
        keep = np.argsort(-np.abs(c), kind="stable")[:k]
        out[keep] = c[keep]
    return out


def _top_k_indices(r: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest |r|, lowest index first among ties."""
    if k == 0:
        return np.empty(0, dtype=np.intp)
    return np.sort(np.argsort(-np.abs(r), kind="stable")[:k])


def _trimmed_solution(data: Dataset, drop_rows: np.ndarray, k: int) -> SparsitySolution:
    """Restricted least squares with the given rows fully absorbed."""
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
    return SparsitySolution(
        beta=beta, alpha=alpha, k=k, inliers=inliers, outliers=outliers,
        objective=objective,
    )


def fit_iht(data: Dataset, k: int, beta0: np.ndarray) -> SparsitySolution:
    """Alternate residual hard-thresholding with trimmed least squares.

    Each iteration discards the k largest residuals and solves the kept
    rows once (`_trimmed_solution`); the last solve is the answer. Stops
    once the discarded set repeats (then the coefficients are a fixed
    point) or the coefficient change drops below 1e-10 in max-norm. The
    trimmed objective is non-increasing across iterations.
    """
    n, q = data.n_obs, data.n_coef
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if n - k < q:
        raise TooFewInliers(f"N - k = {n - k} < {q} coefficients")
    if k == 0:
        return _trimmed_solution(data, np.empty(0, dtype=np.intp), 0)
    X, y = data.design, data.y
    beta = np.asarray(beta0, dtype=np.float64).reshape(-1)
    if beta.shape[0] != q or not np.all(np.isfinite(beta)):
        raise ValueError("beta0 must be a finite vector matching the design width")
    sol: SparsitySolution | None = None
    prev_drop: np.ndarray | None = None
    obj = np.inf
    iterations = 0
    for iterations in range(1, IHT_MAX_ITER + 1):
        drop = _top_k_indices(y - X @ beta, k)
        if prev_drop is not None and np.array_equal(drop, prev_drop):
            break
        sol = _trimmed_solution(data, drop, k)
        if not sol.objective <= obj + IMPROVE_TOL * max(1.0, obj):
            raise InvariantViolated("hard-threshold iteration increased the trimmed objective")
        obj = sol.objective
        delta = np.max(np.abs(sol.beta - beta))
        beta = sol.beta
        prev_drop = drop
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


def _readmit_one_scores(X_in, y_in, X_out, y_out):
    """(ko, 1 + m) RSS table: [a, 0] readmits discarded row a, [a, 1 + j] also
    drops kept row j, and is inf where that leaves 1 - h_j <= DOWNDATE_TOL.

    All from one inverse G0 of the kept rows' Gram (Sherman-Morrison): with
    c_a = 1 + x_a' G0 x_a and w = x_j' G0 x_a, readmitting a adds r_a^2 / c_a
    to the RSS, moves e_j by -w r_a / c_a and 1 - h_j by w^2 / c_a; the drop
    then removes e_j^2 / (1 - h_j). Raises LinAlgError if the Gram is singular.
    """
    G0 = np.linalg.inv(X_in.T @ X_in)
    b_in = X_in.T @ y_in
    beta0 = G0 @ b_in
    rss0 = float(y_in @ y_in) - float(b_in @ beta0)
    e0 = y_in - X_in @ beta0
    h0 = np.einsum("ij,ij->i", X_in @ G0, X_in)
    U = X_out @ G0
    c = 1.0 + np.einsum("ij,ij->i", U, X_out)
    r = y_out - X_out @ beta0
    W = U @ X_in.T
    base = np.maximum(rss0 + r * r / c, 0.0)
    e = e0 - W * (r / c)[:, None]
    denom = (1.0 - h0) + W * W / c[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        drops = np.where(denom > DOWNDATE_TOL, base[:, None] - e * e / denom, np.inf)
    return np.column_stack([base, drops])


def _swap_pass(X, y, in_idx, out_idx, l):
    """Best swap candidate by exact leave-out downdating.

    Returns (best_rss, rows_to_drop, rows_to_readmit, n_candidates) where
    the rows are global indices; rows_to_drop come from the current kept
    set and rows_to_readmit from the discarded set. Single readmissions
    are scored together (`_readmit_one_scores`); each readmitted pair
    (l = 2) inverts its own Gram. Of equal scores the first wins, in the
    order singles then pairs, each with no drop, then one, then two.
    Degenerate candidates (singular after removal) are skipped but counted.
    """
    X_in, y_in = X[in_idx], y[in_idx]
    X_out, y_out = X[out_idx], y[out_idx]
    m, ko = in_idx.shape[0], out_idx.shape[0]

    n_cand = ko * (1 + m)
    try:
        table = _readmit_one_scores(X_in, y_in, X_out, y_out)
    except np.linalg.LinAlgError:
        table = np.full((ko, 1 + m), np.inf)
    a, col = divmod(int(np.argmin(table)), 1 + m)
    best_rss = float(table[a, col])
    best_add: tuple = (a,) if best_rss < np.inf else ()
    best_drop: tuple = (col - 1,) if best_add and col else ()

    if l == 2:
        G_in = X_in.T @ X_in
        b_in = X_in.T @ y_in
        yy_in = float(y_in @ y_in)
        i1, i2 = np.triu_indices(m, k=1)  # the kept-row pairs, in tie order
        for add in itertools.combinations(range(ko), 2):
            add = list(add)
            Xs, ys = X_out[add], y_out[add]
            G = G_in + Xs.T @ Xs
            b = b_in + Xs.T @ ys
            yy = yy_in + float(ys @ ys)
            try:
                Ginv = np.linalg.inv(G)
            except np.linalg.LinAlgError:
                n_cand += 1 + m + comb(m, 2)
                continue
            beta = Ginv @ b
            rss_base = max(yy - float(b @ beta), 0.0)

            n_cand += 1
            if rss_base < best_rss:
                best_rss, best_drop, best_add = rss_base, (), tuple(add)

            e = y_in - X_in @ beta
            Z = X_in @ Ginv
            h = np.einsum("ij,ij->i", Z, X_in)

            # drop one kept row
            denom = 1.0 - h
            with np.errstate(divide="ignore", invalid="ignore"):
                rss1 = np.where(denom > DOWNDATE_TOL, rss_base - e * e / denom, np.inf)
            n_cand += m
            j = int(np.argmin(rss1))
            if rss1[j] < best_rss:
                best_rss, best_drop, best_add = float(rss1[j]), (j,), tuple(add)

            # drop two kept rows
            if m >= 2:
                H = Z @ X_in.T
                d1 = denom[i1]
                d2 = denom[i2]
                h12 = H[i1, i2]
                det = d1 * d2 - h12 * h12
                e1, e2 = e[i1], e[i2]
                corr = e1 * e1 * d2 + e2 * e2 * d1 + 2.0 * e1 * e2 * h12
                ok = (det > DOWNDATE_TOL) & (d1 > DOWNDATE_TOL) & (d2 > DOWNDATE_TOL)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rss2 = np.where(ok, rss_base - corr / det, np.inf)
                n_cand += i1.shape[0]
                j2 = int(np.argmin(rss2))
                if rss2[j2] < best_rss:
                    best_rss = float(rss2[j2])
                    best_drop = (int(i1[j2]), int(i2[j2]))
                    best_add = tuple(add)

    drop_rows = in_idx[list(best_drop)] if best_drop else np.empty(0, dtype=np.intp)
    add_rows = out_idx[list(best_add)] if best_add else np.empty(0, dtype=np.intp)
    return best_rss, drop_rows, add_rows, n_cand


def local_swap_search(data: Dataset, sol: SparsitySolution, l: int) -> SparsitySolution:
    """Best solution over swaps of up to l rows between kept and discarded.

    Moves at most l discarded rows back in and at most as many kept rows
    out, scoring every such support by restricted least squares. If no
    candidate beats the current objective by more than a 1e-12 relative
    margin, the input is returned unchanged and certified swap-inescapable
    of order l.
    """
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    margin = IMPROVE_TOL * max(1.0, sol.objective)
    if sol.outliers.shape[0] == 0:
        sol.info["swap_candidates"] = 0
        sol.info["inescapable_order"] = l
        return sol
    best_rss, drop_rows, add_rows, n_cand = _swap_pass(
        data.design, data.y, sol.inliers, sol.outliers, l
    )
    sol.info["swap_candidates"] = n_cand
    if 0.5 * best_rss < sol.objective - margin:
        new_drop = np.setdiff1d(sol.outliers, add_rows, assume_unique=True)
        new_drop = np.union1d(new_drop, drop_rows)
        try:
            cand = _trimmed_solution(data, new_drop.astype(np.intp), sol.k)
        except TooFewInliers:
            cand = None
        if cand is not None and cand.objective < sol.objective - margin:
            cand.info["swap_candidates"] = n_cand
            return cand
    sol.info["inescapable_order"] = l
    return sol


def fit_lcs(data: Dataset, k: int, beta0: np.ndarray, l: int) -> SparsitySolution:
    """Hard-thresholding alternation refined by exhaustive local swaps.

    Each round runs the alternating fit and then the order-l swap search;
    strict improvements restart the alternation from the improved
    coefficients. Terminates at a swap-inescapable solution (or after
    `LCS_MAX_OUTER` rounds), with the objective non-increasing throughout.
    """
    return _refine(data, fit_iht(data, k, beta0), l)


def _refine(data: Dataset, cur: SparsitySolution, l: int) -> SparsitySolution:
    """The swap rounds of `fit_lcs`, from the IHT solution `cur`.

    A pure function of `cur`'s (k, beta, outliers), which fix its inliers
    and objective too.
    """
    for _ in range(LCS_MAX_OUTER):
        swapped = local_swap_search(data, cur, l)
        if swapped is cur:
            break
        if not swapped.objective <= cur.objective:
            raise InvariantViolated("swap accepted without descent")
        nxt = fit_iht(data, cur.k, swapped.beta)
        if not nxt.objective <= swapped.objective + IMPROVE_TOL * max(1.0, swapped.objective):
            raise InvariantViolated("re-threshold after swap increased the objective")
        cur = nxt
    return cur


def neighborhood_search(
    data: Dataset, beta0: np.ndarray, K: int, l: int
) -> list[SparsitySolution]:
    """Solve every budget 1..K, re-seeding each from adjacent budgets.

    After the initial pass, budgets are swept in ascending order; budget k
    keeps the best of its current solution and refits started from the
    coefficients at k-1 (already updated this sweep) and k+1. Sweeps stop
    when the summed objective is unchanged. Per-budget objectives never
    increase across sweeps. A refit whose IHT start repeats an earlier
    one's (same k, beta and discarded rows) reuses that refit's swap
    rounds instead of running them again.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > data.n_obs // 2:
        raise ValueError(f"K={K} exceeds floor(N/2)={data.n_obs // 2}")
    refined: dict[tuple, SparsitySolution] = {}

    def lcs(k: int, init: np.ndarray) -> SparsitySolution:
        start = fit_iht(data, k, init)
        key = (k, start.beta.tobytes(), start.outliers.tobytes())
        if key not in refined:
            refined[key] = _refine(data, start, l)
        return refined[key]

    sols = [lcs(k, beta0) for k in range(1, K + 1)]
    total = sum(s.objective for s in sols)
    for _ in range(SWEEP_MAX):
        for j in range(K):
            best = sols[j]
            neighbors = []
            if j > 0:
                neighbors.append(sols[j - 1].beta)
            if j < K - 1:
                neighbors.append(sols[j + 1].beta)
            for init in neighbors:
                try:
                    cand = lcs(j + 1, init)
                except TooFewInliers:
                    continue
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


def bic_score(data: Dataset, sol: SparsitySolution) -> float:
    """N log(RSS/N) + k log N with the shifts subtracted from the residual."""
    n = data.n_obs
    r = data.y - data.design @ sol.beta - sol.alpha
    rss = float(r @ r)
    if rss < 1e-300:
        raise DegenerateFit("residual sum of squares underflows the log")
    return n * np.log(rss / n) + sol.k * np.log(n)


def selection_score(data: Dataset, sol: SparsitySolution, mult: float) -> float:
    """`bic_score` with the complexity term scaled by `mult`."""
    n = data.n_obs
    return bic_score(data, sol) + (mult - 1.0) * sol.k * np.log(n)


def select_by_score(candidates, score, prefer_last: bool = False):
    """Score every candidate; return (selected, its score, trace).

    `trace` lists (candidate, score) pairs in input order. The minimum
    score wins; among equal scores the earliest candidate wins, or the
    latest when `prefer_last` is set. Raises ValueError if no candidate
    is selected (every score is NaN, or infinite without `prefer_last`).
    """
    trace = [(c, score(c)) for c in candidates]
    selected, best = None, np.inf
    for c, s in trace:
        if s < best or (prefer_last and s == best):
            selected, best = c, s
    if selected is None:
        raise ValueError("no candidate scores below infinity")
    return selected, best, trace


def select_k_bic(
    data: Dataset,
    beta0: np.ndarray,
    K: int,
    l: int,
    penalty_mult: float = BIC_SELECTION_MULT,
) -> SparsitySolution:
    """Budget sweep followed by BIC selection; ties go to the smaller k.

    `info` carries the selected score under "bic" and, under "bic_trace",
    one (k, objective, score, rows discarded) tuple per budget in
    ascending k.
    """
    best, score, trace = select_by_score(
        neighborhood_search(data, beta0, K, l),
        lambda sol: selection_score(data, sol, penalty_mult),
    )
    best.info["bic"] = score
    best.info["bic_trace"] = [
        (sol.k, sol.objective, s, int(sol.outliers.shape[0])) for sol, s in trace
    ]
    return best


def fit_l0_auto(data: Dataset, K: int, l_final: int = 2) -> SparsitySolution:
    """Full pipeline: order-1 budget sweep from the LAD fit, BIC choice,
    order-l_final polish.

    Returns the polished solution at the selected budget (or the selected
    one, if polishing does not lower the objective); `info` carries the
    sweep's trace under "bic_trace", as in `select_k_bic`.
    """
    selected = select_k_bic(data, initial_beta(data), K, 1)
    final = selected
    if l_final > 1:
        final = fit_lcs(data, selected.k, selected.beta, l_final)
        if final.objective > selected.objective:
            final = selected
    final.info["bic_trace"] = selected.info["bic_trace"]
    return final


__all__ = [
    "SparsitySolution",
    "hard_threshold",
    "fit_iht",
    "local_swap_search",
    "fit_lcs",
    "neighborhood_search",
    "bic_score",
    "select_by_score",
    "select_k_bic",
    "fit_l0_auto",
    "count_swap_candidates",
]
