"""Exact best-subset solver for the outlier-budget problem at small N.

Certifies global optima by branch and bound over the per-row keep/discard
indicators, with a fully vectorized exhaustive sweep when the support
count is small enough. Serves as ground truth for equal-solution
frequencies and optimality-gap reporting.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb

import numpy as np

from .errors import InvariantViolated, TooFewInliers, TooLarge
from .l0 import SparsitySolution, _top_k_indices, _trimmed_solution
from .linalg import Dataset

N_LIMIT = 200
ENUM_LIMIT = 2_000_000
GAP_TOL = 1e-4
TIME_LIMIT = 300.0
ENUM_CHUNK = 200_000


@dataclass(frozen=True)
class OracleResult:
    """Certified solve: incumbent, bounds, and search effort."""

    solution: SparsitySolution
    primal: float
    dual: float
    proven_optimal: bool
    nodes_explored: int
    wall_time: float


def equal_solution(a: SparsitySolution, b: SparsitySolution) -> bool:
    """Same discarded rows, or objectives within 1e-8 relative."""
    if a.alpha.shape[0] != b.alpha.shape[0]:
        raise ValueError("solutions come from datasets of different size")
    if np.array_equal(np.sort(a.outliers), np.sort(b.outliers)):
        return True
    denom = max(abs(a.objective), abs(b.objective), 1e-12)
    return abs(a.objective - b.objective) <= 1e-8 * denom


def _rss_fixed(X: np.ndarray, y: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares RSS over `rows` only; rank-deficient fits fall back to
    the minimum-norm solution (the bound stays valid)."""
    if rows.shape[0] == 0:
        return 0.0, np.zeros(X.shape[1])
    beta, rss, rank, _ = np.linalg.lstsq(X[rows], y[rows], rcond=None)
    if rss.size == 0:
        r = y[rows] - X[rows] @ beta
        return float(r @ r), beta
    return float(rss[0]), beta


def _enumerate_exact(data: Dataset, k: int) -> tuple[SparsitySolution, int]:
    """Score every discard set of size k via batched Gram downdates."""
    X, y = data.design, data.y
    n, q = X.shape
    G0, b0, yy = X.T @ X, X.T @ y, float(y @ y)
    best_rss = np.inf
    best_combo = None
    n_eval = 0
    combos = itertools.combinations(range(n), k)
    while True:
        chunk = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, ENUM_CHUNK)),
            dtype=np.intp,
        ).reshape(-1, k)
        if chunk.shape[0] == 0:
            break
        xa = X[chunk]
        ya = y[chunk]
        Ga = G0[None] - np.einsum("mki,mkj->mij", xa, xa)
        ba = b0[None] - np.einsum("mki,mk->mi", xa, ya)
        try:
            beta = np.linalg.solve(Ga, ba[..., None])[..., 0]
            rss = (yy - np.einsum("mk,mk->m", ya, ya)) - np.einsum(
                "mi,mi->m", ba, beta
            )
        except np.linalg.LinAlgError:
            rss = np.full(chunk.shape[0], np.inf)
            for i in range(chunk.shape[0]):
                try:
                    bi = np.linalg.solve(Ga[i], ba[i])
                    rss[i] = (yy - float(ya[i] @ ya[i])) - float(ba[i] @ bi)
                except np.linalg.LinAlgError:
                    pass
        n_eval += chunk.shape[0]
        j = int(np.argmin(rss))
        if rss[j] < best_rss:
            best_rss = float(rss[j])
            best_combo = chunk[j].copy()
    sol = _trimmed_solution(data, best_combo, k)
    return sol, n_eval


def _greedy_incumbent(data: Dataset, k: int) -> SparsitySolution:
    """Drop the k largest full-fit residuals; a cheap but valid incumbent."""
    beta = np.linalg.lstsq(data.design, data.y, rcond=None)[0]
    return _trimmed_solution(data, _top_k_indices(data.y - data.design @ beta, k), k)


def _branch_and_bound(
    data: Dataset,
    k: int,
    warm_start: SparsitySolution | None,
) -> tuple[SparsitySolution, float, float, int, bool]:
    """Best-first search on keep/discard assignments.

    A node's lower bound is the least-squares objective over the rows
    already forced to stay, which no completion can undercut. Branching
    picks the free row with the largest residual under the incumbent fit.
    """
    X, y = data.design, data.y
    n = data.n_obs
    start = time.perf_counter()

    best = _greedy_incumbent(data, k)
    if warm_start is not None and warm_start.objective < best.objective:
        best = warm_start
    primal = best.objective

    # heap entries: (bound, tiebreak, fixed_out tuple, fixed_in tuple)
    heap: list = []
    counter = itertools.count()
    heappush(heap, (0.0, next(counter), (), ()))
    dual = 0.0
    nodes = 0
    timed_out = False
    while heap:
        bound, _, fixed_out, fixed_in = heappop(heap)
        nodes += 1
        if not bound >= dual - 1e-9:
            raise InvariantViolated("dual bound regressed")
        dual = max(dual, bound)
        if (primal - dual) <= GAP_TOL * max(dual, 1e-12):
            break
        if bound >= primal - 1e-12 * max(1.0, primal):
            continue
        if time.perf_counter() - start > TIME_LIMIT:
            timed_out = True
            break

        used = np.array(fixed_out + fixed_in, dtype=np.intp)
        free = np.setdiff1d(np.arange(n), used)
        budget = k - len(fixed_out)
        if budget == 0 or free.shape[0] <= budget:
            # closed node: either every free row stays, or all may go; at
            # most k rows go either way
            if budget == 0:
                drop = np.array(fixed_out, dtype=np.intp)
            else:
                drop = np.concatenate([np.array(fixed_out, dtype=np.intp), free])
            cand = _trimmed_solution(data, drop, k)
            if cand.objective < primal:
                best, primal = cand, cand.objective
            continue

        # branch on the free row with the largest residual under the incumbent
        r_free = np.abs(y[free] - X[free] @ best.beta)
        row = int(free[int(np.argmax(r_free))])

        heappush(heap, (bound, next(counter), fixed_out + (row,), fixed_in))
        rss_in, _ = _rss_fixed(X, y, np.array(fixed_in + (row,), dtype=np.intp))
        in_bound = 0.5 * rss_in
        if in_bound < primal - 1e-12 * max(1.0, primal):
            heappush(heap, (in_bound, next(counter), fixed_out, fixed_in + (row,)))

    if not heap and not timed_out:
        dual = primal
    dual = min(dual, primal)
    return best, primal, dual, nodes, timed_out


def best_subset_exact(
    data: Dataset,
    k: int,
    warm_start: SparsitySolution | None = None,
    method: str = "auto",
) -> OracleResult:
    """Certified minimizer of the trimmed objective at budget k.

    With `method="auto"` the solver enumerates all discard sets when there
    are at most two million of them and otherwise branches and bounds. A
    warm start seeds the incumbent (and never worsens the result). Returns
    the best incumbent with an honest dual bound when `TIME_LIMIT` binds.
    """
    n = data.n_obs
    if n > N_LIMIT:
        raise TooLarge(f"N={n} exceeds the exact-solver limit {N_LIMIT}")
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if n - k < data.n_coef:
        raise TooFewInliers(f"N - k = {n - k} < {data.n_coef} coefficients")
    if method not in ("auto", "enumerate", "branch-and-bound"):
        raise ValueError(f"unknown method {method!r}")
    start = time.perf_counter()

    if k == 0:
        sol = _trimmed_solution(data, np.empty(0, dtype=np.intp), 0)
        return OracleResult(
            solution=sol, primal=sol.objective, dual=sol.objective,
            proven_optimal=True, nodes_explored=1,
            wall_time=time.perf_counter() - start,
        )

    if method == "auto":
        method = "enumerate" if comb(n, k) <= ENUM_LIMIT else "branch-and-bound"

    if method == "enumerate":
        sol, n_eval = _enumerate_exact(data, k)
        primal = sol.objective
        if warm_start is not None and warm_start.objective < primal:
            sol, primal = warm_start, warm_start.objective
        return OracleResult(
            solution=sol, primal=primal, dual=primal, proven_optimal=True,
            nodes_explored=n_eval, wall_time=time.perf_counter() - start,
        )

    best, primal, dual, nodes, timed_out = _branch_and_bound(data, k, warm_start)
    gap_ok = (primal - dual) <= GAP_TOL * max(dual, 1e-12)
    return OracleResult(
        solution=best, primal=primal, dual=dual,
        proven_optimal=gap_ok and not timed_out, nodes_explored=nodes,
        wall_time=time.perf_counter() - start,
    )


__all__ = [
    "OracleResult",
    "best_subset_exact",
    "equal_solution",
]
