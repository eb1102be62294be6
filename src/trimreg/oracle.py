"""Exact best-subset solver for the outlier-budget problem at small N.

Certifies global optima by branch and bound over the per-row keep/discard
indicators. Serves as ground truth for equal-solution frequencies and
optimality-gap reporting. `method="enumerate"` instead scores every
discard set by a vectorized sweep, a brute-force check on branch and
bound, the default.

A branch-and-bound node is the rows it fixes out and the rows it fixes
in; their union is its used set, and the rest of the rows are free. The
node's bound is half the least-squares RSS over the fixed-in rows. Each
node carries those rows' triangular factor, so a child costs one Givens
row update rather than a least-squares solve. Branching follows one
order per incumbent: rows by decreasing residual under the incumbent fit.
A closed node, whose discarded rows are all determined, is first screened
by the leave-out identity from one QR of the full design; only a node
that could beat the incumbent within a rounding-error bound is solved by
pivoted QR, so every incumbent still comes from that solve.

`proven_optimal` means the incumbent's objective is within `GAP_TOL`
(1e-8) relative of the dual bound, the tolerance at which
`equal_solution` calls two objectives equal.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from math import hypot, inf, sqrt

import numpy as np

from .errors import InvariantViolated, RankDeficient, TooFewInliers, TooLarge
from .l0 import SparsitySolution, _top_k_indices, _trimmed_solution
from .linalg import RANK_TOL, Dataset, pivoted_qr

N_LIMIT = 200
# kept only because the benchmark's tracer (`bench/spans.py::_oracle_mode`) imports it
ENUM_LIMIT = 0
# relative tolerance of both the optimality certificate and `equal_solution`
GAP_TOL = 1e-8
TIME_LIMIT = 300.0
ENUM_CHUNK = 200_000


@dataclass(frozen=True)
class OracleResult:
    """Certified solve: incumbent, bounds, and search effort."""

    solution: SparsitySolution
    primal: float
    dual: float
    proven_optimal: bool
    # heap entries popped by branch and bound, closed nodes the screen
    # settles included; with `method="enumerate"`, the discard sets scored
    nodes_explored: int
    wall_time: float


def equal_solution(a: SparsitySolution, b: SparsitySolution) -> bool:
    """Same discarded rows, or objectives within `GAP_TOL` relative."""
    if a.alpha.shape[0] != b.alpha.shape[0]:
        raise ValueError("solutions come from datasets of different size")
    if np.array_equal(np.sort(a.outliers), np.sort(b.outliers)):
        return True
    denom = max(abs(a.objective), abs(b.objective), 1e-12)
    return abs(a.objective - b.objective) <= GAP_TOL * denom


def _enumerate_exact(data: Dataset, k: int) -> tuple[SparsitySolution, int]:
    """Score every discard set of size k via batched Gram downdates.

    Raises RankDeficient if every kept set's Gram is exactly singular.
    """
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
    if best_combo is None:
        raise RankDeficient(f"every kept set of N - k = {n - k} rows has a singular Gram")
    sol = _trimmed_solution(data, best_combo, k)
    return sol, n_eval


def _greedy_incumbent(data: Dataset, k: int) -> SparsitySolution:
    """Drop the k largest full-fit residuals; a cheap but valid incumbent."""
    beta = np.linalg.lstsq(data.design, data.y, rcond=None)[0]
    return _trimmed_solution(data, _top_k_indices(data.y - data.design @ beta, k), k)


def _prune_level(primal: float) -> float:
    """Bound at or above which a node cannot improve an incumbent of
    objective `primal`; inf with no incumbent (primal = inf), where the
    relative margin would make it inf - inf = nan and prune every child."""
    return primal - 1e-12 * max(1.0, primal) if primal < inf else inf


def _rounding_level(X: np.ndarray) -> list:
    """Per column of X, the size below which a Givens remainder is
    rounding noise: max(N, q) machine epsilons of the column's norm, the
    scale of `np.linalg.lstsq`'s default cutoff."""
    n, q = X.shape
    return (max(n, q) * np.finfo(float).eps * np.linalg.norm(X, axis=0)).tolist()


def _add_row(factor: tuple, z: list, tiny: list) -> tuple[tuple, float]:
    """Fold one row z = [x, y] into the fixed-in rows' factor by Givens
    rotations; return the new factor and the row's squared residual, by
    which the fixed-in RSS grows.

    `factor` holds one entry per column j: the list of [R | Q'y] entries
    from column j on, or () while slot j is empty (R_jj = 0). Entries are
    never written to, so a child shares the rows its update leaves alone.
    An empty slot takes the rest of the row, which then adds no residual,
    so fewer rows than columns and rank deficiency need no special case.
    A remainder |z_j| at or below `tiny[j]` (`_rounding_level`) counts as
    zero, so exactly collinear columns leave their slots empty, as
    `np.linalg.lstsq` would.
    """
    slots = list(factor)
    for j, top in enumerate(slots):
        b = z[0]
        if abs(b) <= tiny[j]:
            z = z[1:]
            continue
        if not top:
            slots[j] = z
            return tuple(slots), 0.0
        a = top[0]
        r = hypot(a, b)
        c, s = a / r, b / r
        slots[j] = [c * u + s * v for u, v in zip(top, z)]
        z = [c * v - s * u for u, v in zip(top[1:], z[1:])]
    return tuple(slots), z[0] * z[0]


def _leave_out_screen(X: np.ndarray, y: np.ndarray):
    """From one QR of the full design, a screen for closed nodes: return
    `screen(drop) -> (value, err)`, or None when X fails `pivoted_qr`'s
    rank test.

    When the rows `drop`, a set A of a rows, go, the leave-out identity
    (Cook 1977, *Technometrics* 19) gives the kept rows' RSS as
    s = RSS_full - quad, quad = r_A' M^-1 r_A, M = I - H_AA, where r is the
    full residual and H = Q Q' the hat matrix. `screen` bounds M's
    smallest eigenvalue from below by Gershgorin's theorem, lam, and
    refuses, returning None, once lam <= `floor` (below). Otherwise it
    takes quad = |L^-1 r_A|^2 from M's Cholesky factor L and returns
    value = s/2 and err = E/2. The objective t/2 that `_trimmed_solution`
    computes for the same rows is then at least value - err.

    E bounds s_hat - t_hat, the computed s less the computed t, to first
    order in machine epsilon eps. Let gamma = 8 N q eps, which takes in
    the constants of the backward-error bounds used (Higham 2002, *Accuracy
    and Stability of Numerical Algorithms*, Thms 3.5, 8.5, 10.3, 19.4).
    - The full Householder QR is exact for X + dX, |dX e_j| <= gamma
      |X e_j|. The computed full RSS is within gamma |y|^2 of that of
      X + dX, and the subtraction s = RSS_full - quad adds gamma |y|^2.
    - The computed r_A and M are within gamma |y| and gamma of those of
      X + dX, and the Cholesky factorization and the triangular solve are
      backward stable. So quad moves by at most gamma (|y|^2 + 2 |w|^2),
      where w = M^-1 r_A and |w|^2 <= quad / lam.
    - The kept rows' RSS for X + dX exceeds s by at most 2 gamma |y| S.
      Here S = sum_j |X e_j| |beta_j| over the kept rows' coefficients,
      and S <= sqrt(q) |y| / (sigma sqrt(lam)), with sigma the smallest
      singular value of X scaled to unit columns.
    - t_hat is at least the exact RSS at the computed coefficients, which
      is at least s, less the rounding of the residuals and of their sum:
      2 gamma |y| (|y| + S) + gamma |y|^2.
    Together, E = gamma (|y|^2 (6 + 4 sqrt(q) / (sigma sqrt(lam)))
    + 2 quad / lam). The first-order terms dominate because
    lam > floor >= sqrt(eps), so gamma / lam < 1e-3 for every N <= 200.
    `floor` also keeps the kept rows clear of `factor_qr`'s rank test:
    their smallest pivot ratio is at least sigma sqrt(lam) times the
    ratio of the smallest to the largest column norm of X. So a node whose
    solve would fail that test is never screened out.
    """
    n, q = X.shape
    try:
        Q, R_t, piv = pivoted_qr(X)
    except RankDeficient:
        return None
    eps = np.finfo(float).eps
    gamma = 8 * n * q * eps
    norms = np.linalg.norm(X, axis=0)
    sigma = np.linalg.svd(np.triu(R_t.T) / norms[piv], compute_uv=False)[-1]
    floor = max(sqrt(eps), (2 * RANK_TOL * norms.max() / (sigma * norms.min())) ** 2)
    yy = float(y @ y)
    resid = y - Q @ (Q.T @ y)
    rss = float(resid @ resid)
    r = resid.tolist()
    hat = (Q @ Q.T).tolist()

    def screen(drop: list):
        lam = 1.0
        L: list = []
        z: list = []
        quad = 0.0
        for i, row in enumerate(drop):
            h = hat[row]
            m = [h[b] for b in drop]  # row i of M is -m, plus 1 at m[i]
            # Gershgorin, with the diagonal 1 - m[i] and m[i] >= 0
            lam = min(lam, 1.0 - sum(map(abs, m)))
            if lam <= floor:
                return None
            # row i of M's Cholesky factor L, and z_i of z = L^-1 r_A
            li = []
            pivot = 1.0 - m[i]
            for j in range(i):
                lj = L[j]
                v = -m[j]
                for t in range(j):
                    v -= li[t] * lj[t]
                v /= lj[j]
                li.append(v)
                pivot -= v * v
            li.append(sqrt(pivot))
            L.append(li)
            v = r[row]
            for t in range(i):
                v -= li[t] * z[t]
            v /= li[i]
            z.append(v)
            quad += v * v
        err = gamma * (yy * (6 + 4 * sqrt(q) / (sigma * sqrt(lam))) + 2 * quad / lam)
        return 0.5 * (rss - quad), 0.5 * err

    return screen


def _branch_and_bound(
    data: Dataset,
    k: int,
    warm_start: SparsitySolution | None,
) -> tuple[SparsitySolution, float, float, int, bool]:
    """Best-first search on keep/discard assignments.

    A node fixes some rows out (discarded) and some in (kept); its used
    rows are the set of both, and the rest are free. Its lower bound is
    half the least-squares RSS over the fixed-in rows, which no
    completion can undercut. Each heap entry carries the fixed-in rows'
    triangular factor [R | Q'y] and RSS: the out-child shares its
    parent's, and the in-child folds the branched row in by one Givens
    update (`_add_row`), O(q^2). Branching takes the first unused row in
    one order per incumbent, by decreasing residual under the incumbent
    fit (ties to the lower index); the order is recomputed whenever a
    closed node improves the incumbent. A closed node, one whose kept and
    discarded rows are both determined, goes first to the screen of
    `_leave_out_screen`, built once per call, and is solved by
    `_trimmed_solution` unless its screened objective less the screen's
    error bound exceeds the primal, which proves the solve could not
    improve the incumbent. The screen is off when the full design fails
    the rank test, and refuses a node whose I - H_AA is near singular, so
    those nodes are all solved. A closed node whose kept rows fail the
    rank test is infeasible and skipped, as is a greedy incumbent that
    fails it; with no warm start either, the search starts without an
    incumbent, branches in the full fit's residual order, and raises
    `RankDeficient` if no closed node is feasible. The search stops once
    the gap is within `GAP_TOL` relative or the heap is empty, which makes
    the dual the primal, or else at `TIME_LIMIT`, checked after the gap
    test: so `timed_out` is set exactly when the gap exceeds `GAP_TOL`.
    """
    X, y = data.design, data.y
    n, q = X.shape
    start = time.perf_counter()
    rows = np.hstack([X, y[:, None]]).tolist()
    tiny = _rounding_level(X)
    screen = _leave_out_screen(X, y)

    try:
        best = _greedy_incumbent(data, k)
    except RankDeficient:
        best = None
    if warm_start is not None and (best is None or warm_start.objective < best.objective):
        best = warm_start

    def branching_order(beta: np.ndarray) -> list:
        return np.argsort(-np.abs(y - X @ beta), kind="stable").tolist()

    if best is None:
        primal = inf
        order = branching_order(np.linalg.lstsq(X, y, rcond=None)[0])
    else:
        primal = best.objective
        order = branching_order(best.beta)
    prune = _prune_level(primal)

    # heap entries: (bound, tiebreak, fixed_out, fixed_in, factor, rss)
    heap: list = []
    counter = itertools.count()
    heappush(heap, (0.0, next(counter), (), (), ((),) * q, 0.0))
    dual = 0.0
    nodes = 0
    timed_out = False
    while heap:
        bound, _, fixed_out, fixed_in, factor, rss = heappop(heap)
        nodes += 1
        if not bound >= dual - 1e-9:
            raise InvariantViolated("dual bound regressed")
        dual = max(dual, bound)
        if (primal - dual) <= GAP_TOL * max(dual, 1e-12):
            break
        if bound >= prune:
            continue
        if time.perf_counter() - start > TIME_LIMIT:
            timed_out = True
            break

        used = set(fixed_out)
        used.update(fixed_in)
        budget = k - len(fixed_out)
        if budget == 0 or n - len(used) <= budget:
            # closed node: either every free row stays, or all may go; at
            # most k rows go either way
            drop = list(fixed_out)
            if budget > 0:
                drop += [i for i in range(n) if i not in used]
            if screen is not None:
                hit = screen(drop)
                if hit is not None and hit[0] - hit[1] > primal:
                    continue
            try:
                cand = _trimmed_solution(data, np.array(drop, dtype=np.intp), k)
            except RankDeficient:
                continue  # infeasible: the kept rows fail the rank test
            if cand.objective < primal:
                best, primal = cand, cand.objective
                prune = _prune_level(primal)
                order = branching_order(best.beta)
            continue

        row = next(i for i in order if i not in used)
        heappush(heap, (bound, next(counter), fixed_out + (row,), fixed_in, factor, rss))
        factor_in, added = _add_row(factor, rows[row], tiny)
        rss_in = rss + added
        in_bound = 0.5 * rss_in
        if in_bound < prune:
            heappush(heap, (in_bound, next(counter), fixed_out, fixed_in + (row,),
                            factor_in, rss_in))

    if best is None:
        raise RankDeficient(f"no kept set of N - k = {n - k} rows passed the rank test")
    if not heap and not timed_out:
        dual = primal
    dual = min(dual, primal)
    return best, primal, dual, nodes, timed_out


def best_subset_exact(
    data: Dataset,
    k: int,
    warm_start: SparsitySolution | None = None,
    method: str = "branch-and-bound",
) -> OracleResult:
    """Certified minimizer of the trimmed objective at budget k.

    `method="branch-and-bound"` searches keep/discard assignments;
    `"enumerate"` scores all C(N, k) discard sets instead, a brute-force
    check on the search. A warm start seeds the incumbent (and never
    worsens the result); one that does not cover these N rows or that
    discards more than k raises ValueError. Returns the best incumbent
    with an honest dual bound when `TIME_LIMIT` binds. `proven_optimal`
    holds when it did not: the gap is then within `GAP_TOL` relative.
    """
    n = data.n_obs
    if n > N_LIMIT:
        raise TooLarge(f"N={n} exceeds the exact-solver limit {N_LIMIT}")
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if n - k < data.n_coef:
        raise TooFewInliers(f"N - k = {n - k} < {data.n_coef} coefficients")
    if method not in ("branch-and-bound", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    if warm_start is not None and (
        warm_start.alpha.shape[0] != n or warm_start.outliers.shape[0] > k
    ):
        raise ValueError(f"warm start must discard at most k={k} of the N={n} rows")
    start = time.perf_counter()

    if k == 0:
        sol = _trimmed_solution(data, np.empty(0, dtype=np.intp), 0)
        return OracleResult(
            solution=sol, primal=sol.objective, dual=sol.objective,
            proven_optimal=True, nodes_explored=1,
            wall_time=time.perf_counter() - start,
        )

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
    return OracleResult(
        solution=best, primal=primal, dual=dual,
        proven_optimal=not timed_out, nodes_explored=nodes,
        wall_time=time.perf_counter() - start,
    )


__all__ = [
    "OracleResult",
    "best_subset_exact",
    "equal_solution",
]
