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
One pivoted QR of the full design gives the greedy incumbent and the
leave-out identity, by which a node with at most `SUBTREE_LIMIT`
completions (ways to spend its remaining budget) is scored whole in one
vectorized screen and closed, as exact least-trimmed-squares search
screens candidate subsets (Hofmann, Gatu & Kontoghiorghes 2010, *JCGS*
19). Only a completion that could beat the incumbent within a
rounding-error bound is solved by pivoted QR, and every incumbent comes
from that solve of a discard set on the data, a warm start's rows too.

`proven_optimal` means the incumbent's objective is within `GAP_TOL`
(1e-8) relative of the dual bound, the tolerance at which
`equal_solution` calls two objectives equal. The certificate has no
absolute floor: y times 2^s gives the same search, discard rows and
certificate, with objectives times 2^(2s).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb, hypot, inf, sqrt

import numpy as np

from .errors import InvariantViolated, RankDeficient, TooFewInliers, TooLarge
from .l0 import SparsitySolution, _magnitude_order, _top_k_indices, _trimmed_solution
from .linalg import RANK_TOL, Dataset, pivoted_qr

N_LIMIT = 200
# kept only because the benchmark's tracer (`bench/spans.py::_oracle_mode`) imports it
ENUM_LIMIT = 0
# relative tolerance of both the optimality certificate and `equal_solution`
GAP_TOL = 1e-8
TIME_LIMIT = 300.0
# most completions a popped node may have for one screen to score them
# all: larger subtrees cost fewer screens but more completions scored
SUBTREE_LIMIT = 5000
# Schur-block entries a screen works on at once, 64 KiB of float64
BLOCK_ENTRIES = 8192
ENUM_CHUNK = 200_000


@dataclass(frozen=True)
class OracleResult:
    """Certified solve: incumbent, bounds, and search effort."""

    solution: SparsitySolution
    primal: float
    dual: float
    proven_optimal: bool
    # heap entries popped by branch and bound, each node a subtree screen
    # scores and closes counted as its completions (so mostly completions
    # scored); with `method="enumerate"`, the discard sets scored
    nodes_explored: int
    wall_time: float


def equal_solution(a: SparsitySolution, b: SparsitySolution) -> bool:
    """Same discarded rows, or objectives within `GAP_TOL` relative."""
    if a.alpha.shape[0] != b.alpha.shape[0]:
        raise ValueError("solutions come from datasets of different size")
    if np.array_equal(np.sort(a.outliers), np.sort(b.outliers)):
        return True
    return abs(a.objective - b.objective) <= GAP_TOL * max(abs(a.objective), abs(b.objective))


def _enumerate_exact(data: Dataset, k: int, warm_start: SparsitySolution | None) -> OracleResult:
    """Score every discard set of size k via batched Gram downdates, then
    solve the best one and the warm start's discarded rows and keep the
    lower objective (the enumerated set's on a tie).

    Raises RankDeficient if every kept set's Gram is exactly singular.
    """
    start = time.perf_counter()
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
    if warm_start is not None:
        try:
            warm = _trimmed_solution(data, warm_start.outliers, k)
        except RankDeficient:
            warm = sol  # the warm start's kept rows fail the rank test
        sol = min(sol, warm, key=lambda s: s.objective)
    return OracleResult(
        solution=sol, primal=sol.objective, dual=sol.objective, proven_optimal=True,
        nodes_explored=n_eval, wall_time=time.perf_counter() - start,
    )


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


def _combinations(f: int, b: int) -> np.ndarray:
    """Every b-subset of range(f), one per column in lexicographic order:
    shape (b, C(f, b)). Built in b - 1 vectorized steps, where
    `itertools.combinations` would take a Python step per subset."""
    if b == 0:
        return np.zeros((0, 1), dtype=np.intp)
    cols = [np.arange(f - b + 1)]
    for j in range(1, b):
        # extend each subset by every value from its last + 1 to f - b + j
        low = cols[-1] + 1
        counts = f - b + j + 1 - low
        ends = np.cumsum(counts)
        parent = np.repeat(np.arange(counts.shape[0]), counts)
        start = np.repeat(ends - counts - low, counts)
        cols = [c[parent] for c in cols] + [np.arange(ends[-1]) - start]
    return np.array(cols)


def _cholesky_steps(M: np.ndarray, w: np.ndarray, steps: int):
    """Eliminate the first `steps` pivots of the symmetric matrix M
    (s, s, ...), or of each in a batch along its trailing axes, and of its
    right-hand side w (s, ...), in place, by outer-product Cholesky steps.
    Return |z|^2, z the first `steps` entries of L^-1 w for M's Cholesky
    factor L, or None if a pivot is not positive. The trailing blocks of
    M and w then hold the Schur complement and its reduced right-hand
    side."""
    quad = np.zeros(M.shape[2:])
    for j in range(steps):
        pivot = M[j, j]
        if not (pivot > 0.0).all():
            return None
        d = np.sqrt(pivot)
        col = M[j + 1:, j] / d
        z = w[j] / d
        quad += z * z
        M[j + 1:, j + 1:] -= col[:, None] * col[None, :]
        w[j + 1:] -= col * z
    return quad


def _leave_out_screen(X: np.ndarray, y: np.ndarray, full: tuple):
    """From `full`, the full design's `pivoted_qr` (Q, R', piv), the
    screen of a node's completions: return
    `screen(out, free, budget) -> (drops, value, err)` or None.

    The node fixes the rows `out` out and leaves the rows `free` free,
    with `budget` more rows to discard. Its completions drop `out` and
    one `budget`-subset S of `free`, one per row of `drops` (its rows of
    `free`). When the rows of a drop set A go, the leave-out identity
    (Cook 1977, *Technometrics* 19) gives the kept rows' RSS as
    s = RSS_full - quad, quad = r_A' M^-1 r_A, M = I - H_AA, where r is the
    full residual and H = Q Q' the hat matrix. Gershgorin's theorem
    bounds the smallest eigenvalue of every completion's M from below by
    lam, 1 less the largest absolute row sum of H that any completion's
    drop set reaches, found row by row without listing the completions.
    `screen` refuses the node, returning None, if lam <= `floor` (below),
    before factoring anything, or if a Cholesky pivot is not positive.
    Otherwise quad = |L^-1 r_A|^2 for M's Cholesky factor L, in the order
    `out` then S: the block over `out` is factored once, and S's block is
    its Schur complement I + C_SS, C = -(H_FF + Lam' Lam),
    Lam = L_out^-1 (-H_out,F) over the free rows F, with right-hand side
    r_F - Lam' L_out^-1 r_out. Each completion gets value = s/2 and
    err = E/2, elementwise over all of them. The objective t/2 that
    `_trimmed_solution` computes for the same rows is then at least
    value - err.

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
    Q, R_t, piv = full
    eps = np.finfo(float).eps
    gamma = 8 * n * q * eps
    norms = np.linalg.norm(X, axis=0)
    sigma = np.linalg.svd(np.triu(R_t.T) / norms[piv], compute_uv=False)[-1]
    floor = max(sqrt(eps), (2 * RANK_TOL * norms.max() / (sigma * norms.min())) ** 2)
    yy = float(y @ y)
    r = y - Q @ (Q.T @ y)
    rss = float(r @ r)
    hat = Q @ Q.T

    def screen(out, free, budget: int):
        a = len(out)
        rows = np.array(list(out) + (list(free) if budget else []), dtype=np.intp)
        size = rows.shape[0]
        # Gershgorin: the largest sum a row reaches is, for a row of `out`,
        # with the `budget` largest entries of its free columns, and for a
        # free row, with its own entry and the budget - 1 largest others
        H = hat[rows[:, None], rows]
        G = np.abs(H)
        fixed = G[:, :a].sum(1)
        own = G.diagonal()[a:].copy()
        others = G[:, a:]
        np.fill_diagonal(others[a:], -1.0)  # a free row's own entry sorts last
        desc = -np.sort(-others, axis=1)
        reach = np.concatenate([fixed[:a] + desc[:a, :budget].sum(1),
                                fixed[a:] + own + desc[a:, :budget - 1].sum(1)])
        lam = 1.0 - reach.max(initial=0.0)
        if lam <= floor:
            return None
        M = -H
        M.flat[::size + 1] += 1.0
        w = r[rows]
        quad_out = _cholesky_steps(M, w, a)
        if quad_out is None:
            return None
        S = _combinations(size - a, budget) + a  # positions in `rows`
        quad = np.empty(S.shape[1])
        # in blocks whose temporaries the allocator reuses: fresh pages from
        # the system cost more than the arithmetic on them
        step = BLOCK_ENTRIES // max(1, budget * budget)
        for lo in range(0, S.shape[1], step):
            part = S[:, lo:lo + step]
            # each completion's Schur block and right-hand side, by flat position
            part_quad = _cholesky_steps(np.take(M, part[:, None] * size + part[None]),
                                        w[part], budget)
            if part_quad is None:
                return None
            quad[lo:lo + step] = quad_out + part_quad
        err = gamma * (yy * (6 + 4 * sqrt(q) / (sigma * sqrt(lam))) + 2 * quad / lam)
        return rows[S].T, 0.5 * (rss - quad), 0.5 * err

    return screen


def _branch_and_bound(
    data: Dataset,
    k: int,
    warm_start: SparsitySolution | None,
) -> OracleResult:
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
    solve improves the incumbent.

    Only `solve` sets the incumbent: it solves a discard set on the data
    by `_trimmed_solution` and keeps it if its objective is lower, or
    skips it if its kept rows fail the rank test. With no incumbent, rows
    branch by decreasing |y|. Then come the greedy discard set, the k
    rows of largest full-fit residual, and the warm start's rows.

    A popped node with at most `SUBTREE_LIMIT` completions, C(free rows,
    budget left), is scored whole by `_leave_out_screen` and closed: its
    completions are solved lowest value - err first, and only while
    value - err does not exceed the primal, which proves a solve could
    not improve the incumbent. A closed node, whose kept and discarded
    rows are both determined, is the subtree of one completion. The
    screen and the greedy discard set read one `pivoted_qr` of the full
    design; if that fails the rank test there is neither, yet kept sets
    may pass (a row of large leverage can sink the full design alone).
    The screen refuses a node if any completion's I - H_AA is near
    singular; such a node is branched as any other, and a refused closed
    node is solved. The search raises `RankDeficient` if no discard set
    is feasible. It stops once the gap is within `GAP_TOL` relative or
    the heap is empty, which makes the dual the primal, or else at
    `TIME_LIMIT`, checked after the gap test: so the result is
    `proven_optimal` exactly when the gap is within `GAP_TOL`. Every test
    is relative, so scaling y by a power of two scales the objectives by
    its square and changes nothing else.

    `nodes_explored` counts the heap entries popped, each node the screen
    closes counted as its completions.
    """
    X, y = data.design, data.y
    n, q = X.shape
    start = time.perf_counter()
    rows = np.hstack([X, y[:, None]]).tolist()
    tiny = _rounding_level(X)
    best, primal = None, inf
    order = _magnitude_order(y).tolist()

    def solve(drop: list) -> None:
        nonlocal best, primal, order
        try:
            cand = _trimmed_solution(data, np.array(drop, dtype=np.intp), k)
        except RankDeficient:
            return  # infeasible: the kept rows fail the rank test
        if cand.objective < primal:
            best, primal = cand, cand.objective
            order = _magnitude_order(y - X @ best.beta).tolist()

    screen = None
    try:
        full = pivoted_qr(X)
    except RankDeficient:
        pass  # the full design fails the test: no screen, no greedy discard set
    else:
        screen = _leave_out_screen(X, y, full)
        solve(_top_k_indices(y - full[0] @ (full[0].T @ y), k).tolist())
    if warm_start is not None:
        solve(warm_start.outliers.tolist())

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
        if not bound >= dual:
            raise InvariantViolated("dual bound regressed")
        dual = bound
        if primal - dual <= GAP_TOL * dual:
            break
        if time.perf_counter() - start > TIME_LIMIT:
            timed_out = True
            break

        used = set(fixed_out)
        used.update(fixed_in)
        free = [i for i in range(n) if i not in used]
        budget = k - len(fixed_out)
        scored = None
        if screen is not None and comb(len(free), budget) <= SUBTREE_LIMIT:
            scored = screen(fixed_out, free, budget)
        if scored is not None:
            drops, value, err = scored
            nodes += value.shape[0] - 1
            low = value - err
            hits = np.flatnonzero(low <= primal)
            for j in hits[np.argsort(low[hits], kind="stable")]:
                if low[j] > primal:
                    break
                solve(list(fixed_out) + drops[j].tolist())
            continue
        if budget == 0 or len(free) == budget:
            # closed node left unscreened: every free row stays, or all go
            solve(list(fixed_out) + (free if budget else []))
            continue

        row = next(i for i in order if i not in used)
        heappush(heap, (bound, next(counter), fixed_out + (row,), fixed_in, factor, rss))
        factor_in, added = _add_row(factor, rows[row], tiny)
        rss_in = rss + added
        in_bound = 0.5 * rss_in
        if in_bound < primal * (1.0 - 1e-12):  # else it cannot improve the incumbent
            heappush(heap, (in_bound, next(counter), fixed_out, fixed_in + (row,),
                            factor_in, rss_in))

    if best is None:
        raise RankDeficient(f"no kept set of N - k = {n - k} rows passed the rank test")
    if not heap and not timed_out:
        dual = primal
    return OracleResult(
        solution=best, primal=primal, dual=min(dual, primal), proven_optimal=not timed_out,
        nodes_explored=nodes, wall_time=time.perf_counter() - start,
    )


def best_subset_exact(
    data: Dataset,
    k: int,
    warm_start: SparsitySolution | None = None,
    method: str = "branch-and-bound",
) -> OracleResult:
    """Certified minimizer of the trimmed objective at budget k.

    `method="branch-and-bound"` searches keep/discard assignments;
    `"enumerate"` scores all C(N, k) discard sets instead, a brute-force
    check on the search. A warm start is a discard set, re-solved on
    `data` as one more candidate (its objective is never read), so it
    never worsens the result; one that does not cover these N rows or
    that discards more than k raises ValueError. Returns the best
    incumbent with an honest dual bound when `TIME_LIMIT` binds.
    `proven_optimal` holds when it did not: the gap is then within
    `GAP_TOL` relative.
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
    if method == "enumerate" and k:  # k = 0: the empty discard set, branch and bound's root
        return _enumerate_exact(data, k, warm_start)
    return _branch_and_bound(data, k, warm_start)


__all__ = [
    "OracleResult",
    "best_subset_exact",
    "equal_solution",
]
