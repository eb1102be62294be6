import functools
import itertools
import time
from heapq import heappop, heappush
from math import comb

import numpy as np
import pytest

from trimreg import oracle
from trimreg.classic import fit_ols, initial_beta
from trimreg.dgp import DgpConfig, generate
from trimreg.errors import InvariantViolated, RankDeficient, TooLarge
from trimreg.l0 import _trimmed_solution, fit_iht, fit_lcs
from trimreg.linalg import Dataset, pivoted_qr
from trimreg.oracle import best_subset_exact, equal_solution


def exhaustive_oracle(data, k):
    """Trimmed objective minimized over every discard set, via lstsq."""
    n = data.n_obs
    best_val, best_set = np.inf, None
    for drop in itertools.combinations(range(n), k):
        keep = np.setdiff1d(np.arange(n), drop)
        beta, _, _, _ = np.linalg.lstsq(data.design[keep], data.y[keep], rcond=None)
        r = data.y[keep] - data.design[keep] @ beta
        val = 0.5 * float(r @ r)
        if val < best_val:
            best_val, best_set = val, set(drop)
    return best_val, best_set


def _instance(seed, n=12, k0=2, shift=8.0):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + r.normal(size=n)
    y[:k0] += shift
    return Dataset(y=y, x=x)


def test_zero_budget_is_ols(rng):
    d = _instance(0)
    res = best_subset_exact(d, 0)
    ols = fit_ols(d)
    assert res.proven_optimal
    assert res.nodes_explored == 1
    assert res.primal == pytest.approx(ols.objective, rel=1e-12)
    assert res.dual == res.primal


def test_matches_exhaustive_enumeration():
    d = _instance(5, n=12, k0=2)
    res = best_subset_exact(d, 2)
    best_val, best_set = exhaustive_oracle(d, 2)
    assert res.proven_optimal
    assert res.primal == pytest.approx(best_val, rel=1e-9)
    assert set(res.solution.outliers) <= best_set  # zero shifts may drop out


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_enumeration_matches_exhaustive_oracle(seed):
    # the brute-force method the benchmark's branch-and-bound check uses
    d = _instance(seed, n=12, k0=2)
    best_val, best_set = exhaustive_oracle(d, 2)
    res = best_subset_exact(d, 2, method="enumerate")
    assert res.proven_optimal and res.dual == res.primal
    assert res.nodes_explored == 66  # C(12, 2)
    assert res.primal == pytest.approx(best_val, rel=1e-9)
    assert set(res.solution.outliers) <= best_set

    worse = _trimmed_solution(d, np.array([10, 11]), 2)
    assert worse.objective > best_val
    res_worse = best_subset_exact(d, 2, warm_start=worse, method="enumerate")
    assert res_worse.primal == res.primal
    assert np.array_equal(res_worse.solution.outliers, res.solution.outliers)

    # a warm start over budget, or from another dataset, is refused: one
    # discarding a row more would undercut every discard set of size 2
    over = _trimmed_solution(d, np.array(sorted(best_set) + [11]), 3)
    assert over.objective < best_val
    other = _trimmed_solution(_instance(seed, n=13, k0=2), np.array([0, 1]), 2)
    for method in ("enumerate", "branch-and-bound"):
        for warm in (over, other):
            with pytest.raises(ValueError):
                best_subset_exact(d, 2, warm_start=warm, method=method)


def _dummy_design(seed, n=20):
    """A dummy regressor that is 1 on rows 0-1 only, with those rows
    shifted by 30 and row 2 by 10: every kept set holding neither row 0
    nor row 1 fails the rank test."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.normal(size=n), np.r_[1.0, 1.0, np.zeros(n - 2)]])
    y = 1.0 + x @ np.array([1.0, 8.0]) + rng.normal(size=n)
    y[:2] += 30.0
    y[2] += 10.0
    return Dataset(y=y, x=x)


@pytest.mark.parametrize("seed", [5, 108])
def test_branch_and_bound_skips_rank_deficient_kept_sets(seed):
    # seed 5: a closed node's kept rows fail the rank test; seed 108: the
    # greedy incumbent's do. Enumeration scores such sets as infeasible,
    # and so must branch and bound.
    d = _dummy_design(seed)
    exact = best_subset_exact(d, 3, method="enumerate")
    res = best_subset_exact(d, 3, method="branch-and-bound")
    assert res.proven_optimal
    assert np.array_equal(res.solution.outliers, exact.solution.outliers)
    assert abs(res.primal - exact.primal) <= oracle.GAP_TOL * exact.primal


def test_default_is_branch_and_bound(monkeypatch):
    # criterion-4 replications with the harness's lcs2 warm start: the
    # default method never enumerates and finds enumeration's discard rows
    cases = []
    for rep in range(1, 11):
        s = generate(DgpConfig(dgp=1, N=40, p=0.1, mu_alpha=5.0, sigma_alpha=5.0,
                               seed=271828 ^ rep, n_test=10))
        k = len(s.true_outliers)
        cases.append((s.train, k, fit_lcs(s.train, k, initial_beta(s.train), 2)))

    def refuse(data, k):
        raise AssertionError("auto enumerated")

    with monkeypatch.context() as m:
        m.setattr(oracle, "_enumerate_exact", refuse)
        solved = [best_subset_exact(d, k, warm_start=w) for d, k, w in cases]
    for (d, k, w), res in zip(cases, solved):
        assert res.proven_optimal
        exact = best_subset_exact(d, k, warm_start=w, method="enumerate")
        assert np.array_equal(res.solution.outliers, exact.solution.outliers)
    d, k, _ = cases[0]
    with pytest.raises(ValueError):
        best_subset_exact(d, k, method="auto")


def test_time_limit_keeps_the_better_start_and_an_honest_dual(monkeypatch):
    # a negative limit binds at the root, the first node past the gap test
    monkeypatch.setattr(oracle, "TIME_LIMIT", -1.0)
    d = _instance(1, n=14, k0=3)
    greedy = oracle._greedy_incumbent(d, 3, pivoted_qr(d.design)[0])
    better = best_subset_exact(d, 3, method="enumerate").solution
    worse = _trimmed_solution(d, np.array([11, 12, 13]), 3)
    assert better.objective < greedy.objective < worse.objective
    for warm, want in ((better, better), (worse, greedy), (None, greedy)):
        res = best_subset_exact(d, 3, warm_start=warm)
        assert not res.proven_optimal
        assert res.nodes_explored == 1
        assert 0 <= res.dual < res.primal
        assert res.primal == want.objective
        assert np.array_equal(res.solution.outliers, want.outliers)


def test_warm_start_already_optimal():
    d = _instance(7, n=14, k0=2)
    first = best_subset_exact(d, 2)
    res = best_subset_exact(d, 2, warm_start=first.solution)
    assert res.proven_optimal
    assert res.primal == pytest.approx(first.primal, rel=1e-12)


def test_bnb_equals_enumeration_on_small_instances():
    # the branch-and-bound path must agree with brute force everywhere
    r = np.random.default_rng(99)
    for trial in range(200):
        n = int(r.integers(8, 15))
        k = int(r.integers(1, 5))
        if n - k < 4:
            continue
        x = r.normal(size=(n, 2))
        y = 0.5 + x @ np.array([1.0, 1.0]) + r.normal(size=n)
        n_shift = int(r.integers(0, k + 1))
        y[:n_shift] += 10.0
        d = Dataset(y=y, x=x)
        res = best_subset_exact(d, k, method="branch-and-bound")
        best_val, _ = exhaustive_oracle(d, k)
        assert res.proven_optimal
        assert res.primal == pytest.approx(best_val, rel=1e-8, abs=1e-12)


def test_warm_start_never_worsens():
    r = np.random.default_rng(1234)
    for trial in range(30):
        n = int(r.integers(10, 20))
        x = r.normal(size=(n, 2))
        y = 0.5 + x @ np.array([1.0, 1.0]) + r.standard_t(df=3, size=n)
        d = Dataset(y=y, x=x)
        k = int(r.integers(1, 4))
        if n - k < 4:
            continue
        cold = best_subset_exact(d, k, method="branch-and-bound")
        warm_sol = fit_iht(d, k, initial_beta(d))
        warm = best_subset_exact(d, k, warm_start=warm_sol, method="branch-and-bound")
        assert warm.primal <= cold.primal + 1e-12 * max(1.0, cold.primal)


def test_size_limit():
    r = np.random.default_rng(0)
    d = Dataset(y=r.normal(size=201), x=r.normal(size=(201, 1)))
    with pytest.raises(TooLarge):
        best_subset_exact(d, 2)


@pytest.mark.parametrize("s", [-60, -25, 30, 60])
def test_certificate_is_scale_free(s):
    # y times 2^s scales every objective by 2^(2s) exactly, so the search,
    # whose every test is relative, must take the same path to the same rows
    for seed in range(5):
        d = generate(DgpConfig(dgp=1, N=40, p=0.1, seed=seed, n_test=10)).train
        base = best_subset_exact(d, 4)
        res = best_subset_exact(Dataset(y=np.ldexp(d.y, s), x=d.x), 4)
        assert res.proven_optimal
        assert np.array_equal(res.solution.outliers, base.solution.outliers)
        assert res.nodes_explored == base.nodes_explored
        assert res.primal == np.ldexp(base.primal, 2 * s)


def test_proven_runs_have_tiny_gap():
    for seed in range(10):
        d = _instance(seed, n=14, k0=2)
        res = best_subset_exact(d, 2)
        assert res.proven_optimal
        dual = max(res.dual, 1e-12)
        gap = (res.primal - dual) / dual
        assert gap <= oracle.GAP_TOL


def test_equal_solution_identical():
    d = _instance(3)
    a = best_subset_exact(d, 2).solution
    assert equal_solution(a, a)


def test_equal_solution_same_support_different_alpha_representation():
    d = _instance(3)
    a = best_subset_exact(d, 2).solution
    b = fit_iht(d, 2, a.beta)
    if np.array_equal(np.sort(a.outliers), np.sort(b.outliers)):
        assert equal_solution(a, b)


def test_equal_solution_distinct_supports_with_gap():
    d = _instance(21, n=16, k0=2)
    best = best_subset_exact(d, 2).solution
    # build a clearly worse support
    worse_rows = np.setdiff1d(np.arange(16), best.outliers)[:2]
    from trimreg.l0 import _trimmed_solution

    worse = _trimmed_solution(d, worse_rows, 2)
    rel = abs(worse.objective - best.objective) / max(best.objective, 1e-12)
    if rel > 1e-3:
        assert not equal_solution(best, worse)


def test_incumbent_and_nodes_accounting():
    d = _instance(13, n=20, k0=3)
    res = best_subset_exact(d, 3, method="branch-and-bound")
    assert res.nodes_explored >= 1
    assert res.dual <= res.primal + 1e-9
    assert res.wall_time >= 0.0


def _reference_rss_fixed(X, y, rows):
    """Frozen copy of the bound before the carried factor: lstsq from
    scratch over the fixed-in rows."""
    if rows.shape[0] == 0:
        return 0.0, np.zeros(X.shape[1])
    beta, rss, rank, _ = np.linalg.lstsq(X[rows], y[rows], rcond=None)
    if rss.size == 0:
        r = y[rows] - X[rows] @ beta
        return float(r @ r), beta
    return float(rss[0]), beta


def _reference_branch_and_bound(data, k, warm_start, rss_fixed=_reference_rss_fixed,
                                trimmed_solution=_trimmed_solution):
    """Frozen copy of the search before the carried factor (free rows by
    setdiff1d, branching by argmax over them, the bound by `rss_fixed`),
    solving every closed node by `trimmed_solution`."""
    X, y = data.design, data.y
    n = data.n_obs
    start = time.perf_counter()

    best = oracle._greedy_incumbent(data, k, pivoted_qr(X)[0])
    if warm_start is not None and warm_start.objective < best.objective:
        best = warm_start
    primal = best.objective

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
        if (primal - dual) <= oracle.GAP_TOL * max(dual, 1e-12):
            break
        if bound >= primal - 1e-12 * max(1.0, primal):
            continue
        if time.perf_counter() - start > oracle.TIME_LIMIT:
            timed_out = True
            break

        used = np.array(fixed_out + fixed_in, dtype=np.intp)
        free = np.setdiff1d(np.arange(n), used)
        budget = k - len(fixed_out)
        if budget == 0 or free.shape[0] <= budget:
            if budget == 0:
                drop = np.array(fixed_out, dtype=np.intp)
            else:
                drop = np.concatenate([np.array(fixed_out, dtype=np.intp), free])
            cand = trimmed_solution(data, drop, k)
            if cand.objective < primal:
                best, primal = cand, cand.objective
            continue

        r_free = np.abs(y[free] - X[free] @ best.beta)
        row = int(free[int(np.argmax(r_free))])

        heappush(heap, (bound, next(counter), fixed_out + (row,), fixed_in))
        rss_in, _ = rss_fixed(X, y, np.array(fixed_in + (row,), dtype=np.intp))
        in_bound = 0.5 * rss_in
        if in_bound < primal - 1e-12 * max(1.0, primal):
            heappush(heap, (in_bound, next(counter), fixed_out, fixed_in + (row,)))

    if not heap and not timed_out:
        dual = primal
    dual = min(dual, primal)
    return best, primal, dual, nodes, timed_out


def _offset_design(seed, n=30):
    """Two regressors at 1e3 + N(0,1), nearly parallel to the intercept,
    with three rows shifted by 8."""
    r = np.random.default_rng(seed)
    x = 1e3 + r.normal(size=(n, 2))
    y = 0.5 + x.sum(axis=1) + r.normal(size=n)
    y[:3] += 8.0
    return Dataset(y=y, x=x)


LEVERAGE_ROW = 4


def _leverage_one_design(seed, n=30):
    """A third regressor nonzero on `LEVERAGE_ROW` only, so that row has
    leverage one and I - H_AA is singular for every A holding it."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, 3))
    x[:, 2] = 0.0
    x[LEVERAGE_ROW, 2] = 1.5
    y = 0.5 + x[:, :2].sum(axis=1) + r.normal(size=n)
    y[:3] += 8.0
    return Dataset(y=y, x=x)


def _collinear_design(seed, n=30, noise=1e-3):
    """The second regressor is twice the first, plus `noise` times N(0,1)."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, 2))
    x[:, 1] = 2.0 * x[:, 0] + noise * r.normal(size=n)
    y = 0.5 + x[:, 0] + r.normal(size=n)
    y[:3] += 8.0
    return Dataset(y=y, x=x)


def _tree_cases():
    for i in range(20):
        s = generate(DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5.0, sigma_alpha=5.0,
                               seed=424242 ^ (i + 1), n_test=10))
        yield "dgp1", s.train, 3, None
    for i in range(10):
        d = generate(DgpConfig(dgp=1, N=60, p=0.1, mu_alpha=5.0, sigma_alpha=5.0,
                               seed=1000 + i, n_test=10)).train
        yield "dgp1", d, 5, None
        yield "dgp1", d, 5, fit_lcs(d, 5, initial_beta(d), 2)
    r = np.random.default_rng(11)
    for _ in range(5):
        x = r.normal(size=(40, 10))
        y = 1.0 + x.sum(axis=1) + r.normal(size=40)
        y[:3] += 6.0
        yield "q11", Dataset(y=y, x=x), 3, None
    for seed in range(3):
        yield "offset", _offset_design(500 + seed), 3, None
    for seed in range(2):
        yield "leverage-one", _leverage_one_design(600 + seed), 3, None
    yield "rank-deficient", _collinear_design(7, noise=0.0), 3, None
    # an all-zero regressor: every kept set's Gram is exactly singular
    zero = _instance(4)
    yield "rank-deficient", Dataset(y=zero.y, x=np.column_stack([zero.x[:, 0], np.zeros(12)])), 2, None


def test_branch_and_bound_matches_frozen_reference(monkeypatch):
    # Same incumbent bits and certificate everywhere. Node counts differ:
    # the search scores small subtrees whole instead of popping their
    # nodes. Both searches solve through the counted `_trimmed_solution`:
    # the reference once per closed node, the new one only where the
    # screen lets a completion through; each also solves its greedy
    # incumbent.
    solves = []

    def counted(data, drop, k):
        solves.append(1)
        return _trimmed_solution(data, drop, k)

    monkeypatch.setattr(oracle, "_trimmed_solution", counted)
    reference = functools.partial(_reference_branch_and_bound,
                                  trimmed_solution=counted)
    for label, data, k, warm in _tree_cases():
        if label == "rank-deficient":
            # the screen is off, as the full design fails the rank test,
            # and every kept set fails it too
            with pytest.raises(RankDeficient):
                pivoted_qr(data.design)
            for search in (reference, oracle._branch_and_bound):
                with pytest.raises(RankDeficient):
                    search(data, k, warm)
            with pytest.raises(RankDeficient):
                best_subset_exact(data, k, method="enumerate")
            continue
        solves.clear()
        ref = reference(data, k, warm)
        closed = len(solves) - 1
        solves.clear()
        new = oracle._branch_and_bound(data, k, warm)
        if label == "dgp1":
            assert len(solves) - 1 < closed
        assert np.array_equal(new[0].outliers, ref[0].outliers)
        assert new[1].hex() == ref[1].hex()
        for best, primal, dual, nodes, timed_out in (ref, new):
            assert not timed_out
            assert primal - dual <= oracle.GAP_TOL * max(dual, 1e-12)


@pytest.mark.parametrize("design", ["plain", "offset", "collinear", "leverage-one"])
def test_closed_node_screen_matches_trimmed_solution(design):
    # On random subtrees, rows A fixed out and a budget of up to 3 more
    # from free rows F, every completion's screened objective is within
    # the screen's own error bound of the pivoted-QR objective. A subtree
    # with a completion whose I - H_AA is singular is refused, and that
    # completion's solve fails.
    k = 4
    data = {
        "plain": lambda: _instance(3, n=30, k0=3),
        "offset": lambda: _offset_design(0),
        "collinear": lambda: _collinear_design(1),
        "leverage-one": lambda: _leverage_one_design(2),
    }[design]()
    screen = oracle._leave_out_screen(data.design, data.y, pivoted_qr(data.design))
    r = np.random.default_rng(len(design))
    for _ in range(100):
        budget = int(r.integers(0, 4))
        a = int(r.integers(0, k - budget + 1))
        picked = r.choice(data.n_obs, size=a + int(r.integers(budget, 7)), replace=False)
        A, F = picked[:a].tolist(), picked[a:].tolist()
        completions = [A + list(S) for S in itertools.combinations(F, budget)]
        hit = screen(A, F, budget)
        if design == "leverage-one" and any(LEVERAGE_ROW in d for d in completions):
            assert hit is None
            drop = next(d for d in completions if LEVERAGE_ROW in d)
            with pytest.raises(RankDeficient):
                _trimmed_solution(data, np.array(drop), k)
            continue
        assert hit is not None
        drops, value, err = hit
        assert [A + S for S in drops.tolist()] == completions
        for drop, v, e in zip(completions, value, err):
            objective = _trimmed_solution(data, np.array(drop, dtype=np.intp), k).objective
            assert abs(v - objective) <= e
            assert e <= 0.05 * objective


def _high_leverage_design(seed, n=14):
    """Row 0's regressor is 10, far out, so its leverage is near 1 and a
    drop set holding it and another row can fail the screen's Gershgorin
    test, though no kept set is rank deficient."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, 2))
    x[0, 0] = 10.0
    y = 0.5 + x.sum(axis=1) + r.normal(size=n)
    y[1:3] += 8.0
    return Dataset(y=y, x=x)


@pytest.mark.parametrize("q", [3, 11])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_subtree_screen_search_matches_exhaustive_oracle(q, k):
    # Small enough that the root is one subtree: scored whole and closed,
    # or, for the high-leverage design past k = 1, refused and branched.
    r = np.random.default_rng(100 * q + k)
    cases = []
    for _ in range(2):
        n = q + 5
        x = r.normal(size=(n, q - 1))
        y = 0.5 + x.sum(axis=1) + r.normal(size=n)
        y[:2] += 8.0
        cases.append(Dataset(y=y, x=x))
    if q == 3:
        cases.append(_high_leverage_design(k))
        root = oracle._leave_out_screen(cases[-1].design, cases[-1].y,
                                        pivoted_qr(cases[-1].design))
        assert (root([], range(14), k) is None) == (k > 1)
    for d in cases:
        assert comb(d.n_obs, k) <= oracle.SUBTREE_LIMIT
        best_val, best_set = exhaustive_oracle(d, k)
        for warm in (None, fit_iht(d, k, initial_beta(d))):
            res = best_subset_exact(d, k, warm_start=warm)
            assert res.proven_optimal
            assert res.primal == pytest.approx(best_val, rel=1e-9)
            assert set(res.solution.outliers) <= best_set


def _lstsq_rss(X, y):
    """Minimum-norm least-squares RSS, as the reference bound computes it."""
    return _reference_rss_fixed(X, y, np.arange(X.shape[0]))[0]


@pytest.mark.parametrize("q", [3, 11, 21, 41])
@pytest.mark.parametrize("design", ["plain", "collinear"])
def test_carried_factor_rss_matches_lstsq(q, design):
    r = np.random.default_rng(q)
    n = 2 * q + 10
    x = r.normal(size=(n, q - 1))
    if design == "collinear" and q > 3:
        x[:, -1] = 2.0 * x[:, 0] - x[:, 1]
        x[:, -2] = 3.0 * x[:, 0]
    elif design == "collinear":
        x[:, -1] = 3.0 * x[:, 0]
    y = 1.0 + x @ r.normal(size=q - 1) + r.normal(size=n)
    d = Dataset(y=y, x=x)
    X = d.design
    tiny = oracle._rounding_level(X)
    rows = np.hstack([X, y[:, None]]).tolist()
    for _ in range(3):
        # rows drawn with replacement from a small pool: duplicates early,
        # fewer rows than columns for the first q - 1 steps
        seq = r.choice(n // 2, size=2 * q + 5, replace=True)
        factor, rss = ((),) * q, 0.0
        for m in range(1, seq.shape[0] + 1):
            factor, added = oracle._add_row(factor, rows[seq[m - 1]], tiny)
            assert added >= 0.0
            rss += added
            want = _lstsq_rss(X[seq[:m]], y[seq[:m]])
            assert abs(rss - want) <= 1e-10 * want + 1e-12
