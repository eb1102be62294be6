import itertools

import numpy as np
import pytest

from trimreg.classic import fit_ols, initial_beta
from trimreg.errors import DivisionDomain, TooLarge
from trimreg.l0 import fit_iht
from trimreg.linalg import Dataset
from trimreg.oracle import (
    best_subset_exact,
    equal_solution,
    equal_solution_parts,
    relative_optimality_gap,
)


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


def test_gap_arithmetic():
    assert relative_optimality_gap(1.0, 1.0) == 0.0
    assert relative_optimality_gap(1.1, 1.0) == pytest.approx(0.1)
    with pytest.raises(DivisionDomain):
        relative_optimality_gap(1.0, 0.0)
    with pytest.raises(DivisionDomain):
        relative_optimality_gap(1.0, -2.0)


def test_proven_runs_have_tiny_gap():
    for seed in range(10):
        d = _instance(seed, n=14, k0=2)
        res = best_subset_exact(d, 2)
        assert res.proven_optimal
        gap = relative_optimality_gap(res.primal, max(res.dual, 1e-12))
        assert gap <= 1e-4


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
        support, objective = equal_solution_parts(best, worse)
        assert not support and not objective
        assert not equal_solution(best, worse)


def test_incumbent_and_nodes_accounting():
    d = _instance(13, n=20, k0=3)
    res = best_subset_exact(d, 3, method="branch-and-bound")
    assert res.nodes_explored >= 1
    assert res.dual <= res.primal + 1e-9
    assert res.wall_time >= 0.0
