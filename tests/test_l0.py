import ast
import itertools
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trimreg
from trimreg import dgp, l0
from trimreg.classic import fit_ols, initial_beta
from trimreg.cli import main
from trimreg.dgp import DgpConfig, generate
from trimreg.errors import DegenerateFit, InvariantViolated, TooFewInliers
from trimreg.l0 import (
    Selection,
    SparsitySolution,
    bic_score,
    count_swap_candidates,
    fit_iht,
    fit_l0_auto,
    fit_lcs,
    hard_threshold,
    local_swap_search,
    neighborhood_search,
    select_by_score,
    select_k_bic,
    sweep_cap,
)
from trimreg.linalg import Dataset
from trimreg.oracle import best_subset_exact


def exhaustive_projection_oracle(c, k):
    """argmin over all supports of ||a - c||^2 with a zero off-support."""
    n = len(c)
    best_val, best_a = np.inf, None
    for support in itertools.combinations(range(n), k):
        a = np.zeros(n)
        a[list(support)] = c[list(support)]
        val = np.sum((a - c) ** 2)
        if val < best_val - 1e-15:
            best_val, best_a = val, a
    return best_a, best_val


def test_hard_threshold_basic():
    assert np.array_equal(hard_threshold(np.array([3.0, -5.0, 1.0]), 1),
                          [0.0, -5.0, 0.0])
    assert np.array_equal(hard_threshold(np.array([3.0, -5.0, 1.0]), 0),
                          np.zeros(3))


def test_hard_threshold_matches_projection_oracle(rng):
    c = rng.normal(size=10)
    out = hard_threshold(c, 4)
    _, best_val = exhaustive_projection_oracle(c, 4)
    assert np.sum((out - c) ** 2) == pytest.approx(best_val, abs=1e-12)


def test_hard_threshold_tie_break_lowest_index():
    c = np.array([2.0, -2.0, 2.0, 1.0])
    out = hard_threshold(c, 2)
    assert np.array_equal(out, [2.0, -2.0, 0.0, 0.0])


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_hard_threshold_optimality_property(seed, n):
    r = np.random.default_rng(seed)
    c = r.normal(size=n)
    for k in range(n + 1):
        out = hard_threshold(c, k)
        _, best_val = exhaustive_projection_oracle(c, k)
        assert np.sum((out - c) ** 2) <= best_val + 1e-12


def _contaminated(rng, n=50, shift=12.0, k0=3):
    x = rng.normal(size=(n, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + rng.normal(size=n)
    y[:k0] += shift
    return Dataset(y=y, x=x)


def test_iht_clean_exact_fit(rng):
    x = np.linspace(-1, 1, 20)
    d = Dataset(y=1.0 + 2.0 * x, x=x.reshape(-1, 1))
    sol = fit_iht(d, 3, np.array([0.0, 0.0]))
    assert sol.objective == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(sol.beta, [1.0, 2.0], atol=1e-8)


def test_iht_zero_budget_is_ols(rng):
    d = _contaminated(rng)
    sol = fit_iht(d, 0, np.zeros(3))
    ols = fit_ols(d)
    assert np.array_equal(sol.beta, ols.beta)
    assert sol.objective == pytest.approx(ols.objective, rel=1e-12)


def test_iht_detects_single_gross_outlier(rng):
    n = 50
    x = rng.normal(size=(n, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + rng.normal(size=n)
    y[13] += 100.0
    d = Dataset(y=y, x=x)
    sol = fit_iht(d, 1, initial_beta(d))
    assert np.array_equal(sol.outliers, [13])
    clean = np.delete(np.arange(n), 13)
    beta_clean = np.linalg.lstsq(d.design[clean], y[clean], rcond=None)[0]
    assert np.max(np.abs(sol.beta - beta_clean)) <= 1e-6


def test_iht_support_is_stable_fixed_point(rng):
    d = _contaminated(rng)
    sol = fit_iht(d, 3, initial_beta(d))
    again = fit_iht(d, 3, sol.beta)
    assert np.array_equal(sol.outliers, again.outliers)
    assert again.objective == pytest.approx(sol.objective, rel=1e-12)


def test_iht_too_few_inliers(rng):
    d = Dataset(y=rng.normal(size=10), x=rng.normal(size=(10, 2)))
    with pytest.raises(TooFewInliers):
        fit_iht(d, 8, np.zeros(3))


@pytest.mark.parametrize("fit", [
    lambda d: fit_iht(d, -1, np.zeros(3)),
    lambda d: fit_lcs(d, -1, np.zeros(3), 1),
    lambda d: fit_lcs(d, -1, np.zeros(3), 2),
    lambda d: best_subset_exact(d, -1, method="branch-and-bound"),
], ids=["iht", "lcs1", "lcs2", "oracle"])
def test_negative_budget_is_rejected(rng, fit):
    with pytest.raises(ValueError, match="k=-1"):
        fit(_contaminated(rng))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("beta0", [np.array([1.0, np.nan, 0.0]), np.array([1.0, 0.0, np.inf]),
                                   np.zeros(4), np.zeros(2)],
                         ids=["nan", "inf", "long", "short"])
@pytest.mark.parametrize("fit", [
    lambda d, k, b: fit_iht(d, k, b),
    lambda d, k, b: fit_lcs(d, k, b, 1),
    lambda d, k, b: fit_lcs(d, k, b, 2),
], ids=["iht", "lcs1", "lcs2"])
def test_a_bad_start_is_refused_at_every_budget(rng, fit, beta0, k):
    # at k = 0 the start goes unused, but it is checked all the same
    d = _contaminated(rng)
    with pytest.raises(ValueError, match="beta0 must be a finite vector"):
        fit(d, k, beta0)


def test_swap_search_candidate_count(rng):
    n, k = 30, 3
    x = rng.normal(size=(n, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + rng.normal(size=n)
    y[:k] += 15.0
    d = Dataset(y=y, x=x)
    sol = fit_iht(d, k, initial_beta(d))
    assert sol.outliers.shape[0] == k
    refined = local_swap_search(d, sol, 1)
    assert refined.info["swap_candidates"] == k * (n - k) + k == 84
    assert count_swap_candidates(n - k, k, 1) == 84


def test_swap_scoring_matches_brute_force(rng):
    # every candidate support scored by the downdate identities must agree
    # with a from-scratch least-squares refit
    n, k = 14, 3
    x = rng.normal(size=(n, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + rng.normal(size=n)
    y[[2, 7, 11]] += 6.0
    d = Dataset(y=y, x=x)
    sol = fit_iht(d, k, initial_beta(d))
    for l in (1, 2):
        best = np.inf
        inl, out = sol.inliers, sol.outliers
        for s2 in range(1, min(l, len(out)) + 1):
            for add in itertools.combinations(out, s2):
                for s1 in range(0, s2 + 1):
                    for drop in itertools.combinations(inl, s1):
                        keep = np.setdiff1d(
                            np.union1d(inl, add), np.array(drop, dtype=np.intp)
                        )
                        if keep.shape[0] < d.n_coef:
                            continue
                        beta, _, _, _ = np.linalg.lstsq(
                            d.design[keep], d.y[keep], rcond=None
                        )
                        r = d.y[keep] - d.design[keep] @ beta
                        best = min(best, float(r @ r))
        from trimreg.l0 import _swap_pass

        got, _, _, _ = _swap_pass(d.design, d.y, inl, out, l)
        assert got == pytest.approx(best, rel=1e-9, abs=1e-12)


def _reference_swap_pass(X, y, in_idx, out_idx, l):
    """The swap pass as one loop over readmitted rows, one Gram inverse each."""
    X_in, y_in = X[in_idx], y[in_idx]
    X_out, y_out = X[out_idx], y[out_idx]
    m, ko = in_idx.shape[0], out_idx.shape[0]
    G_in = X_in.T @ X_in
    b_in = X_in.T @ y_in
    yy_in = float(y_in @ y_in)
    best_rss, best_drop, best_add, n_cand = np.inf, (), (), 0
    for s2 in range(1, min(l, ko) + 1):
        for add in itertools.combinations(range(ko), s2):
            add = list(add)
            Xs, ys = X_out[add], y_out[add]
            G = G_in + Xs.T @ Xs
            b = b_in + Xs.T @ ys
            yy = yy_in + float(ys @ ys)
            try:
                Ginv = np.linalg.inv(G)
            except np.linalg.LinAlgError:
                n_cand += sum(comb(m, s1) for s1 in range(0, s2 + 1))
                continue
            beta = Ginv @ b
            rss_base = max(yy - float(b @ beta), 0.0)
            n_cand += 1
            if rss_base < best_rss:
                best_rss, best_drop, best_add = rss_base, (), tuple(add)
            e = y_in - X_in @ beta
            Z = X_in @ Ginv
            h = np.einsum("ij,ij->i", Z, X_in)
            denom = 1.0 - h
            with np.errstate(divide="ignore", invalid="ignore"):
                rss1 = np.where(denom > l0.DOWNDATE_TOL, rss_base - e * e / denom, np.inf)
            n_cand += m
            j = int(np.argmin(rss1))
            if rss1[j] < best_rss:
                best_rss, best_drop, best_add = float(rss1[j]), (j,), tuple(add)
            if s2 >= 2 and m >= 2:
                H = Z @ X_in.T
                i1, i2 = np.triu_indices(m, k=1)
                d1, d2, h12 = denom[i1], denom[i2], H[i1, i2]
                det = d1 * d2 - h12 * h12
                e1, e2 = e[i1], e[i2]
                corr = e1 * e1 * d2 + e2 * e2 * d1 + 2.0 * e1 * e2 * h12
                ok = (det > l0.DOWNDATE_TOL) & (d1 > l0.DOWNDATE_TOL) & (d2 > l0.DOWNDATE_TOL)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rss2 = np.where(ok, rss_base - corr / det, np.inf)
                n_cand += i1.shape[0]
                j2 = int(np.argmin(rss2))
                if rss2[j2] < best_rss:
                    best_rss = float(rss2[j2])
                    best_drop, best_add = (int(i1[j2]), int(i2[j2])), tuple(add)
    drop_rows = in_idx[list(best_drop)] if best_drop else np.empty(0, dtype=np.intp)
    add_rows = out_idx[list(best_add)] if best_add else np.empty(0, dtype=np.intp)
    return best_rss, drop_rows, add_rows, n_cand


def _assert_same_swap(got, want):
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3]
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)


SWAP_SAMPLES = [
    pytest.param(DgpConfig(dgp=1, N=40, p=0.1, mu_alpha=5, sigma_alpha=5,
                           seed=271828, n_test=1), 10, id="dgp1"),
    pytest.param(DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=55555, n_test=1), 40,
                 id="dgp2"),
    pytest.param(DgpConfig(dgp=3, N=120, p=0.1, rho=5.0, seed=173205, n_test=1), 30,
                 id="dgp3"),
]


@pytest.mark.parametrize("cfg, K", SWAP_SAMPLES)
def test_batched_swap_pass_matches_reference_loop(cfg, K):
    # IHT starts and random partitions, each at order 1 and order 2
    d = generate(cfg).train
    r = np.random.default_rng(cfg.seed)
    b0 = initial_beta(d)
    for k in (1, K // 4, K // 2):
        starts = [fit_iht(d, k, b0).outliers,
                  np.sort(r.choice(d.n_obs, size=k, replace=False))]
        for out in starts:
            inl = np.setdiff1d(np.arange(d.n_obs), out)
            for l in (1, 2):
                _assert_same_swap(l0._swap_pass(d.design, d.y, inl, out, l),
                                  _reference_swap_pass(d.design, d.y, inl, out, l))


@pytest.mark.parametrize("block", [1, 7])
def test_pair_blocks_match_reference_loop(monkeypatch, block):
    # readmitted pairs scored in several batches keep the tie order
    d = generate(SWAP_SAMPLES[0].values[0]).train
    monkeypatch.setattr(l0, "PAIR_BLOCK", block)
    for k in (2, 5, 10):
        out = fit_iht(d, k, initial_beta(d)).outliers
        inl = np.setdiff1d(np.arange(d.n_obs), out)
        _assert_same_swap(l0._swap_pass(d.design, d.y, inl, out, 2),
                          _reference_swap_pass(d.design, d.y, inl, out, 2))


@pytest.mark.parametrize("cfg, K", SWAP_SAMPLES)
def test_fit_l0_auto_bit_identical_to_reference_loop(monkeypatch, cfg, K):
    d = generate(cfg).train
    batched = l0._swap_pass
    passes = []

    def checked(X, y, in_idx, out_idx, l):
        got = batched(X, y, in_idx, out_idx, l)
        _assert_same_swap(got, _reference_swap_pass(X, y, in_idx, out_idx, l))
        passes.append(l)
        return got

    monkeypatch.setattr(l0, "_swap_pass", checked)
    got = l0.fit_l0_auto(d, initial_beta(d), K)
    assert passes.count(1) > K and 2 in passes
    monkeypatch.setattr(l0, "_swap_pass", _reference_swap_pass)
    want = l0.fit_l0_auto(d, initial_beta(d), K)
    assert got.beta.tobytes() == want.beta.tobytes()
    assert np.array_equal(got.outliers, want.outliers)
    assert got.k == want.k
    assert got.selection.trace == want.selection.trace


def _unpruned_swap_pass(X, y, in_idx, out_idx, l):
    """The batched swap pass that builds every readmitted pair's full
    two-drop table, with no bound: the pass as it was before pairs were
    skipped."""
    m, ko = in_idx.shape[0], out_idx.shape[0]
    n_cand = count_swap_candidates(m, ko, l)
    best_rss, best_drop, best_add = np.inf, [], out_idx[:0]
    try:
        kept = l0._kept_fit(X[in_idx], y[in_idx])
    except l0.RankDeficient:
        return best_rss, in_idx[:0], best_add, n_cand
    readmits = [out_idx[:, None]]
    if l == 2 and ko >= 2:
        pairs = out_idx[np.column_stack(np.triu_indices(ko, 1))]
        readmits += np.split(pairs, range(l0.PAIR_BLOCK, pairs.shape[0], l0.PAIR_BLOCK))
        i1, i2 = np.triu_indices(m, 1)
        flat = i1 * m + i2
        H0_12 = (kept[1] @ kept[1].T).take(flat)
    for A in readmits:
        table, e, denom, W, CW = l0._readmit_scores(kept, X[A], y[A])
        if A.shape[1] == 2:
            two = np.full(A.shape[0], np.inf)
            two_at = np.zeros(A.shape[0], dtype=np.intp)
            for p in range(A.shape[0] if m >= 2 else 0):
                d1, d2 = denom[p].take(i1), denom[p].take(i2)
                h12 = H0_12 - (W[p].T @ CW[p]).take(flat)
                det = d1 * d2 - h12 * h12
                e1, e2 = e[p].take(i1), e[p].take(i2)
                corr = e1 * e1 * d2 + e2 * e2 * d1 + 2.0 * e1 * e2 * h12
                ok = (det > l0.DOWNDATE_TOL) & (d1 > l0.DOWNDATE_TOL) & (d2 > l0.DOWNDATE_TOL)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rss2 = np.where(ok, table[p, 0] - corr / det, np.inf)
                two_at[p] = np.argmin(rss2)
                two[p] = rss2[two_at[p]]
            table = np.column_stack([table, two])
        p, col = divmod(int(np.argmin(table)), table.shape[1])
        if table[p, col] < best_rss:
            best_rss, best_add = float(table[p, col]), A[p]
            if col <= m:
                best_drop = [col - 1] if col else []
            else:
                best_drop = [i1[two_at[p]], i2[two_at[p]]]
    return best_rss, in_idx[best_drop], best_add, n_cand


def _assert_bit_identical_swap(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3]


def _swap_starts(cfg, K):
    """(data, kept rows, discarded rows) at IHT starts and random
    partitions with budgets 2, K // 4 and K // 2."""
    d = generate(cfg).train
    r = np.random.default_rng(cfg.seed)
    for k in (2, K // 4, K // 2):
        for out in (fit_iht(d, k, initial_beta(d)).outliers,
                    np.sort(r.choice(d.n_obs, size=k, replace=False))):
            yield d, np.setdiff1d(np.arange(d.n_obs), out), out


def _counting_pair_tables(monkeypatch):
    """Count the readmitted pairs whose two-drop table `_swap_pass` builds."""
    built = []
    full = l0._best_two_drop

    def counted(*args):
        built.append(1)
        return full(*args)

    monkeypatch.setattr(l0, "_best_two_drop", counted)
    return built


@pytest.mark.parametrize("block", [1, 7, l0.PAIR_BLOCK])
@pytest.mark.parametrize("cfg, K", SWAP_SAMPLES)
def test_pruned_swap_pass_is_bit_identical_to_the_full_table(monkeypatch, cfg, K, block):
    monkeypatch.setattr(l0, "PAIR_BLOCK", block)
    for d, inl, out in _swap_starts(cfg, K):
        _assert_bit_identical_swap(l0._swap_pass(d.design, d.y, inl, out, 2),
                                   _unpruned_swap_pass(d.design, d.y, inl, out, 2))


@pytest.mark.parametrize("cfg, K", SWAP_SAMPLES)
def test_pair_bound_is_below_each_pairs_best_two_drop(cfg, K):
    n_on = n_pairs = 0
    for d, inl, out in _swap_starts(cfg, K):
        m = inl.shape[0]
        kept = l0._kept_fit(d.design[inl], d.y[inl])
        A = out[np.column_stack(np.triu_indices(out.shape[0], 1))]
        table, e, denom, W, CW = l0._readmit_scores(kept, d.design[A], d.y[A])
        bound = l0._pair_bounds(table[:, 0], e, denom)
        i1, i2 = np.triu_indices(m, 1)
        flat = i1 * m + i2
        H0_12 = (kept[1] @ kept[1].T).take(flat)
        for p in range(A.shape[0]):
            h12 = H0_12 - (W[p].T @ CW[p]).take(flat)
            best, _ = l0._best_two_drop(table[p, 0], e[p], denom[p], h12, i1, i2)
            assert bound[p] <= best
        n_on += int(np.isfinite(bound).sum())
        n_pairs += A.shape[0]
    assert n_on >= 0.8 * n_pairs  # the bound is on for most pairs


def test_a_high_leverage_kept_row_turns_the_pair_bound_off(monkeypatch):
    # row 5's regressors scaled 30 times: its leverage passes 0.375, so the
    # bound's eigenvalue floor 2 min(1 - h) - 1 drops below 0.25
    r = np.random.default_rng(11)
    x = r.normal(size=(40, 2))
    x[5] *= 30.0
    y = 0.5 + x @ np.array([1.0, 1.0]) + r.normal(size=40)
    y[[0, 1, 2, 3]] += 8.0
    d = Dataset(y=y, x=x)
    built = _counting_pair_tables(monkeypatch)
    for out in (np.array([0, 1, 2, 3]), np.array([0, 2, 9, 17, 30])):
        inl = np.setdiff1d(np.arange(40), out)
        kept = l0._kept_fit(d.design[inl], d.y[inl])
        assert 2.0 * kept[5].min() - 1.0 <= l0.PAIR_GAP_FLOOR
        built.clear()
        _assert_bit_identical_swap(l0._swap_pass(d.design, d.y, inl, out, 2),
                                   _unpruned_swap_pass(d.design, d.y, inl, out, 2))
        assert len(built) == comb(out.shape[0], 2)


def test_duplicated_rows_keep_the_tie_winner():
    # every row twice: readmitting a row or its copy, and dropping a kept
    # row or its copy, score alike, so the first in tie order must win
    r = np.random.default_rng(12)
    x = r.normal(size=(30, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + r.normal(size=30)
    y[[0, 1, 2]] += 8.0
    d = Dataset(y=np.concatenate([y, y]), x=np.vstack([x, x]))
    for out in (np.array([0, 1, 2, 30, 31, 32]), np.array([0, 4, 30, 34]),
                np.array([1, 5, 9, 31, 35, 39])):
        inl = np.setdiff1d(np.arange(60), out)
        _assert_bit_identical_swap(l0._swap_pass(d.design, d.y, inl, out, 2),
                                   _unpruned_swap_pass(d.design, d.y, inl, out, 2))


def test_closing_order_2_pass_skips_most_pairs(monkeypatch):
    d = generate(SWAP_SAMPLES[1].values[0]).train
    built = _counting_pair_tables(monkeypatch)
    full = l0._swap_pass
    n_pairs, n_built = [], []

    def counted(X, y, in_idx, out_idx, l):
        start = len(built)
        got = full(X, y, in_idx, out_idx, l)
        if l == 2:
            n_pairs.append(comb(out_idx.shape[0], 2))
            n_built.append(len(built) - start)
        return got

    monkeypatch.setattr(l0, "_swap_pass", counted)
    fit_l0_auto(d, initial_beta(d), 40)
    assert sum(n_pairs) >= 30
    assert sum(n_built) <= 0.1 * sum(n_pairs)


def _reference_fit_iht(data, k, beta0):
    """`fit_iht` as one loop with its own solve, then a closing refit of the
    last discarded set through `_trimmed_solution`."""
    X, y = data.design, data.y
    n = data.n_obs
    beta = np.asarray(beta0, dtype=np.float64).reshape(-1)
    prev_drop, obj, iterations = None, np.inf, 0
    for iterations in range(1, l0.IHT_MAX_ITER + 1):
        drop = l0._top_k_indices(y - X @ beta, k)
        if prev_drop is not None and np.array_equal(drop, prev_drop):
            break
        mask = np.ones(n, dtype=bool)
        mask[drop] = False
        beta_new = l0.lstsq_qr(X[mask], y[mask])
        r_new = y - X @ beta_new
        obj_new = 0.5 * float(r_new[mask] @ r_new[mask])
        assert obj_new <= obj + l0.IMPROVE_TOL * max(1.0, obj)
        obj = obj_new
        delta = np.max(np.abs(beta_new - beta))
        beta = beta_new
        prev_drop = drop
        if delta < 1e-10:
            break
    sol = l0._trimmed_solution(data, prev_drop, k)
    sol.info["iterations"] = iterations
    return sol


@pytest.mark.parametrize("cfg, K", SWAP_SAMPLES)
def test_fit_iht_returns_its_last_solve(monkeypatch, cfg, K):
    # same bits as the loop with a closing refit, from one solve fewer
    d = generate(cfg).train
    r = np.random.default_rng(cfg.seed)
    exact = l0.lstsq_qr
    calls = []

    def counted(X, v):
        calls.append(1)
        return exact(X, v)

    monkeypatch.setattr(l0, "lstsq_qr", counted)
    starts = [initial_beta(d)] + [r.normal(scale=3.0, size=d.n_coef) for _ in range(2)]
    for k in (1, K // 4, K // 2):
        for b0 in starts:
            calls.clear()
            want = _reference_fit_iht(d, k, b0)
            n_want = len(calls)
            calls.clear()
            got = fit_iht(d, k, b0)
            assert got.beta.tobytes() == want.beta.tobytes()
            assert np.array_equal(got.outliers, want.outliers)
            assert got.objective == want.objective
            assert got.info["iterations"] == want.info["iterations"]
            assert len(calls) == n_want - 1


def test_leverage_one_row_scores_inf_and_is_counted():
    # a dummy regressor that is nonzero on row 7 only gives that kept row
    # leverage 1: dropping it leaves the Gram singular
    r = np.random.default_rng(5)
    n, j = 30, 7
    x1 = r.normal(size=n)
    dummy = np.zeros(n)
    dummy[j] = 1.0
    y = 1.0 + x1 + r.normal(size=n)
    y[[0, 1, 2]] += 8.0
    d = Dataset(y=y, x=np.column_stack([x1, dummy]))
    sol = fit_iht(d, 3, initial_beta(d))
    inl, out = sol.inliers, sol.outliers
    pos = int(np.flatnonzero(inl == j)[0])
    X, yv = d.design, d.y
    kept = l0._kept_fit(X[inl], yv[inl])
    table = l0._readmit_scores(kept, X[out][:, None], yv[out][:, None])[0]
    assert table.shape == (3, 1 + inl.shape[0])
    assert np.all(np.isinf(table[:, 1 + pos]))
    assert np.all(np.isfinite(np.delete(table, 1 + pos, axis=1)))
    for l in (1, 2):
        got = l0._swap_pass(X, yv, inl, out, l)
        _assert_same_swap(got, _reference_swap_pass(X, yv, inl, out, l))
        assert j not in got[1]
        searched = local_swap_search(d, sol, l)
        assert searched.info["swap_candidates"] == count_swap_candidates(
            inl.shape[0], out.shape[0], l
        )


def test_singular_kept_gram_scores_every_candidate_inf():
    # a dummy regressor that is nonzero on discarded row 0 only: the kept
    # rows' Gram is singular, so no candidate is scored
    r = np.random.default_rng(6)
    n = 20
    dummy = np.zeros(n)
    dummy[0] = 1.0
    X = np.column_stack([np.ones(n), r.normal(size=n), dummy])
    y = r.normal(size=n)
    inl, out = np.arange(3, n), np.arange(3)
    for l in (1, 2):
        best, drop, add, n_cand = l0._swap_pass(X, y, inl, out, l)
        assert best == np.inf and drop.size == add.size == 0
        assert n_cand == count_swap_candidates(n - 3, 3, l)


@pytest.mark.parametrize("seed", range(10))
def test_swap_scores_on_offset_regressors_match_the_refit(seed):
    # regressors at 1e3 + N(0,1) nearly parallel the intercept, which
    # squares into a Gram that loses digits; the winning score must match
    # the pivoted-QR refit of its support
    r = np.random.default_rng(seed)
    n = 60
    x = 1e3 + r.normal(size=(n, 2))
    y = x.sum(axis=1) + r.normal(size=n)
    y[:5] += 10.0
    d = Dataset(y=y, x=x)
    for k in (3, 6):
        sol = fit_iht(d, k, initial_beta(d))
        for l in (1, 2):
            best, drop, add, _ = l0._swap_pass(d.design, d.y, sol.inliers, sol.outliers, l)
            support = np.union1d(np.setdiff1d(sol.outliers, add), drop).astype(np.intp)
            refit = 2.0 * l0._trimmed_solution(d, support, k).objective
            assert best == pytest.approx(refit, rel=1e-11, abs=0.0)


def test_swap_search_keeps_global_optimum(rng):
    d = _contaminated(rng, n=16, shift=10.0, k0=2)
    oracle = best_subset_exact(d, 2).solution
    out = local_swap_search(d, oracle, 1)
    assert out is oracle
    assert out.info["inescapable_order"] == 1


def test_swap_search_recovers_oracle_on_adversarial_instance():
    # two moderate leverage points; the alternation alone stops at the
    # wrong support, one round of 1-swaps reaches the certified optimum
    r = np.random.default_rng(3)
    n = 20
    x = r.normal(size=n)
    x[0], x[1] = 2.2, 2.5
    u = 0.5 * r.normal(size=n)
    y = 1.0 + x + u
    y[0] += 4.0
    y[1] -= 4.0
    d = Dataset(y=y, x=x.reshape(-1, 1))
    b0 = initial_beta(d)
    iht = fit_iht(d, 2, b0)
    oracle = best_subset_exact(d, 2).solution
    assert set(iht.outliers) != set(oracle.outliers)
    lcs = fit_lcs(d, 2, b0, 1)
    assert set(lcs.outliers) == set(oracle.outliers)


def test_lcs_no_improving_swap_on_clean_data(rng):
    x = rng.normal(size=(25, 1))
    y = 0.5 + 2.0 * x[:, 0] + 0.1 * rng.normal(size=25)
    d = Dataset(y=y, x=x)
    b0 = initial_beta(d)
    iht = fit_iht(d, 2, b0)
    lcs = fit_lcs(d, 2, b0, 1)
    assert lcs.objective == pytest.approx(iht.objective, rel=1e-12)
    assert np.array_equal(lcs.outliers, iht.outliers)


def test_lcs_dominates_iht_and_order_two_dominates_one(rng):
    for _ in range(5):
        d = _contaminated(rng, n=35, shift=6.0, k0=4)
        b0 = initial_beta(d)
        iht = fit_iht(d, 4, b0)
        lcs1 = fit_lcs(d, 4, b0, 1)
        lcs2 = fit_lcs(d, 4, b0, 2)
        assert lcs1.objective <= iht.objective + 1e-12
        assert lcs2.objective <= lcs1.objective + 1e-12 * max(1, lcs1.objective)


@pytest.mark.parametrize("l", [1, 2])
def test_lcs_at_budget_zero_is_the_ols_fit(rng, l):
    d = _contaminated(rng, n=30, shift=5.0, k0=3)
    sol = fit_lcs(d, 0, initial_beta(d), l)
    ols = fit_ols(d)
    assert sol.beta.tobytes() == ols.beta.tobytes()
    assert sol.objective == ols.objective
    assert sol.outliers.size == 0 and not sol.alpha.any()
    assert sol.info["swap_candidates"] == 0


def test_lcs_inescapability_certificate(rng):
    d = _contaminated(rng, n=30, shift=5.0, k0=3)
    sol = fit_lcs(d, 3, initial_beta(d), 2)
    again = local_swap_search(d, sol, 2)
    assert again is sol


def test_neighborhood_single_budget_equals_lcs(rng):
    d = _contaminated(rng, n=20, shift=8.0, k0=2)
    b0 = initial_beta(d)
    sols = neighborhood_search(d, b0, K=1, l=1)
    direct = fit_lcs(d, 1, b0, 1)
    assert len(sols) == 1
    assert sols[0].objective == pytest.approx(direct.objective, rel=1e-12)


def _plain_neighborhood_search(data, beta0, K, l):
    """The budget sweep without reuse: one public `fit_lcs` per refit."""
    sols = [fit_lcs(data, k, beta0, l) for k in range(1, K + 1)]
    total = sum(s.objective for s in sols)
    for _ in range(l0.SWEEP_MAX):
        for j in range(K):
            best = sols[j]
            neighbors = [sols[i].beta for i in (j - 1, j + 1) if 0 <= i < K]
            for init in neighbors:
                try:
                    cand = fit_lcs(data, j + 1, init, l)
                except TooFewInliers:
                    continue
                if cand.objective < best.objective:
                    best = cand
            sols[j] = best
        new_total = sum(s.objective for s in sols)
        if abs(new_total - total) <= l0.IMPROVE_TOL * max(1.0, total):
            break
        total = new_total
    return sols


@pytest.mark.parametrize("cfg, K", [
    (DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=55555, n_test=10), 40),
    (DgpConfig(dgp=3, N=120, p=0.1, rho=5.0, seed=173205, n_test=1), 30),
])
def test_neighborhood_search_equals_plain_refit_loop(cfg, K):
    d = generate(cfg).train
    b0 = initial_beta(d)
    got = neighborhood_search(d, b0, K, 1)
    want = _plain_neighborhood_search(d, b0, K, 1)
    assert [s.k for s in got] == list(range(1, K + 1))
    for g, w in zip(got, want):
        assert g.objective == w.objective
        assert g.beta.tobytes() == w.beta.tobytes()
        assert np.array_equal(g.outliers, w.outliers)


def _reference_swap_search(data, sol, l):
    """`local_swap_search` around `_reference_swap_pass`, with nothing
    kept from one call to the next."""
    margin = l0.IMPROVE_TOL * max(1.0, sol.objective)
    if sol.outliers.shape[0] == 0:
        sol.info.update(swap_candidates=0, inescapable_order=l)
        return sol
    best_rss, drop_rows, add_rows, n_cand = _reference_swap_pass(
        data.design, data.y, sol.inliers, sol.outliers, l)
    sol.info["swap_candidates"] = n_cand
    if 0.5 * best_rss < sol.objective - margin:
        support = np.union1d(np.setdiff1d(sol.outliers, add_rows), drop_rows).astype(np.intp)
        cand = l0._trimmed_solution(data, support, sol.k)
        if cand.objective < sol.objective - margin:
            cand.info["swap_candidates"] = n_cand
            return cand
    sol.info["inescapable_order"] = l
    return sol


def _reference_lcs(data, k, beta0, l):
    cur = _reference_fit_iht(data, k, beta0)
    for _ in range(l0.LCS_MAX_OUTER):
        swapped = _reference_swap_search(data, cur, l)
        if swapped is cur:
            break
        cur = _reference_fit_iht(data, k, swapped.beta)
    return cur


def _reference_neighborhood_search(data, beta0, K, l):
    sols = [_reference_lcs(data, k, beta0, l) for k in range(1, K + 1)]
    total = sum(s.objective for s in sols)
    for _ in range(l0.SWEEP_MAX):
        for j in range(K):
            for i in (j - 1, j + 1):
                if 0 <= i < K:
                    cand = _reference_lcs(data, j + 1, sols[i].beta, l)
                    if cand.objective < sols[j].objective:
                        sols[j] = cand
        new_total = sum(s.objective for s in sols)
        if abs(new_total - total) <= l0.IMPROVE_TOL * max(1.0, total):
            break
        total = new_total
    return sols


def _reference_fit_l0_auto(data, beta0, K):
    def score(sol):
        return bic_score(data, sol) + (l0.BIC_SELECTION_MULT - 1.0) * sol.k * np.log(data.n_obs)

    selected = select_by_score(_reference_neighborhood_search(data, beta0, K, 1), "k", score)
    final = _reference_lcs(data, selected.k, selected.beta, 2)
    if final.objective <= selected.objective:
        return replace(final, selection=selected.selection)
    return selected


def _tied_design():
    """The design of `test_duplicated_rows_keep_the_tie_winner`: every row twice."""
    r = np.random.default_rng(12)
    x = r.normal(size=(30, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + r.normal(size=30)
    y[[0, 1, 2]] += 8.0
    return Dataset(y=np.concatenate([y, y]), x=np.vstack([x, x])), 10


def _assert_same_solution(got, want):
    assert got.beta.tobytes() == want.beta.tobytes()
    assert np.array_equal(got.outliers, want.outliers)
    assert got.k == want.k and got.objective == want.objective
    assert got.info == want.info
    assert got.selection == want.selection


@pytest.mark.parametrize("design", [
    *[pytest.param(lambda cfg=p.values[0], K=p.values[1]: (generate(cfg).train, K), id=p.id)
      for p in SWAP_SAMPLES],
    pytest.param(_tied_design, id="tied"),
])
def test_searches_match_a_reference_that_keeps_nothing(design):
    # every memo entry, residual ranking and stored move of a call must
    # give the bits, info entries and selection traces of searches that
    # recompute everything
    d, K = design()
    b0 = initial_beta(d)
    _assert_same_solution(fit_l0_auto(d, b0, K), _reference_fit_l0_auto(d, b0, K))
    for l, n_budgets in ((1, K // 2), (2, K // 4)):  # order-2 references are slow
        got = neighborhood_search(d, b0, n_budgets, l)
        want = _reference_neighborhood_search(d, b0, n_budgets, l)
        assert len(got) == len(want) == n_budgets
        for g, w in zip(got, want):
            _assert_same_solution(g, w)
        for k in (K // 4, K // 2):
            _assert_same_solution(fit_lcs(d, k, b0, l), _reference_lcs(d, k, b0, l))


@pytest.mark.parametrize("cfg, k", [
    # budgets at which fit_lcs accepts a swap and then re-thresholds onto
    # the swapped support
    (DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=55555, n_test=1), 17),
    (DgpConfig(dgp=3, N=120, p=0.1, rho=5.0, seed=173205, n_test=1), 12),
], ids=["dgp2", "dgp3"])
def test_each_kept_set_is_solved_once_per_call(monkeypatch, cfg, k):
    d = generate(cfg).train
    b0 = initial_beta(d)
    exact, trimmed, swap = l0.lstsq_qr, l0._trimmed_solution, l0._swap_pass
    solved, returned, searched = [], [], []

    def counted(X, v):
        solved.append(X.tobytes())  # the kept rows, in order
        return exact(X, v)

    def kept(data, drop_rows, budget):
        sol = trimmed(data, drop_rows, budget)
        returned.append(sol)
        return sol

    def swapped(X, v, in_idx, out_idx, l):
        searched.append((l, out_idx.tobytes()))
        return swap(X, v, in_idx, out_idx, l)

    monkeypatch.setattr(l0, "lstsq_qr", counted)
    monkeypatch.setattr(l0, "_trimmed_solution", kept)
    monkeypatch.setattr(l0, "_swap_pass", swapped)
    calls = [
        lambda: neighborhood_search(d, b0, 12, 1),
        lambda: neighborhood_search(d, b0, 6, 2),
        lambda: fit_lcs(d, k, b0, 1),
        lambda: fit_lcs(d, k, b0, 2),
        lambda: fit_l0_auto(d, b0, k, 2),
    ]
    for call in calls:
        solved.clear()
        returned.clear()
        searched.clear()
        call()
        assert solved and len(set(solved)) == len(solved)
        assert searched and len(set(searched)) == len(searched)
        assert len(returned) > len(solved)  # some supports were re-visited
        # every returned solution has its own info dict
        for i, sol in enumerate(returned):
            sol.info["probe"] = i
        assert [sol.info["probe"] for sol in returned] == list(range(len(returned)))


@pytest.mark.parametrize("cfg, K", SWAP_SAMPLES)
def test_each_coefficient_vector_is_ranked_once_per_call(monkeypatch, cfg, K):
    d = generate(cfg).train
    b0 = initial_beta(d)
    rank, iht = l0._magnitude_order, l0.fit_iht
    ranked, iterations = [], []

    def counted(r):
        ranked.append(r.tobytes())  # one residual vector per beta
        return rank(r)

    def iterated(data, k, beta0):
        sol = iht(data, k, beta0)
        iterations.append(sol.info["iterations"])  # one ranking asked per iteration
        return sol

    monkeypatch.setattr(l0, "_magnitude_order", counted)
    monkeypatch.setattr(l0, "fit_iht", iterated)
    calls = [  # (call, whether it must re-use a ranking)
        (lambda: fit_l0_auto(d, b0, K), True),
        (lambda: neighborhood_search(d, b0, K // 2, 2), True),
        (lambda: fit_lcs(d, K // 2, b0, 1), False),
    ]
    for call, reuses in calls:
        ranked.clear()
        iterations.clear()
        call()
        assert ranked and len(set(ranked)) == len(ranked)
        assert len(ranked) <= sum(iterations) - reuses


def test_magnitude_order_prefixes_match_top_k_under_exact_ties():
    # magnitudes 0, 1 and 2, each many times and of both signs; past 16
    # entries an unstable sort would reorder the ties
    base = np.tile([1.0, -2.0, 0.0, 2.0, -1.0, 1.0, -2.0, 0.0, 1.0, 2.0], 6)
    for r in (base, base - 1.0, 3.0 * base):
        order = l0._magnitude_order(r)
        assert order.tolist() == sorted(range(60), key=lambda i: (-abs(r[i]), i))
        for k in range(61):
            assert np.array_equal(np.sort(order[:k]), l0._top_k_indices(r, k))


def test_a_memo_hit_is_a_new_solution_with_its_own_info(rng):
    d = _contaminated(rng)

    @l0._solves_once_per_call
    def twice(data, drop):
        first = l0._trimmed_solution(data, drop, 3)
        first.info["probe"] = 1
        return first, l0._trimmed_solution(data, drop, 3)

    first, hit = twice(d, np.array([0, 1, 2]))
    assert hit == first and hit is not first
    assert hit.info == {} and first.info == {"probe": 1}
    assert hit.selection is None
    for name in ("beta", "alpha", "inliers", "outliers"):
        assert getattr(hit, name) is getattr(first, name)
        assert not getattr(hit, name).flags.writeable


def test_solution_arrays_are_read_only(rng):
    d = _contaminated(rng, n=40, shift=8.0, k0=3)
    b0 = initial_beta(d)
    sols = [fit_iht(d, 3, b0), fit_lcs(d, 3, b0, 2), *neighborhood_search(d, b0, 4, 1)]
    for sol in sols:
        for arr in (sol.beta, sol.alpha, sol.inliers, sol.outliers):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    # a later search in the same process still returns the same bits
    again = fit_lcs(d, 3, b0, 2)
    assert again.beta.tobytes() == sols[1].beta.tobytes()
    assert np.array_equal(again.outliers, sols[1].outliers)


def test_descent_violation_raises_and_exits_4(monkeypatch, tmp_path, capsys):
    x = np.linspace(-1.0, 1.0, 20)
    y = 1.0 + 2.0 * x + 0.1 * np.sin(7.0 * x)
    y[5] += 50.0
    d = Dataset(y=y, x=x)
    b0 = initial_beta(d)
    exact = l0.lstsq_qr
    calls = itertools.count(1)

    def worse(X, v):
        # every refit in l0 lands further from the least-squares fit
        beta = exact(X, v)
        beta[0] += 100.0 * next(calls)
        return beta

    monkeypatch.setattr(l0, "lstsq_qr", worse)
    with pytest.raises(InvariantViolated):
        fit_iht(d, 1, b0)
    path = tmp_path / "data.csv"
    path.write_text("y,x\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(y.tolist(), x.tolist())))
    assert main(["fit", str(path), "--method", "l0", "--k", "1"]) == 4
    assert "increased the trimmed objective" in capsys.readouterr().err


def test_the_memo_is_released_when_a_search_raises(monkeypatch):
    # the descent violation above, raised from inside a budget sweep whose
    # memo already holds solutions, swap passes and residual rankings
    x = np.linspace(-1.0, 1.0, 20)
    y = 1.0 + 2.0 * x + 0.1 * np.sin(7.0 * x)
    y[5] += 50.0
    d = Dataset(y=y, x=x)
    b0 = initial_beta(d)
    fresh = fit_l0_auto(Dataset(y=y, x=x), b0, 6)
    exact = l0.lstsq_qr
    calls = itertools.count(1)

    def worse_from_the_tenth(X, v):
        beta = exact(X, v)
        n = next(calls)
        if n >= 10:
            beta[0] += 100.0 * n
        return beta

    monkeypatch.setattr(l0, "lstsq_qr", worse_from_the_tenth)
    with pytest.raises(InvariantViolated):
        fit_l0_auto(d, b0, 6)
    assert l0._ACTIVE_MEMO.get() is None
    monkeypatch.undo()
    again = fit_l0_auto(d, b0, 6)
    assert again.beta.tobytes() == fresh.beta.tobytes()
    assert np.array_equal(again.outliers, fresh.outliers)
    assert again.objective == fresh.objective and again.info == fresh.info
    assert again.selection == fresh.selection


def test_neighborhood_objective_monotone_in_budget(rng):
    for _ in range(3):
        d = _contaminated(rng, n=40, shift=5.0, k0=4)
        sols = neighborhood_search(d, initial_beta(d), K=8, l=1)
        objs = [s.objective for s in sols]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-12 * max(1.0, a)


def test_neighborhood_matches_oracle_support_on_planted_instance():
    r = np.random.default_rng(11)
    n = 60
    x = r.normal(size=(n, 2))
    y = 0.5 + x @ np.array([1.0, 1.0]) + r.normal(size=n)
    y[[5, 17, 33, 49]] += 14.0
    d = Dataset(y=y, x=x)
    sols = neighborhood_search(d, initial_beta(d), K=8, l=1)
    oracle = best_subset_exact(d, 4, method="branch-and-bound")
    assert oracle.proven_optimal
    assert set(sols[3].outliers) == set(oracle.solution.outliers) == {5, 17, 33, 49}


def test_bic_score_formula(rng):
    d = _contaminated(rng, n=30, shift=10.0, k0=2)
    sol = fit_iht(d, 2, initial_beta(d))
    r = d.y - d.design @ sol.beta - sol.alpha
    rss = float(r @ r)
    expected = 30 * np.log(rss / 30) + 2 * np.log(30)
    assert bic_score(d, sol) == pytest.approx(expected, rel=1e-12)
    # shifts absorb their rows completely, so the rss is twice the objective
    assert rss == pytest.approx(2 * sol.objective, rel=1e-10)


def test_bic_score_arithmetic_example():
    # rss = 100 on 100 rows makes the log term vanish
    class Stub:
        pass

    x = np.zeros((100, 0))
    y = np.zeros(100)
    y[0] = 10.0  # rss = 100 with a zero intercept
    d = Dataset(y=y, x=x)
    sol = Stub()
    sol.beta = np.zeros(1)
    sol.alpha = np.zeros(100)
    sol.k = 5
    assert bic_score(d, sol) == pytest.approx(5 * np.log(100), rel=1e-12)


def test_bic_degenerate_on_perfect_fit():
    # constant response keeps the residuals exactly zero in floating point
    d = Dataset(y=np.ones(12), x=np.empty((12, 0)))
    sol = fit_iht(d, 2, np.array([0.0]))
    assert sol.objective == 0.0
    with pytest.raises(DegenerateFit):
        bic_score(d, sol)


def test_select_by_score_tie_rules():
    scores = {1: 2.0, 2: 1.0, 3: 1.0, 4: 3.0}
    base = SparsitySolution(beta=np.zeros(1), alpha=np.array([0.0, 5.0]), k=1,
                            inliers=np.array([0]), outliers=np.array([1]), objective=0.0)
    cands = [replace(base, k=k, objective=10.0 - k) for k in scores]
    first = select_by_score(cands, "k", lambda sol: scores[sol.k])
    last = select_by_score(cands, "k", lambda sol: scores[sol.k], prefer_last=True)
    assert (first.k, last.k, first.selection.score) == (2, 3, 1.0)
    assert first.selection == last.selection == Selection("k", 1.0, (
        (1, 9.0, 2.0, 1), (2, 8.0, 1.0, 1), (3, 7.0, 1.0, 1), (4, 6.0, 3.0, 1)))
    # the selected solution is a new one: no candidate carries a selection
    assert all(c.selection is None for c in cands)


@pytest.mark.parametrize("dgp_id", [1, 2, 3])
def test_fit_l0_auto_keeps_the_score_of_its_budget(dgp_id):
    # the polished solution carries the sweep's selection, score included
    d = generate(DgpConfig(dgp=dgp_id, N=120, p=0.1, seed=0, n_test=1)).train
    sol = fit_l0_auto(d, initial_beta(d), 10)
    sel = sol.selection
    assert sel.param == "k" and [t[0] for t in sel.trace] == list(range(1, 11))
    assert [score for k, _, score, _ in sel.trace if k == sol.k] == [sel.score]


def test_select_k_single_budget(rng):
    d = _contaminated(rng, n=24, shift=9.0, k0=2)
    sol = select_k_bic(d, initial_beta(d), K=1, l=1)
    assert sol.k == 1


def test_select_k_recovers_gross_planted_count():
    # separable shifts (mean 12, sd 1): the chosen budget matches the
    # planted count in at least 90% of frozen replications
    hits = 0
    for rep in range(1, 51):
        r = np.random.default_rng(rep)
        x = r.normal(size=(100, 2))
        y = 0.5 + x @ np.array([1.0, 1.0]) + r.normal(size=100)
        y[:5] += r.normal(12.0, 1.0, size=5)
        d = Dataset(y=y, x=x)
        sol = select_k_bic(d, initial_beta(d), K=10, l=1)
        hits += sol.k == 5
    assert hits / 50 >= 0.90


def test_select_k_clean_data_picks_smallest_budget():
    cfg = DgpConfig(dgp=1, N=100, p=0.05, mu_alpha=10, sigma_alpha=10, seed=9,
                    n_test=100)
    clean = generate(cfg).test
    sol = select_k_bic(clean, initial_beta(clean), K=10, l=1)
    assert sol.k == 1


def test_outlier_rows_fully_absorbed(rng):
    for _ in range(5):
        d = _contaminated(rng, n=30, shift=7.0, k0=3)
        sol = fit_lcs(d, 3, initial_beta(d), 2)
        r = d.y - d.design @ sol.beta - sol.alpha
        assert np.all(r[sol.outliers] == 0.0)
        assert np.all(sol.alpha[sol.inliers] == 0.0)
        assert sol.objective == pytest.approx(
            0.5 * float(r[sol.inliers] @ r[sol.inliers]), rel=1e-12
        )


def test_neighborhood_budget_cap(rng):
    d = _contaminated(rng, n=20, shift=5.0, k0=2)
    with pytest.raises(ValueError):
        neighborhood_search(d, initial_beta(d), K=11, l=1)
    # a budget that keeps fewer than q + 1 = 4 rows, so that the fit
    # interpolates the kept rows, is no sweep budget
    small = _contaminated(rng, n=4, shift=5.0, k0=1)
    assert (sweep_cap(20, 3), sweep_cap(4, 3), sweep_cap(3, 3)) == (10, 0, -1)
    for K in (1, 2):
        with pytest.raises(TooFewInliers):
            neighborhood_search(small, initial_beta(small), K=K, l=1)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_harness_l0_sweeps_no_interpolating_budget(seed):
    # N = 10, q = 6: the budget k = N - q = 4 fits its 6 kept rows exactly,
    # and its rounding-level RSS (~1e-30) used to win the BIC by log(RSS)
    sample = generate(DgpConfig(dgp=3, N=10, p=0.45, seed=seed))
    sol = dgp._l0(sample)
    assert [t[0] for t in sol.selection.trace] == [1, 2, 3]
    assert sol.k <= sweep_cap(10, 6) == 3
    assert sol.objective > 1e-8


# the only functions that write search diagnostics into a solution's `info`
INFO_WRITERS = {("l0.py", "fit_iht"), ("l0.py", "local_swap_search")}


def _info_writes(tree):
    """(top-level name, line) of each assignment into `<expr>.info[...]`."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "info"):
                yield getattr(top, "name", None), node.lineno


def test_only_the_searches_write_into_info():
    # a selection hands back its result as a `Selection`, so the `info`
    # side channel holds only the searches' own counters
    seen = ("def fit_iht(d):\n    sol.info['iterations'] = 1\n"
            "def select(d):\n    best.info['bic'] = 2.0\n    best.info['n'] += 1\n"
            "    a, best.info['t'] = 1, 2\n    x = best.info['bic']\n")
    assert list(_info_writes(ast.parse(seen))) == [
        ("fit_iht", 2), ("select", 4), ("select", 5), ("select", 6)]
    found = set()
    for path in sorted(Path(trimreg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, name) for name, _ in _info_writes(tree)}
    assert found == INFO_WRITERS
