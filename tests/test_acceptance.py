"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive replication studies are shared through module-scoped
fixtures. Criterion 7 is asserted exactly as stated and is a known honest
failure: with shift scale (10, 10) roughly half of all replications
contain a planted shift smaller than the clean-noise maximum, so no
data-driven budget selection can return the planted count 90% of the
time (see the repository notes on the selection criterion).
"""

import itertools

import numpy as np
import pytest

from trimreg.classic import initial_beta
from trimreg.dgp import ESTIMATOR_FACTORIES, DgpConfig, generate, run_monte_carlo_records
from trimreg.l0 import fit_iht, fit_lcs, hard_threshold, local_swap_search, select_k_bic
from trimreg.l1 import fit_huber, fit_l1, soft_threshold_alpha
from trimreg.linalg import Dataset


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: soft-threshold branch identity on a 10,000-point grid, exact
# ---------------------------------------------------------------------------


def test_criterion_1_soft_threshold_identity():
    r_grid = np.linspace(-50.0, 50.0, 200)
    psi_grid = np.linspace(1e-3, 25.0, 50)
    n_checked = 0
    for psi in psi_grid:
        out = soft_threshold_alpha(r_grid, psi)
        for r, val in zip(r_grid, out):
            if r >= psi:
                expected = r - psi
            elif r <= -psi:
                expected = r + psi
            else:
                expected = 0.0
            assert val == expected  # tolerance 0: same branch algebra
            n_checked += 1
    assert n_checked == 10_000
    _report("criterion 1", True, f"{n_checked} (r, psi) pairs, exact")


# ---------------------------------------------------------------------------
# criterion 2: penalized fit and fixed-cutoff fit share the same optimum
# ---------------------------------------------------------------------------


def test_criterion_2_huber_equivalence():
    r = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        x = r.normal(size=(30, 2))
        y = 0.5 + x @ np.array([1.0, 1.0]) + r.standard_t(df=3, size=30)
        d = Dataset(y=y, x=x)
        for psi in (0.3, 0.7, 1.345, 2.5, 5.0):
            a = fit_l1(d, psi).objective
            b = fit_huber(d, psi).objective
            rel = abs(a - b) / (1.0 + b)
            worst = max(worst, rel)
            assert rel <= 1e-6
    _report("criterion 2", True, f"500 fits, worst relative gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: hard threshold solves the projection problem exactly
# ---------------------------------------------------------------------------


def test_criterion_3_hard_threshold_optimality():
    r = np.random.default_rng(1002)
    n_vectors = 0
    for seed in range(200):
        n = int(r.integers(1, 13))
        c = r.normal(size=n)
        n_vectors += 1
        for k in range(n + 1):
            out = hard_threshold(c, k)
            best = np.inf
            for support in itertools.combinations(range(n), k):
                a = np.zeros(n)
                a[list(support)] = c[list(support)]
                best = min(best, float(np.sum((a - c) ** 2)))
            assert np.sum((out - c) ** 2) <= best + 1e-12
    assert n_vectors == 200
    _report("criterion 3", True, "200 vectors, N <= 12, all k, exhaustive")


# ---------------------------------------------------------------------------
# criterion 4: heuristics vs the certified solver at the true budget
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def equal_oracle_run():
    cfg = DgpConfig(dgp=1, N=40, p=0.1, mu_alpha=5.0, sigma_alpha=5.0,
                    seed=271828, n_test=10)
    return run_monte_carlo_records(
        cfg,
        [ESTIMATOR_FACTORIES[name]() for name in ("iht", "lcs1", "lcs2")],
        R=100, oracle_k=0, threads=2,
    )[0]


def test_criterion_4_equal_oracle_frequencies(equal_oracle_run):
    res = equal_oracle_run
    freq = {name: s.equal_oracle_freq for name, s in res.items()}
    ok = freq["lcs2"] >= 0.95 and freq["lcs1"] >= 0.85 and freq["iht"] >= 0.55
    _report(
        "criterion 4", ok,
        f"equal-exact freq: iht {freq['iht']:.2f} (>=0.55), "
        f"lcs1 {freq['lcs1']:.2f} (>=0.85), lcs2 {freq['lcs2']:.2f} (>=0.95)",
    )
    assert freq["lcs2"] >= 0.95
    assert freq["lcs1"] >= 0.85
    assert freq["iht"] >= 0.55


# ---------------------------------------------------------------------------
# criteria 5 and 6: bias separation and prediction-error ordering, one run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def endogenous_run():
    cfg = DgpConfig(dgp=2, N=200, p=0.1, rho=5.0, seed=55555, n_test=1000)
    return run_monte_carlo_records(
        cfg,
        [ESTIMATOR_FACTORIES[name]() for name in ("l0", "l1", "lad", "ols")],
        R=200, threads=2,
    )[0]


def test_criterion_5_endogenous_bias_separation(endogenous_run):
    res = endogenous_run
    bias = {name: s.bias for name, s in res.items()}
    rmse = {name: s.rmse for name, s in res.items()}
    checks = [
        abs(bias["l0"]) < 0.03,
        -0.13 <= bias["l1"] <= -0.05,
        -0.09 <= bias["lad"] <= -0.03,
        -0.55 <= bias["ols"] <= -0.40,
        rmse["l0"] < rmse["l1"],
        rmse["l0"] < rmse["ols"],
    ]
    _report(
        "criterion 5", all(checks),
        f"bias l0 {bias['l0']:+.4f} l1 {bias['l1']:+.4f} "
        f"lad {bias['lad']:+.4f} ols {bias['ols']:+.4f}; "
        f"rmse l0 {rmse['l0']:.4f} < l1 {rmse['l1']:.4f}, ols {rmse['ols']:.4f}",
    )
    assert abs(bias["l0"]) < 0.03
    assert -0.13 <= bias["l1"] <= -0.05
    assert -0.09 <= bias["lad"] <= -0.03
    assert -0.55 <= bias["ols"] <= -0.40
    assert rmse["l0"] < rmse["l1"]
    assert rmse["l0"] < rmse["ols"]


def test_criterion_6_prediction_error_ordering(endogenous_run):
    res = endogenous_run
    pred = {name: s.prediction_error for name, s in res.items()}
    ok = pred["l0"] <= pred["l1"] <= pred["ols"] and 1.00 <= pred["l0"] <= 1.08
    _report(
        "criterion 6", ok,
        f"pred err l0 {pred['l0']:.4f} <= l1 {pred['l1']:.4f} <= "
        f"ols {pred['ols']:.4f}; l0 in [1.00, 1.08]",
    )
    assert pred["l0"] <= pred["l1"] <= pred["ols"]
    assert 1.00 <= pred["l0"] <= 1.08


# ---------------------------------------------------------------------------
# criterion 7: budget recovery by information criterion (known honest red)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bic_recovery_run():
    khats = []
    for rep in range(1, 101):
        cfg = DgpConfig(dgp=1, N=100, p=0.05, mu_alpha=10.0, sigma_alpha=10.0,
                        seed=161803 ^ rep, n_test=10)
        s = generate(cfg)
        sol = select_k_bic(s.train, initial_beta(s.train), K=10, l=1)
        khats.append(sol.k)
    return khats


def test_criterion_7_bic_recovery(bic_recovery_run):
    khats = bic_recovery_run
    freq = float(np.mean([k == 5 for k in khats]))
    hist = {k: khats.count(k) for k in sorted(set(khats))}
    _report(
        "criterion 7", freq >= 0.90,
        f"P(k_hat = 5) = {freq:.2f} (required >= 0.90); histogram {hist}. "
        "Known unattainable: ~52% of replications contain a planted shift "
        "below the clean-noise maximum (shift sd = 10), capping any "
        "data-driven selection near 0.48: see notes/decisions ledger.",
    )
    assert freq >= 0.90, (
        f"P(k_hat = 5) = {freq:.2f} < 0.90. Statistically unattainable at "
        "(mu, sigma) = (10, 10): in ~52% of replications at least one "
        "planted shift is smaller than the clean-noise maximum, so the "
        "sample is indistinguishable from one with fewer outliers; the "
        "information-theoretic ceiling is about 0.48. Documented in the "
        "decisions ledger; kept red on purpose."
    )


# ---------------------------------------------------------------------------
# criterion 8: bounded under exact-budget contamination, divergent beyond
# ---------------------------------------------------------------------------


def test_criterion_8_breakdown_behavior():
    rng = np.random.default_rng(55)
    n = 50
    x = rng.normal(size=n)
    y_clean = 0.5 + x + 0.5 * rng.normal(size=n)

    def fit_budget5(y):
        d = Dataset(y=y, x=x.reshape(-1, 1))
        return fit_lcs(d, 5, initial_beta(d), 1).beta

    beta_clean = fit_budget5(y_clean)
    diffs = {}
    for mag in (1e2, 1e4, 1e6):
        y = y_clean.copy()
        y[:5] += mag
        diffs[mag] = float(np.linalg.norm(fit_budget5(y) - beta_clean))
    spread = abs(diffs[1e4] - diffs[1e6]) / max(diffs[1e4], diffs[1e6], 1e-12)

    norms = {}
    for mag in (1e2, 1e6):
        y = y_clean.copy()
        y[:6] += mag
        norms[mag] = float(np.linalg.norm(fit_budget5(y)))
    growth = norms[1e6] / norms[1e2]

    ok = spread < 0.10 and growth > 10.0
    _report(
        "criterion 8", ok,
        f"5 rows contaminated: |diff(1e4) - diff(1e6)| spread {spread:.2e} "
        f"(< 0.10); 6 rows under budget 5: growth x{growth:.0f} (> 10)",
    )
    assert spread < 0.10
    assert growth > 10.0


# ---------------------------------------------------------------------------
# criterion 9: descent and inescapability certificates on replications
# ---------------------------------------------------------------------------


def test_criterion_9_invariants_on_replications(equal_oracle_run):
    # Descent assertions are compiled into every fitting loop and were
    # exercised by each replication of criteria 4-7 above (pytest runs
    # without -O). Here the inescapability certificate and descent chain
    # are re-checked explicitly on a subsample of the criterion-4 stream.
    n_checked = 0
    for rep in range(1, 21):
        cfg = DgpConfig(dgp=1, N=40, p=0.1, mu_alpha=5.0, sigma_alpha=5.0,
                        seed=271828 ^ rep, n_test=10)
        s = generate(cfg)
        b0 = initial_beta(s.train)
        k0 = len(s.true_outliers)
        iht = fit_iht(s.train, k0, b0)
        for l in (1, 2):
            sol = fit_lcs(s.train, k0, b0, l)
            assert sol.objective <= iht.objective + 1e-12 * max(1, iht.objective)
            again = local_swap_search(s.train, sol, l)
            assert again is sol, "returned solution admitted an improving swap"
        n_checked += 1
    _report("criterion 9", True,
            f"descent asserts active in-loop; inescapability certificates "
            f"re-verified on {n_checked} replications x l in {{1, 2}}")
