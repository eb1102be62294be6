import time

import numpy as np
import pytest

from trimreg import dgp
from trimreg.dgp import (
    DgpConfig,
    ESTIMATOR_FACTORIES,
    Estimator,
    generate,
    record_rows,
    run_monte_carlo_records,
    summary_rows,
)
from trimreg.errors import TooLarge


def test_config_validation():
    with pytest.raises(ValueError, match="^dgp: "):
        DgpConfig(dgp=4, N=100, p=0.1)
    with pytest.raises(ValueError, match="^p: "):
        DgpConfig(dgp=1, N=100, p=1.5)
    with pytest.raises(ValueError, match="^p: "):
        DgpConfig(dgp=1, N=50, p=0.01)  # floor(p*N) = 0
    with pytest.raises(ValueError, match="^n_test: "):
        DgpConfig(dgp=1, N=50, p=0.1, n_test=0)
    for name, value in (("rho", np.nan), ("mu_alpha", np.inf), ("sigma_alpha", -np.inf)):
        with pytest.raises(ValueError, match=f"^{name}: "):
            DgpConfig(dgp=2, N=50, p=0.1, **{name: value})


def test_dgp1_degenerate_single_shift():
    # sigma_alpha = 0 consumes the same draws, so the paired sample with
    # mu_alpha = 0 differs by exactly the deterministic shift on row 0
    shifted = generate(DgpConfig(dgp=1, N=100, p=0.01, mu_alpha=10.0,
                                  sigma_alpha=0.0, seed=5, n_test=10))
    plain = generate(DgpConfig(dgp=1, N=100, p=0.01, mu_alpha=0.0,
                                sigma_alpha=0.0, seed=5, n_test=10))
    assert np.array_equal(shifted.true_outliers, [0])
    diff = shifted.train.y - plain.train.y
    assert diff[0] == 10.0
    assert np.array_equal(diff[1:], np.zeros(99))
    assert np.array_equal(shifted.train.x, plain.train.x)


def test_dgp1_first_regressor_centered():
    cfg = DgpConfig(dgp=1, N=100_000, p=0.0001, mu_alpha=0, sigma_alpha=1,
                    seed=11, n_test=1)
    s = generate(cfg)
    assert abs(np.mean(s.train.x[:, 0])) < 0.02


def test_dgp1_outlier_placement_and_counts():
    cfg = DgpConfig(dgp=1, N=40, p=0.1, mu_alpha=5, sigma_alpha=5, seed=2,
                    n_test=50)
    s = generate(cfg)
    assert np.array_equal(s.true_outliers, np.arange(4))
    assert s.test.n_obs == 50
    assert np.array_equal(s.true_beta, [0.5, 1.0, 1.0])


def test_dgp1_bit_exact_reproducibility():
    cfg = DgpConfig(dgp=1, N=60, p=0.1, mu_alpha=5, sigma_alpha=5, seed=42,
                    n_test=30)
    a, b = generate(cfg), generate(cfg)
    assert np.array_equal(a.train.y, b.train.y)
    assert np.array_equal(a.train.x, b.train.x)
    assert np.array_equal(a.test.y, b.test.y)


def test_dgp2_zero_rho_has_no_shift():
    cfg = DgpConfig(dgp=2, N=50, p=0.1, rho=0.0, seed=3, n_test=10)
    s2 = generate(cfg)
    cfg1 = DgpConfig(dgp=1, N=50, p=0.1, mu_alpha=0.0, sigma_alpha=0.0, seed=3,
                     n_test=10)
    s1 = generate(cfg1)
    assert np.allclose(s2.train.y, s1.train.y)


def test_dgp2_shift_correlates_with_regressors():
    cfg = DgpConfig(dgp=2, N=20_000, p=0.5, rho=5.0, seed=7, n_test=1)
    s = generate(cfg)
    out = s.true_outliers
    assert len(out) == 10_000
    # recover the planted shifts from the clean part of the model
    clean_mean = 0.5 + s.train.x @ np.array([1.0, 1.0])
    shift_plus_noise = s.train.y[out] - clean_mean[out]
    corr = np.corrcoef(shift_plus_noise, s.train.x[out, 1])[0, 1]
    assert corr > 0.3


def test_dgp3_outlier_blocks():
    cfg = DgpConfig(dgp=3, N=100, p=0.2, rho=5.0, seed=1, n_test=10)
    s = generate(cfg)
    expected = np.concatenate([np.arange(25, 35), np.arange(75, 85)])
    assert np.array_equal(s.true_outliers, expected)
    assert s.train.x.shape == (100, 5)
    assert np.allclose(s.true_beta[:4], [0.3, 1.0, 1.0, -1.0])
    assert s.true_beta[4] == pytest.approx(1 / 10.0)


def test_dgp3_zero_rho_outliers_vanish():
    a = generate(DgpConfig(dgp=3, N=80, p=0.1, rho=0.0, seed=9, n_test=10))
    b = generate(DgpConfig(dgp=3, N=80, p=0.1, rho=0.0, seed=9, n_test=10))
    assert np.array_equal(a.train.y, b.train.y)
    # a zero rho contributes nothing on the flagged rows
    cfg_pos = DgpConfig(dgp=3, N=80, p=0.1, rho=5.0, seed=9, n_test=10)
    c = generate(cfg_pos)
    clean_rows = np.setdiff1d(np.arange(80), c.true_outliers)
    assert np.allclose(a.train.y[clean_rows], c.train.y[clean_rows])


def test_dgp3_cointegrating_combination_mean_reverts():
    cfg = DgpConfig(dgp=3, N=5000, p=0.01, rho=5.0, seed=6, n_test=10)
    s = generate(cfg)
    w = s.train.x[:, 1] - s.train.x[:, 2]
    ac1 = np.corrcoef(w[:-1], w[1:])[0, 1]
    assert ac1 < 1 - 1e-3
    # the raw pair behaves like unit-root series
    level = s.train.x[:, 3]
    assert np.corrcoef(level[:-1], level[1:])[0, 1] > 0.99


class _TrueBetaStub:
    def __init__(self, beta):
        self.beta = beta


def _stub_fit(sample):
    return _TrueBetaStub(sample.true_beta)


def test_true_beta_stub_has_zero_bias_and_rmse():
    cfg = DgpConfig(dgp=1, N=50, p=0.1, mu_alpha=5, sigma_alpha=5, seed=8,
                    n_test=100)
    res = run_monte_carlo_records(cfg, [Estimator("truth", _stub_fit)], R=5)[0]
    s = res["truth"]
    assert s.bias == pytest.approx(0.0, abs=1e-12)
    assert s.rmse == pytest.approx(0.0, abs=1e-12)
    assert s.prediction_error > 0.5  # irreducible noise variance remains


def _fixed_beta_fit(sample):
    return _TrueBetaStub(np.array([0.0, 1.3, 0.7]))


def test_harness_is_estimator_agnostic():
    # summaries must be reproducible from the stub outputs alone
    cfg = DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5, sigma_alpha=5, seed=21,
                    n_test=50)
    summaries, records = run_monte_carlo_records(
        cfg, [Estimator("stub", _fixed_beta_fit)], R=4
    )
    s = summaries["stub"]
    assert s.bias == pytest.approx(0.3, abs=1e-12)
    assert s.rmse == pytest.approx(0.3, abs=1e-12)
    manual = np.mean([r.pred_err for r in records])
    assert s.prediction_error == pytest.approx(manual, rel=1e-12)


def test_rmse_dominates_bias():
    cfg = DgpConfig(dgp=2, N=40, p=0.1, rho=2.0, seed=4, n_test=50)
    estimators = [ESTIMATOR_FACTORIES["ols"](), ESTIMATOR_FACTORIES["lad"]()]
    res = run_monte_carlo_records(cfg, estimators, R=6)[0]
    for s in res.values():
        assert s.rmse >= abs(s.bias) - 1e-12


def test_seed_determinism_of_summaries():
    cfg = DgpConfig(dgp=1, N=40, p=0.1, mu_alpha=5, sigma_alpha=5, seed=31,
                    n_test=50)
    a = run_monte_carlo_records(cfg, [ESTIMATOR_FACTORIES["ols"]()], R=5)[0]
    b = run_monte_carlo_records(cfg, [ESTIMATOR_FACTORIES["ols"]()], R=5)[0]
    assert a["ols"].bias == b["ols"].bias
    assert a["ols"].rmse == b["ols"].rmse
    assert a["ols"].prediction_error == b["ols"].prediction_error


class _FlakyStub:
    calls = 0


def _flaky_fit(sample):
    from trimreg.errors import NotConverged

    _FlakyStub.calls += 1
    if _FlakyStub.calls % 2 == 0:
        raise NotConverged("synthetic failure")
    return _TrueBetaStub(sample.true_beta)


def test_failures_are_excluded_and_flagged():
    _FlakyStub.calls = 0
    cfg = DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5, sigma_alpha=5, seed=1,
                    n_test=20)
    res = run_monte_carlo_records(cfg, [Estimator("flaky", _flaky_fit)], R=6)[0]
    s = res["flaky"]
    assert s.n_failed == 3
    assert s.high_failure
    assert s.bias == pytest.approx(0.0, abs=1e-12)


def _sleepy_ols(sample):
    time.sleep(0.2)
    return ESTIMATOR_FACTORIES["ols"]().fit(sample)


def test_cpu_seconds_exclude_waiting():
    cfg = DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5, sigma_alpha=5, seed=3,
                    n_test=20)
    _, records = run_monte_carlo_records(cfg, [Estimator("sleepy", _sleepy_ols)], R=1)
    assert records[0].cpu_s < 0.1


def test_summary_rows_schema():
    cfg = DgpConfig(dgp=2, N=30, p=0.1, rho=5.0, seed=2, n_test=20)
    res = run_monte_carlo_records(cfg, [ESTIMATOR_FACTORIES["ols"]()], R=2)[0]
    rows = summary_rows(cfg, res)
    assert list(rows[0].keys()) == [
        "dgp", "N", "p", "param", "estimator", "bias", "rmse", "pred_err",
        "equal_oracle", "gap", "cpu_s",
    ]
    assert rows[0]["param"] == "5"
    assert rows[0]["estimator"] == "ols"


def test_record_rows_schema():
    # the records CSV columns, in the order README documents
    cfg = DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5, sigma_alpha=2, seed=2, n_test=20)
    _, records = run_monte_carlo_records(cfg, [ESTIMATOR_FACTORIES["ols"]()], R=2)
    rows = record_rows(cfg, records)
    assert len(rows) == 2
    assert list(rows[0].keys()) == [
        "dgp", "N", "p", "param", "estimator", "rep", "beta1", "pred_err",
        "equal_oracle", "gap", "cpu_s", "failed",
    ]
    assert rows[1]["param"] == "(5,2)"
    assert rows[1]["rep"] == 2 and rows[1]["failed"] is False
    assert rows[1]["beta1"] == records[1].beta1


def test_oracle_comparison_fields():
    cfg = DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=8, sigma_alpha=2, seed=13,
                    n_test=20)
    estimators = [ESTIMATOR_FACTORIES["iht"](), ESTIMATOR_FACTORIES["lcs2"]()]
    res = run_monte_carlo_records(cfg, estimators, R=3, oracle_k=0)[0]
    for s in res.values():
        assert s.equal_oracle_freq is not None
        assert 0.0 <= s.equal_oracle_freq <= 1.0
        assert s.mean_gap is not None and s.mean_gap >= -1e-9


def test_harness_runs_the_time_series_design():
    cfg = DgpConfig(dgp=3, N=80, p=0.1, rho=5.0, seed=17, n_test=200)
    estimators = [ESTIMATOR_FACTORIES["l0"](), ESTIMATOR_FACTORIES["ols"]()]
    res = run_monte_carlo_records(cfg, estimators, R=3)[0]
    for s in res.values():
        assert s.n_failed == 0
        assert np.isfinite(s.bias) and np.isfinite(s.prediction_error)
    # endogenous block contamination drags the unadjusted fit further
    assert abs(res["l0"].bias) <= abs(res["ols"].bias)


def test_harness_l0_budget_keeps_q_rows():
    # N = 10 rows and q = 6 coefficients: twice the true count (8) and
    # N // 2 = 5 both exceed N - q - 1 = 3, so the sweep is capped at 3
    cfg = DgpConfig(dgp=3, N=10, p=0.45, seed=2, n_test=5)
    estimators = [ESTIMATOR_FACTORIES["l0"](), ESTIMATOR_FACTORIES["lcs2"]()]
    summaries, records = run_monte_carlo_records(cfg, estimators, R=5)
    assert summaries["l0"].n_failed == 0
    assert summaries["lcs2"].n_failed == 0
    assert np.all(np.isfinite([r.beta1 for r in records]))


def test_harness_records_a_sample_no_budget_fits_as_failed():
    # N = q = 6: no budget keeps q + 1 rows, so the l0 fit fails in every
    # replication, and the harness records that instead of raising
    cfg = DgpConfig(dgp=3, N=6, p=0.5, seed=2, n_test=5)
    summaries, records = run_monte_carlo_records(cfg, [ESTIMATOR_FACTORIES["l0"]()], R=2)
    assert [r.failed for r in records] == [True, True]
    assert summaries["l0"].n_failed == 2


def test_equal_oracle_frequencies_midsize_design():
    # frozen replication stream; the certified solver runs its search tree
    # here (the discard-set count is far beyond the enumeration limit)
    cfg = DgpConfig(dgp=1, N=100, p=0.05, mu_alpha=5.0, sigma_alpha=5.0,
                    seed=424242, n_test=10)
    estimators = [ESTIMATOR_FACTORIES["iht"](), ESTIMATOR_FACTORIES["lcs2"]()]
    res = run_monte_carlo_records(cfg, estimators, R=30, oracle_k=0, threads=2)[0]
    assert res["iht"].equal_oracle_freq >= 0.80
    assert res["lcs2"].equal_oracle_freq >= 0.95


def test_failed_oracle_keeps_the_replications_fits(monkeypatch):
    real = dgp.best_subset_exact
    calls = []

    def fails_on_second(data, k, warm_start=None):
        calls.append(k)
        if len(calls) == 2:
            raise TooLarge("solver refused this replication")
        return real(data, k, warm_start=warm_start)

    monkeypatch.setattr(dgp, "best_subset_exact", fails_on_second)
    cfg = DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5, sigma_alpha=5, seed=7, n_test=10)
    estimators = [ESTIMATOR_FACTORIES[name]() for name in ("ols", "lcs1")]
    summaries, records = run_monte_carlo_records(cfg, estimators, 3, oracle_k=0)
    assert len(calls) == 3
    assert len(records) == 6 and not any(r.failed for r in records)
    lcs1 = {r.rep: r for r in records if r.estimator == "lcs1"}
    assert lcs1[2].equal_oracle is None and lcs1[2].gap is None
    assert all(lcs1[rep].equal_oracle is not None for rep in (1, 3))
    assert all(lcs1[rep].gap is not None for rep in (1, 3))
    assert summaries["lcs1"].n_reps == 3 and summaries["lcs1"].n_failed == 0
