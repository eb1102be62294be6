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
from trimreg.errors import RankDeficient, TooLarge


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


@pytest.mark.parametrize("design", [1, 2, 3])
def test_config_knows_its_coefficient_count(design):
    # the CLI checks an oracle budget against q before drawing any sample
    cfg = DgpConfig(dgp=design, N=40, p=0.1, seed=1, n_test=5)
    sample = generate(cfg)
    assert cfg.n_coef == sample.train.n_coef == sample.true_beta.shape[0]


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


# designs of the criterion-4 and criterion-5 studies (README), at small N and R
LAD_SHARING = [
    (DgpConfig(dgp=2, N=40, p=0.1, rho=5.0, seed=314159, n_test=20),
     ["l0", "l1", "lad", "ols"], None),
    (DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5, sigma_alpha=5, seed=271828, n_test=10),
     ["iht", "lcs1", "lcs2"], 0),
]
LAD_CONSUMERS = {"l0", "l1", "lad", "iht", "lcs1", "lcs2"}


def _count_lad_fits(monkeypatch, fail=False):
    """Route every LAD fit through a counter; return its per-fit log of
    (training response bytes, CPU seconds). With `fail`, each fit raises."""
    from trimreg import classic
    from trimreg.errors import RankDeficient

    real, log = classic.fit_lad, []

    def counted(data):
        t0 = time.process_time()
        try:
            if fail:
                raise RankDeficient("synthetic rank failure")
            return real(data)
        finally:
            log.append((data.y.tobytes(), time.process_time() - t0))

    for mod in (classic, dgp):  # l1 fits LAD through `classic.initial_beta`
        monkeypatch.setattr(mod, "fit_lad", counted)
    return log


@pytest.mark.parametrize("cfg, names, oracle_k", LAD_SHARING, ids=["crit5", "crit4"])
def test_lad_start_is_fitted_once_per_replication(monkeypatch, cfg, names, oracle_k):
    R = 3
    log = _count_lad_fits(monkeypatch)
    estimators = [ESTIMATOR_FACTORIES[name]() for name in names]
    _, records = run_monte_carlo_records(cfg, estimators, R, oracle_k=oracle_k)
    assert len(log) == R and len({y for y, _ in log}) == R
    assert not any(r.failed for r in records)
    for rec in records:
        if rec.estimator in LAD_CONSUMERS:
            # each consumer pays for the start it read, as a fit from scratch would
            assert rec.cpu_s >= log[rec.rep - 1][1]
    log.clear()
    run_monte_carlo_records(cfg, [ESTIMATOR_FACTORIES["ols"]()], R, oracle_k=oracle_k)
    assert log == []


@pytest.mark.parametrize("cfg, names, oracle_k", LAD_SHARING, ids=["crit5", "crit4"])
def test_a_failed_lad_start_fails_every_consumer(monkeypatch, cfg, names, oracle_k):
    log = _count_lad_fits(monkeypatch, fail=True)
    estimators = [ESTIMATOR_FACTORIES[name]() for name in [*names, "ols"]]
    summaries, records = run_monte_carlo_records(cfg, estimators, 2, oracle_k=oracle_k)
    assert len(log) == 2  # the error is shared too, not refitted
    for rec in records:
        assert rec.failed == (rec.estimator != "ols")
    assert summaries["ols"].n_failed == 0


def _statistics(records):
    return {(r.estimator, r.rep): (r.beta1, r.pred_err, r.equal_oracle, r.gap, r.failed)
            for r in records}


@pytest.mark.parametrize("cfg, names, oracle_k", LAD_SHARING, ids=["crit5", "crit4"])
def test_sharing_the_lad_start_moves_no_statistic(cfg, names, oracle_k):
    R = 4
    together = run_monte_carlo_records(
        cfg, [ESTIMATOR_FACTORIES[name]() for name in names], R, oracle_k=oracle_k)[1]
    alone = [rec for name in names for rec in run_monte_carlo_records(
        cfg, [ESTIMATOR_FACTORIES[name]()], R, oracle_k=oracle_k)[1]]
    assert len(together) == len(alone) == R * len(names)
    assert _statistics(together) == _statistics(alone)


def test_the_shared_lad_start_is_read_only_and_not_fitted_by_generate(monkeypatch):
    log = _count_lad_fits(monkeypatch)
    s = generate(DgpConfig(dgp=2, N=40, p=0.1, rho=5.0, seed=9, n_test=10))
    assert log == [] and s.lad_slot.reads == 0
    fit = s.lad()
    assert s.lad() is fit and s.lad_slot.reads == 2 and len(log) == 1
    assert not fit.beta.flags.writeable


def _rank_deficient_fit(sample):
    raise RankDeficient("synthetic rank failure")


def test_records_and_summaries_follow_the_configured_order():
    # a failed fit is recorded in its own place, not ahead of the others
    cfg = DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5, sigma_alpha=5, seed=5, n_test=10)
    estimators = [ESTIMATOR_FACTORIES["ols"](), Estimator("bad", _rank_deficient_fit),
                  ESTIMATOR_FACTORIES["lad"]()]
    summaries, records = run_monte_carlo_records(cfg, estimators, R=2, oracle_k=0)
    order = ["ols", "bad", "lad"]
    expected = [(rep, name) for rep in (1, 2) for name in order]
    assert [(r.rep, r.estimator) for r in records] == expected
    assert [r.failed for r in records] == [False, True, False] * 2
    assert list(summaries) == order
    assert summaries["bad"].n_failed == 2 and np.isnan(summaries["bad"].bias)


# the module globals the harness fits through, with their calls per
# replication: the benchmark replaces or wraps them on `dgp` to capture
# and time the fits, so no fit may hold on to a function object
HARNESS_GLOBALS = {"fit_ols": 1, "fit_lad": 1, "select_psi_bic": 1, "fit_l0_auto": 1,
                   "fit_iht": 1, "fit_lcs": 2, "best_subset_exact": 1}


def test_the_harness_calls_each_fit_through_its_module_global(monkeypatch):
    calls = dict.fromkeys(HARNESS_GLOBALS, 0)

    def counted(name, real):
        def fit(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return fit

    for name in HARNESS_GLOBALS:
        monkeypatch.setattr(dgp, name, counted(name, getattr(dgp, name)))
    cfg = DgpConfig(dgp=1, N=30, p=0.1, mu_alpha=5, sigma_alpha=5, seed=3, n_test=10)
    estimators = [factory() for factory in ESTIMATOR_FACTORIES.values()]
    _, records = run_monte_carlo_records(cfg, estimators, R=1, oracle_k=0)
    assert calls == HARNESS_GLOBALS
    assert len(records) == len(ESTIMATOR_FACTORIES) and not any(r.failed for r in records)
