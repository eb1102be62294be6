"""Synthetic data generators and the replication harness.

Three designs are provided: exogenous mean-shift contamination, shifts
correlated with the regressors through shared innovations, and a
predictive time-series design whose innovations follow a VAR(1) with a
cointegrated regressor pair, two random walks, and two contaminated
blocks. Each sample carries an outlier-free test split drawn from the
same process.

Randomness uses the counter-based Philox generator; replication r runs on
the derived key seed XOR r, so parallel and sequential execution produce
identical summaries.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from .classic import fit_lad, fit_ols, initial_beta
from .errors import TrimregError, UnstableVar
from .l0 import SparsitySolution, fit_iht, fit_l0_auto, fit_lcs
from .l1 import select_psi_bic
from .linalg import Dataset
from .oracle import best_subset_exact, equal_solution

VAR_BURN_IN = 200
# NOT taken from any reference dataset: diagonal persistence 0.2, unit noise
DEFAULT_VAR_PHI = 0.2 * np.eye(6)
DEFAULT_VAR_SIGMA = np.eye(6)


@dataclass(frozen=True)
class DgpConfig:
    """Design switches for one simulated scenario."""

    dgp: int
    N: int
    p: float
    mu_alpha: float = 0.0
    sigma_alpha: float = 5.0
    rho: float = 5.0
    seed: int = 0
    n_test: int = 1000
    var_phi: np.ndarray | None = None
    var_sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.dgp not in (1, 2, 3):
            raise ValueError("dgp must be 1, 2, or 3")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if self.k0 < 1:
            raise ValueError("floor(p * N) must be at least 1")
        if self.n_test < 1:
            raise ValueError("n_test must be positive")
        if self.dgp == 3:
            phi = DEFAULT_VAR_PHI if self.var_phi is None else np.asarray(self.var_phi, float)
            sig = DEFAULT_VAR_SIGMA if self.var_sigma is None else np.asarray(self.var_sigma, float)
            if phi.shape != (6, 6) or sig.shape != (6, 6):
                raise ValueError("var_phi and var_sigma must be 6x6")
            if not np.allclose(sig, sig.T):
                raise ValueError("var_sigma must be symmetric")
            if np.min(np.linalg.eigvalsh(sig)) <= 0:
                raise ValueError("var_sigma must be positive definite")
            object.__setattr__(self, "var_phi", phi)
            object.__setattr__(self, "var_sigma", sig)

    @property
    def k0(self) -> int:
        return int(np.floor(self.p * self.N))

    @property
    def param_label(self) -> str:
        if self.dgp == 1:
            return f"({self.mu_alpha:g},{self.sigma_alpha:g})"
        return f"{self.rho:g}"


@dataclass(frozen=True)
class DgpSample:
    """One replication: contaminated training data plus a clean test split."""

    train: Dataset
    true_beta: np.ndarray
    true_outliers: np.ndarray
    test: Dataset


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))


def _dgp12_block(rng, n, cfg: DgpConfig, with_outliers: bool):
    v = rng.standard_normal((n, 3))
    x1 = (v[:, 0] ** 2 + v[:, 1] ** 2 - 2.0) / 2.0
    x2 = x1 + v[:, 2]
    u = rng.standard_normal(n)
    x = np.column_stack([x1, x2])
    y = 0.5 + x1 + x2 + u
    outliers = np.empty(0, dtype=np.intp)
    if with_outliers:
        k0 = cfg.k0
        outliers = np.arange(k0, dtype=np.intp)
        if cfg.dgp == 1:
            shift = cfg.mu_alpha + cfg.sigma_alpha * rng.standard_normal(k0)
        else:
            shift = cfg.rho * v[:k0].sum(axis=1)
        y = y.copy()
        y[:k0] += shift
    return Dataset(y=y, x=x), outliers


# error-correction loading: first variable is a pure random walk, the second
# chases it, so (1, -1) is the cointegrating combination
_VECM_PI = np.array([[0.0, 0.0], [1.0, -1.0]])


def _dgp3_block(rng, n, cfg: DgpConfig, with_outliers: bool, eta: np.ndarray):
    phi = cfg.var_phi
    chol = np.linalg.cholesky(cfg.var_sigma)
    steps = VAR_BURN_IN + n + 2
    eps = rng.standard_normal((steps, 6)) @ chol.T
    xi = np.zeros((steps, 6))
    for t in range(1, steps):
        xi[t] = phi @ xi[t - 1] + eps[t]
    xi = xi[VAR_BURN_IN:]  # periods 0..n+1; period 0 only starts the recursions
    z = xi[:, 0]
    v = xi[:, 1:3]
    e = xi[:, 3:5]
    u = xi[:, 5]

    xc = np.zeros((n + 1, 2))
    xw = np.zeros((n + 1, 2))
    for t in range(1, n + 1):
        xc[t] = xc[t - 1] + _VECM_PI @ xc[t - 1] + v[t]
        xw[t] = xw[t - 1] + e[t]

    phi_coef = np.array([1.0, -1.0])
    # row t regresses the period-(t+1) response on the period-t state
    regressors = np.column_stack([z[1 : n + 1], xc[1 : n + 1], xw[1 : n + 1]])
    y = (
        0.3
        + 1.0 * z[1 : n + 1]
        + xc[1 : n + 1] @ phi_coef
        + xw[1 : n + 1] @ eta
        + u[2 : n + 2]
    )
    outliers = np.empty(0, dtype=np.intp)
    if with_outliers:
        k0 = cfg.k0
        block = k0 // 2
        idx = []
        for c in (int(np.floor(0.25 * n)), int(np.floor(0.75 * n))):
            idx.extend(range(c, min(c + block, n)))
        outliers = np.array(sorted(set(idx)), dtype=np.intp)
        shift = cfg.rho * (z[1 : n + 1] + v[1 : n + 1].sum(axis=1))
        y = y.copy()
        y[outliers] += shift[outliers]
    return Dataset(y=y, x=regressors), outliers


def gen_dgp3(cfg: DgpConfig) -> DgpSample:
    """Predictive design: VAR(1) innovations, a cointegrated pair, two
    random walks, and two contaminated blocks starting after 25% and 75%
    of the sample. Shifts are rho times the sum of the level and pair
    innovations, endogenous by construction."""
    if cfg.dgp != 3:
        raise ValueError("config is not for design 3")
    if np.max(np.abs(np.linalg.eigvals(cfg.var_phi))) >= 1.0:
        warnings.warn(
            "VAR companion matrix has spectral radius >= 1; proceeding",
            UnstableVar,
        )
    rng = _rng(cfg.seed)
    eta = np.array([1.0, -1.0]) / np.sqrt(cfg.N)
    train, outliers = _dgp3_block(rng, cfg.N, cfg, with_outliers=True, eta=eta)
    test, _ = _dgp3_block(rng, cfg.n_test, cfg, with_outliers=False, eta=eta)
    true_beta = np.concatenate([[0.3, 1.0, 1.0, -1.0], eta])
    return DgpSample(train=train, true_beta=true_beta, true_outliers=outliers, test=test)


def generate(cfg: DgpConfig) -> DgpSample:
    """Draw one sample of the configured design.

    Designs 1 and 2 share the regressors (a squared-normal first
    regressor, a correlated second) and shift the first floor(p*N) rows.
    Design 1 draws the shifts independently of the regressors; design 2
    takes rho times the sum of the same three innovations that drive the
    regressors, so its contamination is endogenous. Design 3 is
    `gen_dgp3`.
    """
    if cfg.dgp == 3:
        return gen_dgp3(cfg)
    rng = _rng(cfg.seed)
    train, outliers = _dgp12_block(rng, cfg.N, cfg, with_outliers=True)
    test, _ = _dgp12_block(rng, cfg.n_test, cfg, with_outliers=False)
    return DgpSample(
        train=train, true_beta=np.array([0.5, 1.0, 1.0]),
        true_outliers=outliers, test=test,
    )


# ---------------------------------------------------------------------------
# estimators the harness knows how to time and score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimator:
    """Named fit callable; receives the whole sample, returns an object
    exposing `.beta` (intercept first)."""

    name: str
    fit: Callable[[DgpSample], Any]


# Fits run in worker processes when threads > 1, so each is a module-level
# function. The fixed-budget fits use each replication's true count.
def _ols(sample: DgpSample):
    return fit_ols(sample.train)


def _lad(sample: DgpSample):
    return fit_lad(sample.train)


def _l1(sample: DgpSample):
    # replication mode: the plain information criterion, whose score is
    # unbounded below as psi -> 0, slides to the bottom of the grid and
    # flags densely; the comparison tables are produced this way
    return select_psi_bic(sample.train, penalty_mult=1.0)


def _l0(sample: DgpSample):
    K = min(sample.train.n_obs // 2, 2 * max(len(sample.true_outliers), 1))
    return fit_l0_auto(sample.train, K)


def _iht(sample: DgpSample):
    return fit_iht(sample.train, len(sample.true_outliers), initial_beta(sample.train))


def _lcs1(sample: DgpSample):
    return fit_lcs(sample.train, len(sample.true_outliers), initial_beta(sample.train), 1)


def _lcs2(sample: DgpSample):
    return fit_lcs(sample.train, len(sample.true_outliers), initial_beta(sample.train), 2)


# name -> factory of the named Estimator
ESTIMATOR_FACTORIES = {
    name: partial(Estimator, name, fit)
    for name, fit in [("ols", _ols), ("lad", _lad), ("l1", _l1), ("l0", _l0),
                      ("iht", _iht), ("lcs1", _lcs1), ("lcs2", _lcs2)]
}


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicationRecord:
    estimator: str
    rep: int
    beta1: float
    pred_err: float
    equal_oracle: bool | None
    gap: float | None
    cpu_s: float
    failed: bool = False


@dataclass(frozen=True)
class MetricsSummary:
    """Replication averages for one estimator."""

    estimator: str
    bias: float
    rmse: float
    prediction_error: float
    equal_oracle_freq: float | None
    mean_gap: float | None
    mean_cpu_seconds: float
    n_reps: int
    n_failed: int
    high_failure: bool = False


def _run_one_rep(cfg: DgpConfig, estimators: list[Estimator], rep: int,
                 oracle_k: int | None) -> list[ReplicationRecord]:
    sample = generate(replace(cfg, seed=cfg.seed ^ rep))
    test_design = sample.test.design
    y_test = sample.test.y
    records = []
    results: dict[str, Any] = {}
    for est in estimators:
        t0 = time.process_time()
        try:
            res = est.fit(sample)
        except (TrimregError, np.linalg.LinAlgError):
            records.append(ReplicationRecord(
                estimator=est.name, rep=rep, beta1=np.nan, pred_err=np.nan,
                equal_oracle=None, gap=None, cpu_s=time.process_time() - t0,
                failed=True,
            ))
            continue
        cpu = time.process_time() - t0
        results[est.name] = (res, cpu)

    oracle = None
    if oracle_k is not None:
        k = oracle_k if oracle_k > 0 else len(sample.true_outliers)
        warm = None
        for res, _ in results.values():
            if isinstance(res, SparsitySolution) and res.k == k:
                if warm is None or res.objective < warm.objective:
                    warm = res
        try:
            oracle = best_subset_exact(sample.train, k, warm_start=warm)
        except TrimregError:
            pass  # the replication keeps its fits, without oracle comparisons

    for est in estimators:
        if est.name not in results:
            continue
        res, cpu = results[est.name]
        beta = np.asarray(res.beta, dtype=np.float64)
        pred = test_design @ beta
        pred_err = float(np.mean((y_test - pred) ** 2))
        equal = None
        gap = None
        if oracle is not None and isinstance(res, SparsitySolution) and res.k == oracle.solution.k:
            equal = equal_solution(res, oracle.solution)
            dual = max(oracle.dual, 1e-12)
            gap = (res.objective - dual) / dual
        records.append(ReplicationRecord(
            estimator=est.name, rep=rep, beta1=float(beta[1]),
            pred_err=pred_err, equal_oracle=equal, gap=gap, cpu_s=cpu,
        ))
    return records


def run_monte_carlo(
    cfg: DgpConfig,
    estimators: list[Estimator],
    R: int,
    oracle_k: int | None = None,
    threads: int = 1,
) -> dict[str, MetricsSummary]:
    """Generate R replications, fit every estimator, average the metrics.

    `oracle_k` switches on the exact-solver comparison (0 means "use the
    true contamination count of each replication"); a replication whose
    exact solve fails has none. Failed fits are excluded and counted; a
    summary is flagged when more than 5% fail.
    """
    return run_monte_carlo_records(cfg, estimators, R, oracle_k, threads)[0]


def summarize(records: list[ReplicationRecord], R: int) -> dict[str, MetricsSummary]:
    true_beta1 = 1.0  # the first slope coefficient is 1 in all three designs
    out: dict[str, MetricsSummary] = {}
    names = []
    for rec in records:
        if rec.estimator not in names:
            names.append(rec.estimator)
    for name in names:
        recs = [r for r in records if r.estimator == name]
        ok = [r for r in recs if not r.failed]
        n_failed = len(recs) - len(ok)
        errs = np.array([r.beta1 - true_beta1 for r in ok])
        bias = float(np.mean(errs)) if ok else np.nan
        rmse = float(np.sqrt(np.mean(errs**2))) if ok else np.nan
        pred = float(np.mean([r.pred_err for r in ok])) if ok else np.nan
        eq = [r.equal_oracle for r in ok if r.equal_oracle is not None]
        gaps = [r.gap for r in ok if r.gap is not None]
        out[name] = MetricsSummary(
            estimator=name,
            bias=bias,
            rmse=rmse,
            prediction_error=pred,
            equal_oracle_freq=float(np.mean(eq)) if eq else None,
            mean_gap=float(np.mean(gaps)) if gaps else None,
            mean_cpu_seconds=float(np.mean([r.cpu_s for r in ok])) if ok else np.nan,
            n_reps=R,
            n_failed=n_failed,
            high_failure=n_failed > 0.05 * R,
        )
    return out


def summary_rows(cfg: DgpConfig, summaries: dict[str, MetricsSummary]) -> list[dict]:
    """Flatten summaries into the documented CSV schema."""
    rows = []
    for name, s in summaries.items():
        rows.append({
            "dgp": cfg.dgp,
            "N": cfg.N,
            "p": cfg.p,
            "param": cfg.param_label,
            "estimator": name,
            "bias": s.bias,
            "rmse": s.rmse,
            "pred_err": s.prediction_error,
            "equal_oracle": s.equal_oracle_freq,
            "gap": s.mean_gap,
            "cpu_s": s.mean_cpu_seconds,
        })
    return rows


def record_rows(cfg: DgpConfig, records: list[ReplicationRecord]) -> list[dict]:
    rows = []
    for r in records:
        rows.append({
            "dgp": cfg.dgp,
            "N": cfg.N,
            "p": cfg.p,
            "param": cfg.param_label,
            "estimator": r.estimator,
            "rep": r.rep,
            "beta1": r.beta1,
            "pred_err": r.pred_err,
            "equal_oracle": r.equal_oracle,
            "gap": r.gap,
            "cpu_s": r.cpu_s,
            "failed": r.failed,
        })
    return rows


def run_monte_carlo_records(
    cfg: DgpConfig,
    estimators: list[Estimator],
    R: int,
    oracle_k: int | None = None,
    threads: int = 1,
) -> tuple[dict[str, MetricsSummary], list[ReplicationRecord]]:
    """As `run_monte_carlo` but also returns the per-replication records."""
    if R < 1:
        raise ValueError("R must be >= 1")
    reps = list(range(1, R + 1))
    worker = partial(_run_one_rep, cfg, estimators, oracle_k=oracle_k)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            per_rep = list(pool.map(worker, reps))
    else:
        per_rep = [worker(r) for r in reps]
    records = [rec for batch in per_rep for rec in batch]
    return summarize(records, R), records


__all__ = [
    "DgpConfig",
    "DgpSample",
    "Estimator",
    "MetricsSummary",
    "ReplicationRecord",
    "gen_dgp3",
    "generate",
    "run_monte_carlo",
    "run_monte_carlo_records",
    "summarize",
    "summary_rows",
    "record_rows",
    "ESTIMATOR_FACTORIES",
]
