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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from .classic import ClassicFit, fit_lad, fit_ols
from .errors import TrimregError
from .l0 import SparsitySolution, fit_iht, fit_l0_auto, fit_lcs, sweep_cap
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

    def __post_init__(self):
        # each message names its field first: the CLI prints it as is
        if self.dgp not in (1, 2, 3):
            raise ValueError("dgp: must be 1, 2, or 3")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p: must lie in (0, 1)")
        if self.k0 < 1:
            raise ValueError("p: floor(p*N) must be at least 1")
        if self.n_test < 1:
            raise ValueError("n_test: must be at least 1")
        for name in ("mu_alpha", "sigma_alpha", "rho"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be a finite number")

    @property
    def k0(self) -> int:
        return int(np.floor(self.p * self.N))

    @property
    def n_coef(self) -> int:
        """Coefficients of the design's regression, the intercept included
        (the length of `generate`'s `true_beta`)."""
        return 6 if self.dgp == 3 else 3

    @property
    def param_label(self) -> str:
        if self.dgp == 1:
            return f"({self.mu_alpha:g},{self.sigma_alpha:g})"
        return f"{self.rho:g}"


@dataclass(eq=False)
class _SharedFit:
    """A fit computed on first read, with its outcome (the fit, or the error
    it raised), its CPU time and the number of reads so far."""

    fit: ClassicFit | None = None
    error: Exception | None = None
    cpu_s: float = 0.0
    reads: int = 0


@dataclass(frozen=True)
class DgpSample:
    """One replication: contaminated training data plus a clean test split.

    `lad()` is the training rows' LAD fit, the start of every L0 and L1
    estimator. The first call fits it and times it (`time.process_time`);
    later calls return the same fit, with a read-only `beta`, or raise the
    same error. `generate` fits nothing, and the slot takes no part in
    comparisons. The slot counts its reads, so that the harness charges
    the fit's CPU to each estimator that reads it without fitting it.
    """

    train: Dataset
    true_beta: np.ndarray
    true_outliers: np.ndarray
    test: Dataset
    lad_slot: _SharedFit = field(default_factory=_SharedFit, init=False,
                                 repr=False, compare=False)

    def lad(self) -> ClassicFit:
        slot = self.lad_slot
        if slot.reads == 0:
            t0 = time.process_time()
            try:
                slot.fit = fit_lad(self.train)
                slot.fit.beta.setflags(write=False)
            except Exception as exc:  # each reader raises it, as its own fit would
                slot.error = exc
            slot.cpu_s = time.process_time() - t0
        slot.reads += 1
        if slot.error is not None:
            raise slot.error
        return slot.fit


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


def _dgp3_eta(N: int) -> np.ndarray:
    """Random-walk loadings, shrinking with the training length N."""
    return np.array([1.0, -1.0]) / np.sqrt(N)


# error-correction loading: first variable is a pure random walk, the second
# chases it, so (1, -1) is the cointegrating combination
_VECM_PI = np.array([[0.0, 0.0], [1.0, -1.0]])


def _dgp3_block(rng, n, cfg: DgpConfig, with_outliers: bool):
    eta = _dgp3_eta(cfg.N)
    phi = DEFAULT_VAR_PHI
    chol = np.linalg.cholesky(DEFAULT_VAR_SIGMA)
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


def generate(cfg: DgpConfig) -> DgpSample:
    """Draw one sample of the configured design: the training rows, then
    the test rows, from one generator seeded by `cfg.seed`.

    Designs 1 and 2 share the regressors (a squared-normal first
    regressor, a correlated second) and shift the first floor(p*N) rows.
    Design 1 draws the shifts independently of the regressors; design 2
    takes rho times the sum of the same three innovations that drive the
    regressors, so its contamination is endogenous. Design 3 is the
    predictive design: VAR(1) innovations, a cointegrated pair, two
    random walks, and two contaminated blocks starting after 25% and 75%
    of the sample. Its shifts are rho times the sum of the level and pair
    innovations, endogenous by construction.
    """
    if cfg.dgp == 3:
        block = _dgp3_block
        true_beta = np.concatenate([[0.3, 1.0, 1.0, -1.0], _dgp3_eta(cfg.N)])
    else:
        block = _dgp12_block
        true_beta = np.array([0.5, 1.0, 1.0])
    rng = _rng(cfg.seed)
    train, outliers = block(rng, cfg.N, cfg, with_outliers=True)
    test, _ = block(rng, cfg.n_test, cfg, with_outliers=False)
    return DgpSample(train=train, true_beta=true_beta, true_outliers=outliers, test=test)


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
    return sample.lad()


def _l1(sample: DgpSample):
    # replication mode: the plain information criterion, whose score is
    # unbounded below as psi -> 0, slides to the bottom of the grid and
    # flags densely; the comparison tables are produced this way
    return select_psi_bic(sample.train, sample.lad().beta, penalty_mult=1.0)


def _l0(sample: DgpSample):
    # twice the true count within the sweep's cap, and at least 1, so that
    # a sample no budget fits fails in the sweep with TooFewInliers
    cap = sweep_cap(sample.train.n_obs, sample.train.n_coef)
    K = max(1, min(2 * max(len(sample.true_outliers), 1), cap))
    return fit_l0_auto(sample.train, sample.lad().beta, K)


def _iht(sample: DgpSample):
    return fit_iht(sample.train, len(sample.true_outliers), sample.lad().beta)


def _lcs(sample: DgpSample, l: int):
    return fit_lcs(sample.train, len(sample.true_outliers), sample.lad().beta, l)


# name -> factory of the named Estimator
ESTIMATOR_FACTORIES = {
    name: partial(Estimator, name, fit)
    for name, fit in [("ols", _ols), ("lad", _lad), ("l1", _l1), ("l0", _l0), ("iht", _iht),
                      ("lcs1", partial(_lcs, l=1)), ("lcs2", partial(_lcs, l=2))]
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
    """Fit every estimator, then solve the oracle, then record every fit in order."""
    sample = generate(replace(cfg, seed=cfg.seed ^ rep))
    slot = sample.lad_slot
    fits = []  # (name, solution or None when the fit failed, cpu_s)
    for est in estimators:
        reads = slot.reads
        t0 = time.process_time()
        try:
            res = est.fit(sample)
        except (TrimregError, np.linalg.LinAlgError):
            res = None
        cpu = time.process_time() - t0
        if 0 < reads < slot.reads:  # read the LAD fit an earlier estimator made
            cpu += slot.cpu_s
        fits.append((est.name, res, cpu))

    oracle = None
    if oracle_k is not None:
        k = oracle_k or len(sample.true_outliers)
        # the lowest objective at budget k starts the solver; the first wins a tie
        warm = min((res for _, res, _ in fits
                    if isinstance(res, SparsitySolution) and res.k == k),
                   key=lambda sol: sol.objective, default=None)
        try:
            oracle = best_subset_exact(sample.train, k, warm_start=warm)
        except TrimregError:
            pass  # the replication keeps its fits, without oracle comparisons

    records = []
    for name, res, cpu in fits:
        beta1 = pred_err = np.nan
        if res is not None:
            beta = np.asarray(res.beta, dtype=np.float64)
            beta1 = float(beta[1])
            pred_err = float(np.mean((sample.test.y - sample.test.design @ beta) ** 2))
        equal = gap = None
        if oracle is not None and isinstance(res, SparsitySolution) and res.k == oracle.solution.k:
            equal = equal_solution(res, oracle.solution)
            dual = max(oracle.dual, 1e-12)
            gap = (res.objective - dual) / dual
        records.append(ReplicationRecord(
            estimator=name, rep=rep, beta1=beta1, pred_err=pred_err, equal_oracle=equal,
            gap=gap, cpu_s=cpu, failed=res is None,
        ))
    return records


def _mean(values, empty=np.nan):
    return float(np.mean(values)) if len(values) else empty


def summarize(records: list[ReplicationRecord], R: int) -> dict[str, MetricsSummary]:
    """Each estimator's averages over its successful records, in record order."""
    true_beta1 = 1.0  # the first slope coefficient is 1 in all three designs
    by_name: dict[str, list[ReplicationRecord]] = {}
    for rec in records:
        by_name.setdefault(rec.estimator, []).append(rec)
    out: dict[str, MetricsSummary] = {}
    for name, recs in by_name.items():
        ok = [r for r in recs if not r.failed]
        errs = np.array([r.beta1 - true_beta1 for r in ok])
        n_failed = len(recs) - len(ok)
        out[name] = MetricsSummary(
            bias=_mean(errs),
            rmse=float(np.sqrt(_mean(errs**2))),
            prediction_error=_mean([r.pred_err for r in ok]),
            equal_oracle_freq=_mean(
                [r.equal_oracle for r in ok if r.equal_oracle is not None], None),
            mean_gap=_mean([r.gap for r in ok if r.gap is not None], None),
            mean_cpu_seconds=_mean([r.cpu_s for r in ok]),
            n_reps=R,
            n_failed=n_failed,
            high_failure=n_failed > 0.05 * R,
        )
    return out


def _config_columns(cfg: DgpConfig) -> dict:
    return {"dgp": cfg.dgp, "N": cfg.N, "p": cfg.p, "param": cfg.param_label}


def summary_rows(cfg: DgpConfig, summaries: dict[str, MetricsSummary]) -> list[dict]:
    """Flatten summaries into the documented CSV schema."""
    return [{
        **_config_columns(cfg),
        "estimator": name,
        "bias": s.bias,
        "rmse": s.rmse,
        "pred_err": s.prediction_error,
        "equal_oracle": s.equal_oracle_freq,
        "gap": s.mean_gap,
        "cpu_s": s.mean_cpu_seconds,
    } for name, s in summaries.items()]


def record_rows(cfg: DgpConfig, records: list[ReplicationRecord]) -> list[dict]:
    """One CSV row per record: the config columns, then its fields in order."""
    columns = _config_columns(cfg)
    return [{**columns, **asdict(r)} for r in records]


def process_map(fn: Callable, items, threads: int) -> list:
    """`[fn(x) for x in items]`, in `threads` worker processes when above 1.

    The results come back in input order either way, so a run's outputs do
    not depend on `threads`; `fn` must be picklable when it is above 1.
    """
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def run_monte_carlo_records(
    cfg: DgpConfig,
    estimators: list[Estimator],
    R: int,
    oracle_k: int | None = None,
    threads: int = 1,
) -> tuple[dict[str, MetricsSummary], list[ReplicationRecord]]:
    """Generate R replications, fit every estimator, average the metrics.

    Returns the per-estimator summaries and the per-replication records.
    `oracle_k` switches on the exact-solver comparison (0 means "use the
    true contamination count of each replication"); a replication whose
    exact solve fails has none. Failed fits are excluded and counted; a
    summary is flagged when more than 5% fail.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    worker = partial(_run_one_rep, cfg, estimators, oracle_k=oracle_k)
    per_rep = process_map(worker, range(1, R + 1), threads)
    records = [rec for batch in per_rep for rec in batch]
    return summarize(records, R), records


__all__ = [
    "DgpConfig",
    "DgpSample",
    "Estimator",
    "MetricsSummary",
    "ReplicationRecord",
    "generate",
    "run_monte_carlo_records",
    "summarize",
    "summary_rows",
    "record_rows",
    "ESTIMATOR_FACTORIES",
]
