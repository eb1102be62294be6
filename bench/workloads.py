"""The benchmark's workloads: how each builds its inputs and runs one item.

Every workload is a closed loop: one caller, one process, `threads=1`,
and the next item starts only when the previous one has returned. An
item's inputs derive from the workload seed and the item number alone.

Item keys follow the library's harness: replication i of a study at
seed S draws its sample with key S ^ i. The study seed is a SplitMix64
hash of the command-line seed, so that nearby command-line seeds share
no replications. So `--seed 55555` does not draw the replications of the
library's own study at seed 55555.

`run(i)` is the timed part. It returns the raw objects the library
produced; `walls` splits its wall time into the item's windows, `record`
turns the objects into the JSON form kept as the reference, and `check`
re-derives what it can independently (objectives from the discard sets,
the oracle's certificate, the equal-solution flags).
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from trimreg import cli, dgp, oracle
from trimreg.dgp import DgpConfig, Estimator
from trimreg.l0 import SparsitySolution

# relative tolerance for objectives, forecasts and other floats
REL_TOL = 1e-8


def study_seed(seed: int) -> int:
    """SplitMix64 finalizer of `seed`, a 64-bit study seed."""
    m = 0xFFFFFFFFFFFFFFFF
    z = (seed + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def _trimmed_objective(data, drop) -> float:
    keep = np.setdiff1d(np.arange(data.n_obs), drop)
    beta = np.linalg.lstsq(data.design[keep], data.y[keep], rcond=None)[0]
    r = data.y[keep] - data.design[keep] @ beta
    return 0.5 * float(r @ r)


class MonteCarlo:
    """Item i is replication i of a `run_monte_carlo_records` study.

    Each item is one call with R=1 whose configuration seed is
    S ^ i ^ 1; the harness runs replication 1 on key S ^ i ^ 1 ^ 1, so
    item i sees exactly the sample of replication i of the study at S.
    """

    windows_per_item = 1

    def __init__(self, seed: int, cfg: dict, estimators: list[str],
                 oracle_k: int | None):
        self.cfg = DgpConfig(seed=seed, **cfg)
        self.oracle_k = oracle_k
        self.names = estimators
        self._fits: dict = {}
        self.estimators = [
            Estimator(name, self._capture(name, dgp.ESTIMATOR_FACTORIES[name]().fit))
            for name in estimators
        ]
        # the first item's sample, so that set-up ends with it ready
        dgp.generate(self._item_cfg(1))

    def prepare(self, i: int) -> None:
        """Nothing to do: the harness draws each replication's sample."""

    def walls(self, raw, t0: float, t1: float) -> list[float]:
        return [t1 - t0]

    def _capture(self, name, fit):
        def captured(sample):
            res = fit(sample)
            self._fits[name] = (sample, res)
            return res
        return captured

    def _item_cfg(self, i: int) -> DgpConfig:
        return replace(self.cfg, seed=self.cfg.seed ^ i ^ 1)

    def run(self, i: int):
        self._fits = {}
        oracle_results = []
        exact = dgp.best_subset_exact

        def capture_oracle(*args, **kwargs):
            res = exact(*args, **kwargs)
            oracle_results.append(res)
            return res

        dgp.best_subset_exact = capture_oracle
        try:
            _, records = dgp.run_monte_carlo_records(
                self._item_cfg(i), self.estimators, 1, oracle_k=self.oracle_k)
        finally:
            dgp.best_subset_exact = exact
        return {"records": records, "fits": self._fits, "oracle": oracle_results}

    def record(self, raw) -> dict:
        fits = {}
        for rec in raw["records"]:
            entry = {"failed": rec.failed, "beta1": rec.beta1,
                     "pred_err": rec.pred_err, "equal_oracle": rec.equal_oracle}
            if rec.estimator in raw["fits"]:
                res = raw["fits"][rec.estimator][1]
                entry["objective"] = float(res.objective)
                if isinstance(res, SparsitySolution):
                    entry["k"] = int(res.k)
                    entry["discard"] = res.outliers.tolist()
                elif hasattr(res, "alpha"):
                    entry["n_flagged"] = int(np.count_nonzero(res.alpha))
            fits[rec.estimator] = entry
        out = {"fits": fits}
        if raw["oracle"]:
            o = raw["oracle"][0]
            out["oracle"] = {"primal": float(o.primal), "proven": bool(o.proven_optimal),
                             "k": int(o.solution.k), "discard": o.solution.outliers.tolist()}
        return out

    def check(self, raw, out: dict) -> list[str]:
        problems = []
        recs = {r.estimator: r for r in raw["records"]}
        for name in self.names:
            rec = recs.get(name)
            if rec is None or rec.failed or name not in raw["fits"]:
                problems.append(f"{name}: fit failed")
                continue
            if not (math.isfinite(rec.beta1) and math.isfinite(rec.pred_err)):
                problems.append(f"{name}: non-finite record")
            sample, res = raw["fits"][name]
            if isinstance(res, SparsitySolution):
                if len(res.outliers) > res.k:
                    problems.append(f"{name}: {len(res.outliers)} rows discarded at k={res.k}")
                if not _close(res.objective, _trimmed_objective(sample.train, res.outliers)):
                    problems.append(f"{name}: objective disagrees with its discard set")
        if self.oracle_k is None:
            return problems
        if len(raw["oracle"]) != 1:
            return problems + [f"{len(raw['oracle'])} oracle solves in one replication"]
        o = raw["oracle"][0]
        sample = next(iter(raw["fits"].values()))[0] if raw["fits"] else None
        if not o.proven_optimal:
            problems.append("oracle: optimality not proven")
        if sample is not None and not _close(o.primal, _trimmed_objective(sample.train, o.solution.outliers)):
            problems.append("oracle: primal disagrees with its discard set")
        for name, (_, res) in raw["fits"].items():
            if not isinstance(res, SparsitySolution) or res.k != o.solution.k:
                continue
            if res.objective < o.primal * (1.0 - REL_TOL):
                problems.append(f"{name}: objective below the certified optimum")
            same = np.array_equal(np.sort(res.outliers), np.sort(o.solution.outliers))
            if recs[name].equal_oracle != (same or _close(res.objective, o.primal)):
                problems.append(f"{name}: equal-oracle flag disagrees with the solutions")
        return problems


class BranchAndBound:
    """Item i draws replication i's sample and solves it by branch and bound.

    The solver starts from its own greedy incumbent, so node work is
    nearly the whole item. The check re-solves by enumeration (untimed).
    """

    windows_per_item = 1

    def __init__(self, seed: int, cfg: dict):
        self.cfg = DgpConfig(seed=seed, **cfg)
        dgp.generate(self._item_cfg(1))

    def _item_cfg(self, i: int) -> DgpConfig:
        return replace(self.cfg, seed=self.cfg.seed ^ i)

    def prepare(self, i: int) -> None:
        """Nothing to do: the sample is drawn inside the item."""

    def walls(self, raw, t0: float, t1: float) -> list[float]:
        return [t1 - t0]

    def run(self, i: int):
        sample = dgp.generate(self._item_cfg(i))
        k = len(sample.true_outliers)
        return sample, oracle.best_subset_exact(sample.train, k, method="branch-and-bound")

    def record(self, raw) -> dict:
        res = raw[1]
        return {"primal": float(res.primal), "proven": bool(res.proven_optimal),
                "k": int(res.solution.k), "discard": res.solution.outliers.tolist()}

    def check(self, raw, out: dict) -> list[str]:
        sample, res = raw
        problems = []
        if not res.proven_optimal:
            problems.append("optimality not proven")
        if not _close(res.primal, _trimmed_objective(sample.train, res.solution.outliers)):
            problems.append("primal disagrees with its discard set")
        exact = oracle.best_subset_exact(sample.train, res.solution.k, method="enumerate")
        gap_tol = getattr(oracle, "GAP_TOL", 1e-4)
        if res.primal > exact.primal * (1.0 + gap_tol) + 1e-12:
            problems.append(f"primal {res.primal!r} above the enumerated optimum {exact.primal!r}")
        return problems


class RollingForecast:
    """Item i is one `trimreg forecast` call over `windows` rolling windows.

    Its input is a fresh design-3 series of window + windows rows (key
    S ^ i), written to CSV before the item starts, so consecutive
    windows within an item share all rows but one. Each window counts as
    one item of the metrics. The call's `fit_l0_auto` is wrapped to stamp
    the end of each window's fit, and a window's wall time runs from the
    previous stamp (the call's start, for the first window) to its own;
    the last window also takes the report writing. The window times so
    sum to the call's.
    """

    def __init__(self, seed: int, cfg: dict, window: int, windows: int, workdir: str):
        self.seed = seed
        self.cfg = cfg
        self.window = window
        self.windows_per_item = windows
        self.workdir = workdir
        self._ready: dict[int, str] = {}
        self.prepare(1)

    def prepare(self, i: int) -> None:
        """Write item i's series to CSV (untimed; item 1 during set-up)."""
        sample = dgp.generate(DgpConfig(
            seed=self.seed ^ i, N=self.window + self.windows_per_item, **self.cfg))
        path = os.path.join(self.workdir, f"series-{i}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            d = sample.train.x.shape[1]
            w.writerow(["y"] + [f"x{j}" for j in range(1, d + 1)])
            for yv, xv in zip(sample.train.y, sample.train.x):
                w.writerow([repr(float(yv))] + [repr(float(v)) for v in xv])
        self._ready[i] = path

    def run(self, i: int):
        path = self._ready.pop(i)
        out = os.path.join(self.workdir, f"forecast-{i}")
        fit = cli.fit_l0_auto
        ends: list[float] = []

        def stamped(*args, **kwargs):
            try:
                return fit(*args, **kwargs)
            finally:
                ends.append(time.perf_counter())

        cli.fit_l0_auto = stamped
        try:
            rc = cli.main([
                "forecast", path, "--method", "l0", "--auto",
                "--window", str(self.window), "--forecasts-csv", out + ".csv",
                "--out", out + ".json",
            ])
        finally:
            cli.fit_l0_auto = fit
        return {"rc": rc, "path": path, "out": out, "fit_ends": ends}

    def walls(self, raw, t0: float, t1: float) -> list[float]:
        ends = raw["fit_ends"]
        if len(ends) != self.windows_per_item:  # a failed item; `check` reports it
            return [(t1 - t0) / self.windows_per_item] * self.windows_per_item
        return np.diff([t0, *ends[:-1], t1]).tolist()

    def record(self, raw) -> dict:
        """Read the forecasts back and delete the call's files."""
        rows = []
        if raw["rc"] == 0:
            with open(raw["out"] + ".csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        for path in (raw["path"], raw["out"] + ".csv", raw["out"] + ".json"):
            if os.path.exists(path):
                os.remove(path)
        return {"rc": raw["rc"], "windows": [
            {"target": int(r["target_row"]), "forecast": float(r["forecast"]),
             "skipped": r["skipped"] == "True", "n_flagged": int(r["n_flagged"])}
            for r in rows]}

    def check(self, raw, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"forecast exited with code {out['rc']}"]
        wins = out["windows"]
        problems = []
        if len(raw["fit_ends"]) != self.windows_per_item:
            problems.append(f"{len(raw['fit_ends'])} fits for {self.windows_per_item} windows")
        if [w["target"] for w in wins] != list(range(self.window + 1, self.window + self.windows_per_item + 1)):
            problems.append("forecast targets are not the expected rows")
        for w in wins:
            if w["skipped"] or not math.isfinite(w["forecast"]):
                problems.append(f"window {w['target']}: skipped or non-finite")
        return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed: int
    held_out_seed: int
    # percentile reported as item_tail_s: at least ten items lie beyond it
    # in a run of the benchmark's length on a two-core machine
    tail_pct: float
    # items (calls, for rolling-forecast) kept per seed in the reference:
    # three times what the fastest 25-second run at the recording commit reached
    reference_items: int
    build: object

    def make(self, seed: int, workdir: str):
        """The workload's item source for a command-line seed."""
        return self.build(study_seed(seed), workdir)


def _mc(cfg: dict, estimators: list[str], oracle_k: int | None):
    return lambda seed, workdir: MonteCarlo(seed, cfg, estimators, oracle_k)


WORKLOADS = {w.name: w for w in [
    Workload(
        "endogenous-mc",
        "Headline criterion-5 study (DGP 2, N=200): the L0 budget sweep, the L1 psi grid and LAD do nearly all the work.",
        seed=55555, held_out_seed=60221, tail_pct=70.0, reference_items=150,
        build=_mc(dict(dgp=2, N=200, p=0.1, rho=5.0, n_test=1000),
                  ["l0", "l1", "lad", "ols"], None),
    ),
    Workload(
        "oracle-enum",
        "Criterion-4 study (DGP 1, N=40, k=4): the oracle's vectorized sweep over 91,390 discard sets dominates; order-2 swaps at small N.",
        seed=271828, held_out_seed=314159, tail_pct=75.0, reference_items=520,
        build=_mc(dict(dgp=1, N=40, p=0.1, mu_alpha=5.0, sigma_alpha=5.0, n_test=10),
                  ["iht", "lcs1", "lcs2"], 0),
    ),
    Workload(
        "oracle-bnb",
        "Branch-and-bound solves on DGP 1 samples (N=30, k=3): node work is nearly the whole item and heavy-tailed.",
        seed=424242, held_out_seed=141421, tail_pct=90.0, reference_items=2900,
        build=lambda seed, workdir: BranchAndBound(
            seed, dict(dgp=1, N=30, p=0.1, mu_alpha=5.0, sigma_alpha=5.0, n_test=10)),
    ),
    Workload(
        "rolling-forecast",
        "trimreg forecast --method l0 --auto --window 120 on DGP 3 series via cli.main: consecutive windows share all rows but one.",
        seed=173205, held_out_seed=223606, tail_pct=75.0, reference_items=80,
        build=lambda seed, workdir: RollingForecast(
            seed, dict(dgp=3, p=0.1, rho=5.0, n_test=1), 120, 4, workdir),
    ),
]}
