"""Command-line interface: fit, tune, simulate, and rolling forecasts.

CSV inputs are comma-separated UTF-8 with a required header row; the
first column is the response and the remaining columns are regressors.
Reports are JSON and embed the resolved configuration plus the package
version. Flagged rows are 1-based in input order.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import MISSING, asdict, fields
from functools import partial
from typing import get_type_hints

import numpy as np

from . import __version__
from .classic import fit_huber, fit_lad, fit_ols, initial_beta
from .dgp import (
    ESTIMATOR_FACTORIES,
    DgpConfig,
    process_map,
    record_rows,
    run_monte_carlo_records,
    summary_rows,
)
from .errors import (
    DimensionError,
    ParseError,
    TrimregError,
    WindowTooLarge,
)
from .l0 import fit_l0_auto, fit_lcs, select_k_bic, sweep_cap
from .l1 import PSI_GRID_SIZE, fit_l1, select_psi_bic, soft_threshold_alpha
from .linalg import Dataset

METHODS = ("l0", "l1", "lad", "ols", "huber")


class UsageError(Exception):
    """Bad flag combination or invalid configuration value."""


def read_csv_dataset(path: str) -> tuple[Dataset, list[str]]:
    """Parse a CSV with header into a Dataset; errors carry row/column."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: file is empty (header row required)")
    header = [h.strip() for h in rows[0]]
    ncol = len(header)
    if ncol < 1:
        raise ParseError(f"{path}: header row has no columns")
    if len(rows) < 2:
        raise ParseError(f"{path}: no data rows below the header")
    values = np.empty((len(rows) - 1, ncol))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != ncol:
            raise ParseError(
                f"{path}: row {i} has {len(row)} columns, expected {ncol}"
            )
        for j, cell in enumerate(row, start=1):
            try:
                val = float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: row {i}, column {j}: not a number: {cell!r}"
                ) from exc
            if not np.isfinite(val):
                raise ParseError(f"{path}: row {i}, column {j}: non-finite value")
            values[i - 2, j - 1] = val
    try:
        data = Dataset(y=values[:, 0], x=values[:, 1:])
    except ValueError as exc:
        raise DimensionError(str(exc)) from exc
    n, q = data.n_obs, data.n_coef
    if n < q:  # every method fits q coefficients, the intercept's included
        raise DimensionError(f"N = {n} rows and q = {q} coefficients: a fit needs N >= q")
    return data, header


def _strict_json(obj):
    """`obj` with numpy values unwrapped and non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_report(report: dict, out: str | None) -> None:
    """Write `report` as strict JSON: NaN and infinities become null."""
    text = json.dumps(_strict_json(report), indent=2, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def write_csv(path: str, rows: list[dict], fieldnames: list[str] | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames or list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# fit / tune
# ---------------------------------------------------------------------------


def _resolve_l(args, default: int) -> None:
    """`--l` is the l0 swap order: a usage error with any other method,
    `default` with l0 when not given."""
    if args.method != "l0" and args.l is not None:
        raise UsageError("--l is only valid with --method l0")
    if args.method == "l0" and args.l is None:
        args.l = default


def _validate_method_flags(args) -> None:
    if args.method != "l0" and args.k is not None:
        raise UsageError("--k is only valid with --method l0")
    if args.method not in ("l1", "huber") and args.psi is not None:
        raise UsageError("--psi is only valid with --method l1 or huber")
    if args.method in ("lad", "ols", "huber") and args.auto:
        raise UsageError("--auto is only valid with --method l0 or l1")
    if args.method == "l0" and (args.k is None) == (not args.auto):
        raise UsageError("--method l0 needs exactly one of --k or --auto")
    if args.method == "l1" and (args.psi is None) == (not args.auto):
        raise UsageError("--method l1 needs exactly one of --psi or --auto")
    if args.method == "huber" and args.psi is None:
        raise UsageError("--method huber requires --psi")
    if args.k_max is not None and not (args.method == "l0" and args.auto):
        raise UsageError("--k-max is only valid with --method l0 --auto")
    if args.psi is not None and not 0 < args.psi < math.inf:
        raise UsageError(f"--psi must lie in (0, inf), not {args.psi}")
    _resolve_l(args, default=2)


def _check_budgets(args, n: int, q: int) -> None:
    """Range checks of --k and, with --auto, --k-max for N rows and q coefficients."""
    if args.k is not None and not 0 <= args.k <= n - q:
        raise UsageError(f"--k must lie in [0, N - q] = [0, {n - q}]")
    if args.method == "l0" and args.auto:
        _sweep_budget(args.k_max, n, q)


def _sweep_budget(k_max: int | None, n: int, q: int) -> int:
    """The largest budget the L0 sweep scans: --k-max, or N // 4, within
    [1, `sweep_cap`] = [1, min(N // 2, N - q - 1)]."""
    cap = sweep_cap(n, q)
    if cap < 1:
        raise DimensionError(f"no outlier budget fits N = {n} rows and q = {q} coefficients")
    k_max = min(max(1, n // 4), cap) if k_max is None else k_max
    if not 1 <= k_max <= cap:
        raise UsageError(f"--k-max must lie in [1, min(N // 2, N - q - 1)] = [1, {cap}]")
    return k_max


def _check_threads(threads: int | None) -> None:
    if threads is not None and threads < 1:
        raise UsageError("--threads must be at least 1")


def _bic_trace(sol, param: str) -> list[dict]:
    """The report entries {k|psi, objective, bic, n_outliers} of the BIC
    selection that chose `sol`, one per scored budget or psi."""
    return [{param: v, "objective": obj, "bic": b, "n_outliers": m}
            for v, obj, b, m in sol.info["bic_trace"]]


def _fit_once(data: Dataset, args) -> dict:
    """Run the requested method; return beta/alpha/objective and tuning info."""
    tuning = None
    if args.method in ("ols", "lad"):
        sol = (fit_ols if args.method == "ols" else fit_lad)(data)
        alpha = np.zeros(data.n_obs)
    elif args.method == "huber":
        sol = fit_huber(data, args.psi)
        alpha = soft_threshold_alpha(data.y - data.design @ sol.beta, args.psi)
        tuning = {"psi": args.psi}
    else:
        param = "psi" if args.method == "l1" else "k"
        if args.method == "l1":
            sol = select_psi_bic(data, initial_beta(data)) if args.auto else fit_l1(data, args.psi)
        elif args.auto:
            K = _sweep_budget(args.k_max, data.n_obs, data.n_coef)
            sol = fit_l0_auto(data, initial_beta(data), K=K, l_final=args.l)
        else:
            sol = fit_lcs(data, args.k, initial_beta(data), args.l)
        alpha = sol.alpha
        tuning = {param: getattr(sol, param)}
        if args.auto:
            tuning.update(selected_by="bic", bic_trace=_bic_trace(sol, param))
    # the classic fits report convergence; the L0 and L1 fits raise instead
    return {"beta": sol.beta, "alpha": alpha, "objective": sol.objective,
            "tuning": tuning, "converged": getattr(sol, "converged", True)}


def cmd_fit(args) -> int:
    _validate_method_flags(args)
    data, header = read_csv_dataset(args.input)
    _check_budgets(args, data.n_obs, data.n_coef)
    res = _fit_once(data, args)
    alpha = np.asarray(res["alpha"])
    flagged = np.flatnonzero(alpha != 0.0)
    report = {
        "command": "fit",
        "version": __version__,
        "config": _resolved_config(args),
        "columns": {"response": header[0], "regressors": header[1:]},
        "n_obs": data.n_obs,
        "beta": res["beta"],
        "objective": res["objective"],
        "converged": res["converged"],
        "tuning": res["tuning"],
        "outlier_rows": (flagged + 1).tolist(),
        "alpha": [{"row": int(i) + 1, "value": float(alpha[i])} for i in flagged],
    }
    write_report(report, args.out)
    return 0


def cmd_tune(args) -> int:
    if args.method == "l0" and args.grid_size is not None:
        raise UsageError("--grid-size is only valid with --method l1")
    if args.method == "l1":
        if args.k_max is not None:
            raise UsageError("--k-max is only valid with --method l0")
        args.grid_size = PSI_GRID_SIZE if args.grid_size is None else args.grid_size
        if args.grid_size < 1:
            raise UsageError("--grid-size must be at least 1")
    _resolve_l(args, default=1)
    data, header = read_csv_dataset(args.input)
    if args.method == "l0":
        K = _sweep_budget(args.k_max, data.n_obs, data.n_coef)
        sol, param = select_k_bic(data, initial_beta(data), K, args.l), "k"
    else:
        sol, param = select_psi_bic(data, initial_beta(data), args.grid_size), "psi"
    report = {
        "command": "tune",
        "version": __version__,
        "config": _resolved_config(args),
        "columns": {"response": header[0], "regressors": header[1:]},
        "trace": _bic_trace(sol, param),
        "selected": {param: getattr(sol, param), "bic": sol.info["bic"]},
    }
    write_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def _forecast_one(y: np.ndarray, x: np.ndarray, args, t: int):
    """Fit the method in `args` on rows [t-window, t-1] (0-based), predict row t."""
    window = args.window
    data = Dataset(y=y[t - window:t], x=x[t - window:t])
    try:
        res = _fit_once(data, args)
    except (TrimregError, np.linalg.LinAlgError) as exc:
        return {"target": t, "skipped": True, "reason": str(exc),
                "forecast": np.nan, "sq_error": np.nan, "flagged": []}
    beta = np.asarray(res["beta"])
    xt = np.concatenate([[1.0], x[t]])
    fc = float(xt @ beta)
    flagged = (np.flatnonzero(np.asarray(res["alpha"]) != 0.0) + (t - window)).tolist()
    return {
        "target": t, "skipped": False, "reason": "",
        "forecast": fc, "sq_error": (y[t] - fc) ** 2, "flagged": flagged,
    }


def _parse_subperiods(text: str, t_min: int, t_max: int) -> list[tuple[int, int]]:
    """Parse "start:end,start:end" 1-based inclusive target ranges."""
    spans = []
    for piece in text.split(","):
        try:
            a, b = piece.split(":")
            lo, hi = int(a), int(b)
        except ValueError as exc:
            raise UsageError(f"subperiods: cannot parse {piece!r}") from exc
        if lo > hi:
            raise UsageError(f"subperiods: empty range {piece!r}")
        if lo < t_min or hi > t_max:
            raise UsageError(
                f"subperiods: {piece!r} outside forecast targets [{t_min}, {t_max}]"
            )
        spans.append((lo, hi))
    return spans


def cmd_forecast(args) -> int:
    _validate_method_flags(args)
    _check_threads(args.threads)
    data, header = read_csv_dataset(args.input)
    y, x = data.y, data.x
    T = data.n_obs
    d = x.shape[1]
    if args.window < d + 2:
        raise UsageError(f"--window must be at least d+2 = {d + 2}")
    if args.window >= T:
        raise WindowTooLarge(f"window {args.window} leaves no targets in {T} rows")
    _check_budgets(args, args.window, d + 1)
    targets = list(range(args.window, T))  # 0-based target rows
    results = process_map(partial(_forecast_one, y, x, args), targets, args.threads)

    ok = [r for r in results if not r["skipped"]]
    mpse = float(np.mean([r["sq_error"] for r in ok])) if ok else np.nan
    t_min, t_max = args.window + 1, T  # 1-based target range
    subperiods = []
    if args.subperiods:
        for lo, hi in _parse_subperiods(args.subperiods, t_min, t_max):
            inside = [r for r in ok if lo <= r["target"] + 1 <= hi]
            subperiods.append({
                "start": lo, "end": hi,
                "mpse": float(np.mean([r["sq_error"] for r in inside])) if inside else np.nan,
                "n_targets": len(inside),
            })

    forecast_rows = [{
        "target_row": r["target"] + 1,
        "actual": y[r["target"]],
        "forecast": r["forecast"],
        "sq_error": r["sq_error"],
        "skipped": r["skipped"],
        "n_flagged": len(r["flagged"]),
    } for r in results]
    if args.forecasts_csv:
        write_csv(args.forecasts_csv, forecast_rows)
    if args.flags_csv:
        flag_rows = [
            {"target_row": r["target"] + 1, "window_row": f + 1}
            for r in results for f in r["flagged"]
        ]
        write_csv(args.flags_csv, flag_rows, fieldnames=["target_row", "window_row"])

    report = {
        "command": "forecast",
        "version": __version__,
        "config": _resolved_config(args),
        "columns": {"response": header[0], "regressors": header[1:]},
        "n_obs": T,
        "window": args.window,
        "n_targets": len(targets),
        "n_skipped": len(results) - len(ok),
        "mpse": mpse,
        "subperiods": subperiods,
        "forecasts": forecast_rows,
    }
    write_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# the design fields and their types are DgpConfig's; the run fields are the CLI's
_DESIGN_FIELDS = get_type_hints(DgpConfig)
_SIM_FIELDS = {
    **_DESIGN_FIELDS, "R": int, "estimators": list,
    "oracle_k": (int, type(None)), "threads": int,
}
_REQUIRED = [f.name for f in fields(DgpConfig) if f.default is MISSING] + ["R"]
_JSON_TYPE_NAMES = {int: "an integer", float: "a number", list: "a list", type(None): "null"}


def _check_field_type(key: str, value) -> None:
    """`value` has the JSON type `_SIM_FIELDS` declares for `key`; a bool
    is never a number, and an integer is a number."""
    kind = _SIM_FIELDS[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    accepted = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) or not isinstance(value, accepted):
        names = " or ".join(_JSON_TYPE_NAMES[k] for k in kinds)
        raise UsageError(f"{key}: must be {names}, not {json.dumps(value)}")


def _load_sim_config(
    path: str, seed: int | None, threads: int | None
) -> tuple[DgpConfig, dict]:
    """The design built from the config file at `path`, and its run
    fields `R`, `estimators`, `oracle_k` and `threads` with defaults
    filled in; `seed` and `threads`, if given, replace the file's."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config root must be a JSON object")
    for key in raw:
        if key not in _SIM_FIELDS:
            raise UsageError(f"{key}: unknown configuration field")
    for key in _REQUIRED:
        if key not in raw:
            raise UsageError(f"{key}: required field missing")
    for key, value in raw.items():
        _check_field_type(key, value)
    if seed is not None:
        raw["seed"] = seed
    try:
        cfg = DgpConfig(**{key: raw[key] for key in _DESIGN_FIELDS if key in raw})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if raw["R"] < 1:
        raise UsageError("R: must be an integer >= 1")
    if raw.get("oracle_k") is not None and raw["oracle_k"] < 0:
        raise UsageError("oracle_k: must be an integer >= 0 or null")
    if raw.get("threads", 1) < 1:
        raise UsageError("threads: must be an integer >= 1")
    est = raw.get("estimators", ["l0", "l1", "lad", "ols"])
    if not est:
        raise UsageError("estimators: must be a non-empty list")
    for name in est:
        if not isinstance(name, str) or name not in ESTIMATOR_FACTORIES:
            raise UsageError(
                f"estimators: unknown name {name!r}; choose from "
                f"{sorted(ESTIMATOR_FACTORIES)}"
            )
    if len(set(est)) < len(est):
        raise UsageError("estimators: each name may appear once")
    return cfg, {
        "R": raw["R"], "estimators": est, "oracle_k": raw.get("oracle_k"),
        "threads": raw.get("threads", 1) if threads is None else threads,
    }


def cmd_simulate(args) -> int:
    _check_threads(args.threads)
    cfg, run = _load_sim_config(args.config, args.seed, args.threads)
    estimators = [ESTIMATOR_FACTORIES[name]() for name in run["estimators"]]
    summaries, records = run_monte_carlo_records(
        cfg, estimators, run["R"], oracle_k=run["oracle_k"], threads=run["threads"],
    )
    prefix = args.out or "simulation"
    write_csv(prefix + "_summary.csv", summary_rows(cfg, summaries))
    write_csv(prefix + "_records.csv", record_rows(cfg, records))
    report = {
        "command": "simulate",
        "version": __version__,
        "config": {**asdict(cfg), **run},
        "summaries": {
            name: {k: v for k, v in asdict(s).items() if k != "estimator"}
            for name, s in summaries.items()
        },
    }
    write_report(report, prefix + ".json")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _resolved_config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _add_method_flags(sub) -> None:
    sub.add_argument("--method", choices=METHODS, required=True)
    sub.add_argument("--k", type=int, default=None, help="outlier budget (l0)")
    sub.add_argument("--psi", type=float, default=None, help="threshold (l1/huber)")
    sub.add_argument("--auto", action="store_true", help="tune k or psi by BIC")
    sub.add_argument("--l", type=int, choices=(1, 2), default=None,
                     help="swap order for l0: of the LCS with --k, of the polish "
                          "with --auto (default 2)")
    sub.add_argument("--k-max", dest="k_max", type=int, default=None,
                     help="largest budget --auto scans (default N//4, at most N//2, N-q)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimreg",
        description="Robust regression with hard or soft outlier thresholding",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit one model to a CSV")
    p_fit.add_argument("input")
    _add_method_flags(p_fit)
    p_fit.add_argument("--out", default=None, help="JSON report path (default stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_tune = subs.add_parser("tune", help="trace the BIC over a tuning grid")
    p_tune.add_argument("input")
    p_tune.add_argument("--method", choices=("l0", "l1"), required=True)
    p_tune.add_argument("--k-max", dest="k_max", type=int, default=None)
    p_tune.add_argument("--l", type=int, choices=(1, 2), default=None,
                        help="swap order of the l0 sweep (default 1)")
    p_tune.add_argument("--grid-size", dest="grid_size", type=int, default=None,
                        help="points on the l1 psi grid (default 30)")
    p_tune.add_argument("--out", default=None)
    p_tune.set_defaults(func=cmd_tune)

    p_fc = subs.add_parser("forecast", help="rolling one-step-ahead backtest")
    p_fc.add_argument("input")
    _add_method_flags(p_fc)
    p_fc.add_argument("--window", type=int, required=True,
                      help="rolling estimation window length (rows)")
    p_fc.add_argument("--subperiods", default=None,
                      help="1-based inclusive target ranges, e.g. 130:150,151:170")
    p_fc.add_argument("--forecasts-csv", dest="forecasts_csv", default=None)
    p_fc.add_argument("--flags-csv", dest="flags_csv", default=None,
                      help="CSV of (target_row, window_row) outlier flags")
    p_fc.add_argument("--out", default=None)
    p_fc.add_argument("--threads", type=int, default=1)
    p_fc.set_defaults(func=cmd_forecast)

    p_sim = subs.add_parser("simulate", help="run a replication study")
    p_sim.add_argument("--config", required=True, help="JSON configuration file")
    p_sim.add_argument("--out", default=None, help="output prefix (default 'simulation')")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--threads", type=int, default=None,
                       help="worker processes (default: the config's threads, or 1)")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, DimensionError, WindowTooLarge) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (TrimregError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
