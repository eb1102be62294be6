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
import os
import sys
from dataclasses import MISSING, asdict, fields
from functools import partial
from typing import get_type_hints

import numpy as np

from . import __version__
from .classic import fit_lad, fit_ols, initial_beta
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
from .l1 import PSI_GRID_SIZE, fit_huber, fit_l1, select_psi_bic
from .linalg import Dataset
from .oracle import N_LIMIT

# The method spec: the flags each (--method, mode) reads, with their defaults;
# the mode is "fixed", "auto" (--auto) or "tune". A flag a run does not read
# is a usage error, and a --k-max left None is worked out from N.
REQUIRED = "required"
METHOD_SPEC = {
    ("l0", "fixed"): {"k": REQUIRED, "l": 2},
    ("l0", "auto"): {"l": 2, "k_max": None},
    ("l0", "tune"): {"l": 1, "k_max": None},
    ("l1", "fixed"): {"psi": REQUIRED},
    ("l1", "auto"): {},
    ("l1", "tune"): {"grid_size": PSI_GRID_SIZE},
    ("lad", "fixed"): {},
    ("ols", "fixed"): {},
    ("huber", "fixed"): {"psi": REQUIRED},
}


class UsageError(Exception):
    """Bad flag combination or invalid configuration value."""


def read_csv_dataset(path: str) -> tuple[Dataset, list[str]]:
    """Parse a CSV with header into a Dataset; errors carry row/column."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a BOM is dropped
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc
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


def _report_head(args, header: list[str]) -> dict:
    """The fields a report on a CSV opens with: the command, the version,
    the resolved invocation (every parsed flag) and the CSV's columns."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {"command": args.command, "version": __version__, "config": config,
            "columns": {"response": header[0], "regressors": header[1:]}}


def _same_file(a: str, b: str) -> bool:
    """Whether paths `a` and `b` name one file, under any spelling or link."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(source: str, outputs: list[tuple[str, str | None]]) -> None:
    """Usage error, raised before any fit, when an output (flag, path) is a
    directory or lies in none, or when two of a run's files name one: an
    output and the input `source`, which has been read, or two outputs. A
    run never writes over what it reads, nor two outputs into one file."""
    given = [(flag, path) for flag, path in outputs if path]
    for i, (flag, path) in enumerate(given):
        if os.path.isdir(path):
            raise UsageError(f"{flag}: {path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"{flag}: {path}: no such directory")
        if _same_file(path, source):
            raise UsageError(f"{flag}: {path} would overwrite the input {source}")
        for other_flag, other in given[:i]:
            if _same_file(path, other):
                raise UsageError(f"{flag}: {path} names the same file as {other_flag}")


# ---------------------------------------------------------------------------
# fit / tune
# ---------------------------------------------------------------------------


def _check_method_flags(args) -> str:
    """Check the method flags of `args` against METHOD_SPEC, fill in the defaults
    of those the run reads and was not given, and return the run's mode."""
    mode = "tune" if args.command == "tune" else "auto" if args.auto else "fixed"
    run = f"{args.command} --method {args.method}"
    if (args.method, mode) not in METHOD_SPEC:
        raise UsageError(f"--auto is not read by {run}")
    reads = METHOD_SPEC[(args.method, mode)]
    run += " --auto" if mode == "auto" else ""
    for name in ("k", "psi", "l", "k_max", "grid_size"):
        # None where the command has no such flag: no spec row reads it there
        flag, value = "--" + name.replace("_", "-"), vars(args).get(name)
        if name not in reads:
            if value is not None:
                raise UsageError(f"{flag} is not read by {run}")
        elif value is None:
            if reads[name] is REQUIRED:
                auto = " or --auto" if (args.method, "auto") in METHOD_SPEC else ""
                raise UsageError(f"{run} requires {flag}{auto}")
            setattr(args, name, reads[name])
    if vars(args).get("psi") is not None and not 0 < args.psi < math.inf:
        raise UsageError(f"--psi must lie in (0, inf), not {args.psi}")
    if vars(args).get("grid_size") is not None and args.grid_size < 1:
        raise UsageError("--grid-size must be at least 1")
    return mode


def _check_budgets(args, mode: str, n: int, q: int) -> None:
    """Range checks of the --k and --k-max a run reads, for N rows and q coefficients."""
    reads = METHOD_SPEC[(args.method, mode)]
    if "k" in reads and not 0 <= args.k <= n - q:
        raise UsageError(f"--k must lie in [0, N - q] = [0, {n - q}]")
    if "k_max" in reads:
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


def _bic_trace(sol) -> list[dict]:
    """The report entries {k|psi, objective, bic, n_outliers} of the BIC
    selection that chose `sol`, one per scored budget or psi."""
    param = sol.selection.param
    return [{param: v, "objective": obj, "bic": b, "n_outliers": m}
            for v, obj, b, m in sol.selection.trace]


def _solve(data: Dataset, args, mode: str) -> tuple:
    """Fit `args.method` to `data` in `mode`: the solution, its shifts and its
    tuning {k|psi: value}, None for ols and lad. Each fit is looked up in this
    module's globals when called. Overflow raises DegenerateFit, not a warning."""
    method = args.method
    with np.errstate(over="ignore"):
        if method in ("ols", "lad"):
            sol = (fit_ols if method == "ols" else fit_lad)(data)
            return sol, np.zeros(data.n_obs), None
        if mode == "fixed":
            if method == "l0":
                sol = fit_lcs(data, args.k, initial_beta(data), args.l)
                return sol, sol.alpha, {"k": sol.k}
            sol = (fit_huber if method == "huber" else fit_l1)(data, args.psi)
            return sol, sol.alpha, {"psi": sol.psi}
        if method == "l1":  # fit and forecast take no --grid-size
            size = getattr(args, "grid_size", PSI_GRID_SIZE)
            sol = select_psi_bic(data, initial_beta(data), size)
        else:
            K = _sweep_budget(args.k_max, data.n_obs, data.n_coef)
            search = fit_l0_auto if mode == "auto" else select_k_bic
            sol = search(data, initial_beta(data), K, args.l)
        param = sol.selection.param
        return sol, sol.alpha, {param: getattr(sol, param)}


def cmd_fit(args) -> int:
    mode = _check_method_flags(args)
    data, header = read_csv_dataset(args.input)
    _check_outputs(args.input, [("--out", args.out)])
    _check_budgets(args, mode, data.n_obs, data.n_coef)
    sol, alpha, tuning = _solve(data, args, mode)
    if mode == "auto":
        tuning.update(selected_by="bic", bic_trace=_bic_trace(sol))
    flagged = np.flatnonzero(alpha != 0.0)
    report = {
        **_report_head(args, header),
        "n_obs": data.n_obs,
        "beta": sol.beta,
        "objective": sol.objective,
        # ols, lad and huber report convergence; the L0 and L1 fits raise instead
        "converged": getattr(sol, "converged", True),
        "tuning": tuning,
        "outlier_rows": (flagged + 1).tolist(),
        "alpha": [{"row": int(i) + 1, "value": float(alpha[i])} for i in flagged],
    }
    write_report(report, args.out)
    return 0


def cmd_tune(args) -> int:
    mode = _check_method_flags(args)
    data, header = read_csv_dataset(args.input)
    _check_outputs(args.input, [("--out", args.out)])
    _check_budgets(args, mode, data.n_obs, data.n_coef)
    sol, _, selected = _solve(data, args, mode)
    report = {
        **_report_head(args, header),
        "trace": _bic_trace(sol),
        "selected": {**selected, "bic": sol.selection.score},
    }
    write_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def _forecast_one(y: np.ndarray, x: np.ndarray, args, mode: str, t: int) -> tuple[dict, list]:
    """Fit the method in `args` on rows [t-window, t-1] (0-based) and predict
    row t: the target's forecasts row, and the input rows (1-based) the fit
    flagged. A window whose fit fails is skipped, and its row says why."""
    window = args.window
    data = Dataset(y=y[t - window:t], x=x[t - window:t])
    row = {"target_row": t + 1, "actual": y[t], "forecast": np.nan, "sq_error": np.nan,
           "skipped": True, "n_flagged": 0, "reason": ""}
    try:
        sol, alpha, _ = _solve(data, args, mode)
    except (TrimregError, np.linalg.LinAlgError) as exc:
        return {**row, "reason": str(exc)}, []
    xt = np.concatenate([[1.0], x[t]])
    fc = float(xt @ sol.beta)
    flagged = (np.flatnonzero(alpha != 0.0) + (t - window + 1)).tolist()
    row.update(forecast=fc, sq_error=(y[t] - fc) ** 2, skipped=False, n_flagged=len(flagged))
    return row, flagged


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


def _mpse(rows: list[dict]) -> tuple[float, int]:
    """The mean squared prediction error over the fitted forecasts rows of
    `rows` (NaN if none), and how many there are."""
    sq = [r["sq_error"] for r in rows if not r["skipped"]]
    return (float(np.mean(sq)) if sq else np.nan), len(sq)


def cmd_forecast(args) -> int:
    mode = _check_method_flags(args)
    _check_threads(args.threads)
    data, header = read_csv_dataset(args.input)
    _check_outputs(args.input, [("--out", args.out), ("--forecasts-csv", args.forecasts_csv),
                                ("--flags-csv", args.flags_csv)])
    T = data.n_obs
    d = data.x.shape[1]
    if args.window < d + 2:
        raise UsageError(f"--window must be at least d+2 = {d + 2}")
    if args.window >= T:
        raise WindowTooLarge(f"window {args.window} leaves no targets in {T} rows")
    _check_budgets(args, mode, args.window, d + 1)
    # targets are rows window+1..T, 1-based
    spans = _parse_subperiods(args.subperiods, args.window + 1, T) if args.subperiods else []
    windows = process_map(partial(_forecast_one, data.y, data.x, args, mode),
                          range(args.window, T), args.threads)
    rows = [row for row, _ in windows]
    if args.forecasts_csv:
        write_csv(args.forecasts_csv, rows)
    if args.flags_csv:
        flag_rows = [{"target_row": row["target_row"], "window_row": f}
                     for row, flagged in windows for f in flagged]
        write_csv(args.flags_csv, flag_rows, fieldnames=["target_row", "window_row"])
    mpse, n_fitted = _mpse(rows)
    subperiods = []
    for lo, hi in spans:
        sub_mpse, n = _mpse([r for r in rows if lo <= r["target_row"] <= hi])
        subperiods.append({"start": lo, "end": hi, "mpse": sub_mpse, "n_targets": n})
    report = {
        **_report_head(args, header),
        "n_obs": T,
        "window": args.window,
        "n_targets": len(rows),
        "n_skipped": len(rows) - n_fitted,
        "mpse": mpse,
        "subperiods": subperiods,
        "forecasts": rows,
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
        with open(path, encoding="utf-8-sig") as fh:  # a BOM is dropped
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc
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
    oracle_k = raw.get("oracle_k")
    if oracle_k is not None:
        if oracle_k < 0:
            raise UsageError("oracle_k: must be an integer >= 0 or null")
        if cfg.N > N_LIMIT:
            raise UsageError(f"oracle_k: the exact solver takes N <= {N_LIMIT} rows, not N = {cfg.N}")
        budget = oracle_k or cfg.k0  # 0: each replication's true count, at most floor(p*N)
        if cfg.N - budget < cfg.n_coef:
            raise UsageError(
                f"oracle_k: a budget of {budget} keeps {cfg.N - budget} of N = {cfg.N} rows, "
                f"fewer than the design's {cfg.n_coef} coefficients"
            )
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
        "R": raw["R"], "estimators": est, "oracle_k": oracle_k,
        "threads": raw.get("threads", 1) if threads is None else threads,
    }


def cmd_simulate(args) -> int:
    _check_threads(args.threads)
    cfg, run = _load_sim_config(args.config, args.seed, args.threads)
    prefix = args.out or "simulation"
    _check_outputs(args.config, [("--out", prefix + suffix)
                                 for suffix in ("_summary.csv", "_records.csv", ".json")])
    estimators = [ESTIMATOR_FACTORIES[name]() for name in run["estimators"]]
    summaries, records = run_monte_carlo_records(
        cfg, estimators, run["R"], oracle_k=run["oracle_k"], threads=run["threads"],
    )
    write_csv(prefix + "_summary.csv", summary_rows(cfg, summaries))
    write_csv(prefix + "_records.csv", record_rows(cfg, records))
    report = {
        "command": "simulate",
        "version": __version__,
        "config": {**asdict(cfg), **run},
        "summaries": {name: asdict(s) for name, s in summaries.items()},
    }
    write_report(report, prefix + ".json")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_method_flags(sub) -> None:
    sub.add_argument("--method", choices=[m for m, mode in METHOD_SPEC if mode == "fixed"],
                     required=True)
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
    p_tune.add_argument("--method", choices=[m for m, mode in METHOD_SPEC if mode == "tune"],
                        required=True)
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
