import ast
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trimreg
from trimreg import dgp
from trimreg.cli import main, read_csv_dataset, write_report
from trimreg.errors import ParseError, TooFewInliers


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def linear_csv(tmp_path):
    path = tmp_path / "linear.csv"
    write_csv(path, ["y", "x"], [[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
    return str(path)


@pytest.fixture
def outlier_csv(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    y = 0.5 + 2.0 * x + 0.3 * rng.normal(size=30)
    y[11] += 30.0
    path = tmp_path / "outlier.csv"
    write_csv(path, ["y", "x"], np.column_stack([y, x]).tolist())
    return str(path)


@pytest.fixture
def two_regressor_csv(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 2))
    y = 0.5 + x @ np.array([1.0, -1.0]) + 0.3 * rng.normal(size=40)
    path = tmp_path / "two.csv"
    write_csv(path, ["y", "x1", "x2"], np.column_stack([y, x]).tolist())
    return str(path)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def exit_code(argv):
    """`main`'s return code, or the code of an argparse usage exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# 40 rows, q = 3 coefficients: --k in [0, 37], --k-max in [1, 20];
# forecast windows of 20 rows: --k in [0, 17], --k-max in [1, 10]
@pytest.mark.parametrize("argv, flag", [
    (["fit", "--method", "l0", "--k", "-1"], "--k"),
    (["fit", "--method", "l0", "--k", "38"], "--k"),
    (["fit", "--method", "l0", "--auto", "--k-max", "30"], "--k-max"),
    (["fit", "--method", "l0", "--auto", "--k-max", "0"], "--k-max"),
    (["tune", "--method", "l0", "--k-max", "30"], "--k-max"),
    (["tune", "--method", "l0", "--k-max", "0"], "--k-max"),
    (["tune", "--method", "l1", "--grid-size", "0"], "--grid-size"),
    (["forecast", "--method", "l0", "--k", "18", "--window", "20"], "--k"),
    (["forecast", "--method", "l0", "--auto", "--k-max", "11", "--window", "20"], "--k-max"),
    (["fit", "--method", "ols", "--seed", "1"], "--seed"),
    (["fit", "--method", "ols", "--threads", "2"], "--threads"),
    (["tune", "--method", "l0", "--seed", "1"], "--seed"),
    (["tune", "--method", "l0", "--threads", "2"], "--threads"),
    (["forecast", "--method", "ols", "--window", "20", "--seed", "1"], "--seed"),
    (["forecast", "--method", "ols", "--window", "20", "--threads", "0"], "--threads"),
    (["forecast", "--method", "ols", "--window", "20", "--threads", "-3"], "--threads"),
    (["fit", "--method", "huber", "--psi", "0"], "--psi"),
    (["fit", "--method", "huber", "--psi", "-1"], "--psi"),
    (["fit", "--method", "huber", "--psi", "nan"], "--psi"),
    (["fit", "--method", "l1", "--psi", "inf"], "--psi"),
    (["forecast", "--method", "l1", "--psi", "-2", "--window", "30"], "--psi"),
    # --k-max means something only to the --auto budget sweep
    (["fit", "--method", "l1", "--auto", "--k-max", "3"], "--k-max"),
    (["fit", "--method", "huber", "--psi", "1", "--k-max", "3"], "--k-max"),
    (["fit", "--method", "lad", "--k-max", "3"], "--k-max"),
    (["fit", "--method", "ols", "--k-max", "3"], "--k-max"),
    (["fit", "--method", "l0", "--k", "2", "--k-max", "3"], "--k-max"),
    (["forecast", "--method", "l1", "--psi", "1", "--window", "20", "--k-max", "3"], "--k-max"),
    (["forecast", "--method", "ols", "--window", "20", "--k-max", "3"], "--k-max"),
    (["forecast", "--method", "l0", "--k", "2", "--window", "20", "--k-max", "3"], "--k-max"),
    (["tune", "--method", "l1", "--k-max", "3"], "--k-max"),
    # --l is the swap order of the l0 searches, which no other method runs
    (["fit", "--method", "ols", "--l", "1"], "--l"),
    (["fit", "--method", "lad", "--l", "2"], "--l"),
    (["fit", "--method", "huber", "--psi", "1", "--l", "1"], "--l"),
    (["fit", "--method", "l1", "--psi", "1", "--l", "1"], "--l"),
    (["fit", "--method", "l1", "--auto", "--l", "2"], "--l"),
    (["forecast", "--method", "ols", "--window", "20", "--l", "1"], "--l"),
    (["forecast", "--method", "l1", "--psi", "1", "--window", "20", "--l", "2"], "--l"),
    (["tune", "--method", "l1", "--l", "2"], "--l"),
    # --grid-size is the size of the l1 psi grid, which the l0 sweep never reads
    (["tune", "--method", "l0", "--grid-size", "5"], "--grid-size"),
    (["tune", "--method", "l0", "--grid-size", "30"], "--grid-size"),
    (["tune", "--method", "l0", "--k-max", "5", "--grid-size", "0"], "--grid-size"),
])
def test_out_of_range_or_unknown_flags_are_usage_errors(two_regressor_csv, argv, flag, capsys):
    argv = [argv[0], two_regressor_csv, *argv[1:]]
    assert exit_code(argv) == 2
    assert flag in capsys.readouterr().err


def _regressor_csv(tmp_path, n, d):
    rng = np.random.default_rng(n + d)
    x = rng.normal(size=(n, d))
    path = tmp_path / f"n{n}_d{d}.csv"
    write_csv(path, ["y"] + [f"x{j}" for j in range(d)],
              np.column_stack([x.sum(axis=1) + rng.normal(size=n), x]).tolist())
    return str(path)


# every budget keeps q + 1 rows: --k-max lies in [1, min(N // 2, N - q - 1)]
@pytest.mark.parametrize("n, d, argv, code, needle", [
    (1, 0, ["fit", "--method", "l0", "--auto"], 3, "N = 1 rows and q = 1"),
    (1, 1, ["fit", "--method", "l0", "--auto"], 3, "N = 1 rows and q = 2"),
    (1, 0, ["tune", "--method", "l0"], 3, "N = 1 rows and q = 1"),
    (1, 1, ["tune", "--method", "l0", "--k-max", "1"], 3, "N = 1 rows and q = 2"),
    (3, 2, ["fit", "--method", "l0", "--auto"], 3, "N = 3 rows and q = 3"),
    (8, 4, ["fit", "--method", "l0", "--auto", "--k-max", "4"], 2, "--k-max"),
    (8, 4, ["tune", "--method", "l0", "--k-max", "4"], 2, "--k-max"),
    (30, 4, ["forecast", "--method", "l0", "--auto", "--window", "7", "--k-max", "3"], 2,
     "--k-max"),
    # fewer rows than coefficients is a data error for every method and
    # command, found as the CSV is read
    (1, 1, ["fit", "--method", "ols"], 3, "N = 1 rows and q = 2"),
    (1, 1, ["fit", "--method", "lad"], 3, "N = 1 rows and q = 2"),
    (1, 1, ["fit", "--method", "huber", "--psi", "1"], 3, "N = 1 rows and q = 2"),
    (1, 1, ["fit", "--method", "l1", "--auto"], 3, "N = 1 rows and q = 2"),
    (1, 1, ["fit", "--method", "l1", "--psi", "1"], 3, "N = 1 rows and q = 2"),
    (1, 1, ["fit", "--method", "l0", "--k", "0"], 3, "N = 1 rows and q = 2"),
    (1, 1, ["tune", "--method", "l1"], 3, "N = 1 rows and q = 2"),
    (1, 1, ["forecast", "--method", "ols", "--window", "3"], 3, "N = 1 rows and q = 2"),
    # a window of q + 1 rows leaves no budget with a residual degree of freedom
    (30, 4, ["forecast", "--method", "l0", "--auto", "--window", "6"], 3,
     "no outlier budget fits"),
])
def test_budgets_that_keep_fewer_than_q_rows_are_refused(tmp_path, capsys, n, d, argv,
                                                         code, needle):
    out = tmp_path / "report.json"
    argv = [argv[0], _regressor_csv(tmp_path, n, d), *argv[1:], "--out", str(out)]
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert needle in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_default_budget_is_clamped_to_keep_q_rows(tmp_path):
    out = str(tmp_path / "report.json")
    # N = 8, q = 6: N // 4 = 2 is clamped to the cap N - q - 1 = 1;
    # N = 8, q = 4: the cap N - q - 1 = 3 is accepted
    for d, extra, ks in ((5, [], [1]), (3, ["--k-max", "3"], [1, 2, 3])):
        path = _regressor_csv(tmp_path, 8, d)
        assert main(["tune", path, "--method", "l0", *extra, "--out", out]) == 0
        assert [t["k"] for t in load_json(out)["trace"]] == ks


def test_config_shows_the_resolved_swap_order(two_regressor_csv, tmp_path):
    # l0 runs fill in --l (2 for fit and forecast, 1 for tune); no other method has one
    out = str(tmp_path / "report.json")
    for argv, want in (
        (["fit", "--method", "l0", "--k", "2"], 2),
        (["fit", "--method", "l0", "--auto", "--l", "1"], 1),
        (["tune", "--method", "l0"], 1),
        (["forecast", "--method", "l0", "--k", "2", "--window", "38"], 2),
        (["fit", "--method", "ols"], None),
        (["tune", "--method", "l1", "--grid-size", "3"], None),
    ):
        assert main([argv[0], two_regressor_csv, *argv[1:], "--out", out]) == 0
        assert load_json(out)["config"]["l"] == want


def test_config_shows_the_resolved_grid_size(two_regressor_csv, tmp_path):
    # only the l1 psi grid has a size: 30 unless given, null for l0
    out = str(tmp_path / "report.json")
    for argv, want in (
        (["--method", "l1"], 30),
        (["--method", "l1", "--grid-size", "4"], 4),
        (["--method", "l0"], None),
    ):
        assert main(["tune", two_regressor_csv, *argv, "--out", out]) == 0
        assert load_json(out)["config"]["grid_size"] == want


@pytest.mark.parametrize("method", ["l0", "l1"])
def test_fit_auto_reports_the_trace_tune_reports(outlier_csv, tmp_path, method):
    fit_out, tune_out = str(tmp_path / "fit.json"), str(tmp_path / "tune.json")
    assert main(["fit", outlier_csv, "--method", method, "--auto", "--out", fit_out]) == 0
    assert main(["tune", outlier_csv, "--method", method, "--out", tune_out]) == 0
    fit_trace = load_json(fit_out)["tuning"]["bic_trace"]
    tune_trace = load_json(tune_out)["trace"]
    assert len(fit_trace) > 1
    assert fit_trace == tune_trace


# the fits each (command, --method, mode) calls through trimreg.cli's globals, in
# order, once per fit; the mode is "fixed", "auto" (with --auto) or "tune"
CLI_FITS = {
    ("fit", "ols", "fixed"): ["fit_ols"],
    ("fit", "lad", "fixed"): ["fit_lad"],
    ("fit", "huber", "fixed"): ["fit_huber"],
    ("fit", "l1", "fixed"): ["fit_l1"],
    ("fit", "l1", "auto"): ["initial_beta", "select_psi_bic"],
    ("fit", "l0", "fixed"): ["initial_beta", "fit_lcs"],
    ("fit", "l0", "auto"): ["initial_beta", "fit_l0_auto"],
    ("tune", "l0", "tune"): ["initial_beta", "select_k_bic"],
    ("tune", "l1", "tune"): ["initial_beta", "select_psi_bic"],
}
CLI_FITS.update({("forecast", m, mode): fits
                 for (command, m, mode), fits in list(CLI_FITS.items()) if command == "fit"})
# the value each method flag takes below when it is given
FLAG_VALUES = {"--k": "2", "--psi": "1", "--l": "1", "--k-max": "3", "--grid-size": "5"}
REQUIRED_FLAGS = {("l0", "fixed"): ["--k"], ("l1", "fixed"): ["--psi"],
                  ("huber", "fixed"): ["--psi"]}


def test_forecast_fits_through_the_cli_module_global(tmp_path, monkeypatch):
    # a timing hook replaces trimreg.cli.fit_l0_auto and expects one call per
    # window, and the span tracer wraps the fits where cli binds them: every
    # command, method and mode fits through those globals, looked up per call
    from trimreg import cli
    from trimreg.dgp import DgpConfig, generate

    window, windows = 30, 4
    train = generate(DgpConfig(dgp=3, N=window + windows, p=0.1, seed=5, n_test=1)).train
    path = tmp_path / "series.csv"
    write_csv(path, ["y"] + [f"x{j}" for j in range(1, 6)],
              np.column_stack([train.y, train.x]).tolist())
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append((name, args[0].n_obs))
            return real(*args, **kwargs)
        return call

    for name in {f for fits in CLI_FITS.values() for f in fits}:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    out = str(tmp_path / "report.json")
    for (command, method, mode), fits in CLI_FITS.items():
        argv = [command, str(path), "--method", method, "--out", out]
        argv += ["--auto"] if mode == "auto" else []
        argv += [a for f in REQUIRED_FLAGS.get((method, mode), []) for a in (f, FLAG_VALUES[f])]
        argv += ["--window", str(window)] if command == "forecast" else []
        calls.clear()
        assert main(argv) == 0, argv
        if command == "forecast":
            report = load_json(out)
            assert report["n_targets"] == windows and report["n_skipped"] == 0
            assert calls == [(f, window) for f in fits] * windows, argv
        else:
            assert calls == [(f, window + windows) for f in fits], argv


@pytest.mark.parametrize("command", ["fit", "forecast", "tune"])
def test_each_method_flag_is_read_or_refused_and_its_default_shown(two_regressor_csv,
                                                                   tmp_path, capsys, command):
    # which method flags each (method, mode) reads, and the value its
    # report's config shows: the default of a flag read but not given, or
    # FLAG_VALUES' value of a required one; a flag not read is a usage
    # error that names it, as is a required flag left out
    reads = {
        ("l0", "fixed"): {"--k": 2, "--l": 2},
        ("l0", "auto"): {"--l": 2, "--k-max": None},
        ("l0", "tune"): {"--l": 1, "--k-max": None},
        ("l1", "fixed"): {"--psi": 1.0},
        ("l1", "auto"): {},
        ("l1", "tune"): {"--grid-size": 30},
        ("lad", "fixed"): {},
        ("ols", "fixed"): {},
        ("huber", "fixed"): {"--psi": 1.0},
    }
    flags = (["--k-max", "--l", "--grid-size"] if command == "tune"
             else ["--k", "--psi", "--l", "--k-max"])
    modes = ["tune"] if command == "tune" else ["fixed", "auto"]
    methods = ["l0", "l1"] if command == "tune" else ["l0", "l1", "lad", "ols", "huber"]
    out = tmp_path / "report.json"
    for method in methods:
        for mode in modes:
            base = [command, two_regressor_csv, "--method", method, "--out", str(out)]
            base += ["--auto"] if mode == "auto" else []
            base += ["--window", "36"] if command == "forecast" else []
            if (method, mode) not in reads:
                assert exit_code(base) == 2
                assert "--auto" in capsys.readouterr().err
                continue
            required = REQUIRED_FLAGS.get((method, mode), [])
            for flag in required:
                assert exit_code(base) == 2, (base, flag)
                assert flag in capsys.readouterr().err
            base += [a for f in required for a in (f, FLAG_VALUES[f])]
            for flag in flags:
                if flag not in reads[(method, mode)]:
                    assert exit_code(base + [flag, FLAG_VALUES[flag]]) == 2, (base, flag)
                    assert flag in capsys.readouterr().err
            assert not out.exists()
            assert main(base) == 0
            config = load_json(out)["config"]
            for flag in flags:
                want = reads[(method, mode)].get(flag)
                assert config[flag[2:].replace("-", "_")] == want, (base, flag)
            out.unlink()


def test_huber_fit_and_forecast_report_the_huber_fit(outlier_csv, tmp_path):
    from trimreg.l1 import fit_huber
    from trimreg.linalg import Dataset

    data, _ = read_csv_dataset(outlier_csv)
    hub = fit_huber(data, 1.0)
    beta = hub.beta
    flagged = np.flatnonzero(np.abs(data.y - data.design @ beta) > 1.0)
    out = str(tmp_path / "fit.json")
    assert main(["fit", outlier_csv, "--method", "huber", "--psi", "1", "--out", out]) == 0
    report = load_json(out)
    assert report["beta"] == beta.tolist()
    assert report["tuning"] == {"psi": 1.0}
    assert report["outlier_rows"] == (flagged + 1).tolist() and 12 in report["outlier_rows"]
    # the report's shifts are the fit's own, bit for bit
    values = np.array([a["value"] for a in report["alpha"]])
    assert values.tobytes() == hub.alpha[flagged].tobytes()
    assert np.count_nonzero(hub.alpha) == len(flagged)
    window, flags = 20, str(tmp_path / "flags.csv")
    assert main(["forecast", outlier_csv, "--method", "huber", "--psi", "1",
                 "--window", str(window), "--flags-csv", flags, "--out", out]) == 0
    report = load_json(out)
    with open(flags) as fh:
        hits = [(int(r["target_row"]), int(r["window_row"])) for r in csv.DictReader(fh)]
    want_hits = []
    for fc in report["forecasts"]:
        t = fc["target_row"] - 1  # 0-based
        rows = slice(t - window, t)
        beta = fit_huber(Dataset(y=data.y[rows], x=data.x[rows]), 1.0).beta
        assert fc["forecast"] == float(data.design[t] @ beta)
        r = data.y[rows] - data.design[rows] @ beta
        want_hits += [(t + 1, t - window + i + 1) for i in np.flatnonzero(np.abs(r) > 1.0)]
        assert fc["n_flagged"] == int(np.sum(np.abs(r) > 1.0))
    assert hits == want_hits and hits


def test_huber_reports_an_unconverged_fit_where_l1_fails(outlier_csv, tmp_path, monkeypatch,
                                                        capsys):
    # the two convergence policies of the one shift alternation, at its cap
    from trimreg import l1

    monkeypatch.setattr(l1, "SHIFT_MAX_ITER", 2)
    out = tmp_path / "fit.json"
    assert main(["fit", outlier_csv, "--method", "huber", "--psi", "1", "--out", str(out)]) == 0
    assert load_json(out)["converged"] is False
    out.unlink()
    assert main(["fit", outlier_csv, "--method", "l1", "--psi", "1", "--out", str(out)]) == 4
    stdout, err = capsys.readouterr()
    assert err.splitlines() == ["numerical failure: fit_l1 did not converge in 2 iterations"]
    assert not out.exists()


# the names that compute shifts or Huber losses; the fits build their own shifts
SHIFT_NAMES = {"soft_threshold_alpha", "huber_rho", "_shifts_and_rho"}


def _shift_names(tree):
    """(name, line) of each use of a SHIFT_NAMES name: imported, read or bound."""
    for node in ast.walk(tree):
        for field in ("id", "attr", "name"):  # of a Name, an Attribute, an import or a def
            if getattr(node, field, None) in SHIFT_NAMES:
                yield getattr(node, field), node.lineno


def test_the_cli_computes_no_shifts():
    seen = ("from .l1 import huber_rho, soft_threshold_alpha as st\n"
            "def f(sol, r):\n    a = l1._shifts_and_rho(r, 1.0)\n    return sol.alpha\n")
    assert sorted(_shift_names(ast.parse(seen))) == [
        ("_shifts_and_rho", 3), ("huber_rho", 1), ("soft_threshold_alpha", 1)]
    # nor does the comparators module: Huber is the L1 fit, in `l1`
    for name in ("cli.py", "classic.py"):
        path = Path(trimreg.__file__).parent / name
        assert list(_shift_names(ast.parse(path.read_text(encoding="utf-8")))) == [], name


def test_forecast_skips_a_window_whose_fit_fails(tmp_path):
    # the first window's regressor is constant, so its design is singular
    from trimreg.classic import fit_ols
    from trimreg.errors import TrimregError
    from trimreg.linalg import Dataset

    rng = np.random.default_rng(8)
    x = np.concatenate([[0.5] * 6, rng.normal(size=10)])
    y = 1.0 + x + 0.1 * rng.normal(size=16)
    path = tmp_path / "series.csv"
    write_csv(path, ["y", "x"], np.column_stack([y, x]).tolist())
    with pytest.raises(TrimregError) as failure:
        fit_ols(Dataset(y=y[:6], x=x[:6, None]))
    reason = str(failure.value)
    assert "pivot" in reason
    out, fc = str(tmp_path / "fc.json"), str(tmp_path / "fc.csv")
    assert main(["forecast", str(path), "--method", "ols", "--window", "6",
                 "--forecasts-csv", fc, "--out", out]) == 0
    report = load_json(out)
    assert report["n_targets"] == 10 and report["n_skipped"] == 1
    first, *rest = report["forecasts"]
    assert first == {"target_row": 7, "actual": y[6], "forecast": None, "sq_error": None,
                     "skipped": True, "n_flagged": 0, "reason": reason}
    assert not any(r["skipped"] or r["reason"] for r in rest)
    assert report["mpse"] == np.mean([r["sq_error"] for r in rest])
    with open(fc) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["target_row", "actual", "forecast", "sq_error", "skipped",
                             "n_flagged", "reason"]
    assert [(r["skipped"], r["reason"]) for r in rows] == [("True", reason)] + [("False", "")] * 9


def test_bad_subperiods_are_refused_before_any_window_is_fitted(tmp_path, monkeypatch,
                                                                capsys):
    from trimreg import cli
    from trimreg.dgp import DgpConfig, generate

    sample = generate(DgpConfig(dgp=3, N=40, p=0.1, seed=2))
    path = tmp_path / "series.csv"
    write_csv(path, ["y"] + [f"x{j}" for j in range(1, sample.train.x.shape[1] + 1)],
              np.column_stack([sample.train.y, sample.train.x]).tolist())
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    solve = cli._solve
    monkeypatch.setattr(cli, "_solve", counted)
    argv = ["forecast", str(path), "--method", "l0", "--auto", "--window", "30",
            "--forecasts-csv", str(tmp_path / "fc.csv"), "--flags-csv",
            str(tmp_path / "flags.csv"), "--out", str(tmp_path / "fc.json")]
    assert main(argv + ["--subperiods", "bad"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: subperiods: ")
    assert len(calls) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]
    assert main(argv + ["--subperiods", "31:40"]) == 0
    assert len(calls) == 10


@pytest.mark.parametrize("spans", ["7", "a:b", "1:2:3", "30:40,", "50:45", "25:30",
                                   "26:71", "0:3"])
def test_bad_subperiods_are_usage_errors(level_shift_csv, tmp_path, capsys, spans):
    # 70 rows and a 25-row window: targets 26..70
    out = tmp_path / "fc.json"
    assert exit_code(["forecast", level_shift_csv, "--method", "ols", "--window", "25",
                      "--subperiods", spans, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: subperiods: ")
    assert not out.exists()


def test_report_is_strict_json(tmp_path):
    out = tmp_path / "report.json"
    write_report({"nan": float("nan"), "inf": [np.inf, -np.inf, 1.5],
                  "array": np.array([np.nan, 2.0]), "scalar": np.float64(np.nan)}, str(out))

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report == {"nan": None, "inf": [None, None, 1.5], "array": [None, 2.0],
                      "scalar": None}


def test_fit_ols_perfect_line(linear_csv, tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["fit", linear_csv, "--method", "ols", "--out", out]) == 0
    report = load_json(out)
    assert report["objective"] == pytest.approx(0.0, abs=1e-18)
    assert report["beta"] == pytest.approx([1.0, 1.0], abs=1e-10)
    assert report["outlier_rows"] == []
    assert report["version"]
    assert report["config"]["method"] == "ols"


def test_fit_l0_auto_flags_planted_row(outlier_csv, tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["fit", outlier_csv, "--method", "l0", "--auto", "--out", out]) == 0
    report = load_json(out)
    assert 12 in report["outlier_rows"]  # 1-based
    assert report["tuning"]["selected_by"] == "bic"
    assert any(t["k"] == report["tuning"]["k"] for t in report["tuning"]["bic_trace"])
    flagged = {a["row"] for a in report["alpha"]}
    assert flagged == set(report["outlier_rows"])


@pytest.mark.parametrize("l", ["1", "2"])
def test_fit_l0_at_budget_zero_reports_the_ols_fit(outlier_csv, tmp_path, l):
    ols, l0 = str(tmp_path / "ols.json"), str(tmp_path / "l0.json")
    assert main(["fit", outlier_csv, "--method", "ols", "--out", ols]) == 0
    assert main(["fit", outlier_csv, "--method", "l0", "--k", "0", "--l", l, "--out", l0]) == 0
    ols, l0 = load_json(ols), load_json(l0)
    assert l0["beta"] == ols["beta"] and l0["objective"] == ols["objective"]
    assert l0["outlier_rows"] == [] and l0["alpha"] == []


def test_fit_runs_under_python_optimize(outlier_csv, tmp_path):
    # the invariant checks are plain code, not asserts that -O strips
    src = str(Path(trimreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "trimreg", "fit", outlier_csv,
         "--method", "l0", "--auto", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert 12 in load_json(out)["outlier_rows"]


def _asserts(source):
    """Line of each `assert` statement in the source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_no_module_uses_assert():
    # `python -O` strips asserts, so an invariant check must be plain code
    assert _asserts("def f(x):\n    assert x > 0\n    return x\n") == [2]
    for path in sorted(Path(trimreg.__file__).parent.glob("*.py")):
        assert _asserts(path.read_text(encoding="utf-8")) == [], path.name


def test_fit_l0_with_psi_is_usage_error(linear_csv, capsys):
    rc = main(["fit", linear_csv, "--method", "l0", "--k", "1", "--psi", "0.5"])
    assert rc == 2
    assert "--psi" in capsys.readouterr().err


def test_fit_l1_needs_psi_or_auto(linear_csv):
    assert main(["fit", linear_csv, "--method", "l1"]) == 2
    assert main(["fit", linear_csv, "--method", "huber"]) == 2


def test_fit_missing_file(tmp_path):
    rc = main(["fit", str(tmp_path / "nope.csv"), "--method", "ols"])
    assert rc == 3


def test_fit_bad_cell(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    write_csv(path, ["y", "x"], [[1.0, 2.0], ["zap", 3.0]])
    rc = main(["fit", str(path), "--method", "ols"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "column 1" in err


def test_fit_numerical_failure_exit_code(tmp_path, capsys):
    # duplicated regressor column makes the design singular
    rng = np.random.default_rng(2)
    x = rng.normal(size=10)
    path = tmp_path / "singular.csv"
    write_csv(path, ["y", "x1", "x2"],
              np.column_stack([rng.normal(size=10), x, x]).tolist())
    rc = main(["fit", str(path), "--method", "ols"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "numerical" in err
    # the message names the problem and the duplicate column, at the smallest pivot
    assert "rank deficient: column 2 (0 = intercept) has pivot ratio" in err


def test_read_csv_requires_header_and_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_csv_dataset(str(path))
    path.write_text("y,x\n")
    with pytest.raises(ParseError):
        read_csv_dataset(str(path))


@pytest.mark.parametrize("text, needle", [
    ("\n1.0,2.0\n", "header row has no columns"),
    ("y,x\n1.0,2.0\n3.0,4.0,5.0\n", "row 3 has 3 columns, expected 2"),
    ("y,x\n1.0,2.0\nnan,4.0\n", "row 3, column 1: non-finite value"),
    ("y,x\n1.0,inf\n3.0,4.0\n", "row 2, column 2: non-finite value"),
    ("y,x\n1.0,2.0\n3.0,-inf\n", "row 3, column 2: non-finite value"),
    ("y,x\n1.0,2.0\n\xff,4.0\n", "not UTF-8 text"),
], ids=["blank-header", "ragged", "nan", "inf", "minus-inf", "not-utf8"])
def test_csv_data_errors_name_their_row_and_column(tmp_path, capsys, text, needle):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="latin-1")  # "\xff" is the byte 0xff
    assert main(["fit", str(path), "--method", "ols", "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"data error: {path}: {needle}"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


def test_a_byte_order_mark_is_read_like_the_plain_file(two_regressor_csv, tmp_path):
    bom = b"\xef\xbb\xbf"
    reports = []
    for name, head in (("plain", b""), ("bom", bom)):
        path, out = tmp_path / f"{name}.csv", str(tmp_path / f"{name}.json")
        path.write_bytes(head + Path(two_regressor_csv).read_bytes())
        assert main(["fit", str(path), "--method", "ols", "--out", out]) == 0
        report = load_json(out)
        del report["config"]["input"], report["config"]["out"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[1]["columns"] == {"response": "y", "regressors": ["x1", "x2"]}
    records = []
    cfg = {"dgp": 1, "N": 30, "p": 0.1, "R": 2, "n_test": 20, "estimators": ["ols", "l1"]}
    for name, head in (("plain", b""), ("bom", bom)):
        cfg_path, prefix = tmp_path / f"{name}.cfg", str(tmp_path / f"run-{name}")
        cfg_path.write_bytes(head + json.dumps(cfg).encode())
        assert main(["simulate", "--config", str(cfg_path), "--out", prefix]) == 0
        assert load_json(prefix + ".json")["config"]["R"] == 2
        records.append(_csv_rows_without_cpu(prefix + "_records.csv"))
    assert records[0] == records[1]


def test_a_constant_response_fails_both_bic_selections_alike(tmp_path, capsys):
    # every fit of a constant response is exact up to rounding: RSS = 0 on
    # y = 0, and on y = 1 either 0 (L0) or rounding noise near 1e-29 (L1),
    # so the BIC's log(RSS) has no value in either family
    zero, one = tmp_path / "zero.csv", tmp_path / "one.csv"
    write_csv(zero, ["y", "x"], [[0.0, float(i % 7)] for i in range(60)])
    write_csv(one, ["y"], [[1.0] for _ in range(60)])  # no regressor column
    out = tmp_path / "report.json"
    for path in (zero, one):
        for argv in (["fit", "--method", "l0", "--auto"], ["tune", "--method", "l0"],
                     ["fit", "--method", "l1", "--auto"], ["tune", "--method", "l1"]):
            assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 4, (path, argv)
            stdout, err = capsys.readouterr()
            assert stdout == "", argv
            assert err.splitlines() == [
                "numerical failure: residual sum of squares is zero up to rounding"], argv
            assert not out.exists()


def test_forecast_constant_series(tmp_path):
    path = tmp_path / "const.csv"
    write_csv(path, ["y", "x"], [[5.0, float(i % 3)] for i in range(20)])
    out = str(tmp_path / "fc.json")
    rc = main(["forecast", str(path), "--method", "ols", "--window", "8",
               "--out", out])
    assert rc == 0
    report = load_json(out)
    assert report["mpse"] == pytest.approx(0.0, abs=1e-16)
    assert report["n_targets"] == 12


def test_forecast_window_too_large(tmp_path):
    path = tmp_path / "short.csv"
    write_csv(path, ["y", "x"], [[1.0, 2.0]] * 6)
    assert main(["forecast", str(path), "--method", "ols", "--window", "6"]) == 3
    assert main(["forecast", str(path), "--method", "ols", "--window", "2"]) == 2


@pytest.fixture
def level_shift_csv(tmp_path):
    # a contaminated block inside the estimation windows of later targets
    rng = np.random.default_rng(9)
    T = 70
    x = rng.normal(size=T)
    y = 0.5 + x + 0.2 * rng.normal(size=T)
    y[30:36] += 8.0
    path = tmp_path / "shift.csv"
    write_csv(path, ["y", "x"], np.column_stack([y, x]).tolist())
    return str(path)


def test_forecast_level_shift_l0_beats_ols(level_shift_csv, tmp_path):
    window = 25
    out_l0 = str(tmp_path / "l0.json")
    out_ols = str(tmp_path / "ols.json")
    # post-shift targets whose windows contain the contaminated block
    sub = "37:61"
    assert main(["forecast", level_shift_csv, "--method", "l0", "--k", "6",
                 "--window", str(window), "--subperiods", sub,
                 "--out", out_l0]) == 0
    assert main(["forecast", level_shift_csv, "--method", "ols",
                 "--window", str(window), "--subperiods", sub,
                 "--out", out_ols]) == 0
    l0 = load_json(out_l0)["subperiods"][0]["mpse"]
    ols = load_json(out_ols)["subperiods"][0]["mpse"]
    assert l0 <= ols


def test_forecast_subperiod_aggregation(level_shift_csv, tmp_path):
    out = str(tmp_path / "fc.json")
    fc_csv = str(tmp_path / "fc.csv")
    assert main(["forecast", level_shift_csv, "--method", "ols",
                 "--window", "25", "--subperiods", "30:40,41:60",
                 "--forecasts-csv", fc_csv, "--out", out]) == 0
    report = load_json(out)
    with open(fc_csv) as fh:
        rows = list(csv.DictReader(fh))
    for span in report["subperiods"]:
        inside = [float(r["sq_error"]) for r in rows
                  if span["start"] <= int(r["target_row"]) <= span["end"]
                  and r["skipped"] == "False"]
        assert span["mpse"] == pytest.approx(np.mean(inside), rel=1e-12)
    # overall mpse equals the mean over all non-skipped targets
    all_sq = [float(r["sq_error"]) for r in rows if r["skipped"] == "False"]
    assert report["mpse"] == pytest.approx(np.mean(all_sq), rel=1e-12)


def test_forecast_flags_csv(level_shift_csv, tmp_path):
    flags = str(tmp_path / "flags.csv")
    assert main(["forecast", level_shift_csv, "--method", "l0", "--k", "6",
                 "--window", "25", "--flags-csv", flags, "--out",
                 str(tmp_path / "r.json")]) == 0
    with open(flags) as fh:
        rows = list(csv.DictReader(fh))
    hits = [(int(r["target_row"]), int(r["window_row"])) for r in rows if r["target_row"]]
    assert hits, "contaminated block should be flagged in some window"
    for target, wrow in hits:
        assert target - 25 <= wrow <= target - 1  # flag inside its window


def test_simulate_smoke_and_determinism(tmp_path):
    cfg = {
        "dgp": 1, "N": 30, "p": 0.1, "mu_alpha": 8, "sigma_alpha": 2,
        "seed": 5, "n_test": 50, "R": 1,
        "estimators": ["ols", "lad"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    prefix1 = str(tmp_path / "runA")
    prefix2 = str(tmp_path / "runB")
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix1]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix2]) == 0
    with open(prefix1 + "_records.csv") as fh:
        records = list(csv.DictReader(fh))
    assert sorted(r["estimator"] for r in records) == ["lad", "ols"]
    a = load_json(prefix1 + ".json")["summaries"]
    b = load_json(prefix2 + ".json")["summaries"]
    for name in a:
        for key in ("bias", "rmse", "prediction_error"):
            assert a[name][key] == b[name][key]


@pytest.mark.parametrize("N, oracle_k, code", [
    (201, 0, 2), (250, 3, 2), (250, None, 0), (30, 29, 2), (30, 27, 0),
])
def test_simulate_refuses_an_oracle_beyond_its_size_limit(tmp_path, capsys, N, oracle_k, code):
    # no replication could run the exact solver, so the comparison is refused:
    # past N_LIMIT, or with fewer kept rows than design 1's q = 3 coefficients
    cfg = {"dgp": 1, "N": N, "p": 0.1, "R": 1, "n_test": 10, "estimators": ["ols"],
           "oracle_k": oracle_k}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err.splitlines()
    if code == 2 and N > 200:
        assert err == [f"error: oracle_k: the exact solver takes N <= 200 rows, not N = {N}"]
    elif code == 2:
        assert err == [f"error: oracle_k: a budget of {oracle_k} keeps {N - oracle_k} of "
                       f"N = {N} rows, fewer than the design's 3 coefficients"]
    if code == 2:
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_simulate_survives_an_oracle_that_fails_in_every_replication(tmp_path, monkeypatch):
    # each exact solve raises, and each replication keeps its fits
    def fails(data, k, warm_start=None):
        raise TooFewInliers("solver refused this replication")

    monkeypatch.setattr(dgp, "best_subset_exact", fails)
    cfg = {"dgp": 1, "N": 30, "p": 0.1, "R": 2, "estimators": ["ols", "lad"],
           "oracle_k": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    prefix = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix]) == 0
    with open(prefix + "_records.csv") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 4
    assert all(r["failed"] == "False" for r in records)
    assert all(r["equal_oracle"] == "" and r["gap"] == "" for r in records)
    with open(prefix + "_summary.csv") as fh:
        assert sorted(r["estimator"] for r in csv.DictReader(fh)) == ["lad", "ols"]


def test_simulate_reduced_replication_bias_pattern(tmp_path):
    # endogenous design at reduced replication count: the unadjusted fit is
    # strongly negatively biased while the robust fits stay near zero
    cfg = {
        "dgp": 2, "N": 100, "p": 0.1, "rho": 5.0, "seed": 97, "n_test": 300,
        "R": 10, "estimators": ["l0", "l1", "lad", "ols"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    prefix = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix]) == 0
    summaries = load_json(prefix + ".json")["summaries"]
    assert summaries["ols"]["bias"] < -0.25
    for name in ("l0", "l1", "lad"):
        assert abs(summaries[name]["bias"]) < 0.15
        assert summaries[name]["rmse"] < summaries["ols"]["rmse"]


def test_simulate_invalid_p(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dgp": 1, "N": 30, "p": 1.5, "R": 1}))
    rc = main(["simulate", "--config", str(cfg_path)])
    assert rc == 2
    assert "p:" in capsys.readouterr().err


MISSING = object()  # a config field left out


@pytest.mark.parametrize("field, value", [
    ("seed", "abc"),
    ("mu_alpha", "x"),
    ("threads", "2"),
    ("threads", 0),
    ("oracle_k", 2.5),
    ("oracle_k", -3),
    ("n_test", 0),
    ("dgp", True),
    ("N", 30.0),
    ("estimators", [["ols"]]),
    ("estimators", ["ols", "ols"]),
    ("rho", float("nan")),
    ("mu_alpha", float("inf")),
    ("sigma_alpha", float("-inf")),
    ("extra", 1),
    ("R", 0),
    ("estimators", []),
    ("N", MISSING),
])
def test_simulate_config_type_and_range_errors(tmp_path, capsys, field, value):
    cfg = {"dgp": 1, "N": 30, "p": 0.1, "R": 1, "estimators": ["ols"], field: value}
    cfg = {k: v for k, v in cfg.items() if v is not MISSING}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    prefix = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_simulate_seed_flag_overrides_the_config(tmp_path):
    base = {"dgp": 1, "N": 30, "p": 0.1, "R": 2, "n_test": 20, "estimators": ["ols"]}
    records = {}
    for name, seed, flags in [("flag", 5, ["--seed", "9"]), ("file", 9, []), ("other", 5, [])]:
        cfg_path, prefix = tmp_path / f"{name}.cfg", str(tmp_path / name)
        cfg_path.write_text(json.dumps({**base, "seed": seed}))
        assert main(["simulate", "--config", str(cfg_path), "--out", prefix, *flags]) == 0
        assert load_json(prefix + ".json")["config"]["seed"] == (int(flags[1]) if flags else seed)
        records[name] = _csv_rows_without_cpu(prefix + "_records.csv")
    assert records["flag"] == records["file"] != records["other"]


@pytest.mark.parametrize("text, code, prefix", [
    (None, 3, "data error: "),
    ('{"dgp": 1,', 3, "data error: "),
    ("[1, 2]", 2, "error: config root must be a JSON object"),
    ('{"dgp": 1, "N": "\xff"}', 3, "data error: "),
], ids=["missing-file", "invalid-json", "non-object-root", "not-utf8"])
def test_unreadable_simulate_configs_are_refused(tmp_path, capsys, text, code, prefix):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text, encoding="latin-1")  # "\xff" is the byte 0xff
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)
    assert [p.name for p in tmp_path.iterdir()] == ([] if text is None else ["cfg.json"])


def test_simulate_threads_flag_is_checked_and_overrides_the_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dgp": 1, "N": 30, "p": 0.1, "R": 1, "estimators": ["ols"], "threads": 2,
    }))
    prefix = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix,
                 "--threads", "-4"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix,
                 "--threads", "1"]) == 0
    assert load_json(prefix + ".json")["config"]["threads"] == 1
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix]) == 0
    assert load_json(prefix + ".json")["config"]["threads"] == 2


def test_simulate_report_embeds_the_resolved_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dgp": 3, "N": 80, "p": 0.1, "rho": 4, "R": 2, "n_test": 40,
        "estimators": ["ols"],
    }))
    prefix = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix]) == 0
    assert load_json(prefix + ".json")["config"] == {
        "dgp": 3, "N": 80, "p": 0.1, "mu_alpha": 0.0, "sigma_alpha": 5.0,
        "rho": 4, "seed": 0, "n_test": 40, "R": 2, "estimators": ["ols"],
        "oracle_k": None, "threads": 1,
    }


def _csv_rows_without_cpu(path):
    with open(path) as fh:
        return [{k: v for k, v in r.items() if k != "cpu_s"} for r in csv.DictReader(fh)]


def test_outputs_do_not_depend_on_threads(level_shift_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dgp": 1, "N": 30, "p": 0.1, "mu_alpha": 5, "seed": 3, "n_test": 50,
        "R": 3, "estimators": ["l0", "lcs2", "ols"], "oracle_k": 0,
    }))
    runs = {}
    for threads in ("1", "2"):
        prefix = str(tmp_path / f"sim{threads}")
        fc, flags = str(tmp_path / f"fc{threads}.csv"), str(tmp_path / f"fl{threads}.csv")
        assert main(["simulate", "--config", str(cfg_path), "--out", prefix,
                     "--threads", threads]) == 0
        assert main(["forecast", level_shift_csv, "--method", "l0", "--auto",
                     "--window", "25", "--threads", threads, "--forecasts-csv", fc,
                     "--flags-csv", flags, "--out", str(tmp_path / "fc.json")]) == 0
        runs[threads] = [_csv_rows_without_cpu(p) for p in (
            prefix + "_summary.csv", prefix + "_records.csv", fc, flags)]
    assert all(runs["1"])
    assert runs["1"] == runs["2"]


def test_simulate_unknown_estimator(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dgp": 1, "N": 30, "p": 0.1, "R": 1, "estimators": ["magic"],
    }))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "estimators" in capsys.readouterr().err


def test_tune_l0_trace(outlier_csv, tmp_path):
    out = str(tmp_path / "tune.json")
    assert main(["tune", outlier_csv, "--method", "l0", "--k-max", "5",
                 "--out", out]) == 0
    report = load_json(out)
    assert [t["k"] for t in report["trace"]] == [1, 2, 3, 4, 5]
    assert report["selected"]["k"] == 1
    for t in report["trace"]:
        assert t["n_outliers"] <= t["k"]


def test_tune_l1_trace(outlier_csv, tmp_path):
    out = str(tmp_path / "tune.json")
    assert main(["tune", outlier_csv, "--method", "l1", "--grid-size", "12",
                 "--out", out]) == 0
    report = load_json(out)
    assert len(report["trace"]) >= 10
    assert report["selected"]["psi"] is not None


# each output flag of fit, tune and forecast pointed at the input CSV;
# {same} names it by another path
@pytest.mark.parametrize("argv", [
    ["fit", "{input}", "--method", "ols", "--out", "{input}"],
    ["fit", "{input}", "--method", "l0", "--k", "2", "--out", "{same}"],
    ["tune", "{input}", "--method", "l1", "--out", "{input}"],
    ["forecast", "{input}", "--method", "ols", "--window", "20", "--out", "{input}"],
    ["forecast", "{input}", "--method", "ols", "--window", "20", "--forecasts-csv", "{same}"],
    ["forecast", "{input}", "--method", "ols", "--window", "20", "--flags-csv", "{input}"],
], ids=["fit", "fit-other-spelling", "tune", "forecast-out", "forecast-forecasts-csv",
        "forecast-flags-csv"])
def test_an_output_over_the_input_is_refused(two_regressor_csv, tmp_path, capsys, argv):
    before = Path(two_regressor_csv).read_bytes()
    same = str(tmp_path / ".." / tmp_path.name / Path(two_regressor_csv).name)
    argv = [a.format(input=two_regressor_csv, same=same) for a in argv]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "overwrite the input" in err[0]
    assert Path(two_regressor_csv).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [Path(two_regressor_csv).name]


# each command with an output it cannot open: a directory, or a path in a
# directory that does not exist
@pytest.mark.parametrize("argv", [
    ["fit", "{input}", "--method", "ols", "--out", "{dir}"],
    ["fit", "{input}", "--method", "ols", "--out", "{dir}/nodir/r.json"],
    ["tune", "{input}", "--method", "l0", "--out", "{dir}/nodir/r.json"],
    ["forecast", "{input}", "--method", "ols", "--window", "20", "--flags-csv", "{dir}"],
    ["forecast", "{input}", "--method", "ols", "--window", "20",
     "--forecasts-csv", "{dir}/nodir/f.csv"],
    ["simulate", "--config", "{config}", "--out", "{dir}/nodir/run"],
], ids=["fit-directory", "fit-no-directory", "tune-no-directory", "forecast-directory",
        "forecast-no-directory", "simulate-no-directory"])
def test_an_unwritable_output_is_refused_before_any_fit(two_regressor_csv, tmp_path,
                                                        monkeypatch, capsys, argv):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dgp": 1, "N": 30, "p": 0.1, "R": 1, "estimators": ["ols"]}))

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before its outputs were checked")

    monkeypatch.setattr("trimreg.cli._solve", no_fit)
    monkeypatch.setattr("trimreg.cli.run_monte_carlo_records", no_fit)
    argv = [a.format(input=two_regressor_csv, dir=tmp_path, config=config) for a in argv]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", Path(two_regressor_csv).name]


@pytest.mark.parametrize("out", ["run", None])
def test_simulate_refuses_an_output_over_its_config(tmp_path, monkeypatch, capsys, out):
    # `--out run` writes run.json; without --out the prefix is "simulation"
    name = "simulation.json" if out is None else "run.json"
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps({"dgp": 1, "N": 30, "p": 0.1, "R": 1,
                                    "estimators": ["ols"]}))
    before = cfg_path.read_bytes()
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--config", name] + ([] if out is None else ["--out", out])
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --out: ")
    assert cfg_path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert main(argv[:3] + ["--out", "other"]) == 0  # the config still reads


def test_fit_ols_with_an_overflowing_rss_is_a_numerical_failure(tmp_path, capsys):
    # residuals near 1e300 square past the float range, as lad's do
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    y = (1.0 + x.sum(axis=1) + rng.normal(size=40)) * 1e300
    path = tmp_path / "huge.csv"
    write_csv(path, ["y", "x1", "x2"], np.column_stack([y, x]).tolist())
    for method in ("ols", "lad"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", str(path), "--method", method]) == 4
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("numerical failure: ")


# two outputs of one forecast named as one file; {same} names it by another path
@pytest.mark.parametrize("outputs", [
    ["--forecasts-csv", "{path}", "--flags-csv", "{path}"],
    ["--forecasts-csv", "{path}", "--flags-csv", "{same}"],
    ["--out", "{path}", "--forecasts-csv", "{same}"],
    ["--flags-csv", "{path}", "--out", "{path}"],
], ids=["csvs", "csvs-other-spelling", "out-forecasts-csv", "out-flags-csv"])
def test_two_outputs_naming_one_file_are_refused(two_regressor_csv, tmp_path, capsys,
                                                 outputs):
    path = str(tmp_path / "same.csv")
    same = str(tmp_path / ".." / tmp_path.name / "same.csv")
    argv = ["forecast", two_regressor_csv, "--method", "ols", "--window", "30",
            *(a.format(path=path, same=same) for a in outputs)]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "same file" in err[0]
    assert [p.name for p in tmp_path.iterdir()] == [Path(two_regressor_csv).name]


def test_responses_at_the_float_edge_are_numerical_failures(tmp_path, capsys):
    # residuals near 1e297 square past the float range; near 1e307 the
    # Huber loss sums past it
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    y = (1.0 + x + 0.001 * rng.normal(size=40)) * 1e300
    e300 = tmp_path / "e300.csv"
    write_csv(e300, ["y", "x"], np.column_stack([y, x]).tolist())
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    y = (1.0 + x.sum(axis=1) + rng.normal(size=40)) * 1e307
    e307 = tmp_path / "e307.csv"
    write_csv(e307, ["y", "x1", "x2"], np.column_stack([y, x]).tolist())
    out = tmp_path / "report.json"
    for argv in (["fit", e300, "--method", "l0", "--auto"],
                 ["tune", e300, "--method", "l0"],
                 ["fit", e300, "--method", "l0", "--k", "2"],
                 ["fit", e300, "--method", "l1", "--auto"],
                 ["tune", e300, "--method", "l1"],
                 ["fit", e307, "--method", "huber", "--psi", "1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([argv[0], str(argv[1]), *argv[2:], "--out", str(out)]) == 4, argv
        stdout, err = capsys.readouterr()
        assert stdout == "" and len(err.splitlines()) == 1, err
        assert err.startswith("numerical failure: ")
        assert not out.exists()
    # a forecast window that fails so is skipped, with no warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["forecast", str(e300), "--method", "l0", "--k", "2", "--window", "38",
                     "--out", str(out)]) == 0
    report = load_json(out)
    assert report["n_targets"] == report["n_skipped"] == 2 and report["mpse"] is None
