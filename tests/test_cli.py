import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trimreg
from trimreg.cli import main, read_csv_dataset, write_report
from trimreg.errors import ParseError


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


# every budget keeps q rows: --k-max lies in [1, min(N // 2, N - q)]
@pytest.mark.parametrize("n, d, argv, code, needle", [
    (1, 0, ["fit", "--method", "l0", "--auto"], 3, "N = 1 rows and q = 1"),
    (1, 1, ["fit", "--method", "l0", "--auto"], 3, "N = 1 rows and q = 2"),
    (1, 0, ["tune", "--method", "l0"], 3, "N = 1 rows and q = 1"),
    (1, 1, ["tune", "--method", "l0", "--k-max", "1"], 3, "N = 1 rows and q = 2"),
    (3, 2, ["fit", "--method", "l0", "--auto"], 3, "N = 3 rows and q = 3"),
    (8, 4, ["fit", "--method", "l0", "--auto", "--k-max", "4"], 2, "--k-max"),
    (8, 4, ["tune", "--method", "l0", "--k-max", "4"], 2, "--k-max"),
    (30, 4, ["forecast", "--method", "l0", "--auto", "--window", "6", "--k-max", "3"], 2,
     "--k-max"),
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
    # N = 8, q = 7: N // 4 = 2 is clamped to the cap N - q = 1;
    # N = 8, q = 5: the cap N - q = 3 is accepted
    for d, extra, ks in ((6, [], [1]), (4, ["--k-max", "3"], [1, 2, 3])):
        path = _regressor_csv(tmp_path, 8, d)
        assert main(["tune", path, "--method", "l0", *extra, "--out", out]) == 0
        assert [t["k"] for t in load_json(out)["trace"]] == ks


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
    assert "numerical" in capsys.readouterr().err


def test_read_csv_requires_header_and_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_csv_dataset(str(path))
    path.write_text("y,x\n")
    with pytest.raises(ParseError):
        read_csv_dataset(str(path))


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


def test_simulate_survives_an_oracle_beyond_its_size_limit(tmp_path):
    cfg = {"dgp": 1, "N": 250, "p": 0.1, "R": 2, "estimators": ["ols", "lad"],
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
])
def test_simulate_config_type_and_range_errors(tmp_path, capsys, field, value):
    cfg = {"dgp": 1, "N": 30, "p": 0.1, "R": 1, "estimators": ["ols"], field: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    prefix = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg_path), "--out", prefix]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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
