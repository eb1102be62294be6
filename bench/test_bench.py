"""Smoke tests of the benchmark: every workload at a tiny size.

Each run is a subprocess of `run_bench.py` given 0.01 s, so it stops
after one item and the whole file takes well under a minute.
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seconds", "0.01"]


def run_bench(*args, bench_dir=HERE):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run_bench.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=bench_dir.parent,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_printed(proc, result, metrics):
    lines = proc.stdout.splitlines()
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = run_bench("--workload", workload, "--trace", "0", *TINY)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_printed(proc, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _self_times(start, end, parent):
    """Self time of each span, computed span by span."""
    self_s = end - start
    for i, p in enumerate(parent):
        if p >= 0:
            self_s[p] -= end[i] - start[i]
    return self_s


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_traced_wall(workload):
    proc = run_bench("--workload", workload, "--trace", "1", "--seed", "7", *TINY)
    result = result_of(proc)
    assert result["correct"]
    assert_printed(proc, result, SPEC["per_layer"])

    spans = np.load(HERE / "out" / f"spans-{workload}-seed7.npz")
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    self_s = _self_times(start.copy(), end.copy(), parent)
    np.testing.assert_allclose(self_s, spans["self_s"], atol=1e-12)
    roots = parent < 0
    assert list(spans["names"][spans["name"][roots]]) == ["bench.item"]
    traced_wall = float((end - start)[roots].sum())
    assert abs(self_s.sum() - traced_wall) <= 1e-9 * traced_wall
    assert (self_s >= -1e-9).all()


def _copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "bench"


def _perturb_objective(item):
    item["fits"]["lcs2"]["objective"] *= 1.0 + 1e-6


def _perturb_discard_set(item):
    item["oracle"]["discard"][0] += 1


@pytest.mark.parametrize("perturb", [_perturb_objective, _perturb_discard_set])
def test_perturbed_reference_trips_the_check(tmp_path, perturb):
    bench = _copy_checkout(tmp_path, with_src=True)
    path = bench / "reference" / "oracle-enum" / "1.json.gz"
    ref = json.loads(gzip.decompress(path.read_bytes()))
    perturb(ref["items"][0])
    path.write_bytes(gzip.compress(json.dumps(ref).encode()))

    proc = run_bench("--workload", "oracle-enum", "--seed", "1", "--trace", "0",
                     *TINY, bench_dir=bench)
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "# problem: item 1: item 1." in proc.stdout


def test_fails_without_the_library(tmp_path):
    bench = _copy_checkout(tmp_path, with_src=False)
    proc = run_bench("--workload", "oracle-enum", *TINY, bench_dir=bench)
    assert proc.returncode != 0
    assert proc.stdout == ""
