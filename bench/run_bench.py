#!/usr/bin/env python3
"""trimreg benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run_bench.py --workload endogenous-mc --seed 55555 \
        --seconds 25 --trace 0

The library is imported from `src/` next to this directory and driven
only through its public calls. With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it runs every item twice, once
traced and once not, and reports the per-layer metrics and the tracing
overhead. End-to-end times are scaled by a sentinel loop timed between
items (see `Sentinel`); the unscaled values are printed beside them.
Every item's outputs are checked (see `workloads.py`) and,
where `reference/<workload>/<seed>.json.gz` holds the same item,
compared against it. The last line of standard output is one JSON
object; a fuller result, with the environment stamp, goes to `out/`.
`--write-spec` regenerates BENCHMARK.json at the repository root.
"""

import os

# Pin the math libraries to one thread before numpy loads them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import PER_LAYER, Tracer  # noqa: E402
from spans import ROOT as ROOT_SPAN  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

RUN_SECONDS = 25
SETUP_RUNS = 5
# sentinel readings each set-up process takes once it is ready
SETUP_READINGS = 5
# (name, unit, better, bound): the bound is the share of the parent's
# median by which a metric may worsen before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_s", "s", "lower", 0.25),
    ("item_tail_s", "s", "lower", 0.25),
    ("cpu_per_item_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]


def import_library():
    """Import trimreg from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import trimreg
    except ImportError as exc:
        sys.exit(f"error: cannot import trimreg from {SRC}: {exc}")
    if Path(trimreg.__file__).resolve().parent != SRC / "trimreg":
        sys.exit(f"error: trimreg resolved to {trimreg.__file__}, not {SRC}")
    import trimreg.cli  # noqa: F401  (loads every module the tracer wraps)


def strict(obj):
    """Copy of obj that strict JSON accepts: non-finite floats become null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict(v) for v in obj]
    return obj


def dumps(obj, **kw) -> str:
    return json.dumps(strict(obj), allow_nan=False, **kw)


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# ----------------------------------------------------------------------
# reference outputs
# ----------------------------------------------------------------------


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE / workload / f"{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict:
    """The recorded items of one seed: {"rel_tol": float, "items": [...]}."""
    path = reference_path(workload, seed)
    if not path.exists():
        return {"rel_tol": 0.0, "items": []}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def compare(ref, out, rel_tol: float, where: str = "") -> list[str]:
    """Differences between a reference item and this run's item.

    Floats must agree to `rel_tol`; everything else must be identical.
    """
    if isinstance(ref, dict) and isinstance(out, dict):
        if ref.keys() != out.keys():
            return [f"{where}: keys {sorted(out)} != {sorted(ref)}"]
        return [d for k in ref for d in compare(ref[k], out[k], rel_tol, f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(out, list):
        if len(ref) != len(out):
            return [f"{where}: length {len(out)} != {len(ref)}"]
        return [d for j, (a, b) in enumerate(zip(ref, out))
                for d in compare(a, b, rel_tol, f"{where}[{j}]")]
    if isinstance(ref, float) and isinstance(out, float):
        if abs(ref - out) <= rel_tol * max(abs(ref), abs(out), 1e-12):
            return []
        return [f"{where}: {out!r} != {ref!r}"]
    if type(ref) is not type(out) or ref != out:
        return [f"{where}: {out!r} != {ref!r}"]
    return []


def save_reference(workload: str, seed: int, outputs: list, rel_tol: float,
                   limit: int) -> None:
    """Extend the seed's reference with this run's items, up to `limit`."""
    known = load_reference(workload, seed)["items"]
    items = known + outputs[len(known):limit]
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = (f'{{"rel_tol": {json.dumps(rel_tol)}, "items": [\n'
            + ",\n".join(dumps(item) for item in items) + "\n]}\n")
    # mtime=0 keeps the file identical when its items are
    with open(path, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
        gz.write(text.encode("utf-8"))


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def cpu_now() -> float:
    """User plus system CPU of this process and its waited-for children."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


class Sentinel:
    """A fixed Python-and-numpy loop that calls no library code.

    The two-core virtual machines this benchmark runs on change speed by
    a quarter or more, in phases of a second to minutes, and CPU time
    slows with wall time. The loop is timed between items, and each
    item's times are scaled by REF_S over the median of the six readings
    nearest to it, so that they read as seconds on a machine where the
    loop takes REF_S. A change to the library leaves the loop's time
    alone, so it moves the scaled times as it moves the raw ones.
    """

    REF_S = 0.004

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((60, 6))
        self.b = rng.standard_normal(60)

    def time(self) -> float:
        t0 = time.perf_counter()
        for _ in range(60):
            q, r = np.linalg.qr(self.a)
            np.linalg.solve(r, q.T @ self.b)
        x = 0
        for i in range(15000):
            x += i * i
        return time.perf_counter() - t0

    def scale(self, readings: list[float]) -> np.ndarray:
        """Factor for each interval between consecutive readings."""
        return np.array([self.REF_S / np.median(readings[max(0, i - 2):i + 4])
                         for i in range(len(readings) - 1)])


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time from process start until the first item is ready, per run,
    and the sentinel as each set-up process read it once ready."""
    times, speed = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        rest = proc.stdout.read().split()
        if proc.wait() != 0 or line.strip() != "ready" or len(rest) != 1:
            sys.exit(f"error: set-up run failed with code {proc.returncode}")
        times.append(t1 - t0)
        speed.append(float(rest[0]))
    return times, speed


class Run:
    """The closed loop over items, with per-item checking."""

    def __init__(self, wl, seed: int, workdir: str, reference: dict):
        self.wl = wl.make(seed, workdir)
        self.per = self.wl.windows_per_item
        self.ref = reference["items"]
        self.rel_tol = reference["rel_tol"]
        self.outputs: list = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def one_pass(self, i: int, tracer=None):
        """Run item i once; return (wall s of each window, cpu s, output, problems)."""
        self.wl.prepare(i)
        if tracer is not None:
            tracer.install()
            tracer.item = i
            root = tracer.open(ROOT_SPAN)
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            raw = self.wl.run(i)
        except Exception as exc:  # a raising item is a failed item, not a failed run
            raw = exc
        finally:
            t1, c1 = time.perf_counter(), cpu_now()
            if tracer is not None:
                tracer.close(root)
                tracer.uninstall()
        if isinstance(raw, Exception):
            return ([(t1 - t0) / self.per] * self.per, c1 - c0,
                    {"raised": traceback.format_exception(raw)}, [f"raised {raw!r}"])
        walls = self.wl.walls(raw, t0, t1)
        out = self.wl.record(raw)
        problems = self.wl.check(raw, out)
        if i <= len(self.ref):
            problems += compare(self.ref[i - 1], strict(out), self.rel_tol, f"item {i}")
        return walls, c1 - c0, out, problems

    def tally(self, i: int, out, problems: list[str]) -> None:
        self.outputs.append(strict(out))
        self.attempted += self.per
        if problems:
            self.failed += self.per
            self.problems += [f"item {i}: {p}" for p in problems]


def run_untraced(run: Run, sentinel: Sentinel, seconds: float):
    """Wall seconds of each call's windows and CPU seconds of each call, in
    order, and the sentinel readings before the first call and after each one."""
    walls, cpus, speed = [], [], [sentinel.time()]
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        i += 1
        wall, cpu, out, problems = run.one_pass(i)
        speed.append(sentinel.time())
        run.tally(i, out, problems)
        walls.append(wall)
        cpus.append(cpu)
    return np.array(walls), np.array(cpus), speed


def run_traced(run: Run, tracer, seconds: float) -> float:
    """Each item runs untraced and traced, alternating which goes first.

    Returns the untraced wall time; the traced one is in the root spans.
    """
    plain = 0.0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        i += 1
        results = {}
        for use in ((None, tracer) if i % 2 else (tracer, None)):
            results[use is not None] = run.one_pass(i, use)
        (w0, _, out0, p0), (_, _, out1, p1) = results[False], results[True]
        problems = p0 + p1
        if compare(strict(out0), strict(out1), 0.0):
            problems.append("traced and untraced outputs differ")
        run.tally(i, out0, problems)
        plain += sum(w0)
    return plain


def tail_count(values: list[float], pct: float) -> int:
    cut = float(np.percentile(values, pct))
    return sum(1 for v in values if v > cut)


def end_to_end(setup: np.ndarray, walls: np.ndarray, cpus: np.ndarray, run: Run,
               tail_pct: float) -> dict:
    """The END_TO_END metrics from the wall times of each call's windows
    (one row per call, `run.per` windows each) and each call's CPU time."""
    return {
        "setup_s": float(np.median(setup)),
        "items_per_s": run.attempted / float(walls.sum()),
        "item_p50_s": float(np.median(walls)),
        "item_tail_s": float(np.percentile(walls, tail_pct)),
        "cpu_per_item_s": float(cpus.sum()) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", dest="record", action="store_true",
                    help="append this run's outputs to reference/<workload>/<seed>.json.gz")
    ap.add_argument("--setup-only", dest="setup_only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--write-spec", dest="write_spec", action="store_true",
                    help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    import_library()
    from workloads import REL_TOL, WORKLOADS

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(WORKLOADS), indent=2) + "\n")
        return 0
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    seed = wl.seed if args.seed is None else args.seed

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.setup_only:
            wl.make(seed, workdir)
            print("ready", flush=True)
            sentinel = Sentinel()
            print(statistics.median(sentinel.time() for _ in range(SETUP_READINGS)))
            return 0
        if args.trace == 0:
            setup, setup_speed = measure_setup(wl.name, seed)
        run = Run(wl, seed, workdir, load_reference(wl.name, seed))
        if args.trace == 0:
            sentinel = Sentinel()
            walls, cpus, speed = run_untraced(run, sentinel, args.seconds)
        else:
            tracer = Tracer()
            plain = run_traced(run, tracer, args.seconds)

    detail = {}
    if args.trace == 0:
        scale = sentinel.scale(speed)
        raw = end_to_end(np.array(setup), walls, cpus, run, wl.tail_pct)
        metrics = end_to_end(np.array(setup) * Sentinel.REF_S / np.array(setup_speed),
                             walls * scale[:, None], cpus * scale, run, wl.tail_pct)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        scaled = (walls * scale[:, None]).ravel().tolist()
        detail = {"raw_metrics": raw, "setup_runs_s": setup, "setup_sentinel_s": setup_speed,
                  "window_wall_s": walls.tolist(), "call_cpu_s": cpus.tolist(),
                  "sentinel_s": speed, "item_scaled_s": scaled, "tail_pct": wl.tail_pct,
                  "items_beyond_tail": tail_count(scaled, wl.tail_pct)}
    else:
        cols = tracer.arrays()
        roots = cols["name"] == tracer.names.index(ROOT_SPAN)
        traced_wall = float(cols["dur"][roots].sum())
        metrics = tracer.per_layer(run.attempted, traced_wall, plain)
        units = dict(PER_LAYER)
        detail = {"traced_wall_s": traced_wall, "untraced_wall_s": plain,
                  "self_time_sum_s": float(cols["self_s"].sum()), "spans": len(tracer.spans),
                  "unwrapped_targets": tracer.missing}
        tracer.save(OUT / f"spans-{wl.name}-seed{seed}.npz")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    full = dict(result, workload=wl.name, seed=seed, held_out_seed=wl.held_out_seed,
                seconds=args.seconds, trace=args.trace,
                failed_frac=run.failed / max(run.attempted, 1), problems=run.problems[:50],
                environment=environment(), detail=detail)
    (OUT / f"result-{wl.name}-seed{seed}-trace{args.trace}.json").write_text(dumps(full, indent=1) + "\n")
    if args.record and run.failed == 0:
        save_reference(wl.name, seed, run.outputs, REL_TOL, wl.reference_items)

    print(f"# workload {wl.name}  seed {seed}  trace {args.trace}  "
          f"items {run.attempted}  failed_frac {full['failed_frac']:.4g}")
    print(f"# environment {dumps(full['environment'])}")
    if args.trace == 0:
        print(f"# item_tail_s is p{wl.tail_pct:g}; {detail['items_beyond_tail']} of "
              f"{run.attempted} items lie beyond it")
        print(f"# item times are scaled to a {Sentinel.REF_S:g} s sentinel; it read "
              f"{np.median(speed):.5f} s (median), so unscaled they are:")
        for name, value in raw.items():
            print(f"#   {name} = {value:.6g} {units[name]}")
    else:
        print(f"# traced wall {traced_wall:.4f} s, span self times sum to "
              f"{detail['self_time_sum_s']:.4f} s over {len(tracer.spans)} spans")
    for p in run.problems[:10]:
        print(f"# problem: {p}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(dumps(result))
    return 0


def spec(workloads: dict) -> dict:
    return {
        "command": ["python3", "bench/run_bench.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)} for n, u in PER_LAYER],
    }


def _better(name: str) -> str:
    if name.endswith(("_per_s", "useful_ratio", "accept_ratio", "proven_ratio")):
        return "higher"
    return "lower"


if __name__ == "__main__":
    sys.exit(main())
