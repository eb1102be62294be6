"""Span tracing from outside the library, and the per-layer metrics.

The tracer replaces public trimreg functions on every module attribute
that refers to them (for example both `trimreg.linalg.lstsq_qr` and
`trimreg.l0.lstsq_qr`), so each call made through the library's own
name lookups opens a span. Spans are kept in memory as (name, start,
end, parent, item) and written out once the run ends. A span's self
time is its duration minus the durations of its direct children; calls
run on one thread, so children never overlap and that difference is the
uncovered part of the interval.

Counters are read from the objects the wrapped calls return:
`ClassicFit.iterations`, `info["iterations"]`, `info["swap_candidates"]`
and `OracleResult.nodes_explored`.
"""

from __future__ import annotations

import sys
import time
from math import comb

import numpy as np

ROOT = "bench.item"

# span name -> (defining module, function name). The wrapper is installed
# wherever the library binds that function object.
TARGETS = {
    "linalg.lstsq_qr": ("trimreg.linalg", "lstsq_qr"),
    "classic.fit_lad": ("trimreg.classic", "fit_lad"),
    "classic.initial_beta": ("trimreg.classic", "initial_beta"),
    "l1.select_psi_bic": ("trimreg.l1", "select_psi_bic"),
    "l1.fit_l1": ("trimreg.l1", "fit_l1"),
    "l0.fit_iht": ("trimreg.l0", "fit_iht"),
    "l0.swap_pass": ("trimreg.l0", "local_swap_search"),
    "l0.fit_lcs": ("trimreg.l0", "fit_lcs"),
    "l0.neighborhood_search": ("trimreg.l0", "neighborhood_search"),
    "l0.fit_l0_auto": ("trimreg.l0", "fit_l0_auto"),
    "oracle.best_subset_exact": ("trimreg.oracle", "best_subset_exact"),
    "dgp.generate": ("trimreg.dgp", "generate"),
    "dgp.harness": ("trimreg.dgp", "run_monte_carlo_records"),
    "cli.read_csv_dataset": ("trimreg.cli", "read_csv_dataset"),
    "cli.write_report": ("trimreg.cli", "write_report"),
    "cli.write_csv": ("trimreg.cli", "write_csv"),
    "cli.main": ("trimreg.cli", "main"),
}

# (name, unit) of every per-layer metric, in report order. Counts and
# times are per item; ratios and rates read 0 when their base is 0.
PER_LAYER = [
    ("linalg.lstsq_qr.calls", "count/item"),
    ("linalg.lstsq_qr.self_s", "s/item"),
    ("classic.fit_lad.calls", "count/item"),
    ("classic.fit_lad.self_s", "s/item"),
    ("classic.fit_lad.iterations", "count/item"),
    ("classic.initial_beta.calls", "count/item"),
    ("l1.select_psi_bic.calls", "count/item"),
    ("l1.select_psi_bic.self_s", "s/item"),
    ("l1.fit_l1.calls", "count/item"),
    ("l1.fit_l1.self_s", "s/item"),
    ("l1.fit_l1.qr_calls", "count/item"),
    ("l0.fit_iht.calls", "count/item"),
    ("l0.fit_iht.self_s", "s/item"),
    ("l0.fit_iht.iterations", "count/item"),
    ("l0.swap_pass_l1.calls", "count/item"),
    ("l0.swap_pass_l1.self_s", "s/item"),
    ("l0.swap_pass_l1.candidates", "count/item"),
    ("l0.swap_pass_l2.calls", "count/item"),
    ("l0.swap_pass_l2.self_s", "s/item"),
    ("l0.swap_pass_l2.candidates", "count/item"),
    ("l0.swap_pass.accept_ratio", "ratio"),
    ("l0.fit_lcs.calls", "count/item"),
    ("l0.fit_lcs.self_s", "s/item"),
    ("l0.neighborhood_search.calls", "count/item"),
    ("l0.neighborhood_search.self_s", "s/item"),
    ("l0.neighborhood_search.refits", "count/item"),
    ("l0.neighborhood_search.refit_useful_ratio", "ratio"),
    ("l0.neighborhood_search.repeat_ratio", "ratio"),
    ("l0.fit_l0_auto.calls", "count/item"),
    ("l0.fit_l0_auto.self_s", "s/item"),
    ("oracle.best_subset_exact.calls", "count/item"),
    ("oracle.best_subset_exact.self_s", "s/item"),
    ("oracle.bnb.nodes", "count/item"),
    ("oracle.bnb.nodes_per_s", "1/s"),
    ("oracle.enum.subsets", "count/item"),
    ("oracle.enum.subsets_per_s", "1/s"),
    ("oracle.proven_ratio", "ratio"),
    ("dgp.generate.calls", "count/item"),
    ("dgp.generate.self_s", "s/item"),
    ("dgp.harness.self_s", "s/item"),
    ("cli.read_csv_dataset.self_s", "s/item"),
    ("cli.write_report.self_s", "s/item"),
    ("cli.write_csv.self_s", "s/item"),
    ("cli.main.self_s", "s/item"),
    ("trace.overhead_frac", "ratio"),
]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _oracle_mode(args, kwargs) -> str:
    from trimreg.oracle import ENUM_LIMIT

    data, k = _arg(args, kwargs, 0, "data"), _arg(args, kwargs, 1, "k")
    method = _arg(args, kwargs, 4, "method", "auto")
    if k == 0:
        return "trivial"
    if method == "auto":
        return "enum" if comb(data.n_obs, k) <= ENUM_LIMIT else "bnb"
    return "enum" if method == "enumerate" else "bnb"


# Readers of the returned objects; each returns the attributes kept on the span.
def _lad_attrs(args, kwargs, res):
    return {"iterations": res.iterations}


def _iht_attrs(args, kwargs, res):
    return {"iterations": res.info.get("iterations", 0)}


def _swap_attrs(args, kwargs, res):
    return {
        "candidates": res.info.get("swap_candidates", 0),
        "accepted": res is not _arg(args, kwargs, 1, "sol"),
    }


def _lcs_attrs(args, kwargs, res):
    return {"k": res.k, "drop": tuple(int(i) for i in res.outliers),
            "objective": res.objective}


def _nbhd_attrs(args, kwargs, res):
    return {"K": _arg(args, kwargs, 2, "K")}


def _oracle_attrs(args, kwargs, res):
    return {"mode": _oracle_mode(args, kwargs), "nodes": res.nodes_explored,
            "proven": bool(res.proven_optimal)}


ATTRS = {
    "classic.fit_lad": _lad_attrs,
    "l0.fit_iht": _iht_attrs,
    "l0.swap_pass": _swap_attrs,
    "l0.fit_lcs": _lcs_attrs,
    "l0.neighborhood_search": _nbhd_attrs,
    "oracle.best_subset_exact": _oracle_attrs,
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per span: [name id, start, end, parent index, item]
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.item = -1
        self.missing: list[str] = []
        originals = {}
        for name, (mod_name, attr) in TARGETS.items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(name)
            else:
                originals[id(fn)] = (name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "trimreg" and not mod_name.startswith("trimreg."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][1] is val:
                    name, fn = originals[id(val)]
                    self._patches.append((mod, attr, fn, self._wrap(name, fn)))

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        reader = ATTRS.get(name)
        swap = name == "l0.swap_pass"
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if swap:
                span_name = f"l0.swap_pass_l{_arg(args, kwargs, 2, 'l')}"
            idx = tracer.open(span_name)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if reader is not None:
                tracer.attrs[idx] = reader(args, kwargs, res)
            return res

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, with duration and self time added."""
        a = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        cols = {
            "name": a[:, 0].astype(np.int32), "start": a[:, 1], "end": a[:, 2],
            "parent": a[:, 3].astype(np.int64), "item": a[:, 4].astype(np.int64),
        }
        dur = cols["end"] - cols["start"]
        child = np.zeros_like(dur)
        parent = cols["parent"]
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        cols["dur"], cols["self_s"] = dur, dur - child
        return cols

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_layer(self, n_items: int, traced_wall: float, untraced_wall: float) -> dict:
        """Every PER_LAYER metric, per item over the traced spans."""
        cols = self.arrays()
        name, parent, dur, self_s = cols["name"], cols["parent"], cols["dur"], cols["self_s"]
        ids = {n: i for i, n in enumerate(self.names)}
        per = max(n_items, 1)

        def mask(n):
            return name == ids[n] if n in ids else np.zeros(name.shape, bool)

        def calls(n):
            return int(mask(n).sum())

        def self_time(n):
            return float(self_s[mask(n)].sum())

        def attr_sum(n, key):
            return sum(self.attrs[i][key] for i in np.flatnonzero(mask(n)) if i in self.attrs)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in ("linalg.lstsq_qr", "classic.fit_lad", "l1.select_psi_bic",
                      "l1.fit_l1", "l0.fit_iht", "l0.swap_pass_l1", "l0.swap_pass_l2",
                      "l0.fit_lcs", "l0.neighborhood_search", "l0.fit_l0_auto",
                      "oracle.best_subset_exact", "dgp.generate"):
            out[f"{layer}.calls"] = calls(layer) / per
            out[f"{layer}.self_s"] = self_time(layer) / per
        for layer in ("dgp.harness", "cli.read_csv_dataset", "cli.write_report",
                      "cli.write_csv", "cli.main"):
            out[f"{layer}.self_s"] = self_time(layer) / per
        out["classic.initial_beta.calls"] = calls("classic.initial_beta") / per
        out["classic.fit_lad.iterations"] = attr_sum("classic.fit_lad", "iterations") / per
        out["l0.fit_iht.iterations"] = attr_sum("l0.fit_iht", "iterations") / per

        qr_parents = parent[mask("linalg.lstsq_qr")]
        out["l1.fit_l1.qr_calls"] = int(
            np.isin(qr_parents, np.flatnonzero(mask("l1.fit_l1"))).sum()) / per

        passes = accepted = 0
        for l in (1, 2):
            layer = f"l0.swap_pass_l{l}"
            out[f"{layer}.candidates"] = attr_sum(layer, "candidates") / per
            passes += calls(layer)
            accepted += attr_sum(layer, "accepted")
        out["l0.swap_pass.accept_ratio"] = ratio(accepted, passes)

        refits, useful, repeats = self._neighborhood_refits(mask, parent)
        out["l0.neighborhood_search.refits"] = refits / per
        out["l0.neighborhood_search.refit_useful_ratio"] = ratio(useful, refits)
        out["l0.neighborhood_search.repeat_ratio"] = ratio(repeats, refits)

        oracle_idx = np.flatnonzero(mask("oracle.best_subset_exact"))
        for mode in ("bnb", "enum"):
            sel = [i for i in oracle_idx if self.attrs.get(i, {}).get("mode") == mode]
            work = sum(self.attrs[i]["nodes"] for i in sel)
            busy = float(dur[sel].sum()) if sel else 0.0
            key = "nodes" if mode == "bnb" else "subsets"
            out[f"oracle.{mode}.{key}"] = work / per
            out[f"oracle.{mode}.{key}_per_s"] = ratio(work, busy)
        proven = sum(1 for i in oracle_idx if self.attrs.get(i, {}).get("proven"))
        out["oracle.proven_ratio"] = ratio(proven, len(oracle_idx))
        out["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
        return {n: out[n] for n, _ in PER_LAYER}

    def _neighborhood_refits(self, mask, parent):
        """(refits, refits that beat the best so far at their k, repeats).

        A refit is a `fit_lcs` call made by `neighborhood_search` after its
        initial pass over k = 1..K; a repeat returns a (k, discard set)
        that an earlier `fit_lcs` call of the same search already returned.
        """
        children: dict[int, list[int]] = {}
        lcs = np.flatnonzero(mask("l0.fit_lcs"))
        for i, p in zip(lcs.tolist(), parent[lcs].tolist()):
            children.setdefault(p, []).append(i)
        refits = useful = repeats = 0
        for nb in np.flatnonzero(mask("l0.neighborhood_search")).tolist():
            K = self.attrs.get(nb, {}).get("K", 0)
            seen: set = set()
            best: dict[int, float] = {}
            for n, i in enumerate(children.get(nb, [])):
                a = self.attrs.get(i)
                if n >= K:
                    refits += 1
                if a is None:
                    continue
                key = (a["k"], a["drop"])
                if n >= K:
                    repeats += key in seen
                    useful += a["objective"] < best.get(a["k"], np.inf)
                seen.add(key)
                best[a["k"]] = min(best.get(a["k"], np.inf), a["objective"])
        return refits, useful, repeats
