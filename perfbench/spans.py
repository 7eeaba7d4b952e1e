"""Span tracing around bellbench's public functions, from outside the package.

:meth:`Tracer.install` wraps every public module-level function of the
seven modules, wherever its name is bound (the package namespace, the
importing modules, the ``FUNCTIONALS`` registry), plus
``JointDistribution.__post_init__`` so table constructions are counted.
Methods are not wrapped: their time is self time of the calling function.

Every call is aggregated as it closes (calls, busy time of a module's
outermost entry, self time = duration minus child spans).  Whole spans
(id, name, parent, request, start, end) are kept in memory for the first
traced round only and written out at the end, which keeps a long traced
run's memory flat.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import types
from array import array
from time import perf_counter_ns
from typing import Optional

import numpy as np

MODULES = ("model", "qm", "inequalities", "lhv", "montecarlo", "optimize", "cli")
BENCH = len(MODULES)  # module index of the benchmark's own request spans

# Span names whose individual durations the per-layer metrics take medians of.
_SAMPLED = {
    "optimize.optimize", "qm.settings_table", "lhv.local_bound",
    "lhv.sample_random_model", "lhv.ensemble_table", "montecarlo.simulate",
    "montecarlo.run_reports", "cli.main", "inequalities.verify_theorem",
}
_EVALUATORS = {"eval_ineq17", "eval_ineq19", "eval_chsh", "eval_bell65",
               "eval_strong", "eval_ch", "eval_fc"}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.name_self_ns: list[int] = []
        self.samples: dict[int, list[tuple[int, int, int]]] = {}
        self.busy_ns = [0] * (BENCH + 1)
        self.self_ns = [0] * (BENCH + 1)
        self.depth = [0] * (BENCH + 1)
        self.stack: list[list[int]] = []  # open spans: [id, child ns]
        self.next_id = 0
        self.request = -1
        self.request_kinds: list[str] = []
        self.work: dict[str, int] = {}
        self._request_spans: dict = {}
        self.recording = False
        self.spans = {k: array("q") for k in ("id", "name", "parent", "request", "start", "end")}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.ids[name] = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.name_self_ns.append(0)
        if name in _SAMPLED or name.split(".", 1)[1] in _EVALUATORS:
            self.samples[nid] = []
        return nid

    def _close(self, nid: int, module: int, frame: list[int], t0: int, t1: int,
               outer: bool) -> None:
        dur = t1 - t0
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        self_ns = dur - frame[1]
        self.calls[nid] += 1
        self.name_self_ns[nid] += self_ns
        self.self_ns[module] += self_ns
        if outer:
            self.busy_ns[module] += dur
        kept = self.samples.get(nid)
        if kept is not None:
            kept.append((dur, self_ns, self.request))
        if self.recording:
            s = self.spans
            s["id"].append(frame[0])
            s["name"].append(nid)
            s["parent"].append(-1 if parent is None else parent[0])
            s["request"].append(self.request)
            s["start"].append(t0)
            s["end"].append(t1)

    def _wrap(self, fn, name: str, module: int):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [tracer.next_id, 0]
            tracer.next_id += 1
            depth = tracer.depth
            outer = depth[module] == 0
            depth[module] += 1
            tracer.stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer.stack.pop()
                depth[module] -= 1
                tracer._close(nid, module, frame, t0, t1, outer)

        return traced

    def run_request(self, kind: str, fn, arg):
        """``fn(arg)`` as the root span ``bench.<kind>`` of a new request id."""
        traced = self._request_spans.get(kind)
        if traced is None:
            traced = self._request_spans[kind] = self._wrap(
                lambda f, a: f(a), f"bench.{kind}", BENCH)
        self.request_kinds.append(kind)
        self.request = len(self.request_kinds) - 1
        return traced(fn, arg)

    def count(self, key: str, amount: int) -> None:
        self.work[key] = self.work.get(key, 0) + amount

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import bellbench
        from bellbench import inequalities, model

        wrappers = {}
        for index, short in enumerate(MODULES):
            mod = sys.modules[f"bellbench.{short}"]
            for attr, value in list(vars(mod).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(value, f"{short}.{attr}", index)
        for mod in [bellbench] + [sys.modules[f"bellbench.{m}"] for m in MODULES]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        for fid, f in list(inequalities.FUNCTIONALS.items()):
            if f.evaluate in wrappers:  # the STRONG lambdas call the wrapped eval_strong
                inequalities.FUNCTIONALS[fid] = dataclasses.replace(f, evaluate=wrappers[f.evaluate])
        jd = model.JointDistribution
        jd.__post_init__ = self._wrap(jd.__post_init__, "model.JointDistribution", 0)

    # -- results --------------------------------------------------------------

    def _durations(self, name: str, kind: Optional[str] = None, part: int = 0) -> list:
        """Kept durations (part 0) or self times (part 1) of ``name``, in ns,
        optionally only inside requests of ``kind``."""
        kept = self.samples.get(self.ids.get(name), [])
        return [s[part] for s in kept if kind is None or self.request_kinds[s[2]] == kind]

    def layer_metrics(self, import_ms: float) -> dict:
        """Every per-layer metric; a layer a workload does not call reads 0."""
        m = {}
        for index, short in enumerate(MODULES):
            m[f"{short}.busy_s"] = (self.busy_ns[index] / 1e9, "s")
            m[f"{short}.self_s"] = (self.self_ns[index] / 1e9, "s")
        def med(name: str, scale: float, **kw) -> float:
            return _median(self._durations(name, **kw)) / scale

        m["optimize.solve_ms"] = (med("optimize.optimize", 1e6), "ms")
        m["optimize.self_ms"] = (med("optimize.optimize", 1e6, part=1), "ms")
        m["qm.settings_table_calls"] = (len(self._durations("qm.settings_table")), "count")
        m["qm.settings_table_us"] = (med("qm.settings_table", 1e3), "us")
        evals = [d for name in self.ids if name.split(".", 1)[1] in _EVALUATORS
                 for d in self._durations(name)]
        m["inequalities.evaluate_calls"] = (len(evals), "count")
        m["inequalities.evaluate_us"] = (_median(evals) / 1e3, "us")
        theorem_ms = sum(self._durations("inequalities.verify_theorem")) / 1e6
        msamples = self.work.get("theorem_samples", 0) / 1e6
        m["inequalities.verify_theorem_ms_per_msample"] = (
            theorem_ms / msamples if msamples else 0.0, "ms")
        m["lhv.local_bound_ms"] = (med("lhv.local_bound", 1e6), "ms")
        m["lhv.strategies_examined"] = (self.work.get("strategies_examined", 0), "count")
        m["lhv.sample_model_us"] = (med("lhv.sample_random_model", 1e3), "us")
        m["lhv.ensemble_table_us"] = (med("lhv.ensemble_table", 1e3), "us")
        large_s = sum(self._durations("montecarlo.simulate", kind="large_run")) / 1e9
        pairs = self.work.get("pairs_drawn", 0)
        m["montecarlo.simulate_mpairs_per_s"] = (pairs / 1e6 / large_s if large_s else 0.0,
                                                 "Mpairs/s")
        m["montecarlo.pairs_drawn"] = (pairs, "count")
        m["montecarlo.simulate_small_ms"] = (med("montecarlo.simulate", 1e6, kind="small_run"), "ms")
        m["montecarlo.run_reports_us"] = (med("montecarlo.run_reports", 1e3), "us")
        m["cli.main_ms"] = (med("cli.main", 1e6), "ms")
        m["cli.csv_bytes"] = (self.work.get("csv_bytes", 0), "count")
        m["model.tables_built"] = (self.calls[self.ids["model.JointDistribution"]], "count")
        m["bellbench.import_ms"] = (import_ms, "ms")
        return m

    def summary(self) -> dict:
        """Busy and self seconds per layer, and calls and self seconds per
        traced name, busiest first."""
        layers = {name: {"busy_s": self.busy_ns[i] / 1e9, "self_s": self.self_ns[i] / 1e9}
                  for i, name in enumerate(MODULES + ("bench",))}
        names = sorted(
            ({"name": n, "calls": c, "self_s": s / 1e9}
             for n, c, s in zip(self.names, self.calls, self.name_self_ns) if c),
            key=lambda row: -row["self_s"])
        return {"layers": layers, "names": names}

    def write_spans(self, path: str) -> int:
        arrays = {k: np.frombuffer(v, dtype=np.int64) if len(v) else np.zeros(0, np.int64)
                  for k, v in self.spans.items()}
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            request_kinds=np.array(self.request_kinds, dtype=str), **arrays)
        return len(self.spans["id"])
