"""Span tracing of the library's layers, installed from outside the library.

Tracer.install replaces the public functions of model, decide, search and
construct by wrappers, through module attributes, so calls the library
makes internally (search.final_check, search.path_graph, construct calling
search and decide) are caught as well.  Spans stay in memory as
[id, parent, name, job, start, end, info] and are written out at the end;
info holds what _keep picks from the call.  Only calls made while a job is
being timed are recorded.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

# (module, attribute, span name)
TARGETS = [
    ("decide", "exists_repetitive_path", "decide.path"),
    ("decide", "exists_repetitive_stroll", "decide.stroll"),
    ("decide", "exists_repetitive_nonboring_walk", "decide.walk"),
    ("search", "solve", "search.solve"),
    ("search", "search_fixed_k", "search.search_fixed_k"),
    ("search", "final_check", "search.final_check"),
    ("construct", "sigma_cycle_coloring", "construct.sigma"),
    ("construct", "rho_path_coloring", "construct.rho_path"),
    ("construct", "rho_cycle_coloring", "construct.rho_cycle"),
    ("model", "path_graph", "model.graph_build"),
    ("model", "cycle_graph", "model.graph_build"),
    ("model", "classify_walk", "model.classify_walk"),
]
# Graph methods, wrapped on the class
METHODS = [("is_path", "model.shape_check"), ("is_cycle", "model.shape_check")]
MODULES = ("model", "decide", "search", "construct")


def _keep(name):
    """What a span keeps of a call: references only, no work of its own.

    The pairs and reject flags are derived in layer_metrics, so no
    bookkeeping runs inside the parent span after the child has ended.
    """
    if name.startswith("decide."):
        return lambda args, out: (out is not None, args[1].colors)
    if name == "search.final_check":
        return lambda args, out: not out
    if name == "search.search_fixed_k":
        return lambda args, out: out[1:]  # (nodes, aborted)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._restore = []

    def begin(self, job: str) -> None:
        self._job = job

    def end(self) -> None:
        self._job = None
        self._stack.clear()

    def _wrap(self, name, fn):
        spans, stack, keep = self.spans, self._stack, _keep(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else -1, name, self._job,
                   0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if keep is not None:
                rec[6] = keep(args, out)
            return out
        return wrapper

    def install(self, lib) -> None:
        wrappers = {}  # id(original) -> wrapper, so aliases share one wrapper
        originals = {}
        for mod, attr, name in TARGETS:
            fn = getattr(getattr(lib, mod), attr)
            originals[id(fn)] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        for mod in MODULES:
            module = getattr(lib, mod)
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        graph = lib.model.Graph
        for attr, name in METHODS:
            fn = graph.__dict__[attr]
            self._restore.append((graph, attr, fn))
            setattr(graph, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer figures from finished spans, counts and times per pass.

    The traced run fits as many whole passes into its time window as the
    code's speed allows, so totals would grow when the code gets faster;
    every count and millisecond total is therefore divided by the number of
    traced passes.  Self time is a span's duration minus the time its child
    spans cover.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1]] += rec[5] - rec[4]
    calls, incl, self_s = Counter(), Counter(), Counter()
    m = Counter()
    for rec in spans:
        name, dur = rec[2], rec[5] - rec[4]
        calls[name] += 1
        incl[name] += dur
        self_s[name] += dur - child[rec[0]]
        parent = spans[rec[1]][2] if rec[1] >= 0 else ""
        if name.startswith("decide."):
            rejected, colors = rec[6]
            m["decide.rejects"] += rejected
            if name != "decide.path":
                # colour-matched pairs (u, w), diagonal included: sum |V_c|^2
                m["decide.product_pairs"] += sum(
                    c * c for c in Counter(colors).values())
            if parent == "search.search_fixed_k":
                m["search.prefix_decider_calls"] += 1
                m["search.prefix_decider_s"] += dur
            elif parent.startswith("construct."):
                m["construct.selfcheck_s"] += dur
        elif name == "search.final_check":
            m["search.final_rejects"] += rec[6]
        elif name == "search.search_fixed_k":
            nodes, aborted = rec[6]
            m["search.nodes"] += nodes
            m["search.budget_aborts"] += aborted

    def ms(x):
        return 1000.0 * x

    def ratio(a, b):
        return a / b if b else 0.0

    decides = ("decide.path", "decide.stroll", "decide.walk")
    searches = ("search.solve", "search.search_fixed_k", "search.final_check")
    constructs = ("construct.sigma", "construct.rho_path", "construct.rho_cycle")
    out = {}
    for name in decides:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (ms(self_s[name]), "ms")
    decide_calls = sum(calls[n] for n in decides)
    product_s = self_s["decide.stroll"] + self_s["decide.walk"]
    out["decide.reject_ratio"] = (ratio(m["decide.rejects"], decide_calls), "ratio")
    out["decide.product_pairs"] = (m["decide.product_pairs"], "count")
    out["decide.us_per_pair"] = (
        ratio(1e6 * product_s, m["decide.product_pairs"]), "us")
    out["search.nodes"] = (m["search.nodes"], "count")
    out["search.nodes_per_s"] = (
        ratio(m["search.nodes"], incl["search.search_fixed_k"]), "1/s")
    out["search.self_ms"] = (ms(sum(self_s[n] for n in searches)), "ms")
    out["search.final_checks"] = (calls["search.final_check"], "count")
    out["search.final_check_ms"] = (ms(incl["search.final_check"]), "ms")
    out["search.final_reject_ratio"] = (
        ratio(m["search.final_rejects"], calls["search.final_check"]), "ratio")
    out["search.prefix_decider_calls"] = (m["search.prefix_decider_calls"], "count")
    out["search.prefix_decider_ms"] = (ms(m["search.prefix_decider_s"]), "ms")
    out["search.budget_aborts"] = (m["search.budget_aborts"], "count")
    out["model.graph_builds"] = (calls["model.graph_build"], "count")
    out["model.graph_build_ms"] = (ms(incl["model.graph_build"]), "ms")
    out["model.shape_checks"] = (calls["model.shape_check"], "count")
    out["model.shape_check_ms"] = (ms(incl["model.shape_check"]), "ms")
    out["model.classify_walk_ms"] = (ms(incl["model.classify_walk"]), "ms")
    out["construct.sigma.calls"] = (calls["construct.sigma"], "count")
    out["construct.rho.calls"] = (
        calls["construct.rho_path"] + calls["construct.rho_cycle"], "count")
    out["construct.sigma_ms"] = (ms(incl["construct.sigma"]), "ms")
    out["construct.rho_ms"] = (
        ms(incl["construct.rho_path"] + incl["construct.rho_cycle"]), "ms")
    out["construct.self_ms"] = (ms(sum(self_s[n] for n in constructs)), "ms")
    out["construct.selfcheck_ms"] = (ms(m["construct.selfcheck_s"]), "ms")
    return {name: (value / passes, f"{unit}/pass") if unit in ("count", "ms")
            else (value, unit) for name, (value, unit) in out.items()}
