"""Spans around the calls into each layer of hav, recorded from outside.

`Tracer.install` replaces the module attributes the pipeline looks up at
call time with wrappers that record a span while the tracer is active.
Sizes are read from return values after the case, outside every span. A
name missing from a module is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import hav.cli
import hav.linsolve
import hav.mcheck
import hav.minsky
import hav.textfmt

from oracles import kripke_successors, reachable

#: per-layer metrics in the order they are printed, with their units
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("textfmt.parse_model_s", "s"),
    ("textfmt.parse_ltl_s", "s"),
    ("textfmt.emit_counterexample_s", "s"),
    ("compose.product_s", "s"),
    ("compose.modes", "count"),
    ("compose.transitions", "count"),
    ("compose.reachable_ratio", "ratio"),
    ("regions.region_graph_s", "s"),
    ("regions.states", "count"),
    ("regions.transitions", "count"),
    ("regions.deadlocks", "count"),
    ("regions.reachable_ratio", "ratio"),
    ("buchi.translate_s", "s"),
    ("buchi.states", "count"),
    ("buchi.transitions", "count"),
    ("buchi.accepting", "count"),
    ("mcheck.product_s", "s"),
    ("mcheck.product_nodes", "count"),
    ("mcheck.product_edges", "count"),
    ("mcheck.emptiness_s", "s"),
    ("mcheck.lasso_len", "count"),
    ("mcheck.check_self_s", "s"),
    ("mcheck.check_timed_self_s", "s"),
    ("semantics.path_feasible_s", "s"),
    ("semantics.path_queries", "count"),
    ("semantics.path_edges", "count"),
    ("semantics.feasible_ratio", "ratio"),
    ("semantics.simulate_s", "s"),
    ("linsolve.solve_s", "s"),
    ("linsolve.constraints", "count"),
    ("linsolve.vars", "count"),
    ("bisim.quotient_s", "s"),
    ("bisim.blocks", "count"),
    ("minsky.encode_s", "s"),
    ("minsky.run_path_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

#: span name -> the metric that sums its self time
SELF_TIME_METRIC = {
    "cli.run_cli": "cli.self_s",
    "mcheck.check": "mcheck.check_self_s",
    "mcheck.check_timed": "mcheck.check_timed_self_s",
}

#: ratio metric -> (numerator count, denominator count)
RATIOS = {
    "compose.reachable_ratio": ("compose.reachable", "compose.modes"),
    "regions.reachable_ratio": ("regions.reachable", "regions.states"),
    "semantics.feasible_ratio": ("semantics.feasible", "semantics.path_queries"),
}


def _compose_sizes(result, args):
    succ: dict = {}
    for t in result.transitions:
        succ.setdefault(t.source, set()).add(t.target)
    live = reachable(result.initial_modes, lambda m: succ.get(m, ()))
    return {"compose.modes": len(result.modes), "compose.transitions": len(result.transitions),
            "compose.reachable": len(live)}


def _region_sizes(result, args):
    k = result.kripke
    live = reachable(k.initial, kripke_successors(k).__getitem__)
    return {"regions.states": k.state_count, "regions.transitions": len(k.transitions),
            "regions.deadlocks": len(result.deadlocks), "regions.reachable": len(live)}


def _buchi_sizes(result, args):
    return {"buchi.states": len(result.states), "buchi.transitions": len(result.transitions),
            "buchi.accepting": len(result.accepting)}


def _product_sizes(result, args):
    return {"mcheck.product_nodes": len(result.adjacency),
            "mcheck.product_edges": sum(len(out) for out in result.adjacency.values())}


def _lasso_sizes(result, args):
    if result is None:
        return {}
    return {"mcheck.lasso_len": len(result.stem_edges) + len(result.loop_edges)}


def path_sizes(result, args):
    return {"semantics.path_queries": 1, "semantics.path_edges": len(args[1].edges),
            "semantics.feasible": int(result.feasible)}


def _solve_sizes(result, args):
    system = args[0]
    return {"linsolve.constraints": len(system.constraints), "linsolve.vars": system.nvars}


def _quotient_sizes(result, args):
    return {"bisim.blocks": result[1].size}


#: (owner, attribute, span name, sizer) for every wrapped name
TARGETS = (
    (hav.cli, "parse_model", "textfmt.parse_model", None),
    (hav.cli, "product", "compose.product", _compose_sizes),
    (hav.cli, "parse_ltl", "textfmt.parse_ltl", None),
    (hav.cli, "region_graph", "regions.region_graph", _region_sizes),
    (hav.cli, "check_timed", "mcheck.check_timed", None),
    (hav.cli, "coarsest_quotient", "bisim.quotient", _quotient_sizes),
    (hav.textfmt, "emit_counterexample", "textfmt.emit_counterexample", None),
    (hav.mcheck, "check", "mcheck.check", None),
    (hav.mcheck, "translate_to_buchi", "buchi.translate", _buchi_sizes),
    (hav.mcheck, "synchronized_product", "mcheck.product", _product_sizes),
    (hav.mcheck, "nested_dfs_emptiness", "mcheck.emptiness", _lasso_sizes),
    (hav.mcheck, "path_feasible", "semantics.path_feasible", path_sizes),
    (hav.mcheck, "simulate", "semantics.simulate", None),
    (hav.minsky, "encode", "minsky.encode", None),
    (hav.minsky, "encoded_run_path", "minsky.run_path", None),
    (hav.minsky, "path_feasible", "semantics.path_feasible", path_sizes),
    (getattr(hav.linsolve, "LinearSystem", None), "solve", "linsolve.solve", _solve_sizes),
)


class Tracer:
    """In-memory spans (name, start, end, parent index, case id) plus counts."""

    def __init__(self):
        self.active = False
        self.case = None
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._pending: list = []
        self._installed: list = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, sizer, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; sizes are read later."""
        if not self.active:
            return fn(*args, **kwargs)
        with self.span(name):
            result = fn(*args, **kwargs)
        if sizer is not None:
            self._pending.append((sizer, result, args))
        return result

    def install(self) -> None:
        for owner, attr, name, sizer in TARGETS:
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is not None:
                setattr(owner, attr, self._wrap(name, sizer, original))
                self._installed.append((owner, attr, original))

    def _wrap(self, name: str, sizer, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, sizer, original, *args, **kwargs)
        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def flush(self) -> None:
        """Read the sizes of the results returned since the last flush."""
        for sizer, result, args in self._pending:
            for key, value in sizer(result, args).items():
                self.counts[key] += value
        self._pending.clear()

    def totals(self) -> dict:
        """Self time per metric and the counts, summed over every span."""
        out: defaultdict = defaultdict(float, self.counts)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            metric = SELF_TIME_METRIC.get(name, name + "_s")
            out[metric] += (end - start) - child[i]
        out["trace.spans"] = len(self.spans)
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def layer_metrics(setup: dict, passes: dict, traced_passes: int, overhead: float) -> dict:
    """Setup totals plus the mean over traced passes, with ratios of sums."""
    values: defaultdict = defaultdict(float, setup)
    for key, value in passes.items():
        values[key] += value / traced_passes
    values["trace.overhead_s"] = overhead
    for metric, (num, den) in RATIOS.items():
        values[metric] = values[num] / values[den] if values[den] else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
