"""Span tracer for the benchmark's traced run.

The tracer wraps public eideal functions from outside: it replaces module
attributes, and entries of module-level dispatch dicts such as
``experiments.RUNNERS``, in every eideal module that refers to a traced
function.  Calls between modules and calls within one module both go through
the wrapper, so nested spans give self time.  Nothing in ``src/`` changes;
only the traced process is patched.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Public functions traced per module, as <module>.<function>.
TRACED = {
    "random_models": ("sample_gnp", "sample_gw_tree"),
    "graph_core": ("complement", "connected_components"),
    "chordality": ("is_cochordal", "is_4_cochordal", "is_chordal",
                   "has_induced_c4", "count_chordless_cycles"),
    "betti": ("betti_table", "regularity_componentwise", "pd_componentwise",
              "has_linear_resolution", "has_linear_presentation"),
    "comb_invariants": ("cover_profile", "tree_induced_matching", "is_forest",
                        "induced_matching_number", "matching_number"),
    "asymptotics": ("gw_limit_estimate",),
    "corpus": ("exhaustive_flag_audit", "flag_tables", "random_flag_audit"),
    "experiments": ("run_threshold", "run_gw_limit", "run_variance_audit",
                    "run_unmixed_scan", "run_froberg_audit",
                    "run_lipschitz_audit", "run_cycle_calibration"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _componentwise(prefix):
    def observe(counts, args, kwargs, result):
        counts[f"{prefix}.components"] += result.total_components
        counts[f"{prefix}.censored_components"] += result.censored_components
        counts[f"{prefix}.censored_calls"] += result.censored_components > 0
    return observe


def _components(counts, args, kwargs, result):
    counts["graph_core.connected_components.components"] += len(result)


def _betti_vertices(counts, args, kwargs, result):
    graph = args[0] if args else kwargs["g"]
    counts["betti.betti_table.vertex_sum"] += graph.n


# Counts taken from a traced call's arguments and result.
ON_RETURN = {
    "graph_core.connected_components": _components,
    "betti.betti_table": _betti_vertices,
    "betti.regularity_componentwise":
        _componentwise("betti.regularity_componentwise"),
    "betti.pd_componentwise": _componentwise("betti.pd_componentwise"),
}

# Counts of exceptions a traced call raised, by exception class name.
ON_RAISE = {
    "comb_invariants.cover_profile":
        ("BudgetExceededError", "comb_invariants.cover_profile.budget_trips"),
}

COUNTS = (
    "graph_core.connected_components.components",
    "betti.betti_table.vertex_sum",
    "betti.regularity_componentwise.components",
    "betti.regularity_componentwise.censored_components",
    "betti.regularity_componentwise.censored_calls",
    "betti.pd_componentwise.components",
    "betti.pd_componentwise.censored_components",
    "betti.pd_componentwise.censored_calls",
    "comb_invariants.cover_profile.budget_trips",
)


class Tracer:
    """In-memory spans ``(name, start, end, parent, cell)`` plus counts.

    ``parent`` is the index of the enclosing traced span, or -1 for a
    top-level span; ``cell`` is whatever ``self.cell`` held at call time.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.cell = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        on_return = ON_RETURN.get(name)
        on_raise = ON_RAISE.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise and type(exc).__name__ == on_raise[0]:
                    counts[on_raise[1]] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.cell)
            if on_return:
                on_return(counts, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict, traced: dict = TRACED):
        """Wrap ``traced`` functions of ``modules`` (name -> module) and
        rebind every reference to them held by those modules."""
        wrappers = {}
        for mod_name, fn_names in traced.items():
            for fn_name in fn_names:
                fn = getattr(modules[mod_name], fn_name)
                wrappers[id(fn)] = self.wrap(f"{mod_name}.{fn_name}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict) and any(
                        id(v) in wrappers for v in value.values()):
                    setattr(module, attr, {k: wrappers.get(id(v), v)
                                           for k, v in value.items()})

    def summary(self, functions=FUNCTIONS) -> dict:
        """Per-function ``.s``, ``.self_s``, ``.calls`` and the counts, plus
        ``betti.betti_table.max_s`` and the time under top-level spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in functions:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        max_betti = 0.0
        top_level = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child_time[i]
            out[f"{name}.calls"] += 1
            if name == "betti.betti_table":
                max_betti = max(max_betti, dur)
            if parent < 0:
                top_level += dur
        for key in COUNTS:
            out[key] = int(self.counts.get(key, 0))
        out["betti.betti_table.max_s"] = max_betti
        out["trace.top_level_s"] = top_level
        return out

    def dump(self) -> dict:
        """Spans as compact JSON-ready lists, names and cells interned."""
        names: dict = {}
        cells: dict = {}
        rows = []
        for name, start, end, parent, cell in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end,
                         parent, cells.setdefault(cell, len(cells))])
        return {"names": list(names), "cells": list(cells),
                "fields": ["name", "start", "end", "parent", "cell"],
                "spans": rows}
