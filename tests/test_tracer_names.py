"""The benchmark's traced run wraps public eideal functions by name and reads
fields of their results; a function renamed or deleted here, or a result
whose shape changed, would otherwise break ``--trace 1`` only when the
benchmark runs."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

from eideal.graph_core import cycle_graph, disjoint_union, path_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolve(name):
    module, function = name.split(".")
    return getattr(importlib.import_module(f"eideal.{module}"), function,
                   None)


def test_traced_functions_exist():
    tracer = _tracer()
    assert tracer.FUNCTIONS
    for name in tracer.FUNCTIONS:
        assert callable(_resolve(name)), name


def test_on_return_hooks_read_real_results():
    # A censored 20-cycle next to a path: two components, one censored.
    graph = disjoint_union(cycle_graph(20), path_graph(3))
    inputs = {"graph_core.connected_components": graph,
              "betti.betti_table": cycle_graph(5),
              "betti.regularity_componentwise": graph,
              "betti.pd_componentwise": graph}
    expected = {
        "graph_core.connected_components":
            {"graph_core.connected_components.components": 2},
        "betti.betti_table": {"betti.betti_table.vertex_sum": 5},
    }
    for prefix in ("betti.regularity_componentwise", "betti.pd_componentwise"):
        expected[prefix] = {f"{prefix}.components": 2,
                            f"{prefix}.censored_components": 1,
                            f"{prefix}.censored_calls": 1}
    tracer = _tracer()
    assert set(tracer.ON_RETURN) == set(expected)
    for name, hook in tracer.ON_RETURN.items():
        counts = defaultdict(int)
        args = (inputs[name],)
        hook(counts, args, {}, _resolve(name)(*args))
        assert dict(counts) == expected[name], name
        assert set(counts) <= set(tracer.COUNTS), name
