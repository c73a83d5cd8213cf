"""The benchmark's traced run wraps public eideal functions by name; a
function renamed or deleted here would otherwise break ``--trace 1`` only
when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for name in tracer.FUNCTIONS:
        module, function = name.split(".")
        target = getattr(importlib.import_module(f"eideal.{module}"),
                         function, None)
        assert callable(target), name
