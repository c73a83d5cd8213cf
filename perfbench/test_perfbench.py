"""Tests of the benchmark itself: seeded configs, output checks, tracer and
the metric names promised in BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from eideal.experiments import ExperimentConfig  # noqa: E402


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_cells_depend_only_on_the_seed_pool_index():
    for workload in workloads.WORKLOADS:
        assert workloads.cells(workload, 3) == workloads.cells(workload, 3)
        assert (workloads.cells(workload, 3)
                == workloads.cells(workload, 3 + workloads.POOL))
        assert workloads.cells(workload, 3) != workloads.cells(workload, 4)
        for cell in workloads.cells(workload, 3):
            if "config" in cell:
                ExperimentConfig.from_json(cell["config"])


def test_every_cell_has_a_pinned_reference():
    refs = checks.load_references()
    for workload in workloads.WORKLOADS:
        for index in range(workloads.POOL):
            names = {c["name"] for c in workloads.cells(workload, index)}
            assert set(refs[workload][str(index)]) == names


FROBERG = workloads.cells("small_graph_audits", 0)[0]


@pytest.fixture(scope="module")
def froberg_report():
    """A real canonical report of a small audit, with its pinned hash."""
    from eideal.experiments import run_experiment
    config = ExperimentConfig.from_json(FROBERG["config"])
    report = run_experiment(config, workers=1)
    text = report.to_json(include_timing=False)
    ref = checks.load_references()["small_graph_audits"]["0"]["froberg_audit"]
    return text, ref


def test_unperturbed_report_passes(froberg_report):
    text, ref = froberg_report
    assert checks.cell_problems(FROBERG, text, ref) == []


def perturb(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_perturbed_reports_are_caught(froberg_report):
    text, ref = froberg_report

    def bump_estimate(obj):
        obj["cells"][1]["ci_lo"] = 1e-9

    def add_witness(obj):
        obj["witnesses"].append({"n": 6, "edge_mask": 1, "flags": {}})

    def short_audit(obj):
        obj["cells"][0]["trials"] -= 1

    def disagree(obj):
        obj["cells"][2]["estimate"] = 1.0

    for edit in (bump_estimate, add_witness, short_audit, disagree):
        assert checks.cell_problems(FROBERG, perturb(text, edit), ref), \
            edit.__name__
    # Caught by content alone, with the reference hash recomputed to match.
    for edit in (add_witness, short_audit, disagree):
        bad = perturb(text, edit)
        assert checks.cell_problems(FROBERG, bad, checks.sha256(bad)), \
            edit.__name__
    nan = text.replace('"theory": 0.0', '"theory": NaN', 1)
    assert nan != text
    assert checks.cell_problems(FROBERG, nan, checks.sha256(nan))
    assert checks.cell_problems(FROBERG, text, None) == [
        "no pinned reference"]


def test_matching_check():
    cell = {"name": "matching", "matching": {}}
    assert checks.content_problems(cell, "[[1, 2], [3, 3]]") == []
    assert checks.content_problems(cell, "[[1, 2], [4, 3]]")


def test_tracer_spans_self_time_and_dispatch_tables():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    mod.TABLE = {"outer": outer}
    user = types.ModuleType("user")
    user.inner = inner  # a caller that imported the function by name

    t = tracer.Tracer()
    t.install({"fake": mod, "user": user},
              traced={"fake": ("inner", "outer")})
    t.cell = "c1"
    assert mod.TABLE["outer"](1) == 4
    assert user.inner(1) == 2
    assert [s[0] for s in t.spans] == ["fake.outer", "fake.inner",
                                       "fake.inner", "fake.inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0, -1]
    assert {s[4] for s in t.spans} == {"c1"}
    out = t.summary(functions=("fake.outer", "fake.inner"))
    assert out["fake.outer.calls"] == 1 and out["fake.inner.calls"] == 3
    outer_span = t.spans[0]
    children = sum(s[2] - s[1] for s in t.spans[1:3])
    assert out["fake.outer.self_s"] == pytest.approx(
        outer_span[2] - outer_span[1] - children)
    assert out["trace.top_level_s"] == pytest.approx(
        outer_span[2] - outer_span[1] + t.spans[3][2] - t.spans[3][1])
    dump = t.dump()
    assert dump["names"] == ["fake.outer", "fake.inner"]
    assert len(dump["spans"]) == 4


def fake_pass(seed, traced, wall):
    p = {"seed": seed, "traced": traced, "wall_s": wall, "cpu_s": wall,
         "wall_ref_s": wall, "cpu_ref_s": wall, "setup_s": 0.3,
         "peak_rss_mb": 50.0,
         "cells": [{"name": "a", "seconds": wall, "sha256": "x",
                    "problems": []}]}
    if traced:
        layers = tracer.Tracer().summary()
        layers["trace.uncovered_s"] = wall - layers.pop("trace.top_level_s")
        p["layers"] = layers
    return p


def test_metric_names_match_benchmark_json():
    spec = benchmark_json()
    wl = spec["workloads"][0]["name"]
    untraced = [fake_pass(k, False, 1.0 + k) for k in range(3)]
    e2e = run.summarize(wl, False, untraced, [0.3], [])["metrics"]
    pairs = [fake_pass(k, traced, 1.0 + k + 0.2 * traced)
             for k in range(3) for traced in (False, True)]
    layers = run.summarize(wl, True, pairs, [0.3], [])["metrics"]
    for declared, got in ((spec["end_to_end"], e2e),
                          (spec["per_layer"], layers)):
        assert [m["name"] for m in declared] == list(got)
        assert [m["unit"] for m in declared] == [v["unit"]
                                                  for v in got.values()]
    assert e2e["wall_ref_s"]["value"] == 2.0
    assert layers["trace.overhead_s"]["value"] == pytest.approx(0.2)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_failed_pass_counts_every_cell():
    wl = "small_graph_audits"
    n_cells = len(workloads.cells(wl, 0))
    result = run.summarize(wl, False, [fake_pass(0, False, 1.0)], [0.3],
                           ["pass exited 1"])
    assert result["attempted"] == 1 + n_cells
    assert result["failed"] == n_cells
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *benchmark_json()["command"][1:], "--workload",
         workloads.WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
