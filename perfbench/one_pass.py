"""One benchmark pass in a fresh interpreter.

Imports eideal from ``src/`` of the current directory, runs every cell of a
workload once at workers=1, checks each cell's canonical output and prints
one JSON line:

    python3 perfbench/one_pass.py --workload W --seed N --spawned T [--trace]
    python3 perfbench/one_pass.py --setup-only --spawned T

``T`` is ``time.monotonic()`` read by the parent just before it started this
process, so ``setup_s`` spans interpreter start-up plus ``import eideal``.

The shared 2-CPU hosts this runs on change speed by up to 1.5x over tens of
seconds.  A fixed calibration kernel that shares no code with eideal is timed
before every cell and after the last one, and the pass times are also given
rescaled to the kernel's reference speed: ``wall_ref_s = wall_s *
REFERENCE_CALIBRATION_S / calibration_s``, and the same for CPU time.  The
kernel runs outside the timed cells.
"""

import os
import sys
import time

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)
import eideal  # noqa: E402  (timed: the end of set-up)

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# Typical seconds of one calibrate() call on the machine the benchmark was
# defined on; it only sets the scale of the *_ref_s metrics.
REFERENCE_CALIBRATION_S = 0.08


def run_cell(cell: dict) -> str:
    """Run one cell and return its canonical (timing-free) output."""
    from eideal import comb_invariants, experiments, random_models

    if "config" in cell:
        config = experiments.ExperimentConfig.from_json(cell["config"])
        report = experiments.run_experiment(config, workers=1)
        return report.to_json(include_timing=False)
    m = cell["matching"]
    n = m["n"]
    values = []
    for t in range(m["samples"]):
        g = random_models.sample_gnp(
            n, m["lambda"] / n,
            random_models.substream_seed(m["seed"], "matching", n, t))
        values.append([comb_invariants.induced_matching_number(g),
                       comb_invariants.matching_number(g)])
    return json.dumps(values) + "\n"


def calibrate() -> float:
    """Seconds for a fixed kernel: bitmask BFS over 48 rows, dict writes and
    numpy draws, the kinds of work eideal's layers do."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(1))
    rows = [(i * 0x9E3779B97F4A7C15 >> 7) & ((1 << 48) - 1) for i in range(48)]
    seen = {}
    for rep in range(6000):
        comp = frontier = 1 << (rep % 48)
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & -m
                grow |= rows[low.bit_length() - 1]
                m ^= low
            frontier = grow & ~comp
            comp |= frontier
        seen[rep] = [comp.bit_count(), rep]
        if rep % 100 == 0:
            seen[-rep] = int(np.packbits(rng.random(20000) < 0.5).sum())
    return time.perf_counter() - start


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload: str, seed: int, tracer) -> dict:
    cells = workloads.cells(workload, seed)
    references = checks.load_references().get(workload, {}).get(
        str(workloads.pool_index(seed)), {})
    outputs, seconds, calibrations = {}, {}, []
    cpu = 0.0
    for cell in cells:
        calibrations.append(calibrate())
        if tracer is not None:
            tracer.cell = cell["name"]
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            outputs[cell["name"]] = run_cell(cell)
        except Exception as exc:  # a failed cell is counted, not fatal
            outputs[cell["name"]] = exc
        seconds[cell["name"]] = time.perf_counter() - start
        cpu += cpu_seconds() - cpu0
    calibrations.append(calibrate())
    wall = sum(seconds.values())
    scale = REFERENCE_CALIBRATION_S / statistics.mean(calibrations)
    results = []
    for cell in cells:
        out = outputs[cell["name"]]
        if isinstance(out, Exception):
            problems = ["raised " + "".join(
                traceback.format_exception(out))[-2000:]]
            digest = None
        else:
            problems = checks.cell_problems(cell, out,
                                            references.get(cell["name"]))
            digest = checks.sha256(out)
        results.append({"name": cell["name"],
                        "seconds": seconds[cell["name"]],
                        "sha256": digest, "problems": problems})
    return {"wall_s": wall, "cpu_s": cpu, "wall_ref_s": wall * scale,
            "cpu_ref_s": cpu * scale, "calibration_s": calibrations,
            "cells": results}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if os.path.dirname(os.path.abspath(eideal.__file__)) != os.path.join(
            SRC, "eideal"):
        print(f"imported eideal from {eideal.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    result = {"setup_s": IMPORTED - args.spawned}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import importlib
            from tracer import TRACED, Tracer
            for name in TRACED:
                importlib.import_module(f"eideal.{name}")
            tracer = Tracer()
            tracer.install({name.rsplit(".", 1)[1]: mod
                            for name, mod in sys.modules.items()
                            if name.startswith("eideal.")})
        result.update(run_pass(args.workload, args.seed, tracer))
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            layers = tracer.summary()
            layers["trace.uncovered_s"] = (result["wall_s"]
                                           - layers.pop("trace.top_level_s"))
            result["layers"] = layers
            os.makedirs(SPANS_DIR, exist_ok=True)
            path = os.path.join(SPANS_DIR,
                                f"{args.workload}-seed{args.seed}.spans.json")
            with open(path, "w") as fh:
                json.dump(tracer.dump(), fh, allow_nan=False)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
