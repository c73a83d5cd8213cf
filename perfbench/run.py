"""eideal benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload critical_windows --seed 7 \
        --seconds 20 --trace 0

Run it from the root of a checkout: eideal is imported from ``src/``.  The
workload seed picks the experiment configs (see ``workloads.py``); eideal
only ever sees those configs, through
``run_experiment(ExperimentConfig.from_json(cfg), workers=1)``.

A pass runs every cell of the workload once, in order, in a fresh
interpreter, so per-process caches are paid as a user pays them.  Pass ``k``
of seed ``s`` uses pass seed ``s * MIN_PASSES + k``: the passes of one run
see different inputs, so the median over passes damps both the heavy-tailed
cost of single trials and the machine's own noise.  Passes repeat until
``--seconds`` have gone by, and at least ``MIN_PASSES`` times.  ``setup_s``
is the median over every pass plus ``SETUP_SAMPLES`` import-only
interpreters.

``--trace 0`` prints the end-to-end metrics, medians over passes: setup_s,
wall_ref_s (seconds for one pass) and cpu_ref_s (user plus system CPU
seconds, same span), both rescaled to a reference machine speed (see
``one_pass.py``), and peak_rss_mb.  Raw seconds go to the detail file.
``--trace 1`` runs each pass seed untraced and then traced, and prints the
per-layer metrics of the traced passes (see ``tracer.py``) plus
``trace.overhead_s``, the median traced minus untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (cells, over all passes) and
``metrics``.  A cell fails as described in ``checks.py``.  Per-pass details,
provenance and the spans of traced passes go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ONE_PASS = os.path.join(HERE, "one_pass.py")
OUT_DIR = os.path.join(HERE, "out")
MIN_PASSES = 5
MIN_TRACED_PAIRS = 3
SETUP_SAMPLES = 5
# Every run must end within 180 s; no pass starts after this many seconds.
LAST_PASS_START_S = 110.0
CHILD_TIMEOUT_S = 165.0


class PassFailed(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    """Run one_pass.py in a fresh interpreter; return its JSON line."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, ONE_PASS, "--spawned", repr(spawned), *args],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "git_commit": git_commit(),
            "platform": platform.platform()}


def run_passes(workload: str, seed: int, seconds: int, trace: bool):
    """Run passes on successive pass seeds until ``seconds`` have gone by;
    with ``trace`` each pass seed runs untraced, then traced.  Returns
    (passes, setup samples, failures); the first failure ends the run."""
    start = time.monotonic()
    min_seeds = MIN_TRACED_PAIRS if trace else MIN_PASSES
    setups, passes = [], []

    def child(args):
        remaining = start + CHILD_TIMEOUT_S - time.monotonic()
        return spawn(args, max(1.0, remaining))

    try:
        child(["--setup-only"])  # untimed: compiles bytecode
        for _ in range(SETUP_SAMPLES):
            setups.append(child(["--setup-only"])["setup_s"])
        k = 0
        while True:
            elapsed = time.monotonic() - start
            if ((k >= min_seeds and elapsed >= seconds)
                    or elapsed >= LAST_PASS_START_S):
                return passes, setups, []
            pass_seed = seed * MIN_PASSES + k
            for traced in ((False, True) if trace else (False,)):
                result = child(["--workload", workload, "--seed",
                                str(pass_seed)]
                               + (["--trace"] if traced else []))
                result.update(traced=traced, seed=pass_seed)
                setups.append(result["setup_s"])
                passes.append(result)
            k += 1
    except PassFailed as exc:
        return passes, setups, [str(exc)]


def summarize(workload, trace, passes, setups, failures):
    """The result line: cells attempted and failed over all passes, and the
    medians of the end-to-end (untraced) or per-layer (traced) metrics.  A
    pass that died counts every cell of the workload as failed."""
    n_cells = len(workloads.cells(workload, 0))
    attempted = sum(len(p["cells"]) for p in passes) + n_cells * len(failures)
    failed = n_cells * len(failures) + sum(
        1 for p in passes for c in p["cells"] if c["problems"])
    untraced = {p["seed"]: p for p in passes if not p["traced"]}
    traced = {p["seed"]: p for p in passes if p["traced"]}
    metrics = {}
    if not trace and untraced:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        for key, unit in (("wall_ref_s", "s"), ("cpu_ref_s", "s"),
                          ("peak_rss_mb", "MB")):
            metrics[key] = {"value": statistics.median(
                p[key] for p in untraced.values()), "unit": unit}
    elif trace and traced:
        first = next(iter(traced.values()))["layers"]
        for key, value in first.items():
            values = [p["layers"][key] for p in traced.values()]
            if isinstance(value, int):
                metrics[key] = {"value": statistics.median_low(values),
                                "unit": "count"}
            else:
                metrics[key] = {"value": statistics.median(values),
                                "unit": "s"}
        metrics["trace.overhead_s"] = {"value": statistics.median(
            p["wall_s"] - untraced[s]["wall_s"] for s, p in traced.items()),
            "unit": "s"}
    if not metrics:  # no pass finished: nothing was measured
        attempted, failed = max(attempted, 1), max(failed, 1)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join("src", "eideal", "__init__.py")):
        print("run.py: no src/eideal here; run from the root of an eideal "
              "checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    passes, setups, failures = run_passes(args.workload, args.seed,
                                          args.seconds, trace)
    result = summarize(args.workload, trace, passes, setups, failures)
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(), "setup_samples": setups,
              "passes": passes, "pass_failures": failures, "result": result}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, allow_nan=False)
    for p in passes:
        bad = [f"{c['name']}: {'; '.join(c['problems'])}"
               for c in p["cells"] if c["problems"]]
        print(f"pass seed={p['seed']} traced={p['traced']} "
              f"wall_s={p['wall_s']:.3f} wall_ref_s={p['wall_ref_s']:.3f} "
              f"cpu_s={p['cpu_s']:.3f} setup_s={p['setup_s']:.3f}"
              + (f" FAILED {bad}" if bad else ""), file=sys.stderr)
    for f in failures:
        print(f"pass failed: {f}", file=sys.stderr)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
