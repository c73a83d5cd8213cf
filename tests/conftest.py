"""Tier-1's wall time, raw and in the benchmark's reference units.

The fixed kernel ``calibrate()`` of ``perfbench/one_pass.py`` is timed
three times at the start and three times at the end of the session, and
the session's seconds are printed also scaled by
``REFERENCE_CALIBRATION_S`` over the mean of the two medians, as the
benchmark scales ``wall_ref_s``.  A median of three damps one sample slowed
by a burst of load.  Nothing is skipped or gated by it.
"""

import importlib.util
import statistics
import sys
import time
from pathlib import Path

import eideal  # noqa: F401  (bound first: one_pass imports eideal by name)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_session: dict = {}
SAMPLES = 3


def _one_pass():
    """perfbench/one_pass.py, loaded by path with its directory on sys.path
    while it imports its sibling modules."""
    spec = importlib.util.spec_from_file_location("perfbench_one_pass",
                                                  PERFBENCH / "one_pass.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def pytest_sessionstart(session):
    one_pass = _one_pass()
    _session.update(one_pass=one_pass, start_s=_median_calibration(one_pass),
                    start=time.perf_counter())


def _median_calibration(one_pass) -> float:
    """The median of SAMPLES ``calibrate()`` timings, in seconds."""
    return statistics.median(one_pass.calibrate() for _ in range(SAMPLES))


def pytest_terminal_summary(terminalreporter):
    if "start" not in _session:
        return
    seconds = time.perf_counter() - _session["start"]
    one_pass = _session["one_pass"]
    start, end = _session["start_s"], _median_calibration(one_pass)
    scale = one_pass.REFERENCE_CALIBRATION_S / statistics.mean((start, end))
    terminalreporter.write_line(
        f"test session: {seconds:.1f} s raw, {seconds * scale:.1f} s in "
        f"reference units (calibrate() took a median {start:.3f} s of "
        f"{SAMPLES} at the start and {end:.3f} s at the end; reference "
        f"{one_pass.REFERENCE_CALIBRATION_S} s)")
