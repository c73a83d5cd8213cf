"""Seeded workload definitions for the eideal benchmark.

A workload is an ordered list of cells.  Every cell but one is an experiment
config handed to ``eideal.experiments.run_experiment``; the ``matching`` cell
of ``sparse_growth`` calls the matching solvers directly, because no
experiment runner covers them.

A pass seed picks one of ``POOL`` config seeds, so that the canonical report
of every cell the benchmark can generate has a pinned reference in
``references.json``.  ``run.py`` gives pass ``k`` of workload seed ``s`` the
pass seed ``s * MIN_PASSES + k``; with ``MIN_PASSES = 5`` and ``POOL = 50``,
ten consecutive workload seeds see disjoint pool entries.  The program under
test sees only the generated configs.

Trial counts keep one pass near 5 s on a 2-CPU machine.  The lambda = 1 cells
of ``sparse_growth`` (``variance_audit``, ``matching``) are kept small: a
single trial there can cost 0.5-1 s (a cyclic component near the Betti guard
over Q, or the matching branch), and more of them would make a pass's time
depend on the seed more than on the program.
"""

from __future__ import annotations

import hashlib

POOL = 50

WORKLOADS = ("critical_windows", "sparse_growth", "small_graph_audits")

# Exhaustive Froberg audit size; the audit must check every labeled graph on
# this many vertices, 2**(6*5/2) of them.
EXHAUSTIVE_N = 6
EXHAUSTIVE_GRAPHS = 2 ** (EXHAUSTIVE_N * (EXHAUSTIVE_N - 1) // 2)


def pool_index(seed: int) -> int:
    return seed % POOL


def config_seed(workload: str, index: int) -> int:
    """The 63-bit experiment seed of pool entry ``index`` of a workload."""
    digest = hashlib.sha256(f"{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cells(workload: str, seed: int) -> list[dict]:
    """The workload's cells, in run order, for a pass seed.

    Each cell is ``{"name": ..., "config": {...}}`` for an experiment, or
    ``{"name": "matching", "matching": {...}}`` for the matching cell.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of "
                         f"{WORKLOADS}")
    s = config_seed(workload, pool_index(seed))
    if workload == "critical_windows":
        return [
            {"name": "dense_lp", "config": {
                "kind": "threshold", "seed": s, "trials": 300,
                "n_list": [400],
                "schedule": {"kind": "window_dense", "lambda": 16.0},
                "predicates": ["is_4_cochordal"]}},
            {"name": "dense_lr", "config": {
                "kind": "threshold", "seed": s, "trials": 300,
                "n_list": [400],
                "schedule": {"kind": "window_dense", "lambda": 0.5},
                "predicates": ["is_cochordal"]}},
            {"name": "sparse", "config": {
                "kind": "threshold", "seed": s, "trials": 250,
                "n_list": [2000],
                "schedule": {"kind": "window_sparse", "lambda": 4.0},
                "predicates": ["is_cochordal", "is_4_cochordal"]}},
        ]
    if workload == "sparse_growth":
        return [
            {"name": "gw_limit", "config": {
                "kind": "gw_limit", "seed": s, "trials": 60,
                "n_list": [2000],
                "schedule": {"kind": "sparse", "lambda": 0.5},
                "gw_trials": 6000, "gw_cap": 10 ** 5}},
            {"name": "variance_audit", "config": {
                "kind": "variance_audit", "seed": s, "trials": 10,
                "n_list": [1000],
                "schedule": {"kind": "sparse", "lambda": 1.0}}},
            {"name": "unmixed_scan", "config": {
                "kind": "unmixed_scan", "seed": s, "trials": 30,
                "n_list": [10 ** 4],
                "schedule": {"kind": "power", "c": 1.0, "alpha": 1.75}}},
            {"name": "matching", "matching": {
                "seed": s, "n": 2000, "lambda": 1.0, "samples": 10}},
        ]
    return [
        {"name": "froberg_audit", "config": {
            "kind": "froberg_audit", "seed": s, "exhaustive_n": EXHAUSTIVE_N,
            "random_audit": [[8, 40], [9, 20]]}},
        {"name": "lipschitz_audit", "config": {
            "kind": "lipschitz_audit", "seed": s, "trials": 200}},
        {"name": "cycle_calibration", "config": {
            "kind": "cycle_calibration", "seed": s, "trials": 1200,
            "n_list": [60],
            "schedule": {"kind": "constant", "p": 0.1}, "k_max": 4}},
    ]
