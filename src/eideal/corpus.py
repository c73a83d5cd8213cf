"""Exhaustive audit of the resolution/presentation equivalences on every
labeled graph with few vertices.

The homology side cannot afford a full per-graph table at corpus scale, so
subset contributions are aggregated with numpy: for each k-subset of the
vertices (k = 4, 5, 6) the induced edge mask is gathered bitwise for all
graphs at once and looked up in precomputed flag tables indexed by labeled
k-vertex graphs.  Only graphs still undecided after proper subsets get a
direct top-set homology call.  The combinatorial side runs the real
chordality predicates per graph.  Flag tables use GF(2) ranks; at these
sizes coefficients cannot matter (see the field-independence tests), and
the kernel itself is validated against the public per-graph functions.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .betti import (HomologyEngine, has_linear_presentation,
                    has_linear_resolution)
from .chordality import has_induced_c4, is_chordal
from .experiments import _chunk_ranges, run_chunked
from .graph_core import (complement, graph_from_edge_mask, pair_index,
                         pair_list)
from .random_models import rng_for

_AUDIT_FIELD = "f2"
_TABLE_SIZES = (4, 5, 6)
_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Largest n whose n(n-1)/2 pair bits fit the uint64 draw of a random audit.
MAX_RANDOM_AUDIT_N = 11


def flag_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(haspos, lp_flag) over all labeled k-vertex graphs by edge mask:
    haspos marks homology in degree >= 1, lp_flag homology in degree k-3."""
    cached = _tables.get(k)
    if cached is not None:
        return cached
    pairs = pair_list(k)
    size = 1 << len(pairs)
    haspos = np.zeros(size, dtype=np.uint8)
    lpflag = np.zeros(size, dtype=np.uint8)
    full = (1 << k) - 1
    for mask in range(size):
        g = graph_from_edge_mask(k, mask, pairs)
        dims = HomologyEngine(g, _AUDIT_FIELD).dims(full)
        if any(d >= 1 and r for d, r in dims.items()):
            haspos[mask] = 1
        if dims.get(k - 3, 0):
            lpflag[mask] = 1
    _tables[k] = (haspos, lpflag)
    return _tables[k]


def _gather_positions(n: int, subset: tuple[int, ...]) -> list[tuple[int, int]]:
    k = len(subset)
    out = []
    for a in range(k):
        for b in range(a + 1, k):
            out.append((pair_index(n, subset[a], subset[b]),
                        pair_index(k, a, b)))
    return out


def _subset_violations(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-graph flags: some proper subset of size 4..min(6, n-1) already
    breaks linear resolution / linear presentation."""
    lr_viol = np.zeros(len(masks), dtype=np.uint8)
    lp_viol = np.zeros(len(masks), dtype=np.uint8)
    for k in _TABLE_SIZES:
        if k >= n:
            continue
        haspos, lpflag = flag_tables(k)
        for subset in combinations(range(n), k):
            ind = np.zeros(len(masks), dtype=np.uint32)
            for src, dst in _gather_positions(n, subset):
                ind |= ((masks >> np.uint32(src)) & np.uint32(1)) << np.uint32(dst)
            lr_viol |= haspos[ind]
            lp_viol |= lpflag[ind]
    return lr_viol, lp_viol


def _disagreement(g, lr: bool, lp: bool) -> dict | None:
    """All four flags of g if the homological side (lr, lp) disagrees with
    the chordal side of its complement, else None."""
    comp = complement(g)
    cochordal = is_chordal(comp)
    gap_free = not has_induced_c4(comp)
    if lr == cochordal and lp == gap_free:
        return None
    return {"linear_resolution": lr, "cochordal": cochordal,
            "linear_presentation": lp, "four_cochordal": gap_free}


def _audit_chunk(task):
    n, lo, hi = task
    pairs = pair_list(n)
    masks = np.arange(lo, hi, dtype=np.uint32)
    lr_viol, lp_viol = _subset_violations(n, masks)
    full_vertices = (1 << n) - 1
    top_lp_degree = n - 3
    mismatches = []
    for i in range(hi - lo):
        mask = lo + i
        g = graph_from_edge_mask(n, mask, pairs)
        lr = not lr_viol[i]
        lp = not lp_viol[i]
        if lr or lp:
            dims = HomologyEngine(g, _AUDIT_FIELD).dims(full_vertices)
            if lr and any(d >= 1 and r for d, r in dims.items()):
                lr = False
            if lp and dims.get(top_lp_degree, 0):
                lp = False
        flags = _disagreement(g, lr, lp)
        if flags:
            mismatches.append((mask, flags))
    return (hi - lo), mismatches


def exhaustive_flag_audit(n: int, workers: int = 1):
    """Check linear resolution == cochordal and linear presentation ==
    4-cochordal on all labeled n-vertex graphs; returns (checked, mismatches).
    """
    if n > 7:
        raise ValueError("exhaustive audit is for n <= 7")
    for k in _TABLE_SIZES:
        if k < n:
            flag_tables(k)  # build pre-fork so workers share the tables
    total = 1 << (n * (n - 1) // 2)
    tasks = [(n, lo, hi) for lo, hi in _chunk_ranges(total, workers * 4)]
    results = run_chunked(_audit_chunk, tasks, workers)
    checked = sum(r[0] for r in results)
    mismatches = [m for r in results for m in r[1]]
    return checked, mismatches


def random_flag_audit(n: int, count: int, seed: int):
    """Randomized spot audit at sizes beyond the exhaustive sweep, driven by
    the public (rational-coefficient) predicates."""
    if n > MAX_RANDOM_AUDIT_N:
        raise ValueError(f"random_flag_audit draws a 64-bit edge mask, so n "
                         f"must be <= {MAX_RANDOM_AUDIT_N}, got {n}")
    rng = rng_for(seed, "random_flag_audit", n)
    pairs = pair_list(n)
    nbits = len(pairs)
    mismatches = []
    for _ in range(count):
        mask = int(rng.integers(0, 1 << nbits, dtype=np.uint64))
        g = graph_from_edge_mask(n, mask, pairs)
        lr = has_linear_resolution(g)
        lp = has_linear_presentation(g)
        flags = _disagreement(g, lr, lp)
        if flags:
            mismatches.append((mask, flags))
    return mismatches
