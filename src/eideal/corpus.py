"""Exhaustive audit of the resolution/presentation equivalences on every
labeled graph with few vertices.

A graph G on n vertices has four flags: linear resolution (lr), linear
presentation (lp), cochordal and gap-free (4-cochordal).  Each holds iff no
induced subgraph breaks it, and each proper induced subgraph lies in some
G - v, so G's flags are the AND of those of its n vertex deletions, read
from the (n-1)-vertex tables, and of its top set (all n vertices) alone:

* lr, lp: homology of Ind(G) in degree d sits at Betti position
  (n - d - 1, n), read by ``betti.linearity``.  A cone (an empty row) has
  none.  A fold (N(x) subseteq N(y), ``betti.fold_vertex``) has Ind(G)
  homotopic to Ind(G - y), which the deletions cover: degree d >= 1 breaks
  resolution on G - y too, and degree n - 3 would sit at beta_{1,n-1} of
  G - y, where an edge ideal, generated in degree 2, has nothing.  So only
  the irreducible top sets of graphs the deletions leave open go to
  ``HomologyEngine.irreducible_dims``.  The 0-vertex graph breaks nothing.
* cochordal, gap-free: the complement is chordal (free of induced C4s) iff
  no induced subgraph (on 4 vertices) has a chordless cycle as complement.
  The top set's term is membership in the labeled complement-C_n masks,
  for gap-free at n = 4 only.

The audit runs the same recursion on its range of masks and compares lr
with cochordal and lp with gap-free.  The real ``is_chordal`` and
``has_induced_c4`` still run on every mask divisible by
``CROSS_CHECK_STRIDE``, and any disagreement with either side is a
mismatch; choosing the sample by mask keeps reports equal at any worker
count.  Flag tables use GF(2) ranks; at these sizes coefficients cannot
matter (see the field-independence tests), and the kernel itself is
validated against the public per-graph functions.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .betti import HomologyEngine, fold_vertex, linear_flags, linearity
from .chordality import has_induced_c4, is_chordal
from .experiments import chunk_ranges, run_chunked
from .graph_core import complement, graph_from_edge_mask, pair_index, pair_list
from .random_models import rng_for

_AUDIT_FIELD = "f2"
_tables: dict[int, tuple[np.ndarray, ...]] = {}
# Largest n of the exhaustive audit, which checks 2**21 graphs there.
MAX_EXHAUSTIVE_N = 7
# Largest n whose n(n-1)/2 pair bits fit the uint64 draw of a random audit.
MAX_RANDOM_AUDIT_N = 11
# Masks divisible by this prime also run the per-graph chordality
# predicates.  A power of two would sample only graphs missing the lowest
# pairs; an odd prime ties the sample to no fixed set of pair bits.
CROSS_CHECK_STRIDE = 29


def flag_tables(k: int) -> tuple[np.ndarray, ...]:
    """(lr, lp, cochordal, gap_free) of every labeled k-vertex graph, by
    edge mask; each flag holds iff no induced subgraph breaks it."""
    if k not in _tables:
        _tables[k] = _flags(k, np.arange(1 << (k * (k - 1) // 2),
                                         dtype=np.uint32))
    return _tables[k]


def _flags(n: int, masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lr, lp, cochordal, gap_free) of each n-vertex graph: the AND of the
    flags of its n vertex deletions and of its top set alone."""
    top = np.isin(masks, _complement_cycle_masks(n))
    ones = np.ones(len(masks), dtype=bool)
    flags = (ones, ones.copy(), ~top, ~top if n == 4 else ones.copy())
    if n == 0:
        return flags
    for v in range(n):
        ind = _induced_masks(n, masks, tuple(u for u in range(n) if u != v))
        for flag, table in zip(flags, flag_tables(n - 1)):
            flag &= table[ind]
    open_ = np.flatnonzero(flags[0] | flags[1])
    for flag, top_flag in zip(flags, _top_set_flags(n, masks[open_])):
        flag[open_] &= top_flag
    return flags


def _complement_cycle_masks(n: int) -> np.ndarray:
    """Sorted edge masks of the (n-1)!/2 labeled n-vertex graphs whose
    complement is an n-cycle (none below n = 4)."""
    if n < 4:
        return np.zeros(0, dtype=np.uint32)
    full = (1 << (n * (n - 1) // 2)) - 1
    out = []
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:  # each cycle once, not once per direction
            cyc = (0,) + rest
            edges = sum(1 << pair_index(n, cyc[i - 1], cyc[i])
                        for i in range(n))
            out.append(full ^ edges)
    return np.array(sorted(out), dtype=np.uint32)


def _bit(masks: np.ndarray, pos: int) -> np.ndarray:
    return (masks >> np.uint32(pos)) & np.uint32(1)


def _induced_masks(n: int, masks: np.ndarray,
                   subset: tuple[int, ...]) -> np.ndarray:
    """Edge masks of the subgraphs induced on `subset`, relabeled 0..k-1 in
    order: indices into the k-vertex flag tables."""
    ind = np.zeros(len(masks), dtype=np.uint32)
    for a, b in combinations(range(len(subset)), 2):
        src = pair_index(n, subset[a], subset[b])
        ind |= _bit(masks, src) << np.uint32(pair_index(len(subset), a, b))
    return ind


def _vertex_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """(n, len(masks)) neighbor rows of every graph, gathered bitwise."""
    rows = np.zeros((n, len(masks)), dtype=np.uint32)
    for i, (u, v) in enumerate(pair_list(n)):
        edge = _bit(masks, i)
        rows[u] |= edge << np.uint32(v)
        rows[v] |= edge << np.uint32(u)
    return rows


def _top_set_flags(n: int, masks: np.ndarray) -> np.ndarray:
    """(lr, lp) of each n-vertex graph's top set alone, n >= 1: the engine's
    on irreducible ones, (True, True) on cones and folds (module docstring)."""
    flags = np.ones((2, len(masks)), dtype=bool)
    full = (1 << n) - 1
    rows = _vertex_rows(n, masks)
    irreducible = (rows != 0).all(axis=0) & (fold_vertex(rows, full) < 0)
    for i in np.flatnonzero(irreducible):
        g = graph_from_edge_mask(n, int(masks[i]))
        dims = HomologyEngine(g, _AUDIT_FIELD).irreducible_dims(full)
        flags[:, i] = linearity(((n - d - 1, n), rank)
                                for d, rank in dims.items())
    return flags


def _disagreement(g, lr: bool, lp: bool) -> dict | None:
    """All four flags of g if the homological side (lr, lp) disagrees with
    the chordal side of its complement, else None."""
    comp = complement(g)
    return _mismatch(lr, is_chordal(comp), lp, not has_induced_c4(comp))


def _mismatch(lr: bool, cochordal: bool, lp: bool,
              gap_free: bool) -> dict | None:
    if lr == cochordal and lp == gap_free:
        return None
    return {"linear_resolution": lr, "cochordal": cochordal,
            "linear_presentation": lp, "four_cochordal": gap_free}


def _audit_chunk(task):
    n, lo, hi = task
    pairs = pair_list(n)
    masks = np.arange(lo, hi, dtype=np.uint32)
    lr, lp, cochordal, gap_free = _flags(n, masks)
    sampled = masks % np.uint32(CROSS_CHECK_STRIDE) == 0
    mismatches = []
    for i in np.flatnonzero((lr != cochordal) | (lp != gap_free) | sampled):
        mask = lo + int(i)
        lr_i, lp_i = bool(lr[i]), bool(lp[i])
        # Where the tables agree with the homology side, a sampled mask still
        # runs the predicates, so a wrong table shows up either way.
        flags = (_mismatch(lr_i, bool(cochordal[i]), lp_i, bool(gap_free[i]))
                 or _disagreement(graph_from_edge_mask(n, mask, pairs),
                                  lr_i, lp_i))
        if flags:
            mismatches.append((mask, flags))
    return (hi - lo), mismatches


def exhaustive_flag_audit(n: int, workers: int = 1):
    """Check linear resolution == cochordal and linear presentation ==
    4-cochordal on all labeled n-vertex graphs; returns (checked, mismatches).
    """
    if n < 0:
        raise ValueError(f"exhaustive audit is for n >= 0, got {n}")
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive audit is for n <= {MAX_EXHAUSTIVE_N}, "
                         f"got {n}")
    # Built pre-fork, with every smaller table, so that workers share them.
    flag_tables(max(n - 1, 0))
    total = 1 << (n * (n - 1) // 2)
    tasks = [(n, lo, hi) for lo, hi in chunk_ranges(total, workers * 4)]
    results = run_chunked(_audit_chunk, tasks, workers)
    return sum(r[0] for r in results), [m for r in results for m in r[1]]


def random_flag_audit(n: int, count: int, seed: int):
    """Randomized spot audit at sizes beyond the exhaustive sweep: one
    rational-coefficient ``linear_flags`` scan per graph decides both
    homological flags."""
    if n < 0:
        raise ValueError(f"random_flag_audit draws an n-vertex graph, so n "
                         f"must be >= 0, got {n}")
    if n > MAX_RANDOM_AUDIT_N:
        raise ValueError(f"random_flag_audit draws a 64-bit edge mask, so n "
                         f"must be <= {MAX_RANDOM_AUDIT_N}, got {n}")
    rng = rng_for(seed, "random_flag_audit", n)
    pairs = pair_list(n)
    mismatches = []
    for _ in range(count):
        mask = int(rng.integers(0, 1 << len(pairs), dtype=np.uint64))
        g = graph_from_edge_mask(n, mask, pairs)
        flags = _disagreement(g, *linear_flags(g))
        if flags:
            mismatches.append((mask, flags))
    return mismatches
