"""Exhaustive audit of the resolution/presentation equivalences on every
labeled graph with few vertices.

Both sides are decided from induced subgraphs.  For each k-subset of the
vertices (k = 4, 5, 6, below n) the induced edge mask is gathered bitwise
for all graphs at once and looked up in flag tables indexed by labeled
k-vertex graphs.  Two tables mark top sets whose homology breaks linear
resolution or linear presentation, by ``betti.linearity`` applied to the
Betti positions the top set contributes.

The top set of a graph the proper subsets leave undecided takes one of
three routes, all decided for the whole mask array before any per-graph
Python runs; the flag tables are the same routes run on every mask:

* cone: a vertex with an empty neighbor row makes the independence complex
  a cone, with no homology, so the top set breaks neither flag;
* fold: otherwise the first ordered pair (x, y) with N(x) subseteq N(y),
  the lattice scan's own rule (``betti.fold_vertex``), lets y go without
  changing the homotopy type, and G - y is looked up in the (n-1)-vertex
  tables.  Homology in degree d of an n-vertex top set sits at Betti
  position (n - d - 1, n): degree >= 1 breaks resolution, and degree n - 3
  breaks presentation.  The first reads the same on G - y (``lr_break``).
  The second is degree (n-1) - 2 there, which sits at beta_{1,n-1} of
  G - y, and an edge ideal has generators in degree 2 only: a fold never
  breaks presentation, and the tests pin this;
* engine: the rest have an irreducible top set, with no isolated vertex
  and no fold, and ``HomologyEngine.irreducible_dims`` takes its homology.

The 0-vertex graph's top set is the empty complex, whose H~_{-1} sits at
beta_{0,0} and breaks neither flag.

The third table marks graphs whose complement is a chordless k-cycle, set
from the labeled complement-C_k masks listed directly: the complement of a
graph is chordal iff no subset carries that flag, and free of induced C4s
iff no 4-subset does.  The top set is tested by membership in the labeled
complement-C_n masks.  The real ``is_chordal``/``has_induced_c4`` still run
on every mask divisible by ``CROSS_CHECK_STRIDE``, and any disagreement
with either side is a mismatch; choosing the sample by mask keeps reports
equal at any worker count.  Flag tables use GF(2) ranks; at these sizes
coefficients cannot matter (see the field-independence tests), and the
kernel itself is validated against the public per-graph functions.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .betti import HomologyEngine, fold_vertex, linear_flags, linearity
from .chordality import has_induced_c4, is_chordal
from .experiments import _chunk_ranges, run_chunked
from .graph_core import complement, graph_from_edge_mask, pair_index, pair_list
from .random_models import rng_for

_AUDIT_FIELD = "f2"
_TABLE_SIZES = (4, 5, 6)
_tables: dict[int, tuple[np.ndarray, ...]] = {}
# Largest n of the exhaustive audit, which checks 2**21 graphs there.
MAX_EXHAUSTIVE_N = 7
# Largest n whose n(n-1)/2 pair bits fit the uint64 draw of a random audit.
MAX_RANDOM_AUDIT_N = 11
# Masks divisible by this prime also run the per-graph chordality
# predicates.  A power of two would sample only graphs missing the lowest
# pairs; an odd prime ties the sample to no fixed set of pair bits.
CROSS_CHECK_STRIDE = 29
# How _top_set_routes decided a top set.
CONE, FOLD, ENGINE = 0, 1, 2


def flag_tables(k: int) -> tuple[np.ndarray, ...]:
    """(lr_break, lp_break, cycle) over all labeled k-vertex graphs by edge
    mask: lr_break and lp_break mark a top set whose homology breaks linear
    resolution and linear presentation, cycle a complement that is a
    chordless k-cycle."""
    cached = _tables.get(k)
    if cached is not None:
        return cached
    masks = np.arange(1 << (k * (k - 1) // 2), dtype=np.uint32)
    lr, lp, _ = _top_set_routes(k, masks)
    cycle = np.zeros(len(masks), dtype=bool)
    cycle[_complement_cycle_masks(k)] = True
    _tables[k] = (~lr, ~lp, cycle)
    return _tables[k]


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


def _subset_flags(n: int, masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-graph flags from proper subsets of size 4..min(6, n-1): some subset
    breaks linear resolution / linear presentation, or has a complement that
    is a chordless cycle / a chordless 4-cycle."""
    lr_viol, lp_viol, chordless, chordless4 = np.zeros((4, len(masks)),
                                                       dtype=bool)
    for k in _TABLE_SIZES:
        if k >= n:
            continue
        lr_break, lp_break, cycle = flag_tables(k)
        for subset in combinations(range(n), k):
            ind = _induced_masks(n, masks, subset)
            lr_viol |= lr_break[ind]
            lp_viol |= lp_break[ind]
            hits = cycle[ind]
            chordless |= hits
            if k == 4:
                chordless4 |= hits
    return lr_viol, lp_viol, chordless, chordless4


def _vertex_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """(n, len(masks)) neighbor rows of every graph, gathered bitwise."""
    rows = np.zeros((n, len(masks)), dtype=np.uint32)
    for i, (u, v) in enumerate(pair_list(n)):
        edge = _bit(masks, i)
        rows[u] |= edge << np.uint32(v)
        rows[v] |= edge << np.uint32(u)
    return rows


def _top_set_routes(n: int, masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lr, lp, route) of each graph's top set alone: whether the Betti
    positions its full vertex set contributes keep linear resolution and
    linear presentation, by the cone, fold and engine routes of the module
    docstring."""
    lr, lp = np.ones((2, len(masks)), dtype=bool)
    route = np.full(len(masks), ENGINE, dtype=np.uint8)
    if n == 0:
        return lr, lp, route
    rows = _vertex_rows(n, masks)
    fold_y = fold_vertex(rows, (1 << n) - 1)
    route[fold_y >= 0] = FOLD
    # Cones override: fold_vertex answers only graphs with no empty row.
    route[(rows == 0).any(axis=0)] = CONE
    # lp stays True on a fold: it would take homology of G - y in degree
    # (n-1) - 2, at beta_{1,n-1}, and an edge ideal has no generator of
    # degree above 2.
    folds = route == FOLD
    if folds.any():
        lr_break = flag_tables(n - 1)[0]
        for y in range(n):
            sel = np.flatnonzero(folds & (fold_y == y))
            rest = tuple(v for v in range(n) if v != y)
            lr[sel] = ~lr_break[_induced_masks(n, masks[sel], rest)]
    pairs = pair_list(n)
    for i in np.flatnonzero(route == ENGINE):
        g = graph_from_edge_mask(n, int(masks[i]), pairs)
        dims = HomologyEngine(g, _AUDIT_FIELD).irreducible_dims((1 << n) - 1)
        lr[i], lp[i] = linearity(((n - d - 1, n), rank)
                                 for d, rank in dims.items())
    return lr, lp, route


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
    lr_viol, lp_viol, chordless, chordless4 = _subset_flags(n, masks)
    top = np.isin(masks, _complement_cycle_masks(n))
    cochordal = ~(chordless | top)
    # At n = 4 the top set is the only 4-subset.
    gap_free = ~(chordless4 | top) if n == 4 else ~chordless4
    lr = ~lr_viol
    lp = ~lp_viol
    undecided = np.flatnonzero(lr | lp)
    top_lr, top_lp, _ = _top_set_routes(n, masks[undecided])
    lr[undecided] &= top_lr
    lp[undecided] &= top_lp
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
    for k in range(n):
        flag_tables(k)  # build pre-fork so workers share the tables
    total = 1 << (n * (n - 1) // 2)
    tasks = [(n, lo, hi) for lo, hi in _chunk_ranges(total, workers * 4)]
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
