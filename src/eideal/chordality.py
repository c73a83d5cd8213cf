"""Chordality-family predicates and chordless cycle counting.

``is_chordal`` runs maximum cardinality search and verifies the elimination
order; ``has_induced_c4`` scans induced 3-paths for a closing vertex.  Two
lemmas let both shrink their input without changing the verdict:

* True twins collapse: two vertices with equal closed neighborhoods are
  adjacent, so a cycle of length >= 4 through both has a chord, and either
  one can stand in for the other on any chordless cycle.
* A universal or isolated vertex lies on no chordless cycle of length >= 4:
  a universal vertex is adjacent to every other cycle vertex, an isolated
  one to none.
* A vertex of degree <= 1 lies on no cycle at all, so peeling such vertices
  until none is left, down to the 2-core, keeps both verdicts.  ``two_core``
  does this on an edge list: in the dense critical window the sampler's
  listed non-edges are the complement's edges, and the trials run
  ``is_chordal``/``has_induced_c4`` on the complement's 2-core alone.

``is_cochordal`` and ``is_4_cochordal`` apply both on the complement's side
without building the complement: a vertex with an empty row in g is
universal in the complement, one with a full row is isolated there, and
equal open neighborhoods in g are equal closed neighborhoods in the
complement.  A class that makes up a whole component of the complement
collapses to an isolated vertex and is dropped as well.  Only the
quotient's complement rows are built, so the nearly-empty and
nearly-complete graphs of the critical windows never pay for an n x n
complement; graphs under 24 vertices, or with nothing to drop, take the
plain complement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph_core import (Graph, bits, complement, delete_closed_neighborhood,
                         graph_from_pairs)

# Twin collapsing costs a hash pass; below this size MCS wins outright.
_REDUCE_MIN_VERTICES = 24


def _true_twin_reduced(g: Graph) -> Graph:
    """Keep one vertex per closed-neighborhood class, drop isolated vertices.

    A chordless cycle of length >= 4 never contains two true twins, so the
    reduced graph is chordal (and induced-C4-free) iff g is.
    """
    while True:
        classes: dict[int, int] = {}
        keep = []
        for v in range(g.n):
            row = g.adj[v]
            if row == 0:
                continue
            closed = row | (1 << v)
            if closed not in classes:
                classes[closed] = v
                keep.append(v)
        if len(keep) == g.n:
            return g
        index = {v: i for i, v in enumerate(keep)}
        adj = [0] * len(keep)
        for i, v in enumerate(keep):
            row = g.adj[v]
            acc = 0
            for u in bits(row):
                j = index.get(u)
                if j is not None:
                    acc |= 1 << j
            adj[i] = acc & ~(1 << i)
        g = Graph(len(keep), tuple(adj))
        if g.n < _REDUCE_MIN_VERTICES:
            return g


def _mcs_order(g: Graph) -> list[int]:
    """Maximum cardinality search visit order (ties to the lowest vertex)."""
    n = g.n
    weight = [0] * n
    buckets: list[list[int]] = [list(range(n - 1, -1, -1))]
    placed = [False] * n
    maxw = 0
    order = []
    for _ in range(n):
        while True:
            bucket = buckets[maxw]
            while bucket and placed[bucket[-1]]:
                bucket.pop()
            if bucket:
                break
            maxw -= 1
        v = buckets[maxw].pop()
        placed[v] = True
        order.append(v)
        for u in bits(g.adj[v]):
            if not placed[u]:
                weight[u] += 1
                w = weight[u]
                if w == len(buckets):
                    buckets.append([])
                buckets[w].append(u)
                if w > maxw:
                    maxw = w
    return order


def _verify_mcs_order(g: Graph, order: list[int]) -> bool:
    """Check the reverse of the MCS visit order is a perfect elimination order."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    earlier = 0  # bitmask of vertices visited before the current one
    for v in order:
        back = g.adj[v] & earlier
        if back:
            u = max(bits(back), key=lambda w: pos[w])
            rest = back & ~(1 << u)
            if rest & ~g.adj[u]:
                return False
        earlier |= 1 << v
    return True


def is_chordal(g: Graph) -> bool:
    """True iff every cycle of length >= 4 has a chord."""
    if g.n >= _REDUCE_MIN_VERTICES:
        g = _true_twin_reduced(g)
    return _is_chordal_core(g)


def _is_chordal_core(g: Graph) -> bool:
    if g.n <= 3:
        return True
    return _verify_mcs_order(g, _mcs_order(g))


def has_induced_c4(g: Graph) -> bool:
    """True iff some four vertices induce exactly a 4-cycle."""
    if g.n >= _REDUCE_MIN_VERTICES:
        g = _true_twin_reduced(g)
    return _has_induced_c4_core(g)


def _has_induced_c4_core(g: Graph) -> bool:
    if g.n < 4:
        return False
    # An induced C4 is a path u-v-w (u,w non-adjacent) plus a common
    # neighbor of u,w outside N[v]; scan path centers v.
    for v in range(g.n):
        nbrs = list(bits(g.adj[v]))
        if len(nbrs) < 2:
            continue
        block = g.adj[v] | (1 << v)
        for i, u in enumerate(nbrs):
            au = g.adj[u]
            for w in nbrs[i + 1:]:
                if au >> w & 1:
                    continue
                if au & g.adj[w] & ~block:
                    return True
    return False


def _complement_twin_reduced(g: Graph) -> Graph:
    """The complement of g with one vertex kept per closed-neighborhood
    class, minus universal and isolated vertices; built from g's rows.

    By the two lemmas in the module docstring the result is chordal (and
    induced-C4-free) iff the complement of g is.
    """
    if g.n < _REDUCE_MIN_VERTICES:
        return complement(g)
    sizes = Counter(filter(None, g.adj))
    keep = []
    keep_mask = 0
    for v, row in enumerate(g.adj):
        # Drop universal vertices (empty row in g), later members of a class,
        # and classes whose closed neighborhood in the complement (n - |row|
        # vertices) is the class itself: they collapse to an isolated vertex.
        if row == 0:
            continue
        size = sizes.pop(row, 0)
        if size == 0 or size == g.n - row.bit_count():
            continue
        keep.append(v)
        keep_mask |= 1 << v
    if len(keep) == g.n:
        return complement(g)
    index = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        acc = 0
        for u in bits(~g.adj[v] & keep_mask & ~(1 << v)):
            acc |= 1 << index[u]
        adj.append(acc)
    return Graph(len(keep), tuple(adj))


def two_core(us: np.ndarray, vs: np.ndarray) -> Graph:
    """The 2-core of the graph with edges (us[i], vs[i]), its vertices
    relabelled 0..k-1 in increasing order; by the leaf lemma of the module
    docstring it is chordal (and induced-C4-free) iff that graph is."""
    size = int(max(us.max(), vs.max())) + 1 if len(us) else 0
    while True:
        deg = (np.bincount(us, minlength=size)
               + np.bincount(vs, minlength=size))
        leaf = deg == 1
        cut = leaf[us] | leaf[vs]
        if not cut.any():
            break
        keep = ~cut
        us, vs = us[keep], vs[keep]
    core, ends = np.unique(np.concatenate((us, vs)), return_inverse=True)
    return graph_from_pairs(len(core), ends[:len(us)], ends[len(us):])


# From _REDUCE_MIN_VERTICES up the quotient has no true twins left, so the
# cochordal predicates call the cores and skip a second twin pass.

def is_cochordal(g: Graph) -> bool:
    return _is_chordal_core(_complement_twin_reduced(g))


def is_4_cochordal(g: Graph) -> bool:
    """Equivalent to gap-freeness of g."""
    return not _has_induced_c4_core(_complement_twin_reduced(g))


def is_locally_cochordal(g: Graph) -> bool:
    """Every closed-neighborhood deletion leaves a cochordal graph."""
    return all(is_cochordal(delete_closed_neighborhood(g, v))
               for v in range(g.n))


def is_locally_4_cochordal(g: Graph) -> bool:
    return all(is_4_cochordal(delete_closed_neighborhood(g, v))
               for v in range(g.n))


@dataclass(frozen=True)
class ChordlessCycleCount:
    """Counts of chordless k-cycles for 4 <= k <= truncation_length."""

    by_length: dict[int, int]
    truncation_length: int

    def total(self) -> int:
        return sum(self.by_length.values())


def count_chordless_cycles(g: Graph, k_max: int) -> ChordlessCycleCount:
    """Exact chordless (induced) cycle counts by length, each counted once.

    Length 4 comes from codegrees: an induced 4-cycle is a non-adjacent pair
    {a, c} (a diagonal) plus two non-adjacent common neighbors, so the pair
    contributes C(|com|, 2) - e(com) with com = N(a) & N(c), and each cycle
    is seen once per diagonal, twice in all.  Lengths 5..k_max come from a
    DFS over induced paths with canonical start: the cycle's smallest vertex
    first, and the smaller of its two cycle-neighbors as the second vertex;
    it does not run when k_max is 4.
    """
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    counts = {k: 0 for k in range(4, k_max + 1)}
    counts[4] = _count_induced_c4(g)
    if k_max == 4:
        return ChordlessCycleCount(counts, k_max)
    adj = g.adj

    for s in range(g.n):
        sn = adj[s]
        above = -1 << (s + 1)  # vertices > s
        starts = list(bits(sn & above))
        if len(starts) < 2:
            continue
        for v1 in starts:
            # Paths s-v1-...-last with every vertex > s.  The candidate mask
            # holds vertices not on the path and non-adjacent to the interior
            # vertices v1..second-to-last; adjacency to s or to last is
            # unconstrained until used.
            stack = [((v1,), above & ~(1 << v1))]
            while stack:
                path, cand = stack.pop()
                last = path[-1]
                length = len(path) + 1  # vertices on the path, counting s
                for u in bits(cand & adj[last]):
                    if sn >> u & 1:
                        # u closes a cycle of length+1 vertices; chords to the
                        # interior are excluded by cand, the s-edge is the
                        # closing edge.  Count each cycle once: smaller
                        # s-neighbor first.
                        if 4 <= length <= k_max - 1 and u > v1:
                            counts[length + 1] += 1
                    elif length + 2 <= k_max:
                        stack.append((path + (u,),
                                      cand & ~adj[last] & ~(1 << u)))
    return ChordlessCycleCount(counts, k_max)


def _count_induced_c4(g: Graph) -> int:
    """Induced 4-cycles by the codegree rule of ``count_chordless_cycles``."""
    adj = g.adj
    per_diagonal = 0
    for a in range(g.n):
        ra = adj[a]
        if ra & (ra - 1) == 0:  # fewer than two neighbors
            continue
        once = twice = 0  # vertices with >= 1 and >= 2 neighbors in N(a)
        for b in bits(ra):
            rb = adj[b]
            twice |= once & rb
            once |= rb
        # Diagonal partners c > a, non-adjacent to a, with codegree >= 2.
        for c in bits(twice & ~ra & (-1 << (a + 1))):
            com = ra & adj[c]
            size = com.bit_count()
            inner = 0  # twice the edges inside com
            for x in bits(com):
                inner += (adj[x] & com).bit_count()
            per_diagonal += size * (size - 1) // 2 - inner // 2
    return per_diagonal // 2


def count_triangles(g: Graph) -> int:
    """Number of triangles (3-cycles)."""
    total = 0
    for u, v in g.edges():
        total += (g.adj[u] & g.adj[v]).bit_count()
    return total // 3
