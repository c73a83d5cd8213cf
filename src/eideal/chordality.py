"""Chordality-family predicates and chordless cycle counting.

``is_chordal`` runs maximum cardinality search and verifies the elimination
order; ``has_induced_c4`` scans induced 3-paths for a closing vertex.  Both
run on the graph as given.  MCS and its check take time linear in the size
of the graph (Tarjan & Yannakakis, SIAM J. Comput. 1984), so no reduction
run beforehand can pay for its own pass.  Two lemmas shrink inputs where
the shrinking is free or already done:

* A universal or isolated vertex lies on no chordless cycle of length >= 4:
  a universal vertex is adjacent to every other cycle vertex, an isolated
  one to none.  ``is_cochordal`` and ``is_4_cochordal`` therefore drop g's
  isolated vertices, universal in the complement, before they complement
  the rest, so a sparse graph pays only for the complement on the ends of
  its edges.  The threshold trials call these two public predicates on a
  draw that lists its edges, handing them the graph on the vertices that
  carry one (``GnpDraw.live_graph``, ``relabel_live``), never n rows.
* A vertex of degree <= 1 lies on no cycle at all, so peeling such vertices
  until none is left, down to the 2-core, keeps both verdicts and every
  cycle count.  ``two_core`` does this on an edge list: in the dense
  critical window a draw lists its non-edges, complemented, which are the
  complement's edges, and the trials hand ``is_chordal`` the complement's
  2-core, already peeled.  The DFS for chordless cycles of length >= 5 runs
  on the 2-core too.

Induced 4-cycles and triangles are counted together, exactly, from the
codegrees of the vertex pairs of any edge list (``induced_c4_and_triangles``):
a dense graph takes them from the product of its 0/1 adjacency matrix with
itself, a sparse one from its wedges.  The dense-window trials read
gap-freeness as a zero count of induced 4-cycles on the listed non-edges as
drawn.  ``cycle_counts_from_pairs`` runs that count on an edge list as given
and the DFS on its 2-core; the cycle-calibration trials hand it the
sampler's pairs, so no row is built, and ``count_chordless_cycles`` hands
it g's edges and returns its count dict.
"""

from __future__ import annotations

import numpy as np

from .graph_core import (Graph, bits, complement, delete_closed_neighborhood,
                         graph_from_pairs, induced_subgraph, relabel_live)


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
    if g.n <= 3:
        return True
    return _verify_mcs_order(g, _mcs_order(g))


def has_induced_c4(g: Graph) -> bool:
    """True iff some four vertices induce exactly a 4-cycle."""
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


def two_core(us: np.ndarray, vs: np.ndarray) -> Graph:
    """The 2-core of the graph with edges (us[i], vs[i]), its vertices
    relabelled 0..k-1 in increasing order: chordal (and induced-C4-free) iff
    that graph is.  Edges at a vertex of degree 1 are cut until none is
    left; by the leaf lemma of the module docstring every cycle survives."""
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
    return graph_from_pairs(*relabel_live(deg, us, vs))


def _live_complement(g: Graph) -> Graph:
    """The complement of g without g's isolated vertices: universal in the
    complement, they lie on no chordless cycle of length >= 4."""
    live = [v for v, row in enumerate(g.adj) if row]
    return complement(induced_subgraph(g, live) if len(live) < g.n else g)


def is_cochordal(g: Graph) -> bool:
    return is_chordal(_live_complement(g))


def is_4_cochordal(g: Graph) -> bool:
    """Equivalent to gap-freeness of g."""
    return not has_induced_c4(_live_complement(g))


def _locally(pred, g: Graph) -> bool:
    """``pred`` holds after every closed-neighborhood deletion.  Deleting an
    isolated vertex leaves g minus a vertex universal in the complement, with
    g's own verdict, so g is judged once for all of them."""
    live = [v for v, row in enumerate(g.adj) if row]
    return ((len(live) == g.n or pred(g))
            and all(pred(delete_closed_neighborhood(g, v)) for v in live))


def is_locally_cochordal(g: Graph) -> bool:
    """Every closed-neighborhood deletion leaves a cochordal graph."""
    return _locally(is_cochordal, g)


def is_locally_4_cochordal(g: Graph) -> bool:
    return _locally(is_4_cochordal, g)


def count_chordless_cycles(g: Graph, k_max: int) -> dict[int, int]:
    """{length: count} of g's chordless (induced) cycles, each counted once,
    for lengths 4..k_max: ``cycle_counts_from_pairs`` on g's edges."""
    us, vs = np.array([*g.edges()], dtype=np.int64).reshape(-1, 2).T
    return cycle_counts_from_pairs(us, vs, k_max)[0]


def cycle_counts_from_pairs(us: np.ndarray, vs: np.ndarray,
                            k_max: int) -> tuple[dict[int, int], int]:
    """(chordless cycle counts by length 4..k_max, triangle count) of the
    graph with edges (us[i], vs[i]), each listed once.

    Length 4 and the triangles come from the codegrees of the pairs as
    given, unpeeled whatever their labels (``induced_c4_and_triangles``);
    lengths 5..k_max from a DFS over induced paths, on the 2-core
    (``two_core``) as its cost grows with trees.
    """
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    k = int(max(us.max(), vs.max())) + 1 if len(us) else 0
    counts = {length: 0 for length in range(4, k_max + 1)}
    counts[4], triangles = induced_c4_and_triangles(k, us, vs)
    if k_max > 4:
        _count_long_chordless_cycles(two_core(us, vs), counts)
    return counts, triangles


def _count_long_chordless_cycles(g: Graph, counts: dict[int, int]) -> None:
    """Add g's chordless cycles of every length 5..max(counts) to counts.

    The DFS runs over induced paths with canonical start: the cycle's
    smallest vertex first, and the smaller of its two cycle-neighbors as the
    second vertex.
    """
    k_max = max(counts)
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


# The matrix route costs about k^3 multiply-adds, the wedge route about as
# much per wedge (a vertex and two of its neighbors) as this many of them:
# measured crossovers on G(n, p) 2-cores fall at k^3 / wedges of 700 to 2000.
_WEDGE_COST = 1000

# Entries (pairs x vertices) per block of ``_common_edges``: its float64
# temporaries stay near 8 MB however many pairs a graph has.
_BLOCK_ENTRIES = 1 << 20


def induced_c4_and_triangles(k: int, us: np.ndarray,
                             vs: np.ndarray) -> tuple[int, int]:
    """(induced 4-cycles, triangles) of the graph on k vertices with edges
    (us[i], vs[i]), each listed once, from the codegrees c of its vertex
    pairs (Alon, Yuster & Zwick, Algorithmica 1997).

    A 4-set spanning a 4-cycle is an induced C4, a diamond or a K4.  Over
    the non-adjacent pairs, the sum S_non of C(c, 2) counts each induced C4
    twice (once per diagonal) and each diamond once (its missing pair), and
    the sum E_non of the edges among the pair's common neighbors counts
    each diamond once; so I4 = (S_non - E_non) / 2.  Every (pair, edge inside
    its common neighborhood) is also a (pair inside the edge's common
    neighborhood, edge), so E_non = S_adj - E_adj, the same two sums over
    the edges, and I4 = (S_all - 2 S_adj + E_adj) / 2 with S_all the sum of
    C(c, 2) over every pair; only an edge with c >= 2 adds to S_adj and
    E_adj.  Triangles are the edges' codegrees summed, over 3.  Dense graphs
    take the codegrees from the product of the 0/1 matrix with itself,
    sparse ones from their wedges, with no k x k matrix.
    """
    deg = np.bincount(us, minlength=k) + np.bincount(vs, minlength=k)
    if _WEDGE_COST * int((deg * (deg - 1)).sum() // 2) < k ** 3:
        s_all, codeg, e_adj = _wedge_sums(k, us, vs)
    else:
        s_all, codeg, e_adj = _matrix_sums(k, us, vs)
    s_adj = int((codeg * (codeg - 1) // 2).sum())
    return (s_all - 2 * s_adj + e_adj) // 2, int(codeg.sum()) // 3


def _matrix_sums(k: int, us: np.ndarray,
                 vs: np.ndarray) -> tuple[int, np.ndarray, int]:
    """(the sum of C(c, 2) over all vertex pairs, each edge's codegree c,
    E_adj) of ``induced_c4_and_triangles``, from c = a @ a with a the 0/1
    float64 adjacency matrix."""
    a = np.zeros((k, k))
    a[us, vs] = a[vs, us] = 1.0
    c = (a @ a).astype(np.int64)
    deg = c.diagonal()
    # Over the ordered pairs u != v, c (c - 1) sums to 4 S_all.
    s_all = (int(np.vdot(c, c)) - int(c.sum())
             - int(deg @ (deg - 1))) // 4
    codeg = c[us, vs]
    busy = codeg >= 2
    return s_all, codeg, _common_edges(a, us[busy], vs[busy])


def _common_edges(a: np.ndarray, us: np.ndarray, vs: np.ndarray) -> int:
    """Sum over the pairs (us[i], vs[i]) of the number of edges among the
    pair's common neighbors."""
    step = max(1, _BLOCK_ENTRIES // max(1, len(a)))
    twice = 0
    for lo in range(0, len(us), step):
        w = a[us[lo:lo + step]] * a[vs[lo:lo + step]]
        twice += int(((w @ a) * w).sum(axis=1).astype(np.int64).sum())
    return twice // 2


def _wedge_sums(k: int, us: np.ndarray,
                vs: np.ndarray) -> tuple[int, np.ndarray, int]:
    """``_matrix_sums`` from the wedges: a pair's codegree is the number of
    vertices that have both as neighbors, and an edge's common neighbors
    are those wedges' centers.  Costs about the wedge count plus S_adj.
    Its int64 keys stay below k^2 (a vertex pair) and below m k (an edge's
    index, a center) for m edges: far from 2^63 for any list in memory."""
    edge_keys = np.minimum(us, vs) * k + np.maximum(us, vs)
    centers, ends = np.divmod(np.sort(np.concatenate((us * k + vs,
                                                      vs * k + us))), k)
    first, second = _pairs_within(np.bincount(centers, minlength=k))
    # Each wedge by its end pair; ends ascend within a center.
    pairs = ends[first] * k + ends[second]
    keys = np.sort(pairs)
    # A pair of codegree c is a run of c equal keys: C(c, 2) earlier-equal.
    s_all = int((np.arange(len(keys)) - np.searchsorted(keys, keys)).sum())
    codeg = (np.searchsorted(keys, edge_keys, side="right")
             - np.searchsorted(keys, edge_keys))
    # E_adj sums over the edges of codegree >= 2 only.
    if not (codeg >= 2).any():
        return s_all, codeg, 0
    busy = np.sort(edge_keys[codeg >= 2])
    at = np.searchsorted(busy, pairs)
    over = busy[np.minimum(at, len(busy) - 1)] == pairs
    # The centers of the wedges over each busy edge, grouped by that edge.
    at, common = np.divmod(np.sort(at[over] * k + centers[first[over]]), k)
    x, y = _pairs_within(np.bincount(at))
    x, y = common[x], common[y]
    inner = np.minimum(x, y) * k + np.maximum(x, y)
    edge_keys = np.sort(edge_keys)
    found = np.searchsorted(edge_keys, inner)
    hits = edge_keys[np.minimum(found, len(edge_keys) - 1)] == inner
    return s_all, codeg, int(np.count_nonzero(hits))


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenation of np.arange(s, s + z) over zip(starts, sizes)."""
    offsets = np.cumsum(sizes) - sizes
    return (np.arange(int(sizes.sum()), dtype=np.int64)
            + np.repeat(starts - offsets, sizes))


def _pairs_within(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j): every index pair i < j inside one run of a sequence cut into
    consecutive runs of the given sizes."""
    idx = np.arange(int(sizes.sum()), dtype=np.int64)
    later = np.repeat(np.cumsum(sizes), sizes) - idx - 1
    return np.repeat(idx, later), _ranges(idx + 1, later)


def count_triangles(g: Graph) -> int:
    """Number of triangles (3-cycles)."""
    total = 0
    for u, v in g.edges():
        total += (g.adj[u] & g.adj[v]).bit_count()
    return total // 3
