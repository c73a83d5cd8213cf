"""Slow, reduction-free reference implementations used only by tests.

Each oracle mirrors a definition as directly as possible (subset brute
force, naive matrix homology, cycle enumeration) so the production code is
checked against an independent route.  The one exception is
per_subset_dims, a second route to the lattice scan's Hochster sum: it
applies the same reductions one subset at a time, in scalar Python.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from eideal.betti import HomologyEngine, linearity
from eideal.chordality import two_core
from eideal.graph_core import (Graph, bits, build_graph, complement,
                               edge_mask, enumerate_graphs,
                               graph_from_edge_mask, induced_subgraph,
                               pair_index, pair_list)


def naive_independent_sets(g: Graph) -> list[int]:
    out = []
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(combo, 2)):
                out.append(sum(1 << v for v in combo))
    return out


def union_find_components(g: Graph):
    """(labels, sizes, vertex sets, induced subgraphs of the components with
    an edge), components numbered by smallest vertex, by union-find over the
    edge list."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in g.edges():
        root[find(u)] = find(v)
    label_of_root: dict[int, int] = {}
    labels = []
    for v in range(g.n):
        labels.append(label_of_root.setdefault(find(v), len(label_of_root)))
    vertex_sets = [[] for _ in label_of_root]
    for v, label in enumerate(labels):
        vertex_sets[label].append(v)
    vertex_sets = tuple(tuple(vs) for vs in vertex_sets)
    subgraphs = tuple(induced_subgraph(g, vs) for vs in vertex_sets
                      if len(vs) > 1)
    return (tuple(labels), tuple(len(vs) for vs in vertex_sets), vertex_sets,
            subgraphs)


def padded_graphs(max_n: int):
    """Every graph on at most max_n vertices: as is, with an isolated vertex
    before and one after, and with one between each two consecutive ones."""
    for n in range(max_n + 1):
        paddings = (list(range(n)), [v + 1 for v in range(n)],
                    [2 * v for v in range(n)])
        sizes = (n, n + 2, max(0, 2 * n - 1))
        for g in enumerate_graphs(n):
            for place, size in zip(paddings, sizes):
                yield build_graph(size, [(place[u], place[v])
                                         for u, v in g.edges()])


@lru_cache(maxsize=1)
def padded_partitions():
    """(g, ``union_find_components(g)``) for every g of ``padded_graphs(6)``,
    computed once per session for the tests that share the corpus."""
    return [(g, union_find_components(g)) for g in padded_graphs(6)]


def naive_is_chordal(g: Graph) -> bool:
    """No chordless cycle of length >= 4, by brute-force subset scan."""
    for size in range(4, g.n + 1):
        for combo in combinations(range(g.n), size):
            if _subset_is_chordless_cycle(g, combo):
                return False
    return True


def _subset_is_chordless_cycle(g: Graph, combo) -> bool:
    degs = []
    edges = 0
    for v in combo:
        d = sum(1 for u in combo if u != v and g.has_edge(u, v))
        degs.append(d)
        edges += d
    if edges != 2 * len(combo) or any(d != 2 for d in degs):
        return False
    # 2-regular induced subgraph on the subset: connected iff single cycle.
    sub = induced_subgraph(g, combo)
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= sub.adj[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << sub.n) - 1


def naive_has_induced_c4(g: Graph) -> bool:
    for combo in combinations(range(g.n), 4):
        if _subset_is_chordless_cycle(g, combo):
            return True
    return False


def elimination_is_chordal(g: Graph) -> bool:
    """Dirac's characterization: repeatedly deleting a simplicial vertex (one
    whose remaining neighbors are pairwise adjacent) empties g iff g is
    chordal.  Polynomial, so it serves graphs too large for the subset scan.
    """
    alive = (1 << g.n) - 1
    while alive:
        for v in bits(alive):
            nbrs = g.adj[v] & alive
            if all(not nbrs & ~g.adj[u] & ~(1 << u) for u in bits(nbrs)):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


def pair_scan_has_induced_c4(g: Graph) -> bool:
    """An induced C4 is two non-adjacent vertices with two non-adjacent
    common neighbors; scan every non-adjacent pair.  Polynomial."""
    for u in range(g.n):
        for w in bits(~g.adj[u] & ((1 << g.n) - 1) & (-1 << (u + 1))):
            common = g.adj[u] & g.adj[w]
            if any(common & ~g.adj[a] & ~(1 << a) for a in bits(common)):
                return True
    return False


def naive_chordless_cycle_counts(g: Graph, k_max: int) -> dict[int, int]:
    counts = {k: 0 for k in range(4, k_max + 1)}
    for size in range(4, min(k_max, g.n) + 1):
        for combo in combinations(range(g.n), size):
            if _subset_is_chordless_cycle(g, combo):
                counts[size] += 1
    return counts


@lru_cache(maxsize=1)
def _small_cycle_counts() -> list[list[dict[int, int]]]:
    return [[naive_chordless_cycle_counts(g, 6) for g in enumerate_graphs(n)]
            for n in range(7)]


def small_cycle_counts(g: Graph) -> dict[int, int]:
    """``naive_chordless_cycle_counts(g, 6)`` of a graph on at most 6
    vertices, read from a table of every such graph built once per session
    (``enumerate_graphs`` yields them in edge-mask order)."""
    return _small_cycle_counts()[g.n][edge_mask(g)]


@lru_cache(maxsize=None)
def cochordal_counts_by_edges(n: int) -> dict[str, list[int]]:
    """N_m for m = 0..C(n, 2): the labeled n-vertex graphs with m edges
    whose complement has no chordless cycle ("is_cochordal") or no induced
    4-cycle ("is_4_cochordal"), n <= 6, read from ``small_cycle_counts``
    of the complements."""
    out = {name: [0] * (n * (n - 1) // 2 + 1)
           for name in ("is_cochordal", "is_4_cochordal")}
    for g in enumerate_graphs(n):
        counts = small_cycle_counts(complement(g))
        out["is_cochordal"][g.edge_count] += not any(counts.values())
        out["is_4_cochordal"][g.edge_count] += counts[4] == 0
    return out


def peel_degree_two(us: np.ndarray, vs: np.ndarray) -> Graph:
    """A faulty ``two_core`` for planted-fault tests: it also peels vertices
    of degree 2, which can lie on a chordless cycle."""
    size = int(max(us.max(), vs.max())) + 1 if len(us) else 0
    while True:
        deg = (np.bincount(us, minlength=size)
               + np.bincount(vs, minlength=size))
        low = (deg >= 1) & (deg <= 2)
        cut = low[us] | low[vs]
        if not cut.any():
            break
        us, vs = us[~cut], vs[~cut]
    return two_core(us, vs)


def exact_gnp_probability(counts: list[int], p: float) -> float:
    """P_n(p) = sum_m N_m p^m (1 - p)^(C(n,2) - m) of a property whose
    N_m are ``counts``."""
    pairs = len(counts) - 1
    return sum(c * p ** m * (1 - p) ** (pairs - m)
               for m, c in enumerate(counts))


@lru_cache(maxsize=None)
def _class_reg_pd(n: int, edges: tuple) -> tuple[int, int]:
    table = naive_betti_table(build_graph(n, edges))
    return (max((j - i for i, j in table), default=0),
            max((i for i, j in table), default=0))


@lru_cache(maxsize=None)
def _component_reg_pd(g: Graph) -> tuple[int, int]:
    """(reg*, pd) of a small graph's naive table, computed once per
    isomorphism class (the least sorted edge list over all relabelings)."""
    edges = list(g.edges())
    return _class_reg_pd(g.n, min(
        tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                     for u, v in edges))
        for perm in permutations(range(g.n))))


def exact_componentwise_means(n: int, p: float,
                              guard: int) -> tuple[float, float]:
    """(E[reg*], E[pd]) of G(n, p) summed over components, as the sparse
    runners count them: every labeled n-vertex graph weighted by
    p^m (1 - p)^(C(n,2) - m), each component's reg* and pd read off its
    naive table, and a cyclic component on more than ``guard`` vertices
    counted 0."""
    pairs = n * (n - 1) // 2
    reg = pd = 0.0
    for g in enumerate_graphs(n):
        weight = p ** g.edge_count * (1 - p) ** (pairs - g.edge_count)
        for comp in union_find_components(g)[3]:
            if comp.edge_count >= comp.n and comp.n > guard:
                continue
            r, d = _component_reg_pd(comp)
            reg += weight * r
            pd += weight * d
    return reg, pd


def diagonal_scan_induced_c4(g: Graph) -> int:
    """Induced 4-cycles from their diagonals: a non-adjacent pair {a, c} and
    two non-adjacent common neighbors x, y span the induced C4 a-x-c-y, and
    each such cycle has two diagonals.  A loop over bit rows that scans only
    the pairs with two common neighbors, so it serves graphs too large for
    the subset scan."""
    adj = g.adj
    per_diagonal = 0
    for a in range(g.n):
        once = twice = 0  # vertices with >= 1 and >= 2 neighbors in N(a)
        for b in bits(adj[a]):
            twice |= once & adj[b]
            once |= adj[b]
        for c in bits(twice & ~adj[a] & (-1 << (a + 1))):
            com = list(bits(adj[a] & adj[c]))
            per_diagonal += sum(1 for i, x in enumerate(com)
                                for y in com[i + 1:] if not adj[x] >> y & 1)
    return per_diagonal // 2


def trace_identity_induced_c4(g: Graph) -> int:
    """Induced 4-cycles from codegrees (Alon, Yuster & Zwick 1997).

    A 4-set spanning a 4-cycle is an induced C4, a diamond or a K4.  Summing
    C(codeg, 2) over non-adjacent pairs counts each induced C4 twice and each
    diamond once; over adjacent pairs, each diamond once and each K4 six
    times.  Hence I4 = (non-adjacent sum - adjacent sum) / 2 + 3 #K4, with
    codegrees from A @ A and K4s as triangles among each vertex's neighbors.
    """
    a = np.array([[row >> v & 1 for v in range(g.n)] for row in g.adj],
                 dtype=np.int64).reshape(g.n, g.n)
    codeg = a @ a
    pairs = codeg * (codeg - 1) // 2
    upper = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
    non_adjacent = int(pairs[upper & (a == 0)].sum())
    adjacent = int(pairs[upper & (a == 1)].sum())
    k4_times_4 = 0
    for v in range(g.n):
        nbrs = np.flatnonzero(a[v])
        b = a[np.ix_(nbrs, nbrs)]
        k4_times_4 += int(np.trace(b @ b @ b)) // 6
    return (non_adjacent - adjacent) // 2 + 3 * (k4_times_4 // 4)


def naive_induced_matching_number(g: Graph) -> int:
    edges = list(g.edges())
    best = 0
    for size in range(1, g.n // 2 + 1):
        found = False
        for combo in combinations(edges, size):
            verts = set()
            ok = True
            for u, v in combo:
                if u in verts or v in verts:
                    ok = False
                    break
                verts.add(u)
                verts.add(v)
            if not ok:
                continue
            vs = sorted(verts)
            inner = sum(1 for a, b in combinations(vs, 2) if g.has_edge(a, b))
            if inner == size:
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def naive_matching_number(g: Graph) -> int:
    edges = list(g.edges())

    def rec(idx: int, used: int) -> int:
        if idx == len(edges):
            return 0
        best = rec(idx + 1, used)
        u, v = edges[idx]
        if not (used >> u & 1) and not (used >> v & 1):
            best = max(best, 1 + rec(idx + 1, used | (1 << u) | (1 << v)))
        return best

    return rec(0, 0)


@lru_cache(maxsize=1)
def small_matching_numbers():
    """(g, ``naive_matching_number(g)``) for every graph on <= 6 vertices,
    computed once per session."""
    return [(g, naive_matching_number(g)) for n in range(7)
            for g in enumerate_graphs(n)]


def naive_independence_number(g: Graph) -> int:
    return max(s.bit_count() for s in naive_independent_sets(g))


def naive_maximal_independent_sets(g: Graph) -> list[int]:
    sets = naive_independent_sets(g)
    as_set = set(sets)
    out = []
    for s in sets:
        maximal = True
        for v in range(g.n):
            if not s >> v & 1 and (s | 1 << v) in as_set:
                maximal = False
                break
        if maximal:
            out.append(s)
    return out


def naive_cover_sizes(g: Graph) -> tuple[int, int]:
    """(min cover, max minimal cover) with isolated vertices excluded."""
    iso = sum(1 << v for v in range(g.n) if g.adj[v] == 0)
    sizes = [(((1 << g.n) - 1) & ~s & ~iso).bit_count()
             for s in naive_maximal_independent_sets(g)]
    return min(sizes), max(sizes)


@lru_cache(maxsize=None)
def unmixed_counts_by_edges(n: int) -> list[int]:
    """N_m for m = 0..C(n, 2): the labeled n-vertex graphs with m edges
    whose minimal covers all have one size (``naive_cover_sizes``)."""
    out = [0] * (n * (n - 1) // 2 + 1)
    for g in enumerate_graphs(n):
        lo, hi = naive_cover_sizes(g)
        out[g.edge_count] += lo == hi
    return out


# -- naive homology over Q and GF(p), straight from boundary matrices --

def _gauss_rank_fraction(mat: list[list[Fraction]]) -> int:
    if not mat or not mat[0]:
        return 0
    rows, cols = len(mat), len(mat[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1, 1) / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _gauss_rank_modp(mat: list[list[int]], p: int) -> int:
    if not mat or not mat[0]:
        return 0
    mat = [[x % p for x in row] for row in mat]
    rows, cols = len(mat), len(mat[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def naive_homology_of_faces(faces: list[int], field: str = "q") -> dict[int, int]:
    """Reduced homology dims (degree -> dim) from an explicit face list."""
    by_size: dict[int, list[int]] = {}
    for f in set(faces):
        by_size.setdefault(f.bit_count(), []).append(f)
    for v in by_size.values():
        v.sort()
    if not by_size:
        return {}
    index = {s: {f: i for i, f in enumerate(fs)} for s, fs in by_size.items()}
    top = max(by_size)
    ranks = {}
    for s in range(1, top + 1):
        cols = by_size.get(s, [])
        nrows = len(by_size.get(s - 1, []))
        mat = [[0] * len(cols) for _ in range(nrows)]
        for ci, f in enumerate(cols):
            sign = 1
            sub = f
            while sub:
                low = sub & -sub
                mat[index[s - 1][f ^ low]][ci] = sign
                sign = -sign
                sub ^= low
        if field == "q":
            ranks[s - 1] = _gauss_rank_fraction(
                [[Fraction(x) for x in row] for row in mat])
        else:
            ranks[s - 1] = _gauss_rank_modp(mat, int(field[1:]))
    dims = {}
    for s, fs in by_size.items():
        d = s - 1
        dim = len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if dim:
            dims[d] = dim
    return dims


def naive_betti_table(g: Graph, field: str = "q") -> dict[tuple[int, int], int]:
    """Subset-sum table with no reductions at all."""
    entries: dict[tuple[int, int], int] = {}
    for w in range(1, 1 << g.n):
        verts = [v for v in range(g.n) if w >> v & 1]
        sub = induced_subgraph(g, verts)
        faces = naive_independent_sets(sub)
        dims = naive_homology_of_faces(faces, field)
        j = len(verts)
        for d, rank in dims.items():
            if d < 0:
                continue
            i = j - d - 1
            if i >= 1:
                entries[(i, j)] = entries.get((i, j), 0) + rank
    return entries


def naive_regularity_quotient(g: Graph, field: str = "q") -> int:
    return max((j - i for i, j in naive_betti_table(g, field)), default=0)


def naive_pd_quotient(g: Graph, field: str = "q") -> int:
    return max((i for i, j in naive_betti_table(g, field)), default=0)


def _gather(masks: np.ndarray, moves) -> np.ndarray:
    """Edge masks with bit src of each input moved to bit dst, for each
    (src, dst) in moves; bits not moved are dropped."""
    out = np.zeros_like(masks)
    for src, dst in moves:
        out |= ((masks >> src) & 1) << dst
    return out


@lru_cache(maxsize=None)
def _naive_top_set_flags(k: int) -> np.ndarray:
    """(len, 2) flags (linear resolution, linear presentation) that the
    Betti positions (k - d - 1, k) of Ind(G) alone allow, for every labeled
    k-vertex graph G by edge mask: naive homology of its independent sets,
    taken once per isomorphism class (the least mask over all
    relabelings)."""
    masks = np.arange(1 << (k * (k - 1) // 2), dtype=np.uint32)
    canon = masks.copy()
    for perm in permutations(range(k)):
        np.minimum(canon, _gather(masks, [
            (pair_index(k, a, b), pair_index(k, perm[a], perm[b]))
            for a, b in pair_list(k)]), out=canon)
    classes, inverse = np.unique(canon, return_inverse=True)
    flags = []
    for mask in classes.tolist():
        faces = naive_independent_sets(graph_from_edge_mask(k, mask))
        dims = naive_homology_of_faces(faces, "f2")
        flags.append(linearity(((k - d - 1, k), rank)
                               for d, rank in dims.items()
                               if d >= 0 and k - d - 1 >= 1))
    return np.array(flags, dtype=bool).reshape(-1, 2)[inverse]


@lru_cache(maxsize=None)
def naive_linear_flag_table(k: int) -> np.ndarray:
    """(len, 2) flags ``linearity(naive_betti_table(g, "f2").items())`` of
    every labeled k-vertex graph g by edge mask, k <= 6: the same sum over
    every nonempty vertex subset W, in bulk, with G[W] read from
    ``_naive_top_set_flags``.  Built once per session."""
    masks = np.arange(1 << (k * (k - 1) // 2), dtype=np.uint32)
    flags = np.ones((len(masks), 2), dtype=bool)
    for size in range(1, k + 1):
        top = _naive_top_set_flags(size)
        for w in combinations(range(k), size):
            flags &= top[_gather(masks, [
                (pair_index(k, w[a], w[b]), pair_index(size, a, b))
                for a, b in pair_list(size)])]
    return flags


def is_irreducible(adj, w: int) -> bool:
    """W is nonempty, and G[W] has no isolated vertex and no pair x != y
    with N(x) subseteq N(y): the sets HomologyEngine.irreducible_dims
    takes."""
    rows = {v: adj[v] & w for v in bits(w)}
    return w != 0 and all(rows.values()) and not any(
        rows[x] & ~rows[y] == 0 for x in rows for y in rows if x != y)


_last_walk: list = [None, None, None, None]


def per_subset_dims(g: Graph, w: int, field: str = "q") -> dict[int, int]:
    """Sparse map degree -> dim H~_degree(Ind(G[W])), {} if contractible and
    {-1: 1} for W = 0 (the empty complex), by the per-subset walk: bail to a
    cone on an isolated vertex, else delete the y of the first ordered pair
    (x, y) with N(x) & W subseteq N(y), until W is irreducible; then the
    engine's cluster form, component split and face homology.  Consecutive
    calls on the same graph object and field share one memo."""
    if w == 0:
        return {-1: 1}
    if _last_walk[0] is not g or _last_walk[1] != field:
        _last_walk[:] = [g, field, HomologyEngine(g, field), {}]
    engine, memo = _last_walk[2], _last_walk[3]
    adj = engine.adj
    path = []
    live = w
    while live not in memo:
        path.append(live)
        rows = {}
        rest = live
        while rest:
            low = rest & -rest
            row = adj[low.bit_length() - 1] & live
            if row == 0:
                break
            rows[low.bit_length() - 1] = row
            rest ^= low
        if rest:
            dims = {}
            break
        for x, row in rows.items():
            # The y with N(x) subseteq N(y): live common neighbors of N(x).
            partners = live ^ (1 << x)
            while row and partners:
                low = row & -row
                partners &= rows[low.bit_length() - 1]
                row ^= low
            if partners:
                live ^= partners & -partners
                break
        else:
            dims = engine.irreducible_dims(live)
            break
    else:
        dims = memo[live]
    for seen in path:
        memo[seen] = dims
    return dims
