"""Slow, reduction-free reference implementations used only by tests.

Each oracle mirrors a definition as directly as possible (subset brute
force, naive matrix homology, cycle enumeration) so the production code is
checked against an independent route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from eideal.graph_core import Graph, bits, induced_subgraph


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
