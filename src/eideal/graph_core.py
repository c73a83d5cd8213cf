"""Immutable simple graphs on vertices 0..n-1 with bitmask adjacency rows.

Python integers serve as arbitrary-width bitsets, so one code path covers
every graph size; all operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                yield (u, v)
                row &= row - 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of a graph by smallest vertex, from one
    ``walk_components``: ``masks`` of the components with an edge, ``count``
    (= ``len()``) of all, isolated vertices included, and the union ``trees``
    of the tree components' masks with their forest ``order``/``parent``.
    Consumers read each component on the graph's own rows by its mask."""

    masks: tuple[int, ...] = field(repr=False)
    count: int
    trees: int = field(repr=False)
    order: list[int] = field(repr=False)
    parent: list[int] = field(repr=False)

    def __len__(self) -> int:
        return self.count


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_graph(n: int, edges) -> Graph:
    """Build a graph from an edge list; duplicates collapse, loops rejected."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def graph_from_pairs(n: int, us, vs) -> Graph:
    """Graph on n vertices with edges (us[i], vs[i]) from two numpy endpoint
    arrays, unchecked.  Over 4 pairs per vertex, where it is faster, the
    rows are packed from an n x n bool matrix, else set bit by bit."""
    if len(us) <= 4 * n:
        adj = [0] * n
        for u, v in zip(us.tolist(), vs.tolist()):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))
    mat = np.zeros((n, n), dtype=bool)
    mat[us, vs] = True
    mat[vs, us] = True
    return _packed_graph(mat)


def relabel_live(deg: np.ndarray, us: np.ndarray,
                 vs: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(k, us', vs'): the k vertices of nonzero degree ``deg`` relabelled
    0..k-1 in increasing order, and the edges (us[i], vs[i]) among them."""
    alive = deg > 0
    label = np.cumsum(alive) - 1
    return int(np.count_nonzero(alive)), label[us], label[vs]


def _packed_graph(mat) -> Graph:
    """The graph of the symmetric n x n bool adjacency matrix ``mat``."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return Graph(len(mat), tuple(int.from_bytes(row.tobytes(), "little")
                                 for row in packed))


def complement(g: Graph) -> Graph:
    """Edge-complement on the same vertex set."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ g.adj[v]) & ~(1 << v) for v in range(g.n)))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph; vertices relabeled 0..k-1 in increasing vertex order."""
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    keep = 0
    for v in vs:
        keep |= 1 << v
    adj = []
    for v in vs:
        acc = 0
        for u in bits(g.adj[v] & keep):
            acc |= 1 << index[u]
        adj.append(acc)
    return Graph(len(vs), tuple(adj))


def induced_subgraph_mask(g: Graph, mask: int) -> Graph:
    """Induced subgraph on the vertex bitmask ``mask`` (relabeled, order kept)."""
    return induced_subgraph(g, bits(mask))


def delete_closed_neighborhood(g: Graph, v: int) -> Graph:
    """Induced subgraph on V minus N[v]; surviving isolated vertices kept."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    keep = ((1 << g.n) - 1) & ~(g.adj[v] | (1 << v))
    return induced_subgraph_mask(g, keep)


def walk_components(adj, w: int):
    """(component masks by smallest vertex, union of the tree components'
    masks, order, parent) of G[w] from one walk, ``order`` doubling as the
    queue.  k vertices whose rows hold 2(k - 1) ends in ``w`` are a tree;
    only trees stay in the record, ``parent[i]`` being the position of the
    parent of ``order[i]`` (below i) or -1 for a root.  The one component
    split: partitions, the matching search and the homology engine read it."""
    masks, order, parent = [], [], []
    cyclic, rest = 0, w
    while rest:
        before = rest
        low = rest & -rest
        rest ^= low
        start = i = len(order)
        order.append(low.bit_length() - 1)
        parent.append(-1)
        ends = 0
        while i < len(order):
            row = adj[order[i]] & w
            ends += row.bit_count()
            new = row & rest
            rest ^= new
            while new:
                low = new & -new
                order.append(low.bit_length() - 1)
                parent.append(i)
                new ^= low
            i += 1
        masks.append(before ^ rest)
        if ends != 2 * (i - start - 1):
            cyclic |= masks[-1]
            del order[start:], parent[start:]
    return masks, w ^ cyclic, order, parent


# Byte 0/1 to ASCII "0"/"1": the live mask is read as one base-2 numeral.
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def connected_components(g: Graph) -> ComponentPartition:
    """Components and tree forest from one walk over the mask of
    non-isolated vertices; the isolated ones are counted, not built."""
    live = int(b"0" + bytes(map(bool, reversed(g.adj))).translate(_DIGITS), 2)
    masks, trees, order, parent = walk_components(g.adj, live)
    return ComponentPartition(tuple(masks),
                              g.n - live.bit_count() + len(masks),
                              trees, order, parent)


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.adj), default=0)


# The pair order, known to this module alone: pair (u, v), u < v, gets its
# index in lexicographic order, so (0,1)=0, (0,2)=1, ..., (1,2)=n-1, ...

def pair_index(n: int, u, v):
    """Index of the pair of ints u, v, in either order, or the indices of
    the pairs of two numpy endpoint arrays with u < v."""
    if not isinstance(u, np.ndarray) and u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def pair_endpoints(n: int, idx) -> tuple:
    """(us, vs) of the pairs at the sorted numpy index array ``idx``, the
    inverse of ``pair_index``: row u holds the n-1-u pairs (u, v), v > u,
    so each u spans a run of idx, found by n searches, not one per index."""
    ends = np.arange(n - 1, -1, -1).cumsum()  # where each row's pairs end
    stop = idx.searchsorted(ends)
    runs = stop.copy()
    runs[1:] -= stop[:-1]
    vs = (ends - n).repeat(runs)  # v = idx - ends[u] + n
    np.subtract(idx, vs, out=vs)  # in place: one array less per dense draw
    return np.arange(n).repeat(runs), vs


def pair_list(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_edge_mask(n: int, mask: int, pairs=None) -> Graph:
    """Graph whose edge set is the bitmask over ``pair_index`` positions."""
    if pairs is None:
        pairs = pair_list(n)
    adj = [0] * n
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        mask ^= low
    return Graph(n, tuple(adj))


def edge_mask(g: Graph) -> int:
    mask = 0
    for u, v in g.edges():
        mask |= 1 << pair_index(g.n, u, v)
    return mask


MAX_ENUMERATION_VERTICES = 8


def enumerate_graphs(n: int):
    """Yield all labeled graphs on n vertices in edge-mask order (n <= 8)."""
    if n > MAX_ENUMERATION_VERTICES:
        raise ValueError(f"refusing to enumerate graphs on {n} > "
                         f"{MAX_ENUMERATION_VERTICES} vertices")
    pairs = pair_list(n)
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_edge_mask(n, mask, pairs)


# Named constructions used throughout tests and demos.

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(adj))


# Serialization: edge-list text and compact hex adjacency dump.

def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {rows[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header says {m} edges, file has {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def to_hex_dump(g: Graph) -> str:
    return f"{g.n} {edge_mask(g):x}\n"


def from_hex_dump(text: str) -> Graph:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"bad hex dump {text!r}, expected 'n hexmask'")
    n = int(parts[0])
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    mask = int(parts[1], 16)
    if mask >> (n * (n - 1) // 2):
        raise ValueError("hex mask has bits beyond the n-vertex pair range")
    # Only the set bits are decoded: a pair list of n = 3000 takes 0.5 GB.
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return graph_from_pairs(n, *pair_endpoints(n, flags.nonzero()[0]))
