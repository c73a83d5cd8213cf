"""Immutable simple graphs on vertices 0..n-1 with bitmask adjacency rows.

Python integers serve as arbitrary-width bitsets, so one code path covers
every graph size; all operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return (self.adj[v]).bit_count()

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

    def neighbors(self, v: int):
        return bits(self.adj[v])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class ComponentPartition:
    """Connected components, labeled in order of smallest contained vertex.

    ``sizes`` and ``len()`` count every component, isolated vertices
    included; ``component_subgraphs`` holds only the components with an
    edge (size >= 2), built lazily because most consumers need only sizes.
    """

    def __init__(self, graph: Graph, labels: tuple[int, ...],
                 sizes: tuple[int, ...],
                 vertex_sets: tuple[tuple[int, ...], ...]):
        self.graph = graph
        self.labels = labels
        self.sizes = sizes
        self.component_vertex_sets = vertex_sets

    @cached_property
    def component_subgraphs(self) -> tuple[Graph, ...]:
        """Induced subgraphs of the components with an edge, in label order;
        a component spanning all n > 1 vertices is the graph itself."""
        if len(self.sizes) == 1 and self.graph.n > 1:
            return (self.graph,)
        return tuple(induced_subgraph(self.graph, vs)
                     for vs in self.component_vertex_sets if len(vs) > 1)

    def __len__(self) -> int:
        return len(self.sizes)

    def __repr__(self) -> str:
        return f"ComponentPartition(sizes={self.sizes})"


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


def component_masks(adj, w: int):
    """Yield the vertex masks of the connected components of the subgraph
    induced on the vertex mask ``w``, ordered by smallest vertex."""
    rest = w
    while rest:
        comp = frontier = rest & -rest
        rest ^= comp
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & rest
            if frontier:  # skipped on the last round: keeps singletons cheap
                rest ^= frontier
                comp |= frontier
        yield comp


def connected_components(g: Graph) -> ComponentPartition:
    """Partition numbered by smallest vertex.  The BFS touches only the
    non-isolated vertices; one O(n) pass over the rows adds the singletons."""
    flags = "".join("1" if row else "0" for row in reversed(g.adj))
    live = int("0" + flags, 2)
    starts = {(c & -c).bit_length() - 1: c
              for c in component_masks(g.adj, live)}
    labels = [-1] * g.n
    vertex_sets = []
    for v, row in enumerate(g.adj):
        if not row or v in starts:
            members = tuple(bits(starts[v])) if row else (v,)
            for u in members:
                labels[u] = len(vertex_sets)
            vertex_sets.append(members)
    return ComponentPartition(g, tuple(labels), tuple(map(len, vertex_sets)),
                              tuple(vertex_sets))


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.adj), default=0)


# Pair indexing for edge masks: pair (u, v), u < v, gets index in
# lexicographic order, so (0,1)=0, (0,2)=1, ..., (1,2)=n-1, ...

def pair_index(n: int, u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


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
    mask = int(parts[1], 16)
    if mask >> (n * (n - 1) // 2):
        raise ValueError("hex mask has bits beyond the n-vertex pair range")
    return graph_from_edge_mask(n, mask)
