"""Exact combinatorial invariants: induced matching, matching, independence,
vertex-cover extremes and unmixedness.

Forests get linear DPs.  Induced matching is additive over components, and
a cyclic component branches on a 2-core vertex until the forest DP applies.
Matching peels leaves (always optimal) and hands what is left to blossom.
Independence and cover extremes search with an explicit node budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .graph_core import (Graph, bits, complement, component_masks,
                         connected_components, induced_subgraph_mask)

DEFAULT_MIS_BUDGET = 10 ** 7
DEFAULT_NODE_BUDGET = 10 ** 7


class BudgetExceededError(RuntimeError):
    """Raised instead of returning a possibly wrong answer."""


def is_forest(g: Graph) -> bool:
    components = sum(1 for _ in component_masks(g.adj, (1 << g.n) - 1))
    return g.edge_count == g.n - components


def _tree_postorders(g: Graph):
    """For each tree of a forest, rooted at its smallest vertex, yield the
    list of (v, children) pairs with every child before its parent."""
    for comp in component_masks(g.adj, (1 << g.n) - 1):
        pairs = []
        stack = [((comp & -comp).bit_length() - 1, -1)]
        while stack:
            v, par = stack.pop()
            children = [u for u in bits(g.adj[v]) if u != par]
            pairs.append((v, children))
            stack.extend((u, v) for u in children)
        pairs.reverse()
        yield pairs


NEG = float("-inf")


def tree_induced_matching(g: Graph) -> int:
    """Induced matching number of a forest by rooted DP; errors on non-forests.

    Per vertex: a = best with v matched to a child, n_ = best with v
    unmatched (children free), p = best with v unmatched and no child
    matched (v available to its parent).
    """
    if not is_forest(g):
        raise ValueError("tree_induced_matching requires a forest")
    total = 0
    for tree in _tree_postorders(g):
        a = {}
        n_ = {}
        p = {}
        for v, children in tree:
            sum_n = sum(n_[c] for c in children)
            best_swap = max((p[c] - n_[c] for c in children), default=NEG)
            a[v] = 1 + sum_n + best_swap if children else NEG
            n_[v] = sum(max(a[c], n_[c]) for c in children)
            p[v] = sum_n
        root = tree[-1][0]
        total += int(max(a[root], n_[root]))
    return total


def _find_cycle_vertex(g: Graph, active: int) -> int | None:
    """Some vertex lying on a cycle of the induced subgraph, or None."""
    # Peel degree-<=1 vertices; anything left is in the 2-core.
    deg = {v: (g.adj[v] & active).bit_count() for v in bits(active)}
    queue = [v for v, d in deg.items() if d <= 1]
    alive = active
    while queue:
        v = queue.pop()
        if not alive >> v & 1:
            continue
        alive &= ~(1 << v)
        for u in bits(g.adj[v] & alive):
            deg[u] -= 1
            if deg[u] == 1:
                queue.append(u)
    if alive == 0:
        return None
    return max(bits(alive), key=lambda v: (g.adj[v] & alive).bit_count())


def induced_matching_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact induced matching number.

    Additive over components: forest components go straight to the DP, and
    each cyclic component is branched on a 2-core vertex v (v unmatched, or
    v matched to each neighbor in turn) until the forest DP applies.
    """
    total = 0
    for comp in connected_components(g).component_subgraphs:
        if comp.edge_count == comp.n - 1:
            total += tree_induced_matching(comp)
        else:
            total += _induced_matching_cyclic(comp, budget)
    return total


def _induced_matching_cyclic(g: Graph, budget: int) -> int:
    nodes = 0

    def solve(active: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"induced matching search exceeded {budget} nodes")
        # Drop vertices isolated within the active set.
        live = 0
        for v in bits(active):
            if g.adj[v] & active:
                live |= 1 << v
        if live == 0:
            return 0
        v = _find_cycle_vertex(g, live)
        if v is None:
            return tree_induced_matching(induced_subgraph_mask(g, live))
        best = solve(live & ~(1 << v))
        for u in bits(g.adj[v] & live):
            rest = live & ~(g.adj[v] | g.adj[u] | (1 << v) | (1 << u))
            cand = 1 + solve(rest)
            if cand > best:
                best = cand
        return best

    return solve((1 << g.n) - 1)


def matching_number(g: Graph) -> int:
    """Maximum matching size, exact on general graphs.

    Matching a degree-1 vertex to its only neighbor is always optimal
    (Karp-Sipser), so leaves are peeled off the whole graph first and
    networkx's blossom implementation matches whatever is left.
    """
    adj = list(g.adj)
    leaves = [v for v in range(g.n) if adj[v].bit_count() == 1]
    size = 0
    while leaves:
        v = leaves.pop()
        if adj[v].bit_count() != 1:
            continue
        u = adj[v].bit_length() - 1
        size += 1
        for x in (v, u):
            for w in bits(adj[x]):
                adj[w] &= ~(1 << x)
                if adj[w].bit_count() == 1:
                    leaves.append(w)
            adj[x] = 0
    h = nx.Graph()
    h.add_edges_from((v, u) for v in range(g.n) for u in bits(adj[v]) if u > v)
    return size + len(nx.max_weight_matching(h, maxcardinality=True))


def independence_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Maximum independent set size by branch and bound."""
    nodes = 0
    best = 0

    def greedy_color_bound(active: int) -> int:
        # Chromatic-style bound on the independence number of the complement
        # view: pack active vertices into cliques greedily.
        bound = 0
        rest = active
        while rest:
            v = rest & -rest
            vi = v.bit_length() - 1
            clique = 1 << vi
            cand = g.adj[vi] & rest
            while cand:
                u = cand & -cand
                ui = u.bit_length() - 1
                clique |= u
                cand &= g.adj[ui]
            rest &= ~clique
            bound += 1
        return bound

    def solve(active: int, size: int):
        nonlocal nodes, best
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"independence search exceeded {budget} nodes")
        if size > best:
            best = size
        if active == 0:
            return
        if size + greedy_color_bound(active) <= best:
            return
        degs = [(v, (g.adj[v] & active).bit_count()) for v in bits(active)]
        v, d = max(degs, key=lambda t: t[1])
        if d <= 1:
            # Peeling low-degree vertices greedily is exact.
            taken = 0
            rest = active
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= ~(g.adj[u] | (1 << u))
                taken += 1
            if size + taken > best:
                best = size + taken
            return
        solve(active & ~(g.adj[v] | (1 << v)), size + 1)
        solve(active & ~(1 << v), size)

    solve((1 << g.n) - 1, 0)
    return best


@dataclass(frozen=True)
class CoverProfile:
    """Minimum vs largest-minimal vertex cover sizes and the unmixed flag."""

    min_cover: int
    max_minimal_cover: int
    unmixed: bool


def maximal_independent_sets(g: Graph):
    """Yield the maximal independent sets of g as vertex masks, by
    Bron-Kerbosch with pivoting on the complement (cliques there are
    independent sets here)."""
    cadj = complement(g).adj

    def bk(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield r
            return
        pivot = max(bits(p | x), key=lambda u: (cadj[u] & p).bit_count())
        for v in bits(p & ~cadj[pivot]):
            yield from bk(r | (1 << v), p & cadj[v], x & cadj[v])
            p &= ~(1 << v)
            x |= 1 << v

    return bk(0, (1 << g.n) - 1, 0)


def cover_profile(g: Graph, budget: int = DEFAULT_MIS_BUDGET) -> CoverProfile:
    """Cover extremes by enumerating maximal independent sets per component;
    ``budget`` caps the number of sets enumerated over all components.

    Isolated vertices sit in every maximal independent set and never in a
    minimal cover, so they contribute nothing; unmixedness of the whole graph
    is the conjunction over components.
    """
    min_cover = 0
    max_minimal = 0
    unmixed = True
    for comp in connected_components(g).component_subgraphs:
        lo = comp.n + 1
        hi = -1
        for s in maximal_independent_sets(comp):
            budget -= 1
            if budget < 0:
                raise BudgetExceededError(
                    "maximal independent set enumeration budget exhausted")
            size = s.bit_count()
            lo = min(lo, size)
            hi = max(hi, size)
        min_cover += comp.n - hi
        max_minimal += comp.n - lo
        if lo != hi:
            unmixed = False
    return CoverProfile(min_cover, max_minimal, unmixed)


def tree_min_maximal_independent_set(g: Graph) -> int:
    """Minimum maximal (= independent dominating) set size on a forest."""
    if not is_forest(g):
        raise ValueError("requires a forest")
    INF = float("inf")
    total = 0
    for tree in _tree_postorders(g):
        a = {}   # v in the set
        b = {}   # v out, dominated by a child
        f = {}   # v out, domination deferred to the parent
        for v, children in tree:
            a[v] = 1 + sum(f[c] for c in children)
            base = sum(min(a[c], b[c]) for c in children)
            f[v] = base
            if children:
                force = min(a[c] - min(a[c], b[c]) for c in children)
                b[v] = base + force
            else:
                b[v] = INF
        root = tree[-1][0]
        total += int(min(a[root], b[root]))
    return total
