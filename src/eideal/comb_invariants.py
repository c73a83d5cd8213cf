"""Exact combinatorial invariants: induced matching, matching, independence,
vertex-cover extremes and unmixedness.

One unchecked fold, ``forest_fold``, gives induced matching and independent
domination of a forest from the parent list that a graph walk records
(``walk_components``) or a Galton-Watson sampler draws, so no tree is walked
twice.  Induced matching folds a walk's trees and branches on its cyclic
components, walking each branch once.  Matching peels leaves (always
optimal) and matches what is left with Edmonds' blossom algorithm on bit
rows, ``max_matching``.  Independence and cover extremes search with an
explicit node budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .graph_core import Graph, bits, connected_components, walk_components

DEFAULT_MIS_BUDGET = 10 ** 7
DEFAULT_NODE_BUDGET = 10 ** 7


class BudgetExceededError(RuntimeError):
    """Raised instead of returning a possibly wrong answer."""


def is_forest(g: Graph) -> bool:
    """Every component of g is a tree, as its walk record tells."""
    parts = connected_components(g)
    return all(mask & parts.trees for mask in parts.masks)


def forest_fold(parent) -> tuple[int, int]:
    """(induced matching number, minimum maximal independent set size) of
    the forest in which position i has parent position ``parent[i]`` < i, or
    -1 for a root: in reverse order each vertex folds into its parent's sums.

    Induced matching: a = best with v matched to a child, m = best with v
    unmatched, p = best with v unmatched and no child matched (v available
    to its parent).  Independent domination: s = v in the set, d = v out
    and dominated by a child, f = v out and left to its parent.
    """
    k = len(parent)
    # Over finished children: sums of m (= p), max(a, m), f and min(s, d)
    # (= f), the best p - m swap, and the cheapest child forced into the set.
    sum_m, sum_best, sum_f, sum_min = ([0] * k for _ in range(4))
    swap = [float("-inf")] * k
    force = [float("inf")] * k
    nu = mmis = 0
    # Conditional expressions, not min/max: the calls cost a fifth of a DP.
    for v in range(k - 1, -1, -1):
        a = 1 + sum_m[v] + swap[v]  # -inf for a leaf
        m = sum_best[v]
        top = a if a > m else m
        s = 1 + sum_f[v]
        d = sum_min[v] + force[v]  # inf for a leaf
        best = s if s < d else d
        u = parent[v]
        if u < 0:
            nu += top
            mmis += best
            continue
        sum_m[u] += m
        sum_best[u] += top
        sum_f[u] += sum_min[v]
        sum_min[u] += best
        if sum_m[v] - m > swap[u]:
            swap[u] = sum_m[v] - m
        if s - best < force[u]:
            force[u] = s - best
    return nu, mmis


def tree_induced_matching(g: Graph) -> int:
    """Induced matching number of a forest; errors on non-forests."""
    parts = connected_components(g)
    if not all(mask & parts.trees for mask in parts.masks):
        raise ValueError("tree_induced_matching requires a forest")
    return forest_fold(parts.parent)[0]


def _core_vertex(adj, comp: int) -> int:
    """A vertex of largest degree in the 2-core of the cyclic component
    ``comp``: vertices of degree <= 1 are peeled until none is left."""
    deg = {v: (adj[v] & comp).bit_count() for v in bits(comp)}
    queue = [v for v, d in deg.items() if d <= 1]
    alive = comp
    while queue:
        v = queue.pop()
        if not alive >> v & 1:
            continue
        alive &= ~(1 << v)
        for u in bits(adj[v] & alive):
            deg[u] -= 1
            if deg[u] == 1:
                queue.append(u)
    return max(bits(alive), key=lambda v: (adj[v] & alive).bit_count())


def induced_matching_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET,
                            parts=None, memo=None) -> int:
    """Exact induced matching number, additive over components.

    Searched over ``walk_components`` records on g's own rows, ``parts``
    (g's components) the first: a record's trees take one fold of its
    forest, and each cyclic component branches on a 2-core vertex v of
    largest degree (v unmatched, or matched to a neighbor u, N[v] and N[u]
    removed), each branch walked again.  A cyclic component met again in
    another branch is read from a memo keyed by its mask (``memo``, if one
    is passed), so ``budget`` caps the branchings actually made.
    """
    if parts is None:
        parts = connected_components(g)
    return _induced_matching(g.adj, [budget], {} if memo is None else memo,
                             parts.masks, parts.trees, parts.order,
                             parts.parent)


def _induced_matching(adj, budget, memo, masks, trees, order, parent) -> int:
    # Module level, not a closure over adj: a self-referencing closure is a
    # reference cycle that keeps the rows alive until the cyclic GC runs.
    total = forest_fold(parent)[0]
    for comp in masks:
        if comp & trees:
            continue
        best = memo.get(comp)
        if best is None:
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceededError(
                    "induced matching search exceeded its branching budget")
            v = _core_vertex(adj, comp)
            best = _induced_matching(adj, budget, memo,
                                     *walk_components(adj, comp & ~(1 << v)))
            for u in bits(adj[v] & comp):
                rest = comp & ~(adj[v] | adj[u])
                best = max(best, 1 + _induced_matching(
                    adj, budget, memo, *walk_components(adj, rest)))
            memo[comp] = best
        total += best
    return total


def max_matching(rows) -> list[int]:
    """A maximum matching of the graph whose vertex i is adjacent to the set
    bits of ``rows[i]``, as each vertex's mate (-1 if unmatched).

    Edmonds' blossom algorithm in Gabow's O(V^3) form: ``_augment`` grows
    one alternating tree from each vertex still free when its turn comes (a
    vertex no tree from it could augment stays free for good).
    """
    mate = [-1] * len(rows)
    for root in range(len(rows)):
        if mate[root] < 0:
            _augment(rows, mate, root)
    return mate


def _augment(rows, mate, root: int) -> None:
    """Grow an alternating tree from the free vertex ``root`` by BFS and flip
    the first augmenting path it finds.  Two outer vertices meeting close an
    odd cycle, which is contracted to its base (their lowest common
    ancestor), and its inner vertices turn outer."""
    n = len(rows)
    base = list(range(n))
    # An inner vertex's tree parent; along a contracted cycle, an outer
    # vertex's link back across the closing edge.
    parent = [-1] * n
    outer = 1 << root
    queue = [root]
    for v in queue:
        for u in bits(rows[v]):
            if base[u] == base[v] or mate[v] == u:
                continue
            if outer >> u & 1:  # odd cycle: contract it to base b
                seen = 0
                a = v
                while True:
                    a = base[a]
                    seen |= 1 << a
                    if mate[a] < 0:
                        break
                    a = parent[mate[a]]
                b = base[u]
                while not seen >> b & 1:
                    b = base[parent[mate[b]]]
                blossom = 0
                for x, child in ((v, u), (u, v)):
                    while base[x] != b:
                        blossom |= 1 << base[x] | 1 << base[mate[x]]
                        parent[x] = child
                        child = mate[x]
                        x = parent[child]
                for x in range(n):
                    if blossom >> base[x] & 1:
                        base[x] = b
                        if not outer >> x & 1:
                            outer |= 1 << x
                            queue.append(x)
            elif parent[u] < 0:
                parent[u] = v
                if mate[u] < 0:  # augmenting path: flip it to the root
                    while u >= 0:
                        v = parent[u]
                        w = mate[v]
                        mate[u], mate[v] = v, u
                        u = w
                    return
                outer |= 1 << mate[u]
                queue.append(mate[u])


def matching_number(g: Graph, w: int | None = None) -> int:
    """Maximum matching size of G[w], for ``w`` a union of g's components
    (all of g by default), exact on general graphs.

    Matching a degree-1 vertex to its only neighbor is always optimal
    (Karp-Sipser), so leaves are peeled off G[w] first; the vertices left
    with edges are renumbered and ``max_matching`` (Edmonds' blossom on bit
    rows) matches them.
    """
    adj = list(g.adj) if w is None else [row & w for row in g.adj]
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
    core = list(compress(range(g.n), adj))
    index = {v: i for i, v in enumerate(core)}
    rows = [sum(1 << index[u] for u in bits(adj[v])) for v in core]
    return size + (len(core) - max_matching(rows).count(-1)) // 2


def independence_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Maximum independent set size: the isolated vertices plus a branch
    and bound on each component's mask, all within one ``budget`` of nodes."""
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
        # A vertex of degree <= 1 lies in some maximum independent set:
        # take it, drop its neighbour, and repeat while degrees fall to 1.
        degs = {v: (g.adj[v] & active).bit_count() for v in bits(active)}
        low = [v for v, d in degs.items() if d <= 1]
        while low:
            v = low.pop()
            if not active >> v & 1:
                continue
            drop = g.adj[v] & active | 1 << v
            active &= ~drop
            size += 1
            for u in bits(drop):
                del degs[u]
                for w in bits(g.adj[u] & active):
                    degs[w] -= 1
                    if degs[w] == 1:
                        low.append(w)
        best = max(best, size)
        if active == 0 or size + greedy_color_bound(active) <= best:
            return
        v = max(degs, key=degs.__getitem__)
        solve(active & ~(g.adj[v] | (1 << v)), size + 1)
        solve(active & ~(1 << v), size)

    masks = connected_components(g).masks
    total = g.n - sum(mask.bit_count() for mask in masks)
    for comp in masks:
        best = 0
        solve(comp, 0)
        total += best
    return total


@dataclass(frozen=True)
class CoverProfile:
    """Minimum vs largest-minimal vertex cover sizes and the unmixed flag."""

    min_cover: int
    max_minimal_cover: int
    unmixed: bool


def maximal_independent_sets(g: Graph, w: int):
    """Yield the maximal independent sets of G[w] as vertex masks, by
    Bron-Kerbosch with pivoting on the complement of G[w] (cliques there are
    independent sets here), read off g's own rows."""
    cadj = {v: w & ~(g.adj[v] | 1 << v) for v in bits(w)}

    def bk(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield r
            return
        pivot = max(bits(p | x), key=lambda u: (cadj[u] & p).bit_count())
        for v in bits(p & ~cadj[pivot]):
            yield from bk(r | (1 << v), p & cadj[v], x & cadj[v])
            p &= ~(1 << v)
            x |= 1 << v

    return bk(0, w, 0)


def cover_profile(g: Graph, budget: int = DEFAULT_MIS_BUDGET) -> CoverProfile:
    """Cover extremes by enumerating maximal independent sets on each
    component's mask; ``budget`` caps the sets enumerated over them all.

    Isolated vertices sit in every maximal independent set and never in a
    minimal cover, so they contribute nothing; unmixedness of the whole graph
    is the conjunction over components.
    """
    min_cover = 0
    max_minimal = 0
    unmixed = True
    for comp in connected_components(g).masks:
        k = comp.bit_count()
        lo = k + 1
        hi = -1
        for s in maximal_independent_sets(g, comp):
            budget -= 1
            if budget < 0:
                raise BudgetExceededError(
                    "maximal independent set enumeration budget exhausted")
            size = s.bit_count()
            lo = min(lo, size)
            hi = max(hi, size)
        min_cover += k - hi
        max_minimal += k - lo
        if lo != hi:
            unmixed = False
    return CoverProfile(min_cover, max_minimal, unmixed)
