import os
import random
import subprocess
import sys

import networkx as nx
import pytest

from eideal.asymptotics import gw_limit_estimate
from eideal.betti import betti_table, reg_pd_componentwise
from eideal.comb_invariants import (BudgetExceededError, cover_profile,
                                    forest_fold,
                                    independence_number,
                                    induced_matching_number, is_forest,
                                    matching_number,
                                    maximal_independent_sets, max_matching,
                                    tree_induced_matching)
from eideal.graph_core import (bits, build_graph, complete_graph,
                               connected_components, cycle_graph,
                               disjoint_union, empty_graph, enumerate_graphs,
                               induced_subgraph, induced_subgraph_mask,
                               path_graph, star_graph, walk_components)
from eideal.random_models import sample_gnp, sample_gw_tree

from oracles import (naive_cover_sizes, naive_independence_number,
                     naive_induced_matching_number,
                     naive_maximal_independent_sets, naive_matching_number,
                     padded_partitions, small_matching_numbers,
                     union_find_components)


def random_tree(n, rng):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return build_graph(n, edges)


def random_forest(n, rng, drop=0.25):
    if n <= 1:
        return empty_graph(n)
    edges = [(rng.randrange(i), i) for i in range(1, n)
             if rng.random() > drop]
    return build_graph(n, edges)


def test_induced_matching_named_graphs():
    assert induced_matching_number(cycle_graph(5)) == 1
    assert induced_matching_number(cycle_graph(6)) == 2
    assert naive_induced_matching_number(path_graph(4)) == 1
    assert induced_matching_number(path_graph(4)) == 1


def test_induced_matching_exhaustive_n5():
    for g in enumerate_graphs(5):
        assert induced_matching_number(g) == naive_induced_matching_number(g)


def test_induced_matching_random_vs_oracle():
    for trial in range(60):
        g = sample_gnp(7, 0.3 + 0.05 * (trial % 6), seed=3000 + trial)
        assert induced_matching_number(g) == naive_induced_matching_number(g)


def test_induced_matching_budget_counts_branchings():
    two = disjoint_union(cycle_graph(5), cycle_graph(5))
    assert induced_matching_number(two, budget=2) == 2
    with pytest.raises(BudgetExceededError):
        induced_matching_number(two, budget=1)
    with pytest.raises(BudgetExceededError):
        induced_matching_number(sample_gnp(40, 0.2, 1), budget=5)


def _triangle_chain(k):
    """k triangles, triangle i joined to triangle i + 1 by one edge."""
    edges = []
    for i in range(k):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (a, c)]
        if i + 1 < k:
            edges.append((c, c + 1))
    return build_graph(3 * k, edges)


def test_induced_matching_memo_on_triangle_chains():
    # Branches that remove the same vertex set meet the same cyclic pieces;
    # each is searched once.  Without the memo the search time grew about
    # 2.3x per triangle.
    for k in (1, 2, 3):
        g = _triangle_chain(k)
        assert induced_matching_number(g) == \
            naive_induced_matching_number(g) == k
    assert induced_matching_number(_triangle_chain(18)) == 18
    # A memo hit is not a branching: 34 branchings solve k = 18.
    assert induced_matching_number(_triangle_chain(18), budget=100) == 18


def _cycle_edges(k, first):
    return [(first + i, first + (i + 1) % k) for i in range(k)]


def _several_cyclic_pieces():
    """Graphs on which a branch leaves more than one cyclic component."""
    graphs = [
        # C5 and C6 joined by a path of four edges.
        build_graph(14, _cycle_edges(5, 0) + _cycle_edges(6, 8)
                    + [(0, 5), (5, 6), (6, 7), (7, 8)]),
        # C5 and C7 sharing vertex 0.
        build_graph(11, _cycle_edges(5, 0)
                    + [(0, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
                       (10, 0)]),
        # Three cycles hung by an edge each on vertex 0.
        build_graph(14, [(0, 1), (0, 5), (0, 9)] + _cycle_edges(4, 1)
                    + _cycle_edges(4, 5) + _cycle_edges(5, 9)),
        # C5 and C7 apart, a pendant tree on the 5-cycle.
        build_graph(17, _cycle_edges(5, 0) + _cycle_edges(7, 5)
                    + [(0, 12), (12, 13), (12, 14), (14, 15), (15, 16)]),
    ]
    graphs += [sample_gnp(14, 0.25, seed) for seed in range(12)]
    return graphs


def test_induced_matching_sums_several_cyclic_pieces(monkeypatch):
    import eideal.comb_invariants as comb_invariants

    walk = comb_invariants.walk_components
    pieces = []

    def counted(adj, w):
        record = walk(adj, w)
        pieces.append(sum(not mask & record[1] for mask in record[0]))
        return record

    monkeypatch.setattr(comb_invariants, "walk_components", counted)
    for g in _several_cyclic_pieces():
        assert induced_matching_number(g) == \
            naive_induced_matching_number(g), g.adj
    assert max(pieces) >= 2


@pytest.mark.parametrize("good, bad", [
    ("comp & ~(adj[v] | adj[u])", "comp & ~adj[v]"),
    ("best = max(best, 1 + _induced_matching(",
     "best = max(best, _induced_matching("),
    ("total = forest_fold(parent)[0]", "total = 0"),
], ids=["open_neighborhood", "matched_edge_uncounted", "trees_unfolded"])
def test_planted_search_fault_is_caught(monkeypatch, good, bad):
    # Closed neighborhoods of both matched ends, the matched edge itself,
    # and the branch's own trees.
    import inspect

    import eideal.comb_invariants as comb_invariants

    source = inspect.getsource(comb_invariants._induced_matching)
    assert source.count(good) == 1
    namespace = dict(vars(comb_invariants))
    exec(source.replace(good, bad), namespace)
    monkeypatch.setattr(comb_invariants, "_induced_matching",
                        namespace["_induced_matching"])
    with pytest.raises(AssertionError):
        for g in _several_cyclic_pieces():
            assert induced_matching_number(g) == \
                naive_induced_matching_number(g)


def test_gw_parent_list_folds_like_its_tree(monkeypatch):
    import eideal.asymptotics as asymptotics

    for seed in range(2000):
        parents, _ = sample_gw_tree((0.5, 0.8, 1.0)[seed % 3], 2000, seed)
        assert parents[0] == -1
        assert all(0 <= up < i for i, up in enumerate(parents) if i)
        tree = build_graph(len(parents), enumerate(parents[1:], 1))
        assert forest_fold(parents) == forest_fold(
            walk_components(tree.adj, (1 << len(parents)) - 1)[3])
    grow = asymptotics.grow_gw_tree
    samples = []

    def recorded(*args):
        samples.append(grow(*args))
        return samples[-1]

    monkeypatch.setattr(asymptotics, "grow_gw_tree", recorded)
    gw_limit_estimate(0.8, 200, 500, 3)
    assert len(samples) == 200


def test_tree_induced_matching_cases():
    assert tree_induced_matching(star_graph(5)) == 1
    assert naive_induced_matching_number(path_graph(7)) == 2
    assert tree_induced_matching(path_graph(7)) == 2
    assert tree_induced_matching(empty_graph(1)) == 0
    with pytest.raises(ValueError):
        tree_induced_matching(cycle_graph(4))


def test_tree_dp_matches_branch_and_bound_on_forests():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(1, 16)
        f = random_forest(n, rng)
        assert is_forest(f)
        assert tree_induced_matching(f) == induced_matching_number(f)


def _relabeled(g, rng):
    place = list(range(g.n))
    rng.shuffle(place)
    return build_graph(g.n, [(place[u], place[v]) for u, v in g.edges()])


def shuffled_forest(n, rng):
    return _relabeled(random_forest(n, rng), rng)


def test_forest_dp_matches_betti_table():
    # reg* = induced matching number and pd = n - min maximal independent
    # set on every forest with at most 6 vertices and random ones up to 12.
    rng = random.Random(606)
    forests = [g for n in range(7) for g in enumerate_graphs(n)
               if is_forest(g)]
    forests += [shuffled_forest(rng.randint(7, 12), rng) for _ in range(30)]
    for f in forests:
        nu, mmis = forest_fold(walk_components(f.adj, (1 << f.n) - 1)[3])
        table = betti_table(f)
        assert nu == table.regularity_quotient()
        assert f.n - mmis == table.projective_dimension()


def _old_postorders(g):
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        pairs = []
        stack = [(root, -1)]
        while stack:
            v, par = stack.pop()
            seen |= 1 << v
            children = [u for u in bits(g.adj[v]) if u != par]
            pairs.append((v, children))
            stack.extend((u, v) for u in children)
        pairs.reverse()
        yield pairs


def _old_induced_matching(g):
    total = 0
    for tree in _old_postorders(g):
        a, n_, p = {}, {}, {}
        for v, children in tree:
            sum_n = sum(n_[c] for c in children)
            best_swap = max((p[c] - n_[c] for c in children),
                            default=float("-inf"))
            a[v] = 1 + sum_n + best_swap if children else float("-inf")
            n_[v] = sum(max(a[c], n_[c]) for c in children)
            p[v] = sum_n
        root = tree[-1][0]
        total += int(max(a[root], n_[root]))
    return total


def _old_min_maximal_independent_set(g):
    total = 0
    for tree in _old_postorders(g):
        a, b, f = {}, {}, {}
        for v, children in tree:
            a[v] = 1 + sum(f[c] for c in children)
            f[v] = sum(min(a[c], b[c]) for c in children)
            b[v] = (f[v] + min(a[c] - min(a[c], b[c]) for c in children)
                    if children else float("inf"))
        root = tree[-1][0]
        total += int(min(a[root], b[root]))
    return total


def test_forest_dp_matches_separate_dps():
    rng = random.Random(2000)
    parent_lists = [sample_gw_tree(lam, 2000, seed)[0]
                    for lam in (0.5, 1.0) for seed in range(40)]
    graphs = [build_graph(len(parents), enumerate(parents[1:], 1))
              for parents in parent_lists]
    graphs += [shuffled_forest(n, rng) for n in (1, 2, 3, 50, 400, 2000)
               for _ in range(2)]
    assert max(g.n for g in graphs) == 2000
    for g in graphs:
        assert forest_fold(walk_components(g.adj, (1 << g.n) - 1)[3]) == (
            _old_induced_matching(g), _old_min_maximal_independent_set(g))


def _relabel_route(found):
    """The union of g's tree components (by ``found``, g's union-find
    split), and their summed (nu, mmis), each tree relabeled and solved by
    the separate DPs."""
    _, _, vertex_sets, subgraphs = found
    trees = nu = mmis = 0
    for vs, comp in zip([vs for vs in vertex_sets if len(vs) > 1], subgraphs):
        if comp.edge_count == comp.n - 1:
            trees |= sum(1 << v for v in vs)
            nu += _old_induced_matching(comp)
            mmis += _old_min_maximal_independent_set(comp)
    return trees, (nu, mmis)


def _assert_forest_dp_in_place(g, found):
    """The forest that connected_components records, and a walk of its
    tree mask folded, against the union-find relabel route over ``found`` (g's
    union-find split): the tree/cyclic split is the oracle's, every vertex's
    parent is a neighbor placed before it, the parent edges are all the
    forest's edges, and both folds give the relabeled trees' values."""
    trees, expected = _relabel_route(found)
    parts = connected_components(g)
    cyclic = [induced_subgraph_mask(g, mask) for mask in parts.masks
              if not mask & parts.trees]
    assert parts.trees == trees
    assert all(comp.edge_count >= comp.n for comp in cyclic)
    assert len(cyclic) == len(parts.masks) - sum(
        mask & trees == mask for mask in parts.masks)
    order, parent = parts.order, parts.parent
    assert len(order) == len(parent) == trees.bit_count()
    assert sum(1 << v for v in order) == trees
    roots = 0
    for i, (v, up) in enumerate(zip(order, parent)):
        if up < 0:
            roots += 1
        else:
            assert up < i and g.has_edge(order[up], v)
    edges = sum((g.adj[v] & trees).bit_count() for v in bits(trees)) // 2
    assert len(order) - roots == edges
    assert forest_fold(parent) == expected
    assert forest_fold(walk_components(g.adj, trees)[3]) == expected


def test_forest_dp_on_a_mask_matches_relabeled_trees_padded():
    for g, found in padded_partitions():
        _assert_forest_dp_in_place(g, found)


def test_forest_dp_on_a_mask_matches_relabeled_trees_gnp():
    rng = random.Random(77)
    leaves = 0
    for n in (1, 2, 17, 300, 2000):
        for lam in (0.5, 1.0, 4.0):
            for seed in range(3):
                g = sample_gnp(n, min(1.0, lam / n), 500 + seed)
                _assert_forest_dp_in_place(g, union_find_components(g))
                # A vertex set that is not a union of components, as the
                # branching leaves of the matching solver pass: its rows
                # reach vertices outside it.
                mask = rng.getrandbits(n)
                sub = induced_subgraph_mask(g, mask)
                if is_forest(sub):
                    leaves += 1
                    assert forest_fold(walk_components(g.adj, mask)[3]) == (
                        _old_induced_matching(sub),
                        _old_min_maximal_independent_set(sub))
    assert leaves >= 20


def test_recorded_forest_matches_union_find_sparse_gnp():
    for n in (1, 2, 17, 300, 2000):
        for lam in (0.5, 1.0, 4.0):
            for seed in range(3):
                g = sample_gnp(n, min(1.0, lam / n), seed)
                _assert_forest_dp_in_place(g, union_find_components(g))
    g = empty_graph(10 ** 4)
    _assert_forest_dp_in_place(g, union_find_components(g))


def test_each_solver_walks_a_sparse_sample_once(monkeypatch):
    import eideal.comb_invariants as comb_invariants
    import eideal.graph_core as graph_core
    from eideal.battery import _sandwich_row
    from eideal.random_models import draw_gnp

    walk = graph_core.walk_components
    walked = []

    def counted(adj, w):
        walked.append(w.bit_count())
        return walk(adj, w)

    monkeypatch.setattr(graph_core, "walk_components", counted)
    monkeypatch.setattr(comb_invariants, "walk_components", counted)
    n = 2000
    for seed in range(3):
        g = disjoint_union(sample_gnp(n - 9, 0.5 / n, seed),
                           disjoint_union(cycle_graph(5), path_graph(4)))
        live = sum(row != 0 for row in g.adj)
        walked.clear()
        reg_pd_componentwise(g)
        assert walked == [live]
        walked.clear()
        induced_matching_number(g)
        # One walk of the sample; the 5-cycle's branches walk the path left
        # when its core vertex goes unmatched, and the vertex left when it
        # is matched.
        assert walked.count(live) == 1 and 4 in walked and 1 in walked
        walked.clear()
        draw = draw_gnp(n, 1.0 / n, seed)
        _sandwich_row(draw)
        assert walked.count(sum(row != 0 for row in draw.graph().adj)) == 1


def test_no_tree_component_is_relabeled(monkeypatch):
    import eideal.graph_core as graph_core

    built = graph_core.induced_subgraph
    relabeled = []

    def recorded(g, vertices):
        relabeled.append(built(g, vertices))
        return relabeled[-1]

    monkeypatch.setattr(graph_core, "induced_subgraph", recorded)
    for seed in range(4):
        g = disjoint_union(sample_gnp(400, 1.0 / 400, seed),
                           disjoint_union(cycle_graph(5), path_graph(4)))
        parts = connected_components(g)
        cyclic = [comp.n for comp in union_find_components(g)[3]
                  if comp.edge_count >= comp.n]
        assert cyclic and len(parts.masks) > len(cyclic)
        # At guard 4 the 5-cycle is over the guard.
        for guard in (18, 4):
            relabeled.clear()
            reg, pd = reg_pd_componentwise(g, betti_guard=guard, parts=parts)
            assert reg.value > 0 and pd.value > 0
            induced_matching_number(g)
            # Each cyclic component within the guard once, by
            # reg_pd_componentwise; a censored one stays a mask, the
            # matching search relabels nothing, and no tree is relabeled.
            within = sum(k <= guard for k in cyclic)
            assert len(relabeled) == within
            assert reg.censored_components == len(cyclic) - within
            assert guard == 18 or reg.censored_components >= 1
            assert all(h.edge_count >= h.n and h.n <= guard
                       for h in relabeled)
    # The recorder does see a tree that is relabeled.
    relabeled.clear()
    h = disjoint_union(path_graph(3), empty_graph(1))
    induced_subgraph_mask(h, connected_components(h).masks[0])
    assert relabeled == [path_graph(3)]


def test_sandwich_row_solves_each_component_once(monkeypatch):
    import eideal.battery as battery
    import eideal.comb_invariants as comb_invariants
    import eideal.graph_core as graph_core
    from eideal.random_models import draw_gnp

    core_vertex = comb_invariants._core_vertex
    blossom = comb_invariants.max_matching
    matching = comb_invariants.matching_number
    built = graph_core.induced_subgraph
    cores, peels, blossom_rows, relabeled = [], [], [], []

    def counted_core(adj, comp):
        cores.append((len(adj), comp))
        return core_vertex(adj, comp)

    def counted_blossom(rows):
        blossom_rows.append(len(rows))
        return blossom(rows)

    def counted_matching(g, w=None):
        peels.append((g.n, w))
        return matching(g, w)

    def counted_relabel(g, vertices):
        relabeled.append(built(g, vertices))
        return relabeled[-1]

    monkeypatch.setattr(comb_invariants, "_core_vertex", counted_core)
    monkeypatch.setattr(comb_invariants, "max_matching", counted_blossom)
    monkeypatch.setattr(battery, "matching_number", counted_matching)
    monkeypatch.setattr(graph_core, "induced_subgraph", counted_relabel)
    n = 2000
    censored = 0
    for seed in range(3):
        draw = draw_gnp(n, 1.0 / n, seed)
        g = draw.graph()
        parts = connected_components(g)
        reg = reg_pd_componentwise(g, parts=parts)[0]
        cens = sum(reg.censored)
        censored += reg.censored_components
        # The row against the re-solve of each censored component relabeled.
        expected = (sum(induced_matching_number(induced_subgraph_mask(g, m))
                        for m in reg.censored),
                    sum(matching_number(induced_subgraph_mask(g, m))
                        for m in reg.censored))
        assert matching_number(g, cens) == expected[1]
        assert matching_number(g, ~cens) + matching_number(g, cens) == (
            matching_number(g))
        for log in (cores, peels, blossom_rows, relabeled):
            log.clear()
        row = battery._sandwich_row(draw)
        assert row[5:7] == expected
        assert row[4] == matching_number(g)
        # Every search branching on g's own rows, each mask once; one peel
        # over the censored union and one over the rest, each core vertex
        # matched by one blossom; only components within the guard relabeled.
        assert all(k == n for k, _ in cores)
        assert len({comp for _, comp in cores}) == len(cores)
        assert set(reg.censored) <= {comp for _, comp in cores}
        assert peels == [(n, cens), (n, ~cens)]
        assert sum(blossom_rows) <= sum(row != 0 for row in g.adj)
        assert all(h.n <= 18 for h in relabeled)
        assert len(relabeled) == sum(
            not m & parts.trees and m.bit_count() <= 18 for m in parts.masks)
    assert censored >= 2


def test_forest_wrappers_reject_cycles():
    for g in (cycle_graph(4), disjoint_union(path_graph(3), cycle_graph(3))):
        with pytest.raises(ValueError):
            tree_induced_matching(g)


def test_tree_callers_skip_the_forest_check(monkeypatch):
    import eideal.comb_invariants as comb_invariants

    checks = []
    is_forest_before = comb_invariants.is_forest

    def counted(g):
        checks.append(g)
        return is_forest_before(g)

    monkeypatch.setattr(comb_invariants, "is_forest", counted)
    g = disjoint_union(sample_gnp(300, 1.0 / 300, 5), cycle_graph(5))
    reg, pd = reg_pd_componentwise(g)
    assert reg.value > 0 and pd.value > 0
    gw_limit_estimate(0.8, 50, 500, 3)
    induced_matching_number(g)
    assert checks == []


def test_matching_number_cases():
    assert matching_number(cycle_graph(5)) == 2
    assert matching_number(complete_graph(4)) == 2
    assert matching_number(path_graph(4)) == 2
    assert matching_number(empty_graph(5)) == 0


def test_matching_number_exhaustive_n5():
    for g, nu in small_matching_numbers():
        if g.n in (5, 6):
            assert matching_number(g) == nu


def test_matching_number_random_vs_oracle():
    for trial in range(60):
        g = sample_gnp(8, 0.15 + 0.08 * (trial % 7), seed=880 + trial)
        assert matching_number(g) == naive_matching_number(g)


def _blossom_size(g):
    """max_matching on g's own rows, unpeeled, checked to be a matching of
    g; its size."""
    mate = max_matching(list(g.adj))
    assert len(mate) == g.n
    for v, u in enumerate(mate):
        assert u < 0 or (mate[u] == v and g.has_edge(u, v)), (g.adj, mate)
    return (g.n - mate.count(-1)) // 2


def _networkx_size(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return len(nx.max_weight_matching(h, maxcardinality=True))


def test_blossom_exhaustive_n6():
    # Every labeled graph on <= 6 vertices against the edge-subset oracle,
    # networkx on every labeled graph on <= 5 vertices, and networkx on
    # every graph on 6 vertices up to isomorphism (the atlas).
    for g, nu in small_matching_numbers():
        assert _blossom_size(g) == nu, g.adj
        if g.n <= 5:
            assert _networkx_size(g) == nu, g.adj
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 6]
    assert len(atlas) == 156
    for h in atlas:
        g = build_graph(6, h.edges())
        assert _blossom_size(g) == _networkx_size(g), g.adj


def test_blossom_gnp_vs_networkx():
    for n in (10, 30, 80, 200):
        for p in (0.02, 0.05, 0.1, 0.3, 0.6):
            for seed in range(2):
                g = sample_gnp(n, p, seed=4400 + seed)
                expected = _networkx_size(g)
                assert _blossom_size(g) == expected, (n, p, seed)
                assert matching_number(g) == expected, (n, p, seed)


def _hang(k, h):
    """A k-cycle with a copy of h hung on each cycle vertex by h's vertex 0;
    hanging odd cycles on odd cycles nests blossoms inside blossoms."""
    edges = [(i * h.n, (i + 1) % k * h.n) for i in range(k)]
    edges += [(i * h.n + u, i * h.n + v) for i in range(k)
              for u, v in h.edges()]
    return build_graph(k * h.n, edges)


def test_blossom_nested_odd_cycles_vs_networkx():
    rng = random.Random(17)
    triangle = complete_graph(3)
    nests = [_hang(3, triangle), _hang(5, triangle),
             _hang(7, _hang(3, triangle)), _hang(5, _hang(5, triangle)),
             _hang(3, _hang(5, _hang(3, triangle)))]
    # A pendant vertex on the outer cycle: the peel then cuts into it.
    nests += [build_graph(g.n + 1, list(g.edges()) + [(0, g.n)])
              for g in nests]
    assert max(g.n for g in nests) == 136
    for g in nests:
        for _ in range(4):
            h = _relabeled(g, rng)
            expected = _networkx_size(h)
            assert _blossom_size(h) == expected
            assert matching_number(h) == expected


def test_import_leaves_networkx_out():
    # A fresh interpreter: pytest's own process has imported networkx.
    import eideal

    src = os.path.dirname(os.path.dirname(os.path.abspath(eideal.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import eideal, eideal.cli; "
            "assert 'networkx' not in sys.modules, 'networkx imported'")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_independence_number_cases():
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(complete_graph(7)) == 1
    assert independence_number(empty_graph(6)) == 6


def test_independence_number_random_vs_oracle():
    for trial in range(50):
        g = sample_gnp(9, 0.2 + 0.08 * (trial % 7), seed=12 + trial)
        assert independence_number(g) == naive_independence_number(g)


def _subset_dp_independence_number(g):
    """Independence number by one DP over every vertex subset of g."""
    alpha = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        v = (s & -s).bit_length() - 1
        alpha[s] = max(alpha[s & ~(1 << v)],
                       1 + alpha[s & ~(g.adj[v] | 1 << v)])
    return alpha[-1]


def test_independence_number_searches_each_component():
    for g, _ in small_matching_numbers():
        assert independence_number(g) == _subset_dp_independence_number(g)
    # A whole-graph search of this draw tripped a budget of 10^6 nodes.
    g = sample_gnp(500, 1 / 500, 3)
    assert independence_number(g, budget=10 ** 4) == (
        g.n - cover_profile(g).min_cover) == 360
    # Branching on this draw's giant component tripped a budget of 10^5
    # nodes after about 50 s; taking the degree <= 1 vertices first leaves
    # little to branch on.  A maximum matching leaves n - 2 nu vertices
    # unmatched, and they are independent; each matched edge holds at most
    # one vertex of an independent set, so alpha <= n - nu.
    g = sample_gnp(2000, 1.5 / 2000, 9004)
    nu = matching_number(g)
    assert g.n - 2 * nu <= independence_number(g, budget=10 ** 3) <= g.n - nu
    # The budget is shared: 3 nodes solve one 5-cycle, not ten.
    c5 = cycle_graph(5)
    tens = c5
    for _ in range(9):
        tens = disjoint_union(tens, c5)
    assert independence_number(c5, budget=3) == 2
    assert independence_number(tens, budget=30) == 20
    with pytest.raises(BudgetExceededError):
        independence_number(tens, budget=3)


def test_maximal_independent_sets_on_a_mask():
    rng = random.Random(31)
    for trial in range(80):
        g = sample_gnp(8, 0.1 + 0.1 * (trial % 8), seed=3100 + trial)
        w = rng.getrandbits(8)
        kept = list(bits(w))
        expected = sorted(sum(1 << kept[i] for i in bits(s)) for s in
                          naive_maximal_independent_sets(
                              induced_subgraph_mask(g, w)))
        assert sorted(maximal_independent_sets(g, w)) == expected


def test_cover_profile_named_cases():
    p3 = path_graph(3)
    prof = cover_profile(p3)
    assert (prof.min_cover, prof.max_minimal_cover, prof.unmixed) == (1, 2, False)

    two_edges = build_graph(4, [(0, 1), (2, 3)])
    prof = cover_profile(two_edges)
    assert prof.min_cover == prof.max_minimal_cover == 2
    assert prof.unmixed

    kn = complete_graph(5)
    prof = cover_profile(kn)
    assert prof.min_cover == prof.max_minimal_cover == 4
    assert prof.unmixed


def test_cover_profile_edgeless_convention():
    prof = cover_profile(empty_graph(4))
    assert prof.unmixed and prof.min_cover == 0 and prof.max_minimal_cover == 0


def test_cover_profile_vs_oracle():
    for trial in range(60):
        g = sample_gnp(8, 0.1 + 0.09 * (trial % 8), seed=2100 + trial)
        if g.edge_count == 0:
            continue
        lo, hi = naive_cover_sizes(g)
        prof = cover_profile(g)
        assert (prof.min_cover, prof.max_minimal_cover) == (lo, hi)
        assert prof.unmixed == (lo == hi)


def test_cover_profile_budget_guard():
    # Componentwise enumeration keeps disjoint unions cheap...
    edges = [(2 * i, 2 * i + 1) for i in range(15)]
    assert cover_profile(build_graph(30, edges), budget=1000).unmixed
    # ...but a single long path still has exponentially many maximal
    # independent sets, so the budget must trip.
    with pytest.raises(BudgetExceededError):
        cover_profile(path_graph(70), budget=1000)


def test_min_cover_complements_independence():
    for trial in range(40):
        g = sample_gnp(8, 0.3, seed=404 + trial)
        iso = sum(1 for v in range(g.n) if g.adj[v] == 0)
        prof = cover_profile(g)
        assert prof.min_cover + independence_number(g) == g.n
        assert prof.min_cover <= prof.max_minimal_cover <= g.n - iso


def test_invariant_inequalities():
    for trial in range(50):
        g = sample_gnp(9, 0.25, seed=71 + trial)
        nu = induced_matching_number(g)
        m = matching_number(g)
        assert nu <= m <= g.n // 2
        nontrivial = len(connected_components(g).masks)
        assert nu >= nontrivial


def test_component_additivity():
    rng = random.Random(5)
    for trial in range(40):
        a = sample_gnp(5, 0.4, seed=1000 + trial)
        b = sample_gnp(4, 0.5, seed=2000 + trial)
        g = disjoint_union(a, b)
        assert induced_matching_number(g) == \
            induced_matching_number(a) + induced_matching_number(b)
        assert matching_number(g) == matching_number(a) + matching_number(b)
        assert independence_number(g) == \
            independence_number(a) + independence_number(b)
        pg, pa, pb = cover_profile(g), cover_profile(a), cover_profile(b)
        assert pg.min_cover == pa.min_cover + pb.min_cover
        assert pg.max_minimal_cover == pa.max_minimal_cover + pb.max_minimal_cover
        assert pg.unmixed == (pa.unmixed and pb.unmixed)


def test_tree_min_maximal_independent_set():
    def mmis(f):
        return forest_fold(walk_components(f.adj, (1 << f.n) - 1)[3])[1]

    assert mmis(path_graph(3)) == 1
    assert mmis(path_graph(4)) == 2
    assert mmis(star_graph(4)) == 1
    rng = random.Random(9)
    for _ in range(120):
        n = rng.randint(1, 13)
        f = random_forest(n, rng)
        sizes = [s.bit_count() for s in naive_maximal_independent_sets(f)]
        assert mmis(f) == min(sizes)
