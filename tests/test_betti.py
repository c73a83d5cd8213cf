import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from eideal import betti
from eideal.betti import (BettiTable, HomologyEngine, SizeGuardExceeded,
                          _homology_from_faces, betti_table,
                          has_linear_presentation, has_linear_resolution,
                          induced_betti_tables, invariants, linear_flags,
                          linearity, parse_field, pd_componentwise,
                          reg_pd_componentwise, regularity_componentwise)
from eideal.chordality import is_4_cochordal, is_cochordal
from eideal.comb_invariants import forest_fold, tree_induced_matching
from eideal.graph_core import (bits, build_graph, complement,
                               complete_graph, connected_components,
                               cycle_graph, disjoint_union, empty_graph,
                               enumerate_graphs, graph_from_edge_mask,
                               induced_subgraph, induced_subgraph_mask,
                               pair_list, path_graph, walk_components)
from eideal.random_models import rng_for, sample_gnp

from oracles import (_gauss_rank_fraction, _gauss_rank_modp,
                     is_irreducible, naive_betti_table,
                     naive_homology_of_faces, naive_independent_sets,
                     naive_pd_quotient, naive_regularity_quotient,
                     per_subset_dims)


def random_forest(n, rng, drop=0.25):
    if n <= 1:
        return empty_graph(n)
    edges = [(rng.randrange(i), i) for i in range(1, n)
             if rng.random() > drop]
    return build_graph(n, edges)


def _faces(*facets):
    """Every face of the complex with these facets."""
    return {f for facet in facets for f in range(facet + 1)
            if f & ~facet == 0}


def _homology(faces, field="q"):
    return _homology_from_faces(faces, parse_field(field))


def test_independence_complex_cases():
    k3 = naive_independent_sets(complete_graph(3))
    assert sorted(k3) == [0, 1, 2, 4]
    assert _homology(k3) == {0: 2}  # three points
    full = naive_independent_sets(empty_graph(3))
    assert set(full) == _faces(7)
    assert _homology(full) == {}  # a simplex
    c5 = naive_independent_sets(cycle_graph(5))
    facets = [f for f in c5 if not any(f != h and f & ~h == 0 for h in c5)]
    assert len(facets) == 5
    assert all(f.bit_count() == 2 for f in facets)
    assert _homology(c5) == {1: 1}  # a pentagon


def test_reduced_homology_triangle_boundary():
    # Boundary of a triangle: three edges, no filled face -> a circle.
    circle = _faces(0b011, 0b101, 0b110)
    assert _homology(circle, "q") == {1: 1}
    assert _homology(circle, "f2") == {1: 1}


def test_reduced_homology_full_simplex_and_points():
    assert _homology(_faces(0b111), "q") == {}
    assert _homology(_faces(0b01, 0b10), "q") == {0: 1}
    assert _homology(_faces(0), "q") == {-1: 1}  # the empty complex
    assert _homology(set(), "q") == {}  # the void complex


def test_engine_matches_naive_homology_exhaustive_n5():
    # The per-subset walk on every subset; the engine on the irreducible ones.
    for field in ("q", "f2"):
        for g in enumerate_graphs(5):
            engine = HomologyEngine(g, field)
            for w in range(1 << 5):
                verts = [v for v in range(5) if w >> v & 1]
                sub = induced_subgraph(g, verts)
                faces = naive_independent_sets(sub)
                expected = naive_homology_of_faces(faces, field)
                expected = {d: r for d, r in expected.items() if r}
                assert per_subset_dims(g, w, field) == expected, (
                    tuple(g.adj), w, field)
                if is_irreducible(g.adj, w):
                    assert engine.irreducible_dims(w) == expected, (
                        tuple(g.adj), w, field)


def test_engine_matches_naive_homology_random_n7():
    rng = random.Random(17)
    for field in ("q", "f2"):
        for _ in range(60):
            mask = rng.randrange(1 << 21)
            g = graph_from_edge_mask(7, mask)
            w = (1 << 7) - 1
            faces = naive_independent_sets(g)
            expected = {d: r
                        for d, r in naive_homology_of_faces(faces, field).items()
                        if r}
            assert per_subset_dims(g, w, field) == expected
            if is_irreducible(g.adj, w):
                assert HomologyEngine(g, field).irreducible_dims(w) == expected


def test_betti_table_c5_worked_example():
    table = betti_table(cycle_graph(5))
    assert table.entries == {(1, 2): 5, (2, 3): 5, (3, 5): 1}
    inv = invariants(cycle_graph(5))
    assert inv.regularity_quotient == 2
    assert inv.regularity_ideal == 3
    assert inv.pd_quotient == 3
    assert inv.depth_quotient == 2
    assert inv.krull_dim == 2


def test_betti_table_single_edge_and_two_edges():
    assert betti_table(path_graph(2)).entries == {(1, 2): 1}
    two = build_graph(4, [(0, 1), (2, 3)])
    assert betti_table(two).entries == {(1, 2): 2, (2, 4): 1}


def test_betti_table_edgeless():
    inv = invariants(empty_graph(4))
    assert inv.pd_quotient == 0
    assert inv.depth_quotient == 4
    assert inv.regularity_quotient == 0


def test_betti_table_exhaustive_n4_vs_naive():
    for field in ("q", "f2"):
        for g in enumerate_graphs(4):
            assert betti_table(g, field).entries == naive_betti_table(g, field)


def test_betti_table_random_n6_vs_naive():
    rng = random.Random(3)
    for _ in range(25):
        mask = rng.randrange(1 << 15)
        g = graph_from_edge_mask(6, mask)
        assert betti_table(g, "q").entries == naive_betti_table(g, "q")


def test_betti_support_bounds():
    for trial in range(30):
        g = sample_gnp(7, 0.35, seed=123 + trial)
        for (i, j), rank in betti_table(g).entries.items():
            assert rank >= 1
            assert i + 1 <= j <= 2 * i


def test_field_independence_small_corpus():
    # Q is mostly read off GF(2) (the certificate), so GF(3), which shares
    # no elimination with either, is the independent third reading.
    for g in enumerate_graphs(5):
        assert betti_table(g, "q").entries == betti_table(g, "f2").entries \
            == betti_table(g, "f3").entries
    rng = random.Random(11)
    for n in (6, 7):
        for _ in range(40):
            mask = rng.randrange(1 << (n * (n - 1) // 2))
            g = graph_from_edge_mask(n, mask)
            tq = betti_table(g, "q").entries
            t2 = betti_table(g, "f2").entries
            t3 = betti_table(g, "f3").entries
            assert tq == t2 == t3, (
                f"field disagreement witness: n={n} adj={g.adj}")


def test_field_tags():
    assert parse_field("q") == 0
    assert parse_field("f2") == 2
    assert parse_field("f7") == 7
    for bad in ("f0", "f1", "f4", "f9", "f", "r", "F2"):
        with pytest.raises(ValueError):
            parse_field(bad)
    assert betti_table(cycle_graph(5), "f3").entries == \
        betti_table(cycle_graph(5), "q").entries


def test_size_guard():
    with pytest.raises(SizeGuardExceeded):
        betti_table(empty_graph(19))
    with pytest.raises(SizeGuardExceeded):
        has_linear_resolution(empty_graph(25))


def test_scan_width_is_a_size_guard():
    # The lattice scan's int64 masks hold 63 vertices: a raised guard used
    # to end in a bare OverflowError from 64 vertices on.
    wide = build_graph(64, [(62, 63)])
    for call in (lambda: betti_table(wide, max_vertices=100),
                 lambda: linear_flags(wide, max_vertices=100),
                 lambda: induced_betti_tables(wide, [3], max_vertices=100)):
        with pytest.raises(SizeGuardExceeded, match="64 vertices > 63"):
            call()
    table = betti_table(build_graph(63, [(61, 62)]), max_vertices=100)
    assert table.entries == {(1, 2): 1}


def test_linear_resolution_cases():
    assert not has_linear_resolution(cycle_graph(5))
    assert has_linear_presentation(cycle_graph(5))
    assert has_linear_resolution(cycle_graph(4))
    two = build_graph(4, [(0, 1), (2, 3)])
    assert not has_linear_resolution(two)
    assert not has_linear_presentation(two)
    assert has_linear_resolution(empty_graph(3))
    assert has_linear_presentation(empty_graph(3))


def test_lr_lp_match_table_definition():
    rng = random.Random(29)
    for _ in range(60):
        mask = rng.randrange(1 << 15)
        g = graph_from_edge_mask(6, mask)
        table = betti_table(g)
        lr_expected = g.edge_count == 0 or table.regularity_quotient() == 1
        lp_expected = all(j < 4 for (i, j) in table.entries if i == 2)
        assert has_linear_resolution(g) == lr_expected
        assert has_linear_presentation(g) == lp_expected


def _flags_by_definition(entries):
    """Linear resolution: beta_{i,j}(S/I) = 0 off the strand j = i + 1.
    Linear presentation: beta_{2,j}(S/I) = 0 for j != 3."""
    return (all(j == i + 1 for (i, j) in entries),
            all(j == 3 for (i, j) in entries if i == 2))


def test_linear_flags_match_table_reader_exhaustive_n5():
    seen = set()
    for field in ("q", "f2"):
        for g in enumerate_graphs(5):
            table = betti_table(g, field)
            flags = linear_flags(g, field)
            assert flags == table.linear_flags(), (tuple(g.adj), field)
            assert flags == _flags_by_definition(table.entries)
            seen.add(flags)
    assert seen == {(True, True), (False, True), (False, False)}


def test_linear_flags_vs_naive_table_atlas_n6():
    import networkx as nx

    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() <= 6]
    assert len(atlas) == 209
    for h in atlas:
        g = build_graph(h.number_of_nodes(), h.edges())
        assert linear_flags(g) == _flags_by_definition(
            naive_betti_table(g, "q")), sorted(h.edges())


def _linear_flags_mismatches(graphs, field):
    """Yield the graphs on which linear_flags or the table reader differs
    from the flags of the per-subset walk's table."""
    for g in graphs:
        expected = _flags_by_definition(_per_subset_entries(g, field))
        if (linear_flags(g, field) != expected
                or betti_table(g, field).linear_flags() != expected):
            yield g.adj


def _named_families(max_n):
    """Complements of P_n, P_n and C_n for n <= max_n."""
    return ([complement(path_graph(n)) for n in range(1, max_n + 1)]
            + [path_graph(n) for n in range(1, max_n + 1)]
            + [cycle_graph(n) for n in range(3, max_n + 1)])


def _froberg_random_graphs():
    """Criterion 1's random-audit graphs: 120 at n = 8 and 60 at n = 9,
    drawn as random_flag_audit draws them at the battery's seed."""
    graphs = []
    for n, count in ((8, 120), (9, 60)):
        rng = rng_for(1729, "random_flag_audit", n)
        pairs = pair_list(n)
        for _ in range(count):
            mask = int(rng.integers(0, 1 << len(pairs), dtype=np.uint64))
            graphs.append(graph_from_edge_mask(n, mask, pairs))
    return graphs


def test_linear_flags_vs_table_and_walk_named_families_n16():
    # GF(2): a long cycle's irreducible top set is slow over Q, and the
    # field-independence tests cover the choice.
    assert list(_linear_flags_mismatches(_named_families(16), "f2")) == []


def test_linear_flags_vs_table_and_walk_random():
    graphs = _froberg_random_graphs()
    assert [g.n for g in graphs] == [8] * 120 + [9] * 60
    assert list(_linear_flags_mismatches(graphs, "q")) == []
    # Over Q this graph's table takes seconds; its flags do not.
    g = sample_gnp(16, 0.2, 5)
    assert list(_linear_flags_mismatches([g], "f2")) == []
    assert linear_flags(g, "q") == linear_flags(g, "f2")


def test_linear_flags_equal_linearity_of_the_table_seeded():
    # linear_flags reads the count matrix by target and stops at the first
    # break of presentation; the table's own reading is linearity.
    seen = Counter()
    for n in range(6, 12):
        for s in range(12):
            for p in (0.3, 0.5, 0.7, 0.8):
                g = sample_gnp(n, p, seed=9200 + 100 * n + s)
                for field in ("q", "f2"):
                    flags = linear_flags(g, field)
                    assert flags == linearity(
                        betti_table(g, field).entries.items()), (
                            g.adj, field)
                    seen[flags] += 1
    assert len(seen) == 3 and min(seen.values()) >= 10, seen


def test_planted_resolution_exit_fault_is_caught(monkeypatch):
    def exit_at_resolution(positions):
        # Stops at the first break of linear resolution, before the check
        # for a break of presentation.
        for (i, j), _ in positions:
            if j - i >= 2:
                return False, True
        return True, True

    monkeypatch.setattr(betti, "linearity", exit_at_resolution)
    assert next(_linear_flags_mismatches(_named_families(8), "f2"), None)


def test_froberg_equivalences_random_n7():
    rng = random.Random(31)
    for _ in range(120):
        mask = rng.randrange(1 << 21)
        g = graph_from_edge_mask(7, mask)
        assert has_linear_resolution(g) == is_cochordal(g)
        assert has_linear_presentation(g) == is_4_cochordal(g)


def test_forest_regularity_identity():
    rng = random.Random(1234)
    for _ in range(80):
        f = random_forest(rng.randint(1, 11), rng)
        reg_q = betti_table(f).regularity_quotient()
        assert reg_q == tree_induced_matching(f)


def test_forest_pd_formula_vs_table():
    # Validation mandated before the fast path may be used: pd is the vertex
    # count minus the smallest maximal independent set on forests.
    def forest_pd(f):
        return f.n - forest_fold(walk_components(f.adj, (1 << f.n) - 1)[3])[1]

    rng = random.Random(77)
    for g in enumerate_graphs(5):
        from eideal.comb_invariants import is_forest
        if is_forest(g):
            assert forest_pd(g) == betti_table(g).projective_dimension()
    for _ in range(150):
        f = random_forest(rng.randint(1, 13), rng)
        assert forest_pd(f) == betti_table(f).projective_dimension()


def test_componentwise_reg_pd():
    g = disjoint_union(cycle_graph(5), path_graph(2))
    reg = regularity_componentwise(g)
    assert reg.value == 3 and reg.censored_components == 0
    pd = pd_componentwise(g)
    assert pd.value == 4

    forest = disjoint_union(path_graph(3), path_graph(3))
    assert regularity_componentwise(forest).value == \
        betti_table(forest).regularity_quotient()
    assert pd_componentwise(forest).value == \
        betti_table(forest).projective_dimension()

    edgeless = empty_graph(5)
    assert regularity_componentwise(edgeless).value == 0
    assert pd_componentwise(edgeless).value == 0


def test_componentwise_censoring():
    big_cycle = cycle_graph(20)
    res = regularity_componentwise(big_cycle, betti_guard=18)
    assert res.censored_components == 1
    assert [mask.bit_count() for mask in res.censored] == [20]
    assert res.censored == ((1 << 20) - 1,)
    assert res.value == 0
    # Trees beyond the guard are never censored: the fast paths cover them.
    assert regularity_componentwise(path_graph(40)).censored_components == 0
    assert pd_componentwise(path_graph(40)).censored_components == 0


def test_componentwise_matches_whole_graph_table():
    rng = random.Random(15)
    for _ in range(30):
        a = sample_gnp(5, 0.45, seed=rng.randrange(10 ** 9))
        b = sample_gnp(6, 0.35, seed=rng.randrange(10 ** 9))
        g = disjoint_union(a, b)
        table = betti_table(g)
        assert regularity_componentwise(g).value == table.regularity_quotient()
        assert pd_componentwise(g).value == table.projective_dimension()
    for g in enumerate_graphs(5):
        table = betti_table(g)
        reg, pd = reg_pd_componentwise(g)
        assert reg.value == table.regularity_quotient()
        assert pd.value == table.projective_dimension()
        assert reg.censored_components == pd.censored_components == 0
        # At betti_guard=3 every cyclic component on more than 3 vertices is
        # censored, in one record shared by both results.
        reg, pd = reg_pd_componentwise(g, betti_guard=3)
        assert reg.censored == pd.censored
        parts = connected_components(g)
        assert reg.censored_components == sum(
            comp.edge_count >= comp.n > 3
            for comp in (induced_subgraph_mask(g, mask)
                         for mask in parts.masks))


def test_planted_tree_test_fault_is_caught(monkeypatch):
    # Counting 2k edge ends for k vertices, not 2(k - 1), sends every
    # unicyclic component to the forest fold and every tree to a table.
    import inspect

    import eideal.graph_core as graph_core

    source = inspect.getsource(graph_core.walk_components)
    tree_test = "ends != 2 * (i - start - 1)"
    assert source.count(tree_test) == 1
    namespace = dict(vars(graph_core))
    exec(source.replace(tree_test, "ends != 2 * (i - start)"), namespace)
    monkeypatch.setattr(graph_core, "walk_components",
                        namespace["walk_components"])
    with pytest.raises(AssertionError):
        test_componentwise_matches_whole_graph_table()


def test_additivity_against_naive():
    rng = random.Random(8)
    for _ in range(10):
        a = sample_gnp(4, 0.5, seed=rng.randrange(10 ** 9))
        b = sample_gnp(4, 0.5, seed=rng.randrange(10 ** 9))
        g = disjoint_union(a, b)
        assert regularity_componentwise(g).value == naive_regularity_quotient(g)
        assert pd_componentwise(g).value == naive_pd_quotient(g)


def _atlas(max_n):
    import networkx as nx

    return [build_graph(h.number_of_nodes(), h.edges())
            for h in nx.graph_atlas_g() if h.number_of_nodes() <= max_n]


def test_induced_tables_from_one_engine_atlas_n6():
    atlas = _atlas(6)
    assert len(atlas) == 209
    for g in atlas:
        full = (1 << g.n) - 1
        # G - v for every v, read off G's engine after G's own table.
        grounds = [full] + [full & ~(1 << v) for v in range(g.n)]
        tables = induced_betti_tables(g, grounds)
        assert tables[0] == betti_table(g)
        for v, table in enumerate(tables[1:]):
            h = induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert table == betti_table(h), (g.adj, v)
    # a and b off the engine of a + b.
    for a in atlas:
        for b in atlas:
            if 0 < a.n and 0 < b.n and a.n + b.n <= 6:
                g = disjoint_union(a, b)
                full, low = (1 << g.n) - 1, (1 << a.n) - 1
                tables = induced_betti_tables(g, (full, low, full & ~low))
                assert tables == [betti_table(g), betti_table(a),
                                  betti_table(b)], (a.adj, b.adj)


def test_table_json_round_trip():
    table = betti_table(cycle_graph(5))
    again = BettiTable.from_json(table.to_json())
    assert again == table


def _per_subset_entries(g, field):
    """g's table by the per-subset walk, summed over every nonempty vertex
    subset W: homology in degree d lands at (|W| - d - 1, |W|)."""
    entries = {}
    for w in range(1, 1 << g.n):
        j = w.bit_count()
        for d, rank in per_subset_dims(g, w, field).items():
            entries[j - d - 1, j] = entries.get((j - d - 1, j), 0) + rank
    return entries


def _lattice_mismatches(graphs, field, naive=False):
    """Yield the graphs whose lattice-scan table differs from the per-subset
    sum, or from the reduction-free oracle when naive is set."""
    for g in graphs:
        expected = (naive_betti_table(g, field) if naive
                    else _per_subset_entries(g, field))
        if betti_table(g, field).entries != expected:
            yield g.adj


def _sparse_cyclic_components(lo, hi, count, seed):
    """Seeded cyclic components on lo..hi vertices from G(n, 1/n) draws."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((100, 200, 400))
        g = sample_gnp(n, 1.0 / n, seed=rng.randrange(10 ** 9))
        parts = connected_components(g)
        for mask in parts.masks:
            if (not mask & parts.trees and lo <= mask.bit_count() <= hi
                    and len(out) < count):
                out.append(induced_subgraph_mask(g, mask))
    return out


def test_cone_free_submasks_equal_the_filtered_walk():
    def filtered(g, u):
        return [w for w in range(1, u + 1) if w & ~u == 0
                and all(g.adj[v] & w for v in bits(w))]

    rng = random.Random(43)
    graphs = [(g, (1 << g.n) - 1)
              for n in range(6) for g in enumerate_graphs(n)]
    for _ in range(200):
        g = graph_from_edge_mask(7, rng.randrange(1 << 21))
        graphs.append((g, rng.randrange(1 << 7)))
    for g, u in graphs:
        assert betti._cone_free_submasks(g.adj, u).tolist() == filtered(
            g, u), (g.adj, u)


def test_lattice_scan_matches_per_subset_sum_and_naive_n6():
    graphs = [g for n in range(6) for g in enumerate_graphs(n)]
    atlas = _atlas(6)
    for field in ("q", "f2"):
        assert list(_lattice_mismatches(graphs, field)) == [], field
        assert list(_lattice_mismatches(atlas, field)) == [], field
        assert list(_lattice_mismatches(atlas, field, naive=True)) == [], field


def test_lattice_scan_multi_ground_matches_relabelled_tables():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = graph_from_edge_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
        grounds = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
        for u, table in zip(grounds, induced_betti_tables(g, grounds)):
            assert table == betti_table(induced_subgraph_mask(g, u)), (
                g.adj, u)


def test_lattice_scan_matches_per_subset_sum_sparse_cyclic():
    comps = _sparse_cyclic_components(12, 18, 6, seed=2024)
    assert max(c.n for c in comps) >= 16
    assert list(_lattice_mismatches(comps, "q")) == []


def _leak_one_cone(real):
    """A cone filter that lets through the sets where u's top vertex is
    isolated."""
    def leaky(adj, u):
        ws = real(adj, u)
        if not u:
            return ws
        top = 1 << (u.bit_length() - 1)
        cones = [w | top for w in ws.tolist() + [0]
                 if not w & (top | adj[top.bit_length() - 1])]
        return np.union1d(ws, np.array(cones, dtype=np.int64))
    return leaky


def _closed_fold(rows, live):
    """The fold rule tested against N[y] in place of N(y)."""
    out = np.full(np.shape(live), -1, dtype=np.int8)
    for x in reversed(range(len(rows))):
        for y in reversed(range(len(rows))):
            if y != x:
                both = 1 << x | 1 << y
                closed_y = rows[y] | 1 << y
                out[((live & both) == both)
                    & ((live & rows[x] & ~closed_y) == 0)] = y
    return out


def _cluster_degree_off_by_one(real):
    """The cluster form with degree c in place of c - 1."""
    def degree_off_by_one(adj, w):
        dims = real(adj, w)
        return None if dims is None else {d + 1: r for d, r in dims.items()}
    return degree_off_by_one


def _drop_last_component(adj, w):
    """walk_components with the last of several component masks dropped:
    the engine then joins one component too few."""
    masks, *rest = walk_components(adj, w)
    return (masks[:-1] if len(masks) > 1 else masks), *rest


def _c5_plus_cliques():
    """C5 + K2, K2 + C5 and C5 + K3.  C5 is the smallest connected
    irreducible graph that is not a clique, so these are the smallest
    graphs with a target that is neither a cluster graph nor connected:
    the walk's faults show there and not below 7 vertices."""
    c5 = cycle_graph(5)
    return [disjoint_union(c5, complete_graph(2)),
            disjoint_union(complete_graph(2), c5),
            disjoint_union(c5, complete_graph(3))]


@pytest.mark.parametrize("name, fault", [
    ("_cone_free_submasks", _leak_one_cone(betti._cone_free_submasks)),
    ("fold_vertex", _closed_fold),
    ("_cluster_dims", _cluster_degree_off_by_one(betti._cluster_dims)),
    ("walk_components", _drop_last_component)])
def test_planted_lattice_fault_is_caught(monkeypatch, name, fault):
    monkeypatch.setattr(betti, name, fault)
    graphs = [g for n in range(6) for g in enumerate_graphs(n)]
    assert next(_lattice_mismatches(graphs + _c5_plus_cliques(), "f2",
                                    naive=True), None)


def test_clique_core_closed_form():
    for field in ("q", "f2", "f5"):
        for k in range(2, 11):
            expected = naive_homology_of_faces(
                naive_independent_sets(complete_graph(k)), field)
            expected = {d: r for d, r in expected.items() if r}
            assert expected == {0: k - 1}
            engine = HomologyEngine(complete_graph(k), field)
            assert engine.irreducible_dims((1 << k) - 1) == expected, (
                k, field)
            # K_k plus a vertex z joined to all of it but vertex 0: z and 0
            # have equal neighborhoods, a fold deletes one, and the core
            # left is a clique.
            g = build_graph(k + 1, [(u, v) for u in range(k)
                                    for v in range(u + 1, k)]
                            + [(k, v) for v in range(1, k)])
            full = (1 << (k + 1)) - 1
            assert per_subset_dims(g, full, field) == expected, (k, field)
            ws, root = betti._irreducible_targets(g.adj, full)
            assert ws[-1] == full and ws[root[-1]] == (1 << k) - 1, (k, field)
            engine = HomologyEngine(g, field)
            assert engine.irreducible_dims((1 << k) - 1) == expected, (
                k, field)
            assert engine.memo[(1 << k) - 1] == expected, (k, field)


def _cluster_graph(parts, rng):
    """Disjoint cliques K_k, k in parts, on shuffled vertex labels."""
    labels = list(range(sum(parts)))
    rng.shuffle(labels)
    edges, start = [], 0
    for k in parts:
        block = labels[start:start + k]
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
        start += k
    return build_graph(len(labels), edges)


def _partitions(n, least=2):
    """The partitions of n into parts >= least, parts nonincreasing."""
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(n, least - 1, -1)
            for rest in _partitions(n - k, least) if not rest or rest[0] <= k]


def test_cluster_form_matches_naive_homology_n8():
    rng = random.Random(61)
    clusters = [_cluster_graph(parts, rng)
                for n in range(2, 9) for parts in _partitions(n)
                for _ in range(2)]
    assert len(clusters) == 2 * 21
    for field in ("q", "f2", "f5"):
        for g in clusters:
            expected = naive_homology_of_faces(naive_independent_sets(g),
                                               field)
            expected = {d: r for d, r in expected.items() if r}
            engine = HomologyEngine(g, field)
            full = (1 << g.n) - 1
            assert engine.irreducible_dims(full) == expected, (g.adj, field)
            assert engine.memo == {full: expected}, (g.adj, field)


def _rp2_graph():
    """The complement of the comparability graph of the face poset of the
    6-vertex RP^2: Ind of it is the barycentric subdivision of RP^2."""
    facets = ("123", "134", "145", "156", "162", "235", "346", "452", "563",
              "624")
    faces = sorted({frozenset(s) for f in facets for k in (1, 2, 3)
                    for s in itertools.combinations(f, k)},
                   key=lambda s: (len(s), sorted(s)))
    pairs = [(i, j) for i, a in enumerate(faces) for j, b in enumerate(faces)
             if a < b]
    return complement(build_graph(len(faces), pairs)), len(pairs)


def test_rp2_homology_depends_on_the_field():
    g, comparable = _rp2_graph()
    assert (g.n, comparable) == (31, 90)
    full = (1 << g.n) - 1
    for field, expected in (("f2", {1: 1, 2: 1}), ("q", {}), ("f3", {})):
        assert HomologyEngine(g, field)._core_dims(full) == expected, field


def _no_bareiss(rows, p, _rank_dense=betti._rank_dense):
    if p == 0:
        raise AssertionError("fraction-free elimination ran")
    return _rank_dense(rows, p)


def _kozlov_cycle_dims(n):
    """Reduced homology of Ind(C_n): a wedge of two (k-1)-spheres for
    n = 3k, one (k-1)-sphere for 3k + 1, one k-sphere for 3k + 2."""
    k, r = divmod(n, 3)
    return {0: {k - 1: 2}, 1: {k - 1: 1}, 2: {k: 1}}[r]


def _check_cycles_against_kozlov():
    for n in range(4, 21):
        engine = HomologyEngine(cycle_graph(n), "q")
        assert engine.irreducible_dims((1 << n) - 1) == \
            _kozlov_cycle_dims(n), n


def test_cycles_over_q_are_certified_by_gf2(monkeypatch):
    monkeypatch.setattr(betti, "_rank_dense", _no_bareiss)
    _check_cycles_against_kozlov()
    t0 = time.perf_counter()
    table = betti_table(cycle_graph(18), "q")
    assert time.perf_counter() - t0 < 1.0
    assert table.entries == betti_table(cycle_graph(18), "f2").entries


@pytest.mark.parametrize("verdict", [True, False])
def test_planted_certificate_fault_is_caught(monkeypatch, verdict):
    # Always certify: RP^2 over Q reads its GF(2) homology.  Never
    # certify: the cycles over Q reach fraction-free elimination.
    monkeypatch.setattr(betti, "_certifies_q", lambda dims: verdict)
    if verdict:
        g, _ = _rp2_graph()
        assert HomologyEngine(g, "q")._core_dims((1 << g.n) - 1) != {}
    else:
        monkeypatch.setattr(betti, "_rank_dense", _no_bareiss)
        with pytest.raises(AssertionError, match="fraction-free"):
            _check_cycles_against_kozlov()


def _random_rank_cases(rng, count):
    """Seeded integer matrices up to 7 x 7: products of random factors
    through a middle of width up to min(rows, cols) + 1, so many are
    rank-deficient, with zero rows and zero columns planted, and a few
    fixed cases whose rank depends on p."""
    cases = [[], [[]], [[0]], [[2]], [[3, 6], [1, 2]], [[2, 0], [0, 2]],
             [[5, 0, 5], [0, 5, 5], [1, 1, 2]], [[0, 0], [0, 0], [1, 3]]]
    for _ in range(count):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mid = rng.randint(1, min(rows, cols) + 1)
        left = [[rng.randint(-3, 3) for _ in range(mid)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)]
                 for _ in range(mid)]
        mat = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
               for row in left]
        if rng.random() < 0.3:
            mat[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in mat:
                row[j] = 0
        cases.append(mat)
    return cases


def test_rank_dense_matches_oracles():
    rng = random.Random(29)
    for mat in _random_rank_cases(rng, 400):
        before = [row[:] for row in mat]
        expected = {0: _gauss_rank_fraction([[Fraction(x) for x in row]
                                             for row in mat])}
        for p in (2, 3, 5):
            expected[p] = _gauss_rank_modp(mat, p)
        for p, rank in expected.items():
            assert betti._rank_dense(mat, p) == rank, (mat, p)
            assert mat == before, (mat, p)
    # The fixed cases tell Q from GF(p): diag(2, 2) has rank 0 over GF(2).
    assert [betti._rank_dense([[2, 0], [0, 2]], p) for p in (0, 2, 3)] == \
        [2, 0, 2]


def test_engine_memo_computes_each_core_once(monkeypatch):
    # One memo for targets and cores: over an atlas whose targets share
    # the core C5, each core's face homology runs at most once per engine,
    # and asking for a target again computes nothing.
    computed = []
    real = betti._homology_from_faces

    def counting(faces, p):
        if p == engine_p:  # over Q the GF(2) certificate is a nested call
            union = 0
            for f in faces:
                union |= f
            computed.append(union)
        return real(faces, p)

    monkeypatch.setattr(betti, "_homology_from_faces", counting)
    c5 = cycle_graph(5)
    atlas = _c5_plus_cliques() + [disjoint_union(c5, c5), disjoint_union(
        disjoint_union(c5, complete_graph(2)), complete_graph(3))]
    for field in ("q", "f2", "f3"):
        engine_p = parse_field(field)
        for g in atlas:
            full = (1 << g.n) - 1
            grounds = [full] + [full ^ 1 << v for v in range(g.n)]
            expected = [t.entries for t in induced_betti_tables(g, grounds,
                                                                field)]
            engine = HomologyEngine(g, field)
            ws, root = betti._irreducible_targets(g.adj, full)
            computed.clear()
            assert _tables(engine, ws, root, grounds) == expected
            assert computed and len(computed) == len(set(computed)), (
                g.adj, field)
            cores = {m for m in engine.memo
                     if len(walk_components(g.adj, m)[0]) == 1}
            assert set(computed) <= cores, (g.adj, field)
            done = len(computed)
            for w, dims in list(engine.memo.items()):
                assert engine.irreducible_dims(w) is dims, (g.adj, w, field)
            assert _tables(engine, ws, root, grounds) == expected
            assert len(computed) == done, (g.adj, field)


def _tables(engine, ws, root, grounds):
    """The entries of each ground's table, from the scan's count matrices."""
    return list(betti._scan_entries(engine, ws, root, grounds))
