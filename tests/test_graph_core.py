import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eideal.graph_core import (build_graph, complement, complete_graph,
                               connected_components, cycle_graph,
                               delete_closed_neighborhood, disjoint_union,
                               empty_graph, enumerate_graphs,
                               from_edge_list_text, from_hex_dump,
                               induced_subgraph, max_degree, path_graph,
                               star_graph, to_edge_list_text, to_hex_dump)
from eideal.random_models import sample_gnp
from oracles import union_find_components


def random_graph_strategy(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))
                      if pairs else st.just([]))
        return build_graph(n, chosen)

    return build()


def test_build_c5():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.edge_count == 5
    assert g == cycle_graph(5)


def test_build_isolated():
    g = build_graph(3, [])
    assert g.edge_count == 0
    assert g.n == 3


def test_build_duplicate_edges_collapse():
    g = build_graph(4, [(0, 1), (0, 1), (2, 3)])
    assert g.edge_count == 2


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])


def test_complement_c5_is_c5_up_to_isomorphism():
    from itertools import permutations

    g = cycle_graph(5)
    c = complement(g)
    target = {frozenset(e) for e in g.edges()}

    def iso_exists():
        for perm in permutations(range(5)):
            mapped = {frozenset((perm[u], perm[v])) for u, v in c.edges()}
            if mapped == target:
                return True
        return False

    assert iso_exists()


def test_complement_k4_and_empty():
    assert complement(complete_graph(4)).edge_count == 0
    assert complement(empty_graph(6)) == complete_graph(6)


def test_induced_subgraph_cases():
    c5 = cycle_graph(5)
    p3 = induced_subgraph(c5, {0, 1, 2})
    assert p3 == path_graph(3)
    assert induced_subgraph(c5, range(5)) == c5
    assert induced_subgraph(complete_graph(5), [1, 3, 4]) == complete_graph(3)


def test_delete_closed_neighborhood():
    c5 = cycle_graph(5)
    rest = delete_closed_neighborhood(c5, 0)
    assert rest.n == 2 and rest.edge_count == 1
    assert delete_closed_neighborhood(complete_graph(6), 2).n == 0
    assert delete_closed_neighborhood(star_graph(3), 0).n == 0


def test_connected_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    parts = connected_components(g)
    assert parts.sizes == (2, 2)
    assert len(connected_components(cycle_graph(5))) == 1
    assert connected_components(empty_graph(3)).sizes == (1, 1, 1)
    assert connected_components(empty_graph(3)).component_subgraphs == ()
    assert sum(connected_components(g).sizes) == g.n


def test_component_labels_by_smallest_vertex():
    g = build_graph(5, [(1, 3), (0, 4)])
    parts = connected_components(g)
    assert parts.labels[0] == 0 and parts.labels[4] == 0
    assert parts.labels[1] == 1 and parts.labels[3] == 1
    assert parts.labels[2] == 2


def _assert_matches_union_find(g):
    parts = connected_components(g)
    labels, sizes, vertex_sets, subgraphs = union_find_components(g)
    assert parts.labels == labels
    assert parts.sizes == sizes
    assert parts.component_vertex_sets == vertex_sets
    assert parts.component_subgraphs == subgraphs


def test_components_match_union_find_exhaustive_padded():
    # Every graph on at most 6 vertices: as is, with an isolated vertex
    # before and one after, and with one between each two consecutive ones.
    for n in range(7):
        paddings = (list(range(n)), [v + 1 for v in range(n)],
                    [2 * v for v in range(n)])
        sizes = (n, n + 2, max(0, 2 * n - 1))
        for g in enumerate_graphs(n):
            for place, size in zip(paddings, sizes):
                moved = [(place[u], place[v]) for u, v in g.edges()]
                _assert_matches_union_find(build_graph(size, moved))


def test_components_match_union_find_sparse_gnp():
    for n in (1, 2, 17, 300, 2000):
        for lam in (0.5, 1.0, 4.0):
            for seed in range(3):
                _assert_matches_union_find(sample_gnp(n, min(1.0, lam / n),
                                                      seed))
    _assert_matches_union_find(empty_graph(10 ** 4))


def test_spanning_component_is_the_graph_itself():
    g = cycle_graph(6)
    assert connected_components(g).component_subgraphs[0] is g
    h = disjoint_union(path_graph(3), empty_graph(1))
    assert connected_components(h).component_subgraphs == (path_graph(3),)


def test_max_degree():
    assert max_degree(cycle_graph(5)) == 2
    assert max_degree(complete_graph(6)) == 5
    assert max_degree(empty_graph(4)) == 0


def test_enumerate_graphs_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64
    assert sum(1 for _ in enumerate_graphs(0)) == 1
    with pytest.raises(ValueError):
        next(enumerate_graphs(9))


def test_enumerate_graphs_unique():
    seen = {tuple(g.adj) for g in enumerate_graphs(4)}
    assert len(seen) == 64


@settings(max_examples=60)
@given(random_graph_strategy())
def test_complement_involution_and_count(g):
    assert complement(complement(g)) == g
    assert g.edge_count + complement(g).edge_count == g.n * (g.n - 1) // 2


@settings(max_examples=60)
@given(random_graph_strategy(), st.integers(min_value=0, max_value=511))
def test_induced_commutes_with_complement(g, mask):
    verts = [v for v in range(g.n) if mask >> v & 1]
    lhs = complement(induced_subgraph(g, verts))
    rhs = induced_subgraph(complement(g), verts)
    assert lhs == rhs


@settings(max_examples=40)
@given(random_graph_strategy())
def test_components_induce_connected_subgraphs(g):
    parts = connected_components(g)
    for sub in parts.component_subgraphs:
        assert len(connected_components(sub)) == 1


@settings(max_examples=60)
@given(random_graph_strategy())
def test_serialization_round_trips(g):
    assert from_edge_list_text(to_edge_list_text(g)) == g
    assert from_hex_dump(to_hex_dump(g)) == g


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        from_edge_list_text("")
    with pytest.raises(ValueError):
        from_edge_list_text("2 1\n")
    with pytest.raises(ValueError):
        from_edge_list_text("2 1\n0 0\n")


def test_disjoint_union():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    assert g.n == 5 and g.edge_count == 4
    assert connected_components(g).sizes == (3, 2)
