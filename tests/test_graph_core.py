import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eideal import graph_core
from eideal.graph_core import (build_graph, complement, complete_graph,
                               connected_components, cycle_graph,
                               delete_closed_neighborhood, disjoint_union,
                               empty_graph, enumerate_graphs,
                               from_edge_list_text, from_hex_dump,
                               graph_from_pairs, induced_subgraph,
                               induced_subgraph_mask, max_degree,
                               pair_endpoints, pair_index, pair_list,
                               path_graph, star_graph, to_edge_list_text,
                               to_hex_dump)
from eideal.random_models import sample_gnp
from oracles import padded_partitions, union_find_components


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
    assert parts.masks == (0b0011, 0b1100) and len(parts) == 2
    assert len(connected_components(cycle_graph(5))) == 1
    assert connected_components(cycle_graph(5)).masks == (0b11111,)
    assert len(connected_components(empty_graph(3))) == 3
    edgeless = connected_components(empty_graph(3))
    assert edgeless.masks == ()
    assert tuple(induced_subgraph_mask(empty_graph(3), mask)
                 for mask in edgeless.masks) == ()
    assert len(connected_components(empty_graph(0))) == 0
    assert sum(m.bit_count() for m in parts.masks) == g.n


def test_component_labels_by_smallest_vertex():
    g = build_graph(5, [(1, 3), (0, 4)])
    parts = connected_components(g)
    assert parts.masks == (1 << 0 | 1 << 4, 1 << 1 | 1 << 3)
    assert len(parts) == 3  # {0, 4}, {1, 3} and the isolated vertex 2


def _assert_matches_union_find(g, found):
    """connected_components(g) against ``found``, g's union-find split."""
    parts = connected_components(g)
    _, sizes, vertex_sets, subgraphs = found
    assert len(parts) == len(sizes)
    assert parts.masks == tuple(sum(1 << v for v in vs) for vs in vertex_sets
                                if len(vs) > 1)
    assert tuple(induced_subgraph_mask(g, mask)
                 for mask in parts.masks) == subgraphs


def test_components_match_union_find_exhaustive_padded():
    for g, found in padded_partitions():
        _assert_matches_union_find(g, found)


def test_components_match_union_find_sparse_gnp():
    for n in (1, 2, 17, 300, 2000):
        for lam in (0.5, 1.0, 4.0):
            for seed in range(3):
                g = sample_gnp(n, min(1.0, lam / n), seed)
                _assert_matches_union_find(g, union_find_components(g))
    g = empty_graph(10 ** 4)
    _assert_matches_union_find(g, union_find_components(g))


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
    for mask in parts.masks:
        sub = induced_subgraph_mask(g, mask)
        assert len(connected_components(sub)) == 1


@settings(max_examples=60)
@given(random_graph_strategy())
def test_serialization_round_trips(g):
    assert from_edge_list_text(to_edge_list_text(g)) == g
    assert from_hex_dump(to_hex_dump(g)) == g


def test_hex_dump_decodes_only_the_set_bits(monkeypatch):
    def no_pair_list(n):
        raise AssertionError(f"a pair list of {n} vertices")

    monkeypatch.setattr(graph_core, "pair_list", no_pair_list)
    for g in (build_graph(3000, [(0, 2999), (1500, 1501)]),
              sample_gnp(100, 0.5, seed=3)):
        assert from_hex_dump(to_hex_dump(g)) == g


@pytest.mark.parametrize("text", ["-1 0", "-3 1", "-2 0\n"])
def test_hex_dump_rejects_a_negative_vertex_count(text):
    with pytest.raises(ValueError, match="vertex count"):
        from_hex_dump(text)


def test_pair_endpoints_inverts_pair_index():
    for n in (2, 3, 10, 65):
        pairs = pair_list(n)
        us, vs = pair_endpoints(n, np.arange(len(pairs)))
        assert [*zip(us.tolist(), vs.tolist())] == pairs
        assert pair_index(n, us, vs).tolist() == [*range(len(pairs))]
        assert [pair_index(n, v, u) for u, v in pairs] == [*range(len(pairs))]


def _pair_lists():
    """(n, us, vs): empty lists, and random lists up to K_n on n < 64 and
    n >= 64 vertices, picked from ``np.triu_indices``."""
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 9, 40, 63, 64, 100, 300):
        us, vs = np.triu_indices(n, k=1)
        for p in (0.0, 0.02, 0.1, 0.5, 1.0):
            keep = rng.random(len(us)) < p
            yield n, us[keep], vs[keep]


def _pairs_build_mismatches() -> list:
    """(n, pairs) of each list on which ``graph_from_pairs`` differs from
    ``build_graph``."""
    return [(n, len(us)) for n, us, vs in _pair_lists()
            if graph_from_pairs(n, us, vs)
            != build_graph(n, zip(us.tolist(), vs.tolist()))]


def test_graph_from_pairs_matches_build_graph(monkeypatch):
    packed = []
    packed_graph = graph_core._packed_graph
    monkeypatch.setattr(graph_core, "_packed_graph",
                        lambda mat: packed.append(len(mat))
                        or packed_graph(mat))
    assert _pairs_build_mismatches() == []
    # Both sides of the cut run, the matrix also on n >= 64.
    assert 0 < len(packed) < len(list(_pair_lists())) and max(packed) >= 64


def test_planted_matrix_half_write_is_caught(monkeypatch):
    # The matrix build without its mat[vs, us] write: with u < v, only the
    # upper triangle would be set.
    packed_graph = graph_core._packed_graph
    monkeypatch.setattr(graph_core, "_packed_graph",
                        lambda mat: packed_graph(np.triu(mat)))
    assert _pairs_build_mismatches()


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
    parts = connected_components(g)
    assert parts.masks == (0b00111, 0b11000) and len(parts) == 2
