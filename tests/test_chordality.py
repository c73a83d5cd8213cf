import itertools
import random
import time
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from eideal import chordality
from eideal.chordality import (count_chordless_cycles, count_triangles,
                               has_induced_c4, is_4_cochordal, is_chordal,
                               is_cochordal, is_locally_4_cochordal,
                               is_locally_cochordal)
from eideal.graph_core import (Graph, build_graph, complement, complete_graph,
                               cycle_graph, delete_closed_neighborhood,
                               disjoint_union, empty_graph,
                               enumerate_graphs, graph_from_edge_mask,
                               path_graph, relabel_live)
from eideal.experiments import _cycle_row, _threshold_verdicts
from eideal.random_models import (_SPARSE_GNP_THRESHOLD, GnpDraw, draw_gnp,
                                  sample_gnp)

from oracles import (diagonal_scan_induced_c4, elimination_is_chordal,
                     naive_chordless_cycle_counts, naive_has_induced_c4,
                     naive_is_chordal, pair_scan_has_induced_c4,
                     peel_degree_two, small_cycle_counts,
                     trace_identity_induced_c4)


def test_chordal_basics():
    assert is_chordal(complete_graph(6))
    assert not is_chordal(cycle_graph(4))
    assert is_chordal(path_graph(5))
    assert is_chordal(empty_graph(4))
    # C5 plus chord 0-2 still holds the chordless 4-cycle 0-2-3-4.
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert naive_is_chordal(g) is False
    assert not is_chordal(g)


def test_chordal_exhaustive_n5():
    for g in enumerate_graphs(5):
        assert is_chordal(g) == naive_is_chordal(g)


def test_chordal_exhaustive_n6_sampled():
    rng = random.Random(7)
    masks = rng.sample(range(1 << 15), 1500)
    for mask in masks:
        g = graph_from_edge_mask(6, mask)
        assert is_chordal(g) == naive_is_chordal(g)


def test_chordal_random_midsize_vs_oracle():
    for trial in range(120):
        n = 7 + trial % 3
        g = sample_gnp(n, 0.15 + 0.1 * (trial % 8), seed=900 + trial)
        assert is_chordal(g) == naive_is_chordal(g)


def test_chordal_near_complete_40_vertices():
    # K40 minus two disjoint edges holds the induced C4 0-2-1-3; K40 minus
    # one edge is chordal.
    g = complement(build_graph(40, [(0, 1), (2, 3)]))
    assert pair_scan_has_induced_c4(g)
    assert not is_chordal(g)
    h = complement(build_graph(40, [(0, 1)]))
    assert not pair_scan_has_induced_c4(h)
    assert is_chordal(h)


def test_has_induced_c4_cases():
    assert has_induced_c4(cycle_graph(4))
    assert not has_induced_c4(complete_graph(4))
    assert naive_has_induced_c4(cycle_graph(6)) is False
    assert not has_induced_c4(cycle_graph(6))


def test_has_induced_c4_exhaustive_n5():
    for g in enumerate_graphs(5):
        assert has_induced_c4(g) == naive_has_induced_c4(g)


def test_has_induced_c4_random_vs_oracle():
    for trial in range(150):
        n = 6 + trial % 4
        g = sample_gnp(n, 0.1 + 0.08 * (trial % 10), seed=5000 + trial)
        assert has_induced_c4(g) == naive_has_induced_c4(g)


def test_cochordal_c5():
    c5 = cycle_graph(5)
    assert not is_cochordal(c5)
    assert is_4_cochordal(c5)


def test_cochordal_small_cases():
    single_edge = build_graph(4, [(0, 1)])
    assert is_cochordal(single_edge) and is_4_cochordal(single_edge)
    two_edges = build_graph(4, [(0, 1), (2, 3)])
    assert not is_cochordal(two_edges)
    assert not is_4_cochordal(two_edges)


def _listing_draw(n, pairs):
    """A draw that lists `pairs` as its non-edges, the complement's edges."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return GnpDraw(n, ends[:, 0], ends[:, 1], complemented=True)


def test_subset_scan_oracles_agree_n5():
    # The n = 6 checks read chordality and induced C4s off the cycle-count
    # table; the two direct scans agree with it on every smaller graph.
    for n in range(6):
        for g in enumerate_graphs(n):
            counts = small_cycle_counts(g)
            assert naive_is_chordal(g) == (not any(counts.values())), g.adj
            assert naive_has_induced_c4(g) == (counts[4] > 0), g.adj


def test_cochordal_exhaustive_n6_vs_oracle():
    # Each graph also runs padded to 24 vertices with isolated or with
    # universal vertices, which do not change either verdict; the isolated
    # ones are dropped before the complement is built, the universal ones
    # become isolated vertices of the complement.  The loop also checks the
    # polynomial oracles used below for graphs too large for the subset
    # scans (g runs over all graphs, and so does its complement).
    pad = 18
    high = ((1 << pad) - 1) << 6
    full = (1 << (6 + pad)) - 1
    universal_rows = tuple(full ^ (1 << v) for v in range(6, 6 + pad))
    both = ("is_cochordal", "is_4_cochordal")
    for mask, g in enumerate(enumerate_graphs(6)):
        h = complement(g)
        counts = small_cycle_counts(h)
        chordal = not any(counts.values())
        c4 = counts[4] > 0
        padded = (g, Graph(6 + pad, g.adj + (0,) * pad),
                  Graph(6 + pad, tuple(row | high for row in g.adj)
                        + universal_rows))
        for p in padded:
            assert is_cochordal(p) == chordal, p.adj
            assert is_4_cochordal(p) == (not c4), p.adj
        assert elimination_is_chordal(h) == chordal, h.adj
        assert pair_scan_has_induced_c4(h) == c4, h.adj
        # The threshold trials' route: the complement's edges as a draw's
        # listed non-edges, peeled to the 2-core.  Padded with pendant
        # trees (a path hung on a vertex that moves with the mask, a star)
        # and isolated vertices; every seventh graph also runs unpadded in a
        # list with the local predicates, and with a universal vertex that
        # carries a leaf.
        edges = list(h.edges())
        trees = [(mask % 6, 6), (6, 7), (7, 8), (8, 9), (1, 10), (10, 11),
                 (10, 12)]
        assert _threshold_verdicts(_listing_draw(24, edges + trees),
                                   both) == [chordal, not c4], mask
        if mask % 7 == 0:
            cone = [(v, 6) for v in range(6)] + [(6, 7)]
            assert _threshold_verdicts(_listing_draw(8, edges + cone),
                                       both) == [chordal, not c4], mask
            plain = _listing_draw(6, edges)
            assert plain.graph() == g
            assert _threshold_verdicts(plain, (
                "is_locally_4_cochordal", "is_4_cochordal",
                "is_locally_cochordal", "is_cochordal")) == [
                is_locally_4_cochordal(g), not c4, is_locally_cochordal(g),
                chordal], mask


def test_cochordal_midsize_vs_oracle():
    # 24-60 vertices, checked against the polynomial oracles.
    # At p = 0.01 most vertices of g are isolated (universal in the
    # complement), at p = 0.99 most are universal (isolated there).
    graphs = [sample_gnp(24 + 3 * trial, p, seed=4100 + trial)
              for trial in range(12) for p in (0.01, 0.5, 0.99)]
    # Complements of a long chordless cycle beside a clique component and
    # isolated vertices: not chordal, yet free of induced C4s.
    for cycle, clique, isolated in ((7, 20, 0), (5, 10, 12)):
        h = disjoint_union(disjoint_union(cycle_graph(cycle),
                                          complete_graph(clique)),
                           empty_graph(isolated))
        graphs.append(complement(h))
    seen = set()
    for g in graphs:
        h = complement(g)
        chordal = elimination_is_chordal(h)
        c4 = pair_scan_has_induced_c4(h)
        assert is_chordal(h) == chordal and has_induced_c4(h) == c4
        assert is_cochordal(g) == chordal, g.adj
        assert is_4_cochordal(g) == (not c4), g.adj
        seen.add((chordal, c4))
    assert seen == {(True, False), (False, True), (False, False)}


def test_cochordal_large_sparse_and_dense_cases():
    n = 2000
    assert is_cochordal(empty_graph(n)) and is_4_cochordal(empty_graph(n))
    assert is_cochordal(complete_graph(50))
    assert is_4_cochordal(complete_graph(50))
    one = build_graph(n, [(5, 1900)])
    assert is_cochordal(one) and is_4_cochordal(one)
    # Two disjoint edges: the complement holds the induced C4 5-7-1900-1999.
    two = build_graph(n, [(5, 1900), (7, 1999)])
    assert not is_cochordal(two) and not is_4_cochordal(two)
    # A path on three vertices: the complement is an edge plus universal
    # vertices, hence chordal.
    path = build_graph(n, [(5, 1900), (1900, 1999)])
    assert is_cochordal(path) and is_4_cochordal(path)


def test_cochordal_predicates_drop_isolated_vertices(monkeypatch):
    # A path on three of 2,000 vertices: the predicates complement only the
    # path, so MCS and the C4 scan never see the 1,997 isolated vertices.
    calls = []

    def spy(real):
        def call(h):
            assert h == complement(path_graph(3)), h
            calls.append(real.__name__)
            return real(h)
        return call

    for name in ("is_chordal", "has_induced_c4"):
        monkeypatch.setattr(chordality, name, spy(getattr(chordality, name)))
    g = build_graph(2000, [(5, 1900), (1900, 1999)])
    assert is_cochordal(g) and is_4_cochordal(g)
    assert calls == ["is_chordal", "has_induced_c4"]


def test_count_chordless_cycles_basics():
    assert count_chordless_cycles(cycle_graph(6), 8) == {
        4: 0, 5: 0, 6: 1, 7: 0, 8: 0}
    assert sum(count_chordless_cycles(complete_graph(4), 4).values()) == 0
    with pytest.raises(ValueError):
        count_chordless_cycles(cycle_graph(4), 3)


def test_count_chordless_cycles_complement_c6():
    g = complement(cycle_graph(6))
    assert count_chordless_cycles(g, 6) == \
        naive_chordless_cycle_counts(g, 6)


def test_count_chordless_cycles_random_vs_oracle():
    for trial in range(80):
        n = 6 + trial % 3
        g = sample_gnp(n, 0.2 + 0.1 * (trial % 6), seed=31 + trial)
        assert count_chordless_cycles(g, n) == \
            naive_chordless_cycle_counts(g, n)


@lru_cache(maxsize=1)
def _small_graph_counts():
    """(g, {4: induced C4s, 5: chordless 5-cycles}, triangle count,
    ``_draw_forms(g)``) for every graph on <= 6 vertices: the C4s by
    ``diagonal_scan_induced_c4``, the 5-cycles from the subset-scan
    oracle's table, the triangles by ``count_triangles``."""
    return [(g, {4: diagonal_scan_induced_c4(g), 5: small_cycle_counts(g)[5]},
             count_triangles(g), _draw_forms(g))
            for n in range(7) for g in enumerate_graphs(n)]


def test_count_induced_c4_exhaustive_n6():
    # k_max = 4 takes the codegree count alone, with no DFS.  The diagonal
    # scan, and on the smaller graphs the identity oracle, are checked
    # against the subset scan.
    for g, counts, _, _ in _small_graph_counts():
        expected = {4: small_cycle_counts(g)[4]}
        assert count_chordless_cycles(g, 4) == expected, g.adj
        assert counts[4] == expected[4], g.adj
        if g.n <= 5:
            assert trace_identity_induced_c4(g) == expected[4], g.adj


def _draw_forms(g: Graph) -> list[GnpDraw]:
    """g as a draw: its listed edges padded with a pendant path at vertex
    0, a pendant star at vertex n - 1 and isolated labels among and above
    the padding's (n, n + 4, n + 7, n + 8, n + 10, n + 11), none of which
    adds a cycle; below 6 vertices also its listed edges unpadded and its
    listed non-edges."""
    n = g.n
    us, vs = np.triu_indices(n, k=1)
    kept = np.array([g.adj[u] >> v & 1 for u, v in zip(us.tolist(),
                                                        vs.tolist())],
                    dtype=bool)
    padded = sorted([*zip(us[kept].tolist(), vs[kept].tolist()),
                     (0, n + 1), (n + 1, n + 2), (max(n - 1, 0), n + 3),
                     (n + 3, n + 5), (n + 3, n + 6), (n + 3, n + 9)])
    pu, pv = np.array(padded, dtype=np.int64).T
    forms = [GnpDraw(n + 12, pu, pv)]
    if n < 6:
        forms += [GnpDraw(n, us[kept], vs[kept]),
                  GnpDraw(n, us[~kept], vs[~kept], complemented=True)]
    return forms


def _small_graph_disagreements(k_max: int = 4) -> list:
    """The first graph on <= 6 vertices whose chordless cycle counts up to
    k_max (4 or 5) and triangle count on one of its draw forms, through
    either codegree route, differ from the oracles'; empty when there is
    none."""
    for route in (chordality._matrix_sums, chordality._wedge_sums):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(chordality, "_matrix_sums", route)
            m.setattr(chordality, "_wedge_sums", route)
            for g, counts, triangles, forms in _small_graph_counts():
                expected = {k: counts[k] for k in range(4, k_max + 1)}
                for draw in forms:
                    if _cycle_row(draw, k_max, True) != (expected, triangles):
                        return [(route, g.adj, draw)]
    return []


def test_c4_and_triangles_exhaustive_n6_every_draw_form(monkeypatch):
    # At k_max = 4 the codegree count takes each draw form as given, its
    # pendant path, pendant star and isolated labels included: no peel.
    def no_peel(us, vs):
        raise AssertionError("k_max = 4 peeled its edge list")

    monkeypatch.setattr(chordality, "two_core", no_peel)
    assert _small_graph_disagreements() == []


def _with_e_adj(sums, fault):
    """The route ``sums`` with ``fault`` applied to the E_adj it returns."""
    def faulty(k, us, vs):
        s_all, codeg, e_adj = sums(k, us, vs)
        return s_all, codeg, fault(e_adj)
    return faulty


def test_wedge_sums_equal_matrix_sums():
    # E_adj sums over the edges of codegree >= 2; the wedge route returns
    # 0 for it at once when there is none.  Graphs without such an edge
    # (a path, a star, C4, C5, a bowtie and sparse G(40, 0.03) draws) and
    # with one (a diamond, K4, K5 minus an edge and denser draws).
    bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    diamond = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    k5_minus = build_graph(5, [e for e in itertools.combinations(range(5), 2)
                               if e != (0, 1)])
    graphs = ([path_graph(7), build_graph(6, [(0, v) for v in range(1, 6)]),
               cycle_graph(4), cycle_graph(5), bowtie]
              + [sample_gnp(40, 0.03, seed=8400 + t) for t in range(6)]
              + [diamond, complete_graph(4), k5_minus]
              + [sample_gnp(n, p, seed=8410 + n)
                 for n, p in ((12, 0.5), (30, 0.2), (60, 0.1))])
    ends = [(g.n, *np.array([*g.edges()], dtype=np.int64).reshape(-1, 2).T)
            for g in graphs]
    # A diamond, a C4 and a triangle at labels from 2^22 on, where k^3
    # passes int64; the matrix route takes the relabelled copy.
    h = 1 << 22
    us, vs = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2),  # diamond
                       (4, 9), (9, 5), (5, 10), (10, 4),  # C4
                       (6, 7), (7, 8), (8, 6)], dtype=np.int64).T + h
    ends.append((h + 11, us, vs))
    busy = []
    for k, us, vs in ends:
        deg = np.bincount(us, minlength=k) + np.bincount(vs, minlength=k)
        s_all, codeg, e_adj = chordality._matrix_sums(
            *relabel_live(deg, us, vs))
        wedge = chordality._wedge_sums(k, us, vs)
        assert (wedge[0], wedge[1].tolist(), wedge[2]) == (
            s_all, codeg.tolist(), e_adj), (k, us, vs)
        busy.append(bool((codeg >= 2).any()))
    assert busy == [False] * 11 + [True] * 7, busy


def test_counts_at_labels_past_2_to_the_21():
    # k^3 passes int64 from k = 2^21 on, while the wedge keys stay below
    # k^2 and m k: a C4 and a triangle at labels above 2^21, alone or
    # beside a perfect matching of over 2^21 vertices, counted unpeeled.
    h = 2_200_000
    us, vs = np.array([(0, h), (1, h), (1, h + 1), (0, h + 1),  # a C4
                       (h + 2, h + 3), (h + 3, h + 4), (h + 2, h + 4)],
                      dtype=np.int64).T  # and a triangle
    matching = np.arange(2, h, 2, dtype=np.int64)
    for ends in ((us, vs), (np.concatenate((us, matching)),
                            np.concatenate((vs, matching + 1)))):
        assert chordality.cycle_counts_from_pairs(*ends, 5) == (
            {4: 1, 5: 0}, 1)


def test_planted_counter_faults_are_caught(monkeypatch):
    # Each fault edits the E_adj both routes hand to the shared identity
    # I4 = (S_non - S_adj + E_adj) / 2.
    for fault in (lambda e_adj: 0,  # drops the diamond term
                  lambda e_adj: -e_adj):  # swaps the sign of E_adj
        with monkeypatch.context() as m:
            for name in ("_matrix_sums", "_wedge_sums"):
                m.setattr(chordality, name,
                          _with_e_adj(getattr(chordality, name), fault))
            assert _small_graph_disagreements()
    # Only the DFS for lengths >= 5 reads the peel.
    monkeypatch.setattr(chordality, "two_core", peel_degree_two)
    assert _small_graph_disagreements(5)


# (n, p, trials): dense draws that list their edges, near-complete draws
# that list their non-edges, and sparse draws, with cores of 5 to 800 vertices
# that take either codegree route.
CYCLE_COUNT_REGIMES = [(12, 0.5, 60), (30, 0.3, 40), (60, 0.1, 40),
                       (12, 0.9, 60), (40, 0.97, 20), (40, 0.999, 20),
                       (500, 0.002, 60), (100, 0.045, 10), (200, 0.02, 10),
                       (1000, 0.003, 2)]


def test_draw_cycle_rows_vs_oracles(monkeypatch):
    routes = Counter()

    def counted(name):
        sums = getattr(chordality, name)

        def run(k, us, vs):
            routes[name] += 1
            return sums(k, us, vs)
        return run

    for name in ("_matrix_sums", "_wedge_sums"):
        monkeypatch.setattr(chordality, name, counted(name))
    forms = {}
    for n, p, trials in CYCLE_COUNT_REGIMES:
        for t in range(trials):
            draw = draw_gnp(n, p, seed=8300 + 101 * n + t)
            form = ("non_edges" if draw.complemented else
                    "sparse" if p < _SPARSE_GNP_THRESHOLD else "dense")
            g = draw.graph()
            # Lengths >= 5 from the DFS on the unpeeled graph.
            expected = {4: diagonal_scan_induced_c4(g), 5: 0}
            chordality._count_long_chordless_cycles(g, expected)
            if n <= 12:
                assert expected == naive_chordless_cycle_counts(g, 5)
            row = _cycle_row(draw, 5, True)
            assert row == (expected, count_triangles(g)), (n, p, t)
            assert _cycle_row(draw, 4, False) == ({4: expected[4]}, None)
            forms[form] = forms.get(form, 0) + expected[4]
    # Every form is drawn, and holds induced C4s; both routes run.
    assert len(forms) == 3 and min(forms.values()) > 0, forms
    assert min(routes.values()) > 10, routes


def test_large_sparse_core_counts_without_a_matrix(monkeypatch):
    # A supercritical sparse draw (mean degree 2) whose 2-core has thousands
    # of vertices: a k x k float64 matrix of it would take over 100 MB.
    draw = draw_gnp(10_000, 2e-4, seed=8317)
    assert not draw.complemented
    assert chordality.two_core(draw.us, draw.vs).n > 3_000
    g = draw.graph()
    expected = {4: diagonal_scan_induced_c4(g), 5: 0}
    chordality._count_long_chordless_cycles(g, expected)

    def no_matrix(k, us, vs):
        raise AssertionError(f"a {k} x {k} matrix")

    monkeypatch.setattr(chordality, "_matrix_sums", no_matrix)
    assert _cycle_row(draw, 5, True) == (expected, count_triangles(g))


def test_count_induced_c4_vs_trace_identity():
    samples = [(60, 0.1, 40), (30, 0.3, 40), (500, 1 / 500, 5)]
    seen = 0
    for n, p, trials in samples:
        for trial in range(trials):
            g = sample_gnp(n, p, seed=7100 + 97 * n + trial)
            count = count_chordless_cycles(g, 4)[4]
            assert count == trace_identity_induced_c4(g), (n, p, trial)
            seen += count
    assert seen > 0
    # A K4 beside a diamond and a C4: the identity's correction terms.
    g = disjoint_union(disjoint_union(complete_graph(4), cycle_graph(4)),
                       build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    assert count_chordless_cycles(g, 4)[4] == 1
    assert trace_identity_induced_c4(g) == 1


def test_locally_cochordal():
    assert is_locally_cochordal(cycle_graph(5))
    assert is_locally_4_cochordal(cycle_graph(5))
    assert is_locally_cochordal(empty_graph(3))
    # Brute-force verdict for C8: deleting any closed neighborhood leaves
    # P5, whose complement has a chordless 4-cycle.
    c8 = cycle_graph(8)
    rest_complement = complement(path_graph(5))
    expected = not naive_is_chordal(rest_complement)
    assert expected is True
    assert not is_locally_cochordal(c8)


def test_locally_cochordal_judges_isolated_vertices_once():
    """Against the per-vertex definition on every graph on <= 5 vertices and
    every 29th on 6, each padded by 0-2 isolated vertices (the whole 6-vertex
    corpus takes about 19 s)."""
    def graphs():
        for n in range(6):
            yield from enumerate_graphs(n)
        yield from itertools.islice(enumerate_graphs(6), 0, None, 29)

    for g in graphs():
        for k in range(3):
            h = disjoint_union(g, empty_graph(k))
            for local, pred in ((is_locally_cochordal, is_cochordal),
                                (is_locally_4_cochordal, is_4_cochordal)):
                assert local(h) == all(
                    pred(delete_closed_neighborhood(h, v))
                    for v in range(h.n)), (h.adj, pred.__name__)
    g = empty_graph(2000)
    start = time.perf_counter()
    assert is_locally_cochordal(g) and is_locally_4_cochordal(g)
    assert time.perf_counter() - start < 0.1


def test_implication_chain_exhaustive_n5():
    for g in enumerate_graphs(5):
        co = is_cochordal(g)
        co4 = is_4_cochordal(g)
        if co:
            assert co4
            assert is_locally_cochordal(g)
        if co4:
            assert is_locally_4_cochordal(g)


def test_chordal_implies_no_chordless_cycles():
    for trial in range(40):
        g = sample_gnp(7, 0.35, seed=77 + trial)
        if is_chordal(g):
            assert sum(count_chordless_cycles(g, 7).values()) == 0


def test_count_triangles():
    assert count_triangles(complete_graph(4)) == 4
    assert count_triangles(cycle_graph(5)) == 0
    assert count_triangles(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == 1
