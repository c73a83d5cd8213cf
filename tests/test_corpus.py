import math

import numpy as np
import pytest

from eideal import betti, corpus
from eideal.betti import linearity
from eideal.corpus import (CROSS_CHECK_STRIDE, _complement_cycle_masks,
                           exhaustive_flag_audit, flag_tables,
                           random_flag_audit)
from eideal.graph_core import (build_graph, complement, edge_mask,
                               enumerate_graphs)

from oracles import (is_irreducible, naive_betti_table,
                     naive_linear_flag_table, per_subset_dims,
                     small_cycle_counts)


def test_exhaustive_audit_up_to_n6():
    # Up to four vertices the top set alone decides both sides.
    for n in range(7):
        serial = exhaustive_flag_audit(n)
        assert serial == (1 << (n * (n - 1) // 2), []), n
        assert exhaustive_flag_audit(n, workers=2) == serial, n


def test_random_audit_builds_one_engine_per_graph(monkeypatch):
    built = []

    class CountingEngine(betti.HomologyEngine):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(betti, "HomologyEngine", CountingEngine)
    assert random_flag_audit(8, 25, seed=5) == []
    assert len(built) == 25


def test_cycle_tables_vs_oracle():
    # The top set's cycle term: the labeled complement-C_k masks, built by
    # direct enumeration, are the graphs whose complement has a chordless
    # k-cycle.
    for k in (4, 5, 6):
        top = _complement_cycle_masks(k)
        assert len(top) == math.factorial(k - 1) // 2
        assert top.tolist() == [
            mask for mask, g in enumerate(enumerate_graphs(k))
            if small_cycle_counts(complement(g))[k]], k


def test_flag_tables_match_naive_oracles_k0_to_k6():
    for k in range(7):
        lr, lp, cochordal, gap_free = flag_tables(k)
        naive = naive_linear_flag_table(k)
        assert lr.tolist() == naive[:, 0].tolist(), k
        assert lp.tolist() == naive[:, 1].tolist(), k
        for mask, g in enumerate(enumerate_graphs(k)):
            counts = small_cycle_counts(complement(g))
            assert cochordal[mask] == (not any(counts.values())), (k, mask)
            assert gap_free[mask] == (counts[4] == 0), (k, mask)
    # The bulk oracle is naive_betti_table's subset sum: check it against
    # the literal table on every graph to k = 4 and a stride beyond.
    for k, stride in ((4, 1), (5, 29), (6, 293)):
        naive = naive_linear_flag_table(k)
        for mask, g in enumerate(enumerate_graphs(k)):
            if mask % stride == 0:
                assert linearity(naive_betti_table(g, "f2").items()) == \
                    tuple(naive[mask]), (k, mask)


def test_planted_cycle_table_fault_is_caught(monkeypatch):
    lr, lp, cochordal, gap_free = flag_tables(4)
    # Two disjoint edges: the complement is a 4-cycle.
    mask = edge_mask(build_graph(4, [(0, 1), (2, 3)]))
    assert not cochordal[mask]
    broken = cochordal.copy()
    broken[mask] = True
    monkeypatch.setitem(corpus._tables, 4, (lr, lp, broken, gap_free))
    checked, mismatches = exhaustive_flag_audit(5)
    assert checked == 1024 and mismatches
    for _, flags in mismatches:
        assert not flags["linear_resolution"] and flags["cochordal"]


def test_planted_top_set_fault_is_caught(monkeypatch):
    top = _complement_cycle_masks(5)
    dropped = int(top[3])
    # Only the 5-vertex list is broken: the 4-vertex flag tables read theirs.
    monkeypatch.setattr(corpus, "_complement_cycle_masks",
                        lambda n: top[top != dropped] if n == 5
                        else _complement_cycle_masks(n))
    checked, mismatches = exhaustive_flag_audit(5)
    assert checked == 1024
    assert mismatches == [(dropped, {
        "linear_resolution": False, "cochordal": True,
        "linear_presentation": True, "four_cochordal": True})]


def _faulty_audit(monkeypatch, n):
    """exhaustive_flag_audit(n) on flag tables rebuilt under the faults
    planted by the caller, and those tables."""
    monkeypatch.setattr(corpus, "_tables", {})
    return exhaustive_flag_audit(n), [flag_tables(k) for k in range(n)]


def _tables_off_oracle(tables):
    """Sizes k whose lr/lp tables differ from the naive oracle."""
    return [k for k, (lr, lp, _, _) in enumerate(tables)
            if (lr.tolist(), lp.tolist())
            != tuple(naive_linear_flag_table(k).T.tolist())]


def test_planted_homology_term_fault_is_caught(monkeypatch):
    # Drop the top set's homology term: lr and lp come from the deletions
    # alone, so the 2K2 (and every larger graph with its break in the top
    # set) reads linear.
    monkeypatch.setattr(corpus, "_top_set_flags",
                        lambda n, masks: np.ones((2, len(masks)), dtype=bool))
    (checked, mismatches), tables = _faulty_audit(monkeypatch, 6)
    assert checked == 32768 and mismatches
    assert _tables_off_oracle(tables) == [4, 5]


def test_planted_deletion_fault_is_caught(monkeypatch):
    # Skip the deletion of vertex 0: its lookup reads the empty graph, which
    # breaks nothing.  Both sides lose the same subgraphs, so only the
    # cross-check and the oracle see it.
    real = corpus._induced_masks

    def skip_vertex_0(n, masks, subset):
        if 0 in subset:
            return real(n, masks, subset)
        return np.zeros(len(masks), dtype=np.uint32)

    monkeypatch.setattr(corpus, "_induced_masks", skip_vertex_0)
    (checked, mismatches), tables = _faulty_audit(monkeypatch, 6)
    assert checked == 32768 and mismatches
    assert _tables_off_oracle(tables) == [5]


def test_cross_check_disagreement_is_a_mismatch(monkeypatch):
    # The predicates are wrong on every graph; only the masks the
    # cross-check samples can show it, and each of them must.
    real = corpus.is_chordal
    monkeypatch.setattr(corpus, "is_chordal", lambda g: not real(g))
    checked, mismatches = exhaustive_flag_audit(5)
    assert checked == 1024
    assert [m for m, _ in mismatches] == list(range(0, 1024,
                                                    CROSS_CHECK_STRIDE))
    for mask, flags in mismatches:
        assert flags["linear_resolution"] != flags["cochordal"], mask


def _oracle_top_set_flags(g, w):
    """(linear resolution, linear presentation) as far as the Betti
    positions of G[W] alone decide them, by the per-subset walk."""
    k = w.bit_count()
    dims = per_subset_dims(g, w, "f2")
    return linearity(((k - d - 1, k), rank) for d, rank in dims.items())


def test_top_set_routes_match_engine_n5_n6():
    # The covering argument, graph by graph: an irreducible top set reads
    # what the per-subset walk reads; a cone has no homology; a fold keeps
    # presentation, and what it does to resolution, G - y already did.
    for n in (5, 6):
        full = (1 << n) - 1
        masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
        lr, lp = corpus._top_set_flags(n, masks)
        rows = corpus._vertex_rows(n, masks)
        fold_y = betti.fold_vertex(rows, full)
        cone = (rows == 0).any(axis=0)
        for mask, g in enumerate(enumerate_graphs(n)):
            walk_lr, walk_lp = _oracle_top_set_flags(g, full)
            if cone[mask]:
                assert (walk_lr, walk_lp) == (True, True), (n, mask)
            elif fold_y[mask] >= 0:
                rest = full ^ (1 << int(fold_y[mask]))
                assert walk_lp, (n, mask)
                assert walk_lr == _oracle_top_set_flags(g, rest)[0], (n, mask)
            else:
                assert (lr[mask], lp[mask]) == (walk_lr, walk_lp), (n, mask)
            if cone[mask] or fold_y[mask] >= 0:
                assert lr[mask] and lp[mask], (n, mask)


def test_engine_route_gets_irreducible_top_sets_only(monkeypatch):
    # Every set handed to irreducible_dims, by the tables and by the audit's
    # top sets, has no isolated vertex and no pair x != y with
    # N(x) subseteq N(y); a lone vertex would read {0: 0}.
    handed = []
    real = betti.HomologyEngine.irreducible_dims

    def recording(engine, w):
        handed.append((engine.adj, w))
        return real(engine, w)

    monkeypatch.setattr(betti.HomologyEngine, "irreducible_dims", recording)
    monkeypatch.setattr(corpus, "_tables", {})
    flag_tables(6)
    assert exhaustive_flag_audit(6) == (32768, [])
    assert handed
    for adj, w in handed:
        assert is_irreducible(adj, w), (adj, w)


def test_top_set_route_census_n6(monkeypatch):
    # Top sets the deletions leave open at n = 6, by route; only the
    # irreducible ones reach the engine.
    opened, engine_calls = [], []
    real_flags = corpus._top_set_flags
    real_dims = betti.HomologyEngine.irreducible_dims

    def recording_flags(n, masks):
        if n == 6:
            opened.append(masks)
        return real_flags(n, masks)

    def counting_dims(engine, w):
        engine_calls.append(len(engine.adj))
        return real_dims(engine, w)

    monkeypatch.setattr(corpus, "_top_set_flags", recording_flags)
    monkeypatch.setattr(betti.HomologyEngine, "irreducible_dims",
                        counting_dims)
    monkeypatch.setattr(corpus, "_tables", {})
    flag_tables(6)
    masks, = opened
    rows = corpus._vertex_rows(6, masks)
    cone = (rows == 0).any(axis=0)
    fold = ~cone & (betti.fold_vertex(rows, 63) >= 0)
    assert [int(cone.sum()), int(fold.sum()), engine_calls.count(6)] == [
        4224, 14901, 133]


def test_top_set_has_no_homology_in_degree_k_minus_2():
    # Degree k - 2 of a k-vertex top set is beta_{1,k}, and an edge ideal
    # has generators in degree 2 only; a fold reads it on G - y, so a fold
    # never breaks presentation.
    for k in (4, 5):
        for g in enumerate_graphs(k):
            dims = per_subset_dims(g, (1 << k) - 1, "f2")
            assert k - 2 not in dims, g.adj


def test_negative_n_is_a_value_error():
    with pytest.raises(ValueError, match="n >= 0, got -1"):
        exhaustive_flag_audit(-1)
    with pytest.raises(ValueError, match="n must be >= 0, got -2"):
        random_flag_audit(-2, 3, seed=1)
