import math

import numpy as np
import pytest

from eideal import betti, corpus
from eideal.betti import linearity
from eideal.corpus import (CONE, CROSS_CHECK_STRIDE, ENGINE, FOLD,
                           _complement_cycle_masks, _subset_flags,
                           _top_set_routes, exhaustive_flag_audit,
                           flag_tables, random_flag_audit)
from eideal.graph_core import (build_graph, complement, edge_mask,
                               enumerate_graphs)

from oracles import is_irreducible, per_subset_dims, small_cycle_counts


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
    for k in (4, 5, 6):
        cycle = flag_tables(k)[2]
        for mask, g in enumerate(enumerate_graphs(k)):
            expected = small_cycle_counts(complement(g))[k]
            assert cycle[mask] == expected, (k, mask)
        # The top-set masks, built by direct enumeration, are the same set.
        top = _complement_cycle_masks(k)
        assert len(top) == math.factorial(k - 1) // 2
        assert top.tolist() == np.flatnonzero(cycle).tolist()


def test_planted_cycle_table_fault_is_caught(monkeypatch):
    haspos, lpflag, cycle = flag_tables(4)
    # Two disjoint edges: the complement is a 4-cycle.
    mask = edge_mask(build_graph(4, [(0, 1), (2, 3)]))
    assert cycle[mask]
    broken = cycle.copy()
    broken[mask] = False
    monkeypatch.setitem(corpus._tables, 4, (haspos, lpflag, broken))
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


def _oracle_top_set_flags(g):
    """(linear resolution, linear presentation) as far as the Betti
    positions of g's full vertex set alone decide them, by the per-subset
    walk."""
    dims = per_subset_dims(g, (1 << g.n) - 1, "f2")
    return linearity(((g.n - d - 1, g.n), rank) for d, rank in dims.items())


def _top_set_disagreements(n):
    """Masks where the bulk top-set routes and the per-subset walk read
    (linear resolution, linear presentation) differently."""
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
    lr, lp, _ = corpus._top_set_routes(n, masks)
    return [mask for mask, g in enumerate(enumerate_graphs(n))
            if (lr[mask], lp[mask]) != _oracle_top_set_flags(g)]


def test_top_set_routes_match_engine_n5_n6():
    for n in (5, 6):
        assert _top_set_disagreements(n) == [], n


def test_flag_tables_match_per_subset_walk_k1_to_k6(monkeypatch):
    # An empty cache: every fold reads tables this test builds.
    monkeypatch.setattr(corpus, "_tables", {})
    for k in range(1, 7):
        lr_break, lp_break, _ = flag_tables(k)
        for mask, g in enumerate(enumerate_graphs(k)):
            assert (not lr_break[mask], not lp_break[mask]) == \
                _oracle_top_set_flags(g), (k, mask)


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


def test_top_set_route_census_n6():
    # Routes of the graphs the proper subsets leave undecided.
    masks = np.arange(1 << 15, dtype=np.uint32)
    lr_viol, lp_viol, _, _ = _subset_flags(6, masks)
    route = _top_set_routes(6, masks[~(lr_viol & lp_viol)])[2]
    assert np.bincount(route, minlength=3)[[CONE, FOLD, ENGINE]].tolist() == [
        4224, 14901, 133]


def test_top_set_has_no_homology_in_degree_k_minus_2():
    # Degree k - 2 of a k-vertex top set is beta_{1,k}, and an edge ideal
    # has generators in degree 2 only; a fold reads it on G - y, so a fold
    # never breaks presentation.
    for k in (4, 5):
        for g in enumerate_graphs(k):
            dims = per_subset_dims(g, (1 << k) - 1, "f2")
            assert k - 2 not in dims, g.adj


def test_planted_fold_direction_fault_is_caught(monkeypatch):
    def delete_x(rows, live):
        # The first pair's x, whose neighborhood is the smaller one.
        n = len(rows)
        out = np.full(rows.shape[1], -1, dtype=np.int8)
        for x in range(n):
            for y in range(n):
                if y != x:
                    out[(out < 0) & (rows[x] & ~rows[y] == 0)] = x
        return out

    monkeypatch.setattr(corpus, "fold_vertex", delete_x)
    assert _top_set_disagreements(5)


def test_planted_fold_lp_fault_is_caught(monkeypatch):
    real = corpus._top_set_routes

    def fold_breaks_lp(n, masks):
        lr, lp, route = real(n, masks)
        lp[route == FOLD] = False
        return lr, lp, route

    monkeypatch.setattr(corpus, "_top_set_routes", fold_breaks_lp)
    assert _top_set_disagreements(5)


def test_negative_n_is_a_value_error():
    with pytest.raises(ValueError, match="n >= 0, got -1"):
        exhaustive_flag_audit(-1)
    with pytest.raises(ValueError, match="n must be >= 0, got -2"):
        random_flag_audit(-2, 3, seed=1)
