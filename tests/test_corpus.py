import math

import numpy as np

from eideal import betti, corpus
from eideal.corpus import (CROSS_CHECK_STRIDE, _complement_cycle_masks,
                           exhaustive_flag_audit, flag_tables,
                           random_flag_audit)
from eideal.graph_core import (build_graph, complement, edge_mask,
                               enumerate_graphs)

from oracles import naive_chordless_cycle_counts


def test_exhaustive_audit_up_to_n6():
    # Up to four vertices the top set alone decides both sides.
    for n in range(1, 5):
        assert exhaustive_flag_audit(n) == (1 << (n * (n - 1) // 2), [])
    assert exhaustive_flag_audit(5) == (1024, [])
    serial = exhaustive_flag_audit(6)
    assert serial == (32768, [])
    assert exhaustive_flag_audit(6, workers=2) == serial


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
            expected = naive_chordless_cycle_counts(complement(g), k)[k]
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
    monkeypatch.setattr(corpus, "_complement_cycle_masks",
                        lambda n: top[top != dropped])
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
