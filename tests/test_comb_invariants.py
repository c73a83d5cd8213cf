import random

import pytest

from eideal.asymptotics import gw_limit_estimate
from eideal.betti import betti_table, forest_pd, reg_pd_componentwise
from eideal.comb_invariants import (BudgetExceededError, cover_profile,
                                    forest_dp, independence_number,
                                    induced_matching_number, is_forest,
                                    matching_number, tree_induced_matching,
                                    tree_min_maximal_independent_set)
from eideal.graph_core import (bits, build_graph, complete_graph,
                               connected_components, cycle_graph,
                               disjoint_union, empty_graph, enumerate_graphs,
                               path_graph, star_graph)
from eideal.random_models import sample_gnp, sample_gw_tree

from oracles import (naive_cover_sizes, naive_independence_number,
                     naive_induced_matching_number,
                     naive_maximal_independent_sets, naive_matching_number)


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


def shuffled_forest(n, rng):
    f = random_forest(n, rng)
    place = list(range(n))
    rng.shuffle(place)
    return build_graph(n, [(place[u], place[v]) for u, v in f.edges()])


def test_forest_dp_matches_betti_table():
    # reg* = induced matching number and pd = n - min maximal independent
    # set on every forest with at most 6 vertices and random ones up to 12.
    rng = random.Random(606)
    forests = [g for n in range(7) for g in enumerate_graphs(n)
               if is_forest(g)]
    forests += [shuffled_forest(rng.randint(7, 12), rng) for _ in range(30)]
    for f in forests:
        nu, mmis = forest_dp(f)
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
    graphs = [sample_gw_tree(lam, 2000, seed).tree
              for lam in (0.5, 1.0) for seed in range(40)]
    graphs += [shuffled_forest(n, rng) for n in (1, 2, 3, 50, 400, 2000)
               for _ in range(2)]
    assert max(g.n for g in graphs) == 2000
    for g in graphs:
        assert forest_dp(g) == (_old_induced_matching(g),
                                _old_min_maximal_independent_set(g))


def test_forest_wrappers_reject_cycles():
    for wrapper in (tree_induced_matching, tree_min_maximal_independent_set,
                    forest_pd):
        with pytest.raises(ValueError):
            wrapper(cycle_graph(4))


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
    for n in (5, 6):
        for g in enumerate_graphs(n):
            assert matching_number(g) == naive_matching_number(g)


def test_matching_number_random_vs_oracle():
    for trial in range(60):
        g = sample_gnp(8, 0.15 + 0.08 * (trial % 7), seed=880 + trial)
        assert matching_number(g) == naive_matching_number(g)


def test_independence_number_cases():
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(complete_graph(7)) == 1
    assert independence_number(empty_graph(6)) == 6


def test_independence_number_random_vs_oracle():
    for trial in range(50):
        g = sample_gnp(9, 0.2 + 0.08 * (trial % 7), seed=12 + trial)
        assert independence_number(g) == naive_independence_number(g)


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
        nontrivial = sum(1 for s in connected_components(g).sizes if s >= 2)
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
    assert tree_min_maximal_independent_set(path_graph(3)) == 1
    assert tree_min_maximal_independent_set(path_graph(4)) == 2
    assert tree_min_maximal_independent_set(star_graph(4)) == 1
    rng = random.Random(9)
    for _ in range(120):
        n = rng.randint(1, 13)
        f = random_forest(n, rng)
        sizes = [s.bit_count() for s in naive_maximal_independent_sets(f)]
        assert tree_min_maximal_independent_set(f) == min(sizes)
