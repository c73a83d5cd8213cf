import math
from fractions import Fraction

import pytest

from eideal.asymptotics import (GW_INVARIANTS, expected_chordless_cycles,
                                expected_local_cycles, gw_limit_estimate,
                                karp_sipser_root, karp_sipser_upper,
                                mcdiarmid_tail, near_lipschitz_tail,
                                prob_lp_dense_window, prob_lr_dense_window,
                                prob_lr_sparse_window)
from eideal.chordality import count_chordless_cycles
from eideal.graph_core import enumerate_graphs
from eideal.comb_invariants import forest_fold
from eideal.experiments import ConfigError, ExperimentConfig, run_experiment
from eideal.random_models import sample_gnp, sample_gw_tree, substream_seed


def test_lr_sparse_window_values():
    assert prob_lr_sparse_window(0).value == 1.0
    assert prob_lr_sparse_window(4).value == pytest.approx(2 * math.exp(-1))
    assert prob_lr_sparse_window(4).value == pytest.approx(0.735759, abs=1e-6)
    vals = [prob_lr_sparse_window(x).value for x in (1, 4, 16, 64, 256)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert prob_lr_sparse_window(1e6).value < 1e-100


def test_lp_dense_window_values():
    assert prob_lp_dense_window(0).value == 1.0
    assert prob_lp_dense_window(8).value == pytest.approx(math.exp(-1))
    assert prob_lp_dense_window(16).value == pytest.approx(math.exp(-2))


def test_lr_dense_window_values():
    assert prob_lr_dense_window(0).value == 1.0
    assert prob_lr_dense_window(1).value == 0.0
    assert prob_lr_dense_window(2.5).value == 0.0
    tv = prob_lr_dense_window(0.5, tol=1e-12)
    assert 0 < tv.value < 1
    assert tv.truncation_error <= 1e-12
    # Two truncation depths must agree within the coarser certificate.
    coarse = prob_lr_dense_window(0.5, tol=1e-6)
    assert abs(coarse.value - tv.value) <= 1e-6


def test_lr_dense_below_lp_dense():
    for lam in (0.1, 0.3, 0.6, 0.9):
        assert prob_lr_dense_window(lam).value <= \
            prob_lp_dense_window(lam).value


def test_expected_chordless_cycles_formula():
    assert expected_chordless_cycles(4, 1.0, 4) == 0
    assert expected_chordless_cycles(4, 0.5, 4) == pytest.approx(3 / 64)
    assert expected_chordless_cycles(10, 0.0, 4) == 0
    with pytest.raises(ValueError):
        expected_chordless_cycles(3, 0.5, 4)


def _exact_chordless_cycles(m, q, k):
    return float(Fraction(math.factorial(k - 1), 2) * math.comb(m, k)
                 * Fraction(q) ** k
                 * (1 - Fraction(q)) ** (math.comb(k, 2) - k))


def test_expected_chordless_cycles_past_float_range():
    # (k-1)! leaves float range at k = 172: these raised OverflowError, or
    # read inf * 0 = nan, and now take the product in log space.
    for m, q, k in ((172, 0.01, 172), (400, 0.01, 172), (2000, 0.01, 172),
                    (10000, 0.005, 180)):
        assert expected_chordless_cycles(m, q, k) == pytest.approx(
            _exact_chordless_cycles(m, q, k), rel=1e-9), (m, q, k)
    assert expected_chordless_cycles(200, 0.5, 180) == 0.0
    assert expected_chordless_cycles(2000, 0.5, 170) == 0.0
    assert expected_chordless_cycles(200, 0.0, 180) == 0.0
    assert expected_chordless_cycles(200, 1.0, 180) == 0.0
    assert expected_chordless_cycles(10 ** 6, 0.01, 200) == math.inf
    assert expected_local_cycles(300, 0.5, 200) == 0.0


def test_expected_chordless_cycles_in_range_is_the_direct_product():
    # The pinned cycle cells' theory: a product that stays finite is the
    # same float as before.
    for m, q, k in ((7, 0.3, 5), (400, 0.01, 6), (1000, 0.37, 40),
                    (300, 0.02, 120), (50, 0.9, 12)):
        assert expected_chordless_cycles(m, q, k) == (
            math.factorial(k - 1) / 2.0 * math.comb(m, k) * q ** k
            * (1.0 - q) ** (math.comb(k, 2) - k)), (m, q, k)


def test_cycle_calibration_past_float_range_runs():
    # This config passes validation; its theory at k >= 172 raised.
    config = ExperimentConfig.from_json({
        "kind": "cycle_calibration", "seed": 3, "trials": 2,
        "n_list": [172], "k_max": 172,
        "schedule": {"kind": "constant", "p": 0.01}})
    cells = run_experiment(config).cells
    assert [c.cell_id for c in cells] == [
        f"mean_chordless_{k}" for k in range(4, 173)]
    assert all(math.isfinite(c.theory) for c in cells)
    assert cells[-1].theory == pytest.approx(
        _exact_chordless_cycles(172, 0.01, 172), rel=1e-9)


def test_near_lipschitz_tail_past_float_range_is_inf():
    # (lam e / M)^M overflowed: the bound is vacuous, reported raw.
    assert near_lipschitz_tail(10, 1000.0, 400, 1.0) == math.inf
    with pytest.raises(ValueError, match="n and M must be >= 1"):
        near_lipschitz_tail(10, 1000.0, 0, 1.0)


def test_lr_dense_window_refuses_an_endless_series():
    # The tail bound falls like q^k / (1 - q) with q = lam^(1/4): this
    # looped for minutes, and lam just below 1 for ever.
    with pytest.raises(ValueError, match=r"over 10\*\*6 terms"):
        prob_lr_dense_window(0.999999999, tol=1e-300)
    with pytest.raises(ValueError, match="too close to 1"):
        prob_lr_dense_window(1 - 2 ** -53)
    # Near the limit the series still runs, and it agrees with the closed
    # form exp(-(-log(1 - q) - q - q^2/2 - q^3/3) / 2).
    q = 0.9999 ** 0.25
    tv = prob_lr_dense_window(0.9999)
    closed = math.exp((math.log1p(-q) + q + q * q / 2 + q ** 3 / 3) / 2)
    assert tv.value == pytest.approx(closed, rel=1e-9)
    assert tv.truncation_error <= 1e-12


def test_window_dense_config_refuses_an_endless_theory():
    obj = {"kind": "threshold", "seed": 1, "trials": 5, "n_list": [10],
           "schedule": {"kind": "window_dense", "lambda": 0.999999999},
           "predicates": ["is_cochordal"]}
    with pytest.raises(ConfigError, match="schedule: .* too close to 1"):
        ExperimentConfig.from_json(obj)
    # The theory is only read for is_cochordal.
    ExperimentConfig.from_json({**obj, "predicates": ["is_4_cochordal"]})


def test_expected_chordless_cycles_exact_exhaustive():
    # Rational-arithmetic average over every labeled graph must equal the
    # formula exactly for m = 4, 5 at q in {1/4, 1/2, 3/4}.
    for m in (4, 5):
        graphs = [(g, g.edge_count) for g in enumerate_graphs(m)]
        pairs = m * (m - 1) // 2
        for qnum, qden in ((1, 4), (1, 2), (3, 4)):
            q = Fraction(qnum, qden)
            for k in range(4, m + 1):
                acc = Fraction(0)
                for g, edges in graphs:
                    weight = q ** edges * (1 - q) ** (pairs - edges)
                    acc += weight * count_chordless_cycles(g, k)[k]
                formula = (Fraction(math.factorial(k - 1), 2)
                           * math.comb(m, k) * q ** k
                           * (1 - q) ** (math.comb(k, 2) - k))
                assert acc == formula
                approx = expected_chordless_cycles(m, qnum / qden, k)
                assert approx == pytest.approx(float(formula), rel=1e-12)


def test_expected_local_cycles_edges():
    assert expected_local_cycles(10, 1.0, 4) == 0
    assert expected_local_cycles(10, 0.0, 4) == 0
    assert expected_local_cycles(10, 0.5, 10) == 0  # no vertex to isolate
    # (1 - p)^k rounds to 1: the isolation factor is 1 to float precision.
    assert expected_local_cycles(10, 1e-20, 4) == pytest.approx(
        630 * 1e-40, rel=1e-9)


def _exact_local_cycles(n, p, k):
    q = 1 - Fraction(p)
    return float(Fraction(math.factorial(k - 1), 2) * math.comb(n, k)
                 * q ** k * (1 - q) ** (math.comb(k, 2) - k)
                 * (1 - (1 - q ** k) ** (n - k)))


def test_expected_local_cycles_against_exact_rationals():
    # (1000, 0.99, 4) lost 5e-9 of its value to 1 - (1 - 1e-8)^996 in
    # floats; the log-space product keeps it.
    for n, p, k in ((6, 0.5, 4), (60, 0.9, 4), (30, 0.5, 6),
                    (1000, 0.99, 4), (200, 0.5, 40), (50, 0.3, 12)):
        assert expected_local_cycles(n, p, k) == pytest.approx(
            _exact_local_cycles(n, p, k), rel=1e-9), (n, p, k)


def test_expected_local_cycles_past_float_range():
    # The cycle factor overflows while (1 - p)^k underflows: both read
    # inf * 0 = nan.  The isolation factor is (n - k)(1 - p)^k to first
    # order, with relative error below (n - k)(1 - p)^k = 1e-396 here.
    n, p, k = 10 ** 4, 0.99, 200
    log_value = (math.lgamma(n + 1) - math.lgamma(n - k + 1)
                 - math.log(2 * k) + k * math.log1p(-p)
                 + (math.comb(k, 2) - k) * math.log(p)
                 + math.log(n - k) + k * math.log1p(-p))
    assert -196.9 < log_value < -196.7
    assert expected_local_cycles(n, p, k) == pytest.approx(
        math.exp(log_value), rel=1e-9)
    assert expected_local_cycles(10 ** 6, p, k) == math.inf


def test_expected_local_cycles_monte_carlo():
    # E[C*_4] at n=6, p=0.5 against direct simulation: count chordless
    # 4-cycles of the complement having a vertex isolated from the cycle.
    from eideal.graph_core import complement

    n, p, k = 6, 0.5, 4
    trials = 20000
    total = 0
    total_sq = 0
    for t in range(trials):
        g = sample_gnp(n, p, seed=substream_seed(4242, t))
        comp = complement(g)
        hits = 0
        from itertools import combinations
        for combo in combinations(range(n), 4):
            sub_edges = sum(1 for a, b in combinations(combo, 2)
                            if comp.has_edge(a, b))
            degs = [sum(1 for u in combo
                        if u != v and comp.has_edge(u, v)) for v in combo]
            if sub_edges == 4 and all(d == 2 for d in degs):
                cyc = set(combo)
                for v in range(n):
                    if v in cyc:
                        continue
                    if not any(g.has_edge(v, u) for u in combo):
                        hits += 1
                        break
        total += hits
        total_sq += hits * hits
    mean = total / trials
    var = (total_sq - trials * mean * mean) / (trials - 1)
    se = math.sqrt(var / trials)
    assert abs(mean - expected_local_cycles(n, p, k)) <= 4 * se + 1e-9


def test_karp_sipser_root_against_dense_grid():
    for lam in (0.5, 1.0, 2.0, 3.0):
        t = karp_sipser_root(lam)
        f = lambda x: x - math.exp(-lam * math.exp(-lam * x))
        assert abs(f(t)) < 1e-9
        # Dense-grid oracle: no earlier sign change.
        step = 1e-6
        x = step
        while x < t - 1e-4:
            assert f(x) < 0
            x += 97 * step  # coarse stride over the dense grid
    # lam = 1: the root satisfies exp(-t) = t, the omega constant.
    assert karp_sipser_root(1.0) == pytest.approx(0.5671432904097838, abs=1e-9)


def test_karp_sipser_bound_values_and_monotonicity():
    assert karp_sipser_upper(1.0).value == pytest.approx(0.2720, abs=2e-4)
    grid = [0.04 * i for i in range(1, 101)]
    vals = [karp_sipser_upper(x).value for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert karp_sipser_upper(1e-6).value == pytest.approx(0.0, abs=1e-5)


def test_tail_bounds():
    assert mcdiarmid_tail(100, 1, 0) == 2.0
    assert mcdiarmid_tail(100, 1, 40) == pytest.approx(2 * math.exp(-4))
    assert near_lipschitz_tail(100, 1.0, 1, 40) == pytest.approx(
        2 * math.exp(-4) + 2 * 100 * 100 * math.e)
    big_m = near_lipschitz_tail(100, 1.0, 60, 40)
    assert big_m - mcdiarmid_tail(100, 60, 40) < 1e-30


@pytest.mark.parametrize("formula, args, message", [
    (expected_chordless_cycles, (10, 2.0, 4), r"q must be in \[0, 1\]"),
    (expected_chordless_cycles, (10, -0.1, 4), r"q must be in \[0, 1\]"),
    (expected_chordless_cycles, (10, math.nan, 4), r"q must be in \[0, 1\]"),
    (expected_local_cycles, (10, -1.0, 4), r"p must be in \[0, 1\]"),
    (expected_local_cycles, (10, 1.5, 4), r"p must be in \[0, 1\]"),
    (expected_local_cycles, (10, math.nan, 4), r"p must be in \[0, 1\]"),
    (mcdiarmid_tail, (10, 1, math.nan), "t must be >= 0"),
    (near_lipschitz_tail, (10, -5.0, 1, 1.0), "lam must be >= 0"),
    (near_lipschitz_tail, (10, math.nan, 1, 1.0), "lam must be >= 0"),
    (near_lipschitz_tail, (10, 1.0, 1, math.nan), "t must be >= 0"),
])
def test_formulas_refuse_out_of_range_inputs(formula, args, message):
    # These returned negative counts, counts of a "probability" 2, nan,
    # and negative tail bounds.
    with pytest.raises(ValueError, match=message):
        formula(*args)


def test_gw_limit_estimate_lambda_zero():
    est = gw_limit_estimate(0.0, trials=200, cap=100, seed=1)
    assert list(est) == list(GW_INVARIANTS)
    assert est["induced_matching"].estimate == 0.0
    assert est["depth"].estimate == 1.0
    assert est["pd"].estimate == 0.0


def test_gw_limit_estimate_seed_agreement():
    a = gw_limit_estimate(0.5, trials=20000, cap=10 ** 5,
                          seed=11)["induced_matching"]
    b = gw_limit_estimate(0.5, trials=20000, cap=10 ** 5,
                          seed=2222)["induced_matching"]
    assert a.censor_fraction == 0
    gap = abs(a.estimate - b.estimate)
    assert gap <= 4 * math.hypot(a.stderr, b.stderr)
    # Regression constant, first computed from this code path (trials and
    # seed pinned): E[nu(T)/|T|] at rate 0.5 came out 0.1580 +- 0.0014.
    assert a.estimate == pytest.approx(0.15796, abs=0.006)


def test_gw_limit_depth_pd_complement():
    est = gw_limit_estimate(0.5, trials=5000, cap=10 ** 5, seed=3)
    assert est["pd"].estimate + est["depth"].estimate == pytest.approx(1.0)


def test_window_formulas_refuse_nan():
    # NaN passes `lam < 0`: the window values came out nan, and the dense
    # series never reached its tolerance.
    for formula in (prob_lr_sparse_window, prob_lp_dense_window,
                    prob_lr_dense_window):
        with pytest.raises(ValueError, match="lam must be >= 0"):
            formula(math.nan)
    with pytest.raises(ValueError, match="tol must be > 0"):
        prob_lr_dense_window(0.5, tol=math.nan)


def test_gw_limit_validation():
    with pytest.raises(ValueError):
        gw_limit_estimate(2.0, 10, 100, 0)
    with pytest.raises(ValueError, match="offspring rate must be >= 0"):
        gw_limit_estimate(math.nan, 10, 100, 0)


def _gw_limit_by_single_trees(lam, trials, cap, seed):
    """gw_limit_estimate's sums, tree t from sample_gw_tree(lam, cap,
    substream_seed(seed, "gw", t)): one Generator built per tree."""
    total = dict.fromkeys(GW_INVARIANTS, 0.0)
    total_sq = dict.fromkeys(GW_INVARIANTS, 0.0)
    used = censored = 0
    for t in range(trials):
        parents, capped = sample_gw_tree(lam, cap,
                                         substream_seed(seed, "gw", t))
        if capped:
            censored += 1
            continue
        nu, mmis = forest_fold(parents)
        size = len(parents)
        values = (nu / size, (size - mmis) / size, mmis / size)
        for which, value in zip(GW_INVARIANTS, values):
            total[which] += value
            total_sq[which] += value * value
        used += 1
    out = {}
    for which in GW_INVARIANTS:
        mean = total[which] / used if used else math.nan
        var = (max(0.0, (total_sq[which] - used * mean * mean) / (used - 1))
               if used > 1 else math.nan)
        out[which] = (used, censored / trials, mean, math.sqrt(var / used)
                      if used else math.nan)
    return out


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.8, 1.0])
def test_gw_limit_equals_a_loop_of_single_trees(lam):
    # 300 trees span a seeding block boundary.  Exact equality: the bulk
    # seeding must give every tree the stream sample_gw_tree gives it.
    trials = 300
    for cap in (1, 5, 10 ** 5):
        for seed in (-7, 0, 2 ** 100):
            est = gw_limit_estimate(lam, trials, cap, seed)
            oracle = _gw_limit_by_single_trees(lam, trials, cap, seed)
            for which, expected in oracle.items():
                e = est[which]
                got = (e.trials, e.censor_fraction, e.estimate, e.stderr)
                # nan where no (or one) tree was kept; equal means ==.
                assert all(a == b or (math.isnan(a) and math.isnan(b))
                           for a, b in zip(got, expected, strict=True)), \
                    (which, cap, seed, got, expected)


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_gw_limit_folds_each_small_shape_once(monkeypatch, lam):
    # The memo is keyed on the whole parent list and holds trees of at most
    # 16 vertices only: one fold per distinct small kept tree, one per kept
    # tree above 16.
    import eideal.asymptotics as asymptotics

    grown, folded = [], []
    grow, fold = asymptotics.grow_gw_tree, asymptotics.forest_fold

    def recorded_grow(*args):
        tree = grow(*args)
        grown.append(tree)
        return tree

    def counted_fold(parents):
        folded.append(parents)
        return fold(parents)

    monkeypatch.setattr(asymptotics, "grow_gw_tree", recorded_grow)
    monkeypatch.setattr(asymptotics, "forest_fold", counted_fold)
    gw_limit_estimate(lam, 3000, 200, 17)
    kept = [parents for parents, capped in grown if not capped]
    small = {parents for parents in kept if len(parents) <= 16}
    large = [parents for parents in kept if len(parents) > 16]
    assert len(small) < len(kept) - len(large) and large
    assert sorted(folded) == sorted([*small, *large])


def test_gw_limit_memo_stops_at_16_vertices(monkeypatch):
    # Sampled trees above 16 vertices seldom repeat, so a fixed stream of
    # two paths pins the bound: the 16-vertex one is folded once, the
    # 17-vertex one every time it is drawn.
    import eideal.asymptotics as asymptotics

    paths = [(tuple(range(-1, size - 1)), False) for size in (16, 17)]
    drawn = iter(paths * 5)
    folded = []
    fold = asymptotics.forest_fold

    def counted_fold(parents):
        folded.append(len(parents))
        return fold(parents)

    monkeypatch.setattr(asymptotics, "grow_gw_tree",
                        lambda lam, cap, rng: next(drawn))
    monkeypatch.setattr(asymptotics, "forest_fold", counted_fold)
    est = gw_limit_estimate(0.5, 10, 100, 0)
    assert sorted(folded) == [16] + [17] * 5
    assert est["depth"].trials == 10
