import json
import math
import operator
from functools import partial

import numpy as np
import pytest

from eideal import betti, chordality, experiments, random_models
from eideal.chordality import (count_chordless_cycles,
                               is_locally_4_cochordal, is_locally_cochordal)
from eideal.comb_invariants import (BudgetExceededError, CoverProfile,
                                   cover_profile)
from eideal.corpus import flag_tables
from eideal.experiments import (CSV_COLUMNS, ConfigError, ExperimentConfig,
                                _additivity_trial, _componentwise_row,
                                _lipschitz_trial, _threshold_verdicts,
                                _tv_distance_poisson, _unmixed_verdict,
                                map_gnp_trials, map_trials,
                                run_cycle_calibration,
                                run_experiment, run_gw_limit,
                                run_lipschitz_audit, run_threshold,
                                run_unmixed_scan, run_variance_audit,
                                wilson_interval)
from eideal.graph_core import (complement, connected_components,
                               graph_from_pairs, induced_subgraph,
                               induced_subgraph_mask)
from eideal.random_models import (_SPARSE_GNP_THRESHOLD, GnpDraw,
                                  ParamSchedule, draw_gnp, sample_gnp,
                                  schedule_p, substream_seed)

from oracles import (cochordal_counts_by_edges, count_triangles,
                     elimination_is_chordal, exact_componentwise_means,
                     exact_gnp_probability, naive_cover_sizes,
                     naive_has_induced_c4, naive_is_chordal,
                     pair_scan_has_induced_c4, peel_degree_two,
                     table_componentwise_means, unmixed_counts_by_edges)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert (hi - lo) < 0.21
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12) and 0 < hi0 < 0.05
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == pytest.approx(1.0, abs=1e-12) and 0.95 < lo1 < 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_wilson_coverage_quick():
    # 90%+ of intervals should cover the truth at these settings.
    import numpy as np

    rng = np.random.default_rng(5)
    p = 0.3
    cover = 0
    for _ in range(300):
        hits = int(rng.binomial(200, p))
        lo, hi = wilson_interval(hits, 200)
        cover += lo <= p <= hi
    assert cover >= 270


def test_config_round_trip_and_validation():
    cfg = ExperimentConfig(kind="threshold", seed=7, trials=10,
                           n_list=(30,),
                           schedule=ParamSchedule.window_dense(4.0),
                           predicates=("is_cochordal",))
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again.kind == cfg.kind and again.schedule == cfg.schedule

    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_json({"kind": "nope", "seed": 1})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_json({"kind": "threshold"})
    with pytest.raises(ConfigError, match="schedule"):
        ExperimentConfig.from_json({"kind": "threshold", "seed": 1,
                                    "n_list": [5], "trials": 2,
                                    "predicates": ["is_cochordal"]})
    with pytest.raises(ConfigError, match="predicates"):
        ExperimentConfig.from_json({"kind": "threshold", "seed": 1,
                                    "n_list": [5], "trials": 2,
                                    "schedule": {"kind": "constant", "p": 0.5},
                                    "predicates": ["wat"]})
    with pytest.raises(ConfigError, match="n_list"):
        ExperimentConfig.from_json({"kind": "unmixed_scan", "seed": 1,
                                    "schedule": {"kind": "constant", "p": 0.5}})
    with pytest.raises(ConfigError, match="lambda"):
        ExperimentConfig.from_json({"kind": "gw_limit", "seed": 1,
                                    "n_list": [50], "trials": 2,
                                    "schedule": {"kind": "sparse",
                                                 "lambda": 2.0}})
    for kind in ("variance_audit", "cycle_calibration", "gw_limit"):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig.from_json({"kind": kind, "seed": 1,
                                        "n_list": [50], "trials": 1,
                                        "schedule": {"kind": "sparse",
                                                     "lambda": 0.5}})
    # A schedule that is not an object, or a parameter that is not a finite
    # number, is a config error, not a crash.
    for schedule in ("sparse", {"kind": "sparse", "lambda": None},
                     {"kind": "power", "c": "1", "alpha": 0.5},
                     {"kind": "constant", "p": float("nan")}):
        with pytest.raises(ConfigError, match="schedule"):
            ExperimentConfig.from_json({"kind": "threshold", "seed": 1,
                                        "n_list": [5], "schedule": schedule,
                                        "predicates": ["is_cochordal"]})
    with pytest.raises(ConfigError, match="predicates"):
        ExperimentConfig.from_json({"kind": "threshold", "seed": 1,
                                    "n_list": [5], "predicates": 5,
                                    "schedule": {"kind": "constant", "p": 0.5}})
    with pytest.raises(ConfigError, match="random_audit"):
        ExperimentConfig.from_json({"kind": "froberg_audit", "seed": 1,
                                    "random_audit": [[8, 5], [12, 5]]})
    with pytest.raises(ConfigError, match="exhaustive_n"):
        ExperimentConfig.from_json({"kind": "froberg_audit", "seed": 1,
                                    "exhaustive_n": 8, "random_audit": []})


def test_unknown_config_keys_are_rejected():
    base = {"kind": "threshold", "seed": 1, "trials": 2, "n_list": [5],
            "schedule": {"kind": "constant", "p": 0.5},
            "predicates": ["is_cochordal"]}
    assert ExperimentConfig.from_json(base).trials == 2
    # "trails" used to be ignored, and the run took the default 100 trials.
    with pytest.raises(ConfigError, match="^trails: unknown key"):
        ExperimentConfig.from_json({**base, "trails": 5})
    for schedule in ({"kind": "constant", "p": 0.5, "lambda": 1.0},
                     {"kind": "sparse", "lambda": 1.0, "alpha": 2.0}):
        with pytest.raises(ConfigError, match="^schedule: .*'(lambda|alpha)'"):
            ExperimentConfig.from_json({**base, "schedule": schedule})
    # These three used to load, and to_json dropped them without a word.
    for key, value in (("k_max", 9), ("gw_cap", 3), ("exhaustive_n", 2)):
        with pytest.raises(ConfigError, match=f"^{key}: unknown key for "
                           f"kind 'threshold', expected one of"):
            ExperimentConfig.from_json({**base, key: value})
    for kind, keys in experiments.KIND_FIELDS.items():
        for other in set(experiments.EXPERIMENT_KINDS) - {kind}:
            for key in keys:
                with pytest.raises(ConfigError, match=f"^{key}: "):
                    ExperimentConfig.from_json(
                        {"kind": other, "seed": 1, key: 4})
    # Keys that to_json writes for every kind load on any kind.
    cfg = ExperimentConfig.from_json({**base, "betti_guard": 9,
                                      "mis_budget": 50})
    assert set(cfg.to_json()) == {*base, "betti_guard", "mis_budget"}


def test_every_written_config_loads_again():
    # to_json round-trips for every kind once unknown keys are errors.
    configs = [
        ExperimentConfig(kind="threshold", seed=1, trials=3, n_list=(6,),
                         schedule=ParamSchedule.window_sparse(2.0),
                         predicates=("is_cochordal",)),
        ExperimentConfig(kind="gw_limit", seed=2, trials=3, n_list=(6,),
                         schedule=ParamSchedule.sparse(0.5), gw_cap=7),
        ExperimentConfig(kind="unmixed_scan", seed=3, n_list=(6,),
                         schedule=ParamSchedule.power(1.0, 1.5)),
        ExperimentConfig(kind="cycle_calibration", seed=4, n_list=(6,),
                         schedule=ParamSchedule.constant(0.3), k_max=5,
                         poisson_k3=True),
        ExperimentConfig(kind="lipschitz_audit", seed=5, betti_guard=63),
        ExperimentConfig(kind="variance_audit", seed=6, n_list=(6,),
                         schedule=ParamSchedule.sparse(1.0)),
        ExperimentConfig(kind="froberg_audit", seed=7, exhaustive_n=4,
                         random_audit=((8, 3),)),
    ]
    assert {cfg.kind for cfg in configs} == set(experiments.EXPERIMENT_KINDS)
    for cfg in configs:
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_seed_range_is_the_hash_range():
    base = {"kind": "lipschitz_audit", "trials": 2}
    for seed in (2 ** 127 - 1, -2 ** 127, 0):
        assert ExperimentConfig.from_json({**base, "seed": seed}).seed == seed
    # A seed of 2**127 or more used to pass and then overflow the 16-byte
    # signed encoding of substream_seed.
    for seed in (2 ** 128, 2 ** 127, -2 ** 127 - 1):
        with pytest.raises(ConfigError, match=r"^seed: .*\[-2\*\*127, "):
            ExperimentConfig.from_json({**base, "seed": seed})


def test_betti_guard_stays_within_the_scan_width():
    base = {"kind": "lipschitz_audit", "seed": 1, "trials": 2}
    assert ExperimentConfig.from_json({**base, "betti_guard": 63})
    with pytest.raises(ConfigError, match="^betti_guard: must be <= 63"):
        ExperimentConfig.from_json({**base, "betti_guard": 64})


_INT_FIELDS = {"seed": True, "trials": True, "n_list": [True],
               "k_max": True, "betti_guard": True, "mis_budget": True,
               "gw_cap": True, "gw_trials": True, "exhaustive_n": True,
               "random_audit": [[True, 5]]}


# Each field sits in a config of a kind that reads it.
_INT_BASES = [
    {"kind": "froberg_audit", "seed": 1, "trials": 2, "n_list": [7],
     "betti_guard": 10, "mis_budget": 100, "exhaustive_n": 4,
     "random_audit": [[7, 5]]},
    {"kind": "cycle_calibration", "seed": 1, "trials": 2, "n_list": [7],
     "schedule": {"kind": "constant", "p": 0.5}, "k_max": 4},
    {"kind": "gw_limit", "seed": 1, "trials": 2, "n_list": [7],
     "schedule": {"kind": "sparse", "lambda": 0.5}, "gw_cap": 10,
     "gw_trials": 3},
]


@pytest.mark.parametrize("field", sorted(_INT_FIELDS))
def test_json_booleans_are_not_integers(field):
    base = next(base for base in _INT_BASES if field in base)
    assert ExperimentConfig.from_json(base).to_json()[field] == base[field]
    with pytest.raises(ConfigError, match=f"^{field}: "):
        ExperimentConfig.from_json({**base, field: _INT_FIELDS[field]})


@pytest.mark.parametrize("kind, schedule", [
    ("threshold", "window_dense"), ("threshold", "window_sparse"),
    ("gw_limit", "sparse")])
def test_negative_lambda_is_a_config_error(kind, schedule):
    # Each used to pass validation and crash in the run: a complex p, a
    # math domain error, a ValueError from the tree sampler.
    obj = {"kind": kind, "seed": 1, "trials": 2, "n_list": [20],
           "schedule": {"kind": schedule, "lambda": -1.0}}
    if kind == "threshold":
        obj["predicates"] = ["is_cochordal"]
    else:
        obj.update(gw_trials=3, gw_cap=10)
    with pytest.raises(ConfigError, match="schedule: .*'lambda' >= 0"):
        ExperimentConfig.from_json(obj)
    obj["schedule"]["lambda"] = 0.0
    assert run_experiment(ExperimentConfig.from_json(obj)).cells


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"bare {constant} in report JSON")

    return json.loads(text, parse_constant=reject)


ALL_PREDICATES = sorted(experiments.PREDICATES)


def _edge(kind, n_list=None, schedule=None, **extra):
    obj = {"kind": kind, "seed": 5, "trials": 2, **extra}
    if n_list is not None:
        obj["n_list"] = n_list
    if schedule is not None:
        kind_, value = schedule
        obj["schedule"] = ({"kind": "constant", "p": value}
                           if kind_ == "p" else
                           {"kind": kind_, "c": 1.0, "alpha": value}
                           if kind_ in ("power", "complement_power")
                           else {"kind": kind_, "lambda": value})
    if kind == "threshold":
        obj["predicates"] = ALL_PREDICATES
    return pytest.param(obj, id="-".join(
        [kind] + [f"{k}={v}" for k, v in obj.items()
                  if k not in ("kind", "seed", "trials", "predicates")]))


EDGE_CONFIGS = [
    _edge("threshold", [1], ("sparse", 0.0)),
    _edge("threshold", [4], ("p", 0.0)),
    _edge("threshold", [4], ("p", 1.0)),
    _edge("threshold", [2], ("window_dense", 0.0)),
    _edge("threshold", [3], ("window_sparse", 0.0)),
    _edge("gw_limit", [1], ("sparse", 0.0), gw_cap=1, gw_trials=2),
    _edge("gw_limit", [4], ("sparse", 1.0), gw_cap=1, gw_trials=2),
    _edge("unmixed_scan", [1], ("sparse", 0.0)),
    _edge("unmixed_scan", [4], ("p", 0.0)),
    _edge("unmixed_scan", [4], ("p", 1.0)),
    _edge("variance_audit", [1], ("sparse", 0.0)),
    _edge("variance_audit", [2], ("sparse", 1.0)),
    _edge("cycle_calibration", [4], ("p", 0.0), k_max=4),
    _edge("cycle_calibration", [4], ("p", 1.0), k_max=4),
    _edge("cycle_calibration", [5], ("p", 0.5), k_max=5),
    _edge("cycle_calibration", [4, 6], ("p", 0.5), k_max=6),
    _edge("cycle_calibration", [6], ("p", 0.5), k_max=2),
    _edge("cycle_calibration", [6], ("p", 0.5), k_max=3),
    _edge("cycle_calibration", [1], ("p", 0.5), k_max=4),
    _edge("cycle_calibration", [2], ("p", 0.5), k_max=4),
    _edge("cycle_calibration", [3], ("power", 0.0)),
    # n**-alpha overflows a float: p is its limit, 1 or 0.
    _edge("threshold", [2000], ("power", -1000.0)),
    _edge("threshold", [2000], ("complement_power", -1000.0)),
    _edge("lipschitz_audit", trials=2),
    _edge("froberg_audit", exhaustive_n=1, random_audit=[[1, 1], [2, 1]]),
    _edge("froberg_audit", exhaustive_n=4, random_audit=[[11, 1]]),
]


@pytest.mark.parametrize("obj", EDGE_CONFIGS)
def test_edge_case_config_is_rejected_or_reported(obj):
    # A config either fails validation with a ConfigError or runs to a
    # report whose JSON is strict: no crash inside the run, no NaN.
    try:
        cfg = ExperimentConfig.from_json(obj)
    except ConfigError:
        return
    for include_timing in (True, False):
        _strict_json(run_experiment(cfg).to_json(include_timing))


@pytest.mark.parametrize("k_max, n_list", [(2, [6]), (3, [6]), (4, [2]),
                                           (4, [1]), (6, [4, 6])])
def test_cycle_calibration_k_max_bounds(k_max, n_list):
    # Each used to pass validation and crash in the run.
    obj = {"kind": "cycle_calibration", "seed": 1, "trials": 2,
           "n_list": n_list, "k_max": k_max,
           "schedule": {"kind": "power", "c": 1.0, "alpha": 0.0}}
    with pytest.raises(ConfigError, match="k_max: .*4 <= k_max <= min"):
        ExperimentConfig.from_json(obj)
    # Both ends of the range pass.
    for k_max, n_list in ((4, [4, 6]), (5, [5, 7])):
        ExperimentConfig.from_json({**obj, "k_max": k_max, "n_list": n_list})


def test_threshold_trivial_schedules():
    cfg = ExperimentConfig(kind="threshold", seed=3, trials=50, n_list=(12,),
                           schedule=ParamSchedule.constant(0.0),
                           predicates=("is_cochordal", "is_4_cochordal"))
    report = run_threshold(cfg)
    assert all(c.estimate == 1.0 for c in report.cells)
    cfg = ExperimentConfig(kind="threshold", seed=3, trials=50, n_list=(12,),
                           schedule=ParamSchedule.constant(1.0),
                           predicates=("is_cochordal",))
    report = run_threshold(cfg)
    assert report.cells[0].estimate == 1.0


def _flag_counts_by_edges(n):
    """N_m of ``cochordal_counts_by_edges`` read from the Froberg audit's
    tables, by one edge count of every mask."""
    _, _, cochordal, gap_free = flag_tables(n)
    edges = np.bitwise_count(np.arange(len(cochordal), dtype=np.uint32))
    return {name: np.bincount(edges[flag],
                              minlength=n * (n - 1) // 2 + 1).tolist()
            for name, flag in (("is_cochordal", cochordal),
                               ("is_4_cochordal", gap_free))}


def test_cochordal_counts_match_flag_tables():
    # N_m two ways: cycle counts of the complements, and the Froberg
    # audit's tables by edge count.
    for n in (5, 6):
        assert _flag_counts_by_edges(n) == cochordal_counts_by_edges(n), n


EXACT_TRIALS = 3000


def _threshold_gaps(n, p):
    """{predicate: (estimate - P_n(p)) / se} of the two cochordal threshold
    cells of G(n, p), with P_n(p) = sum_m N_m p^m (1 - p)^(C(n,2) - m) from
    the flag tables (checked against the oracle at n = 5, 6 above)."""
    config = ExperimentConfig(kind="threshold", seed=1729,
                              trials=EXACT_TRIALS, n_list=(n,),
                              schedule=ParamSchedule.constant(p),
                              predicates=("is_cochordal", "is_4_cochordal"))
    counts = _flag_counts_by_edges(n)
    gaps = {}
    for cell in run_experiment(config).cells:
        exact = exact_gnp_probability(counts[cell.cell_id], p)
        se = math.sqrt(exact * (1 - exact) / EXACT_TRIALS)
        gaps[cell.cell_id] = (cell.estimate - exact) / se
    return gaps


@pytest.mark.parametrize("n, p, complemented_share", [
    (5, 0.04, 0.0),   # geometric skips, below the sparse threshold
    (6, 0.04, 0.0),
    (7, 0.04, 0.0),
    (6, 0.1, 0.18),   # flat draw, kept as edges when at most 2 of 15 drawn
    (7, 0.3, 0.449),  # flat draw, complemented from 7 of 21 drawn on
    (5, 0.5, 1.0),    # flat draw listing its non-edges, complemented
    (6, 0.6, 1.0),
    (7, 0.6, 1.0),
])
def test_threshold_cells_match_exact_probability(n, p, complemented_share):
    # The whole sampled route (draw, peel, verdict, aggregation) against
    # P_n(p), at 4 se.
    shares = map_gnp_trials("threshold", 1729, n, p, EXACT_TRIALS, 1,
                            operator.attrgetter("complemented"))
    assert np.mean(shares) == pytest.approx(complemented_share, abs=0.03)
    gaps = _threshold_gaps(n, p)
    assert max(map(abs, gaps.values())) <= 4, gaps


MEAN_TRIALS = 1500


@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("guard", [betti.DEFAULT_BETTI_GUARD, 2])
def test_sparse_runner_means_match_exact_values(lam, guard):
    # E[reg*] and E[pd] of G(5, lambda/5) summed over components, against
    # every labeled 5-vertex graph's naive tables, at 4 se; at guard 2 each
    # cyclic component is censored and counts 0.
    n = 5
    reg, pd = exact_componentwise_means(n, lam / n, guard)
    schedule = ParamSchedule.sparse(lam)
    gw = run_experiment(ExperimentConfig(
        kind="gw_limit", seed=1729, trials=MEAN_TRIALS, n_list=(n,),
        schedule=schedule, betti_guard=guard, gw_trials=2, gw_cap=10))
    cells = {c.cell_id: c for c in gw.cells if c.n == n}
    for cell_id, exact in (("graph_reg_star", reg), ("graph_pd", pd)):
        cell = cells[cell_id]
        assert abs(cell.estimate - exact / n) <= 4 * cell.extra["stderr"], (
            cell_id, exact / n)
    audit = run_experiment(ExperimentConfig(
        kind="variance_audit", seed=1729, trials=MEAN_TRIALS, n_list=(n,),
        schedule=schedule, betti_guard=guard)).cells[0].extra
    se = math.sqrt(audit["variance"] / MEAN_TRIALS)
    assert abs(audit["mean_reg_star"] - reg) <= 4 * se, reg


# G(6, lambda/6) reaches every draw form: sparse below p = 0.05, a flat
# draw listing its kept pairs (at most 2 edges) or its non-edges at
# lambda = 1, and complemented almost always at lambda = 4, which only
# variance_audit's schedule allows.
N6_FORMS = {0.25: {"sparse"}, 1.0: {"kept", "complemented"},
            4.0: {"complemented"}}


def _n6_runner_gaps(lam, guard):
    """|runner mean - exact mean| in standard errors for E[reg*] and E[pd]
    of G(6, lambda/6) summed over components (``table_componentwise_means``),
    from gw_limit's graph cells at lambda <= 1 and variance_audit's mean."""
    n = 6
    p = lam / n
    reg, pd = table_componentwise_means(n, p, guard)
    schedule = ParamSchedule.sparse(lam)
    kind = "gw_limit" if lam <= 1 else "variance_audit"
    forms = map_gnp_trials(kind, 1729, n, p, MEAN_TRIALS, 1, lambda draw: (
        "complemented" if draw.complemented
        else "sparse" if p < _SPARSE_GNP_THRESHOLD else "kept"))
    assert set(forms) == N6_FORMS[lam]
    if kind == "variance_audit":
        audit = run_experiment(ExperimentConfig(
            kind=kind, seed=1729, trials=MEAN_TRIALS, n_list=(n,),
            schedule=schedule, betti_guard=guard)).cells[0].extra
        se = math.sqrt(audit["variance"] / MEAN_TRIALS)
        return {"reg_star": abs(audit["mean_reg_star"] - reg) / se}
    cells = {c.cell_id: c for c in run_experiment(ExperimentConfig(
        kind=kind, seed=1729, trials=MEAN_TRIALS, n_list=(n,),
        schedule=schedule, betti_guard=guard, gw_trials=2,
        gw_cap=10)).cells if c.n == n}
    return {col: abs(cells[f"graph_{col}"].estimate - exact / n)
            / cells[f"graph_{col}"].extra["stderr"]
            for col, exact in (("reg_star", reg), ("pd", pd))}


@pytest.mark.parametrize("lam", N6_FORMS)
@pytest.mark.parametrize("guard", [18, 2])
def test_sparse_runner_means_match_exact_values_n6(lam, guard):
    # At guard 2 every cyclic component is censored and counts 0.
    gaps = _n6_runner_gaps(lam, guard)
    assert max(gaps.values()) <= 4, gaps


def test_planted_live_vertex_drop_is_caught(monkeypatch):
    # n = 6 is the first size whose runner draws reach live_graph's relabel.
    live_graph = GnpDraw.live_graph

    def drop_highest_live(draw):
        g = live_graph(draw)
        if draw.complemented or g.n == draw.n:
            return g
        return induced_subgraph(g, range(g.n - 1))

    monkeypatch.setattr(GnpDraw, "live_graph", drop_highest_live)
    for lam in (0.25, 1.0):
        assert max(_n6_runner_gaps(lam, 18).values()) > 4, lam


def test_threshold_determinism_across_workers():
    cfg = ExperimentConfig(kind="threshold", seed=11, trials=60, n_list=(25, 40),
                           schedule=ParamSchedule.window_dense(2.0),
                           predicates=("is_4_cochordal",))
    # The dense window at n = 400 lists its non-edges, and a local predicate
    # in the list builds g beside the complement's 2-core.
    dense = ExperimentConfig(kind="threshold", seed=12, trials=40,
                             n_list=(60, 400),
                             schedule=ParamSchedule.window_dense(16.0),
                             predicates=("is_cochordal", "is_locally_cochordal",
                                         "is_4_cochordal"))
    for config in (cfg, dense):
        blobs = set()
        for workers in (1, 2, 3):
            report = run_threshold(config, workers)
            blobs.add(report.to_json(include_timing=False))
            blobs.add(report.to_csv(include_timing=False))
        assert len(blobs) == 2  # one JSON, one CSV


REPLAY_CONFIGS = (
    ExperimentConfig(kind="gw_limit", seed=13, trials=10, n_list=(200,),
                     schedule=ParamSchedule.sparse(0.5), gw_trials=200,
                     gw_cap=1000),
    ExperimentConfig(kind="variance_audit", seed=14, trials=10,
                     n_list=(60, 120), schedule=ParamSchedule.sparse(1.0)),
    # At n = 10 this budget trips on some trials, and of the others some
    # graphs are unmixed; at n = 16 every trial trips.
    ExperimentConfig(kind="unmixed_scan", seed=15, trials=14, n_list=(10, 16),
                     schedule=ParamSchedule.constant(0.15), mis_budget=8),
    ExperimentConfig(kind="cycle_calibration", seed=16, trials=30,
                     n_list=(15,), schedule=ParamSchedule.constant(0.2),
                     k_max=5, poisson_k3=True),
    ExperimentConfig(kind="lipschitz_audit", seed=17, trials=20),
)


@pytest.mark.parametrize("config", REPLAY_CONFIGS, ids=lambda c: c.kind)
def test_mapped_kinds_replay_across_workers(config):
    blobs = {run_experiment(config, workers).to_json(include_timing=False)
             for workers in (1, 2, 3)}
    assert len(blobs) == 1


@pytest.mark.parametrize("trials, workers", [(5, 2), (1, 3), (1, 1),
                                             (13, 3)])
def test_map_trials_keeps_trial_order(trials, workers):
    assert (map_trials(partial(operator.mul, 3), trials, workers)
            == [3 * t for t in range(trials)])


def test_zero_trials_map_to_nothing():
    assert experiments.chunk_ranges(0, 4) == []
    for workers in (1, 3):
        assert map_trials(abs, 0, workers) == []
        assert map_gnp_trials("threshold", 1, 5, 0.5, 0, workers,
                              GnpDraw.graph) == []


# Every substream label a G(n, p) trial loop draws under: the sampled
# runners use their kind, the battery's sandwich criterion its own label.
GNP_LABELS = experiments.SAMPLED_KINDS + ("sandwich",)


def _label_mismatches(label):
    """(p, t) of each mapped trial whose draw is not ``sample_gnp`` of the
    trial's substream; p covers the sparse, dense and non-edge forms."""
    n, seed, trials = 30, 23, 6
    bad = []
    for p in (0.02, 0.5, 0.97):
        graphs = map_gnp_trials(label, seed, n, p, trials, 2, GnpDraw.graph)
        bad += [(p, t) for t, g in enumerate(graphs)
                if g != sample_gnp(n, p, substream_seed(seed, label, n, t))]
    return bad


@pytest.mark.parametrize("label", GNP_LABELS)
def test_mapped_draws_follow_the_trial_substream(label):
    assert _label_mismatches(label) == []


def test_planted_trial_index_shift_is_caught(monkeypatch):
    def next_trial(*parts):
        return substream_seed(*parts[:-1], parts[-1] + 1)

    monkeypatch.setattr(experiments, "substream_seed", next_trial)
    for label in GNP_LABELS:
        assert len(_label_mismatches(label)) == 18


MIXED_PREDICATES = ("is_locally_cochordal", "is_cochordal",
                    "is_locally_4_cochordal", "is_4_cochordal")


def _dense_draw_disagreements():
    """Seeded dense-window draws that list their non-edges, n <= 60, where
    the threshold verdicts differ from oracles run on the complement."""
    bad = []
    listed = 0
    for n in (6, 8, 10, 24, 40, 60):
        for lam in (0.5, 4.0, 16.0, 200.0):
            p = schedule_p(ParamSchedule.window_dense(lam), n)
            for t in range(10):
                draw = draw_gnp(n, p, substream_seed(31, n, lam, t))
                if not draw.complemented:
                    continue
                listed += 1
                g = draw.graph()
                h = complement(g)
                # The subset scans are exponential; above 10 vertices the
                # polynomial oracles, checked against them on every 6-vertex
                # graph in test_chordality, stand in.
                if n <= 10:
                    chordal, c4 = naive_is_chordal(h), naive_has_induced_c4(h)
                else:
                    chordal = elimination_is_chordal(h)
                    c4 = pair_scan_has_induced_c4(h)
                expected = [is_locally_cochordal(g), chordal,
                            is_locally_4_cochordal(g), not c4]
                if _threshold_verdicts(draw, MIXED_PREDICATES) != expected:
                    bad.append((n, lam, t))
    assert listed > 150
    return bad


def test_dense_draw_verdicts_vs_oracle():
    assert _dense_draw_disagreements() == []


def test_planted_peel_fault_is_caught(monkeypatch):
    # Only is_cochordal reads the peel; is_4_cochordal counts induced
    # 4-cycles on the listed pairs as drawn.  The fault fails the draws'
    # oracle, and moves the complemented n = 7 cell's distribution.
    monkeypatch.setattr(experiments, "two_core", peel_degree_two)
    assert _dense_draw_disagreements()
    assert _threshold_gaps(7, 0.6)["is_cochordal"] > 4


def _triangles_for_c4s(k, us, vs):
    triangles = chordality.induced_c4_and_triangles(k, us, vs)[1]
    return triangles, triangles


def _without_e_adj(monkeypatch):
    # I4 = (S_all - 2 S_adj) / 2: diamonds are no longer taken out.
    for name in ("_wedge_sums", "_matrix_sums"):
        sums = getattr(chordality, name)
        monkeypatch.setattr(chordality, name,
                            lambda k, us, vs, sums=sums: (*sums(k, us, vs)[:2],
                                                          0))


@pytest.mark.parametrize("plant", [
    lambda mp: mp.setattr(experiments, "induced_c4_and_triangles",
                          _triangles_for_c4s),
    _without_e_adj], ids=("triangles", "no_e_adj"))
def test_planted_codegree_fault_is_caught(monkeypatch, plant):
    plant(monkeypatch)
    assert _dense_draw_disagreements()


def _edges_draw(n, pairs):
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return GnpDraw(n, ends[:, 0], ends[:, 1])


def _plain_draws():
    """(predicates, draw): seeded draws that list their edges, sparse-window
    and low p at n = 24, 60 and 2000, plus an empty draw, a one-edge draw, a
    two-edge matching and a 5-cycle (whose complement is a 5-cycle) at each
    n.  The local predicates, which delete every closed neighbourhood of g,
    join the list below 2000 vertices."""
    cochordal = ("is_4_cochordal", "is_cochordal")
    for n in (24, 60, 2000):
        preds = cochordal if n == 2000 else MIXED_PREDICATES
        schedules = [ParamSchedule.window_sparse(4.0),
                     ParamSchedule.window_sparse(64.0),
                     ParamSchedule.power(1.0, 1.5)]
        if n < 2000:
            # At n = 2000, p = 1/n leaves a complement of some 1000 live
            # vertices, whose MCS takes seconds.
            schedules.append(ParamSchedule.sparse(1.0))
        for schedule in schedules:
            p = schedule_p(schedule, n)
            for t in range(4 if n == 2000 else 8):
                yield preds, draw_gnp(n, p, substream_seed(37, n, p, t))
        for pairs in ([], [(5, n - 1)], [(1, 3), (2, n - 2)],
                      [(0, 1), (1, 2), (2, 3), (3, n - 1), (0, n - 1)]):
            yield preds, _edges_draw(n, pairs)


def test_plain_draw_verdicts_vs_oracle():
    # Above 60 vertices the oracles run on the complement of g's induced
    # subgraph on its live vertices and two isolated ones, which stay
    # universal in the complement: the elimination oracle takes about 2 s
    # on the complement of a 2000-vertex draw.
    seen = set()
    for preds, draw in _plain_draws():
        assert not draw.complemented
        g = draw.graph()
        live = {*draw.us.tolist(), *draw.vs.tolist()}
        if g.n > 60:
            isolated = [v for v in range(g.n) if v not in live][:2]
            g = induced_subgraph(g, [*live, *isolated])
        h = complement(g)
        by_name = {"is_cochordal": elimination_is_chordal(h),
                   "is_4_cochordal": not pair_scan_has_induced_c4(h)}
        expected = [by_name[name] if name in by_name
                    else experiments.PREDICATES[name](g) for name in preds]
        assert [experiments.PREDICATES[name](draw.graph())
                for name in preds] == expected
        assert _threshold_verdicts(draw, preds) == expected, (draw.n,
                                                               len(live))
        seen.add((by_name["is_cochordal"], by_name["is_4_cochordal"]))
    assert seen == {(True, True), (False, False), (False, True)}


def test_cochordal_verdicts_build_no_n_row_graph(monkeypatch):
    def no_graph(draw):
        raise AssertionError(f"rows built for a draw on {draw.n} vertices")

    sizes = []

    def recorded(k, us, vs):
        sizes.append(k)
        return graph_from_pairs(k, us, vs)

    draws = [draw_gnp(n, schedule_p(schedule, n), substream_seed(41, n, t))
             for n, schedule in ((2000, ParamSchedule.window_sparse(64.0)),
                                 (400, ParamSchedule.window_dense(16.0)))
             for t in range(5)]
    monkeypatch.setattr(GnpDraw, "graph", no_graph)
    monkeypatch.setattr(random_models, "graph_from_pairs", recorded)
    for draw in draws:
        _threshold_verdicts(draw, ("is_cochordal", "is_4_cochordal"))
    assert sizes == [len({*draw.us.tolist(), *draw.vs.tolist()})
                     for draw in draws if not draw.complemented]
    assert len(sizes) == 5


def _live_vertex_draws(big_rates=(0.5, 1.0, 4.0)):
    """Seeded sparse draws at n in {0, 1, 2, 3, 17} and lambda in {0.5, 1,
    4}, and at n = 2000 and each of ``big_rates``; a complemented n = 2
    draw, an edgeless draw, and a complemented draw with an isolated
    vertex."""
    draws = [draw_gnp(n, min(lam / max(n, 1), 1.0), substream_seed(61, n, t))
             for n in (0, 1, 2, 3, 17, 2000)
             for lam in (big_rates if n == 2000 else (0.5, 1.0, 4.0))
             for t in range(3)]
    complemented = draw_gnp(2, 1.0, 5)
    assert complemented.complemented
    isolated = GnpDraw(3, np.array([0, 0]), np.array([1, 2]), True)
    return draws + [complemented, draw_gnp(40, 0.0, 5), isolated]


# A 12-vertex guard keeps the cyclic components' Betti tables cheap; the
# runners' 18 takes the same route on larger ones.
@pytest.mark.parametrize("betti_guard", [0, 12])
def test_componentwise_row_on_live_vertices_equals_the_full_graph(
        betti_guard):
    for draw in _live_vertex_draws():
        reg, pd = betti.reg_pd_componentwise(draw.graph(),
                                             betti_guard=betti_guard)
        assert _componentwise_row(draw, betti_guard) == (
            reg.value, pd.value, reg.censored_components,
            reg.total_components), (draw.n, len(draw.us))


@pytest.mark.parametrize("budget", [5, 2000])
def test_unmixed_verdict_on_live_vertices_equals_the_full_graph(budget):
    # Rate 4 at n = 2000 is left out: its giant component trips any budget
    # only after seconds.
    verdicts = []
    for draw in _live_vertex_draws(big_rates=(0.5, 1.0)):
        try:
            expected = cover_profile(draw.graph(), budget).unmixed
        except BudgetExceededError:
            expected = None
        verdicts.append(expected)
        assert _unmixed_verdict(draw, budget) == expected, draw.n
    assert {True, False, None} <= set(verdicts)


def test_unmixed_verdict_counts_a_trip_on_a_deep_search():
    # This draw's giant component has maximal independent sets too large
    # for a search one frame deeper per vertex: it must trip its budget,
    # not the interpreter's recursion limit.
    n = 3000
    draw = draw_gnp(n, 2 / n, substream_seed(1, "unmixed_scan", n, 0))
    assert _unmixed_verdict(draw, 50) is None


def test_no_sparse_runner_builds_n_rows(monkeypatch):
    def no_graph(draw):
        raise AssertionError(f"rows built for a draw on {draw.n} vertices")

    sizes = []

    def recorded(k, us, vs):
        sizes.append(k)
        return graph_from_pairs(k, us, vs)

    monkeypatch.setattr(GnpDraw, "graph", no_graph)
    monkeypatch.setattr(random_models, "graph_from_pairs", recorded)
    n = 2000
    configs = (
        ExperimentConfig(kind="gw_limit", seed=3, trials=4, n_list=(n,),
                         schedule=ParamSchedule.sparse(0.5), gw_trials=20,
                         gw_cap=100),
        ExperimentConfig(kind="variance_audit", seed=3, trials=4,
                         n_list=(n,), schedule=ParamSchedule.sparse(1.0)),
        ExperimentConfig(kind="unmixed_scan", seed=3, trials=4, n_list=(n,),
                         schedule=ParamSchedule.sparse(0.5)),
        ExperimentConfig(kind="threshold", seed=3, trials=4, n_list=(n,),
                         schedule=ParamSchedule.window_sparse(64.0),
                         predicates=("is_cochordal", "is_4_cochordal")),
        ExperimentConfig(kind="cycle_calibration", seed=3, trials=4,
                         n_list=(n,), schedule=ParamSchedule.sparse(1.0),
                         k_max=5))
    for config in configs:
        before = len(sizes)
        run_experiment(config, workers=1)
        built = sizes[before:]
        if config.kind != "cycle_calibration":  # it reads pairs, no rows
            assert len(built) == config.trials, config.kind
        assert all(k < n for k in built), (config.kind, built)


def test_report_csv_contract():
    cfg = ExperimentConfig(kind="threshold", seed=5, trials=10, n_list=(8,),
                           schedule=ParamSchedule.constant(0.3),
                           predicates=("is_cochordal",))
    report = run_threshold(cfg)
    lines = report.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(report.cells)
    obj = json.loads(report.to_json())
    assert obj["experiment"] == "threshold"
    assert obj["version"]
    cell = obj["cells"][0]
    for key in ("experiment", "n", "cell_id", "estimate", "ci_lo", "ci_hi",
                "theory", "censored", "guard_trips", "trials", "seconds"):
        assert key in cell


def test_unmixed_scan_small():
    cfg = ExperimentConfig(kind="unmixed_scan", seed=9, trials=40,
                           n_list=(12,), schedule=ParamSchedule.constant(0.0))
    cell = run_unmixed_scan(cfg).cells[0]
    assert cell.estimate == 1.0  # edgeless graphs are unmixed by convention
    cfg = ExperimentConfig(kind="unmixed_scan", seed=9, trials=60,
                           n_list=(24,), schedule=ParamSchedule.constant(0.5))
    cell = run_unmixed_scan(cfg).cells[0]
    assert cell.estimate <= 0.1
    assert cell.guard_trips == 0
    # Every trial trips the budget: no estimate, written as null.
    cfg = ExperimentConfig(kind="unmixed_scan", seed=9, trials=5,
                           n_list=(12,), schedule=ParamSchedule.constant(0.5),
                           mis_budget=1)
    cell = _strict_json(run_unmixed_scan(cfg).to_json())["cells"][0]
    assert cell["estimate"] is None
    assert (cell["guard_trips"], cell["trials"]) == (5, 0)


def _unmixed_gap(n, p):
    """(estimate - P_n(p)) / se of the unmixed_scan cell of G(n, p), with
    P_n(p) from every labeled n-vertex graph's naive cover sizes."""
    cell = run_experiment(ExperimentConfig(
        kind="unmixed_scan", seed=1729, trials=EXACT_TRIALS, n_list=(n,),
        schedule=ParamSchedule.constant(p))).cells[0]
    exact = exact_gnp_probability(unmixed_counts_by_edges(n), p)
    return (cell.estimate - exact) / math.sqrt(exact * (1 - exact)
                                               / cell.trials)


@pytest.mark.parametrize("p", [0.04, 0.3])
def test_unmixed_scan_matches_exact_probability(p):
    assert abs(_unmixed_gap(5, p)) <= 4


def test_planted_last_component_flag_is_caught(monkeypatch):
    # Unmixedness is the AND over components; this profile keeps only the
    # last component's flag.
    def last_flag_only(g, budget):
        unmixed = True
        for comp in connected_components(g).masks:
            lo, hi = naive_cover_sizes(induced_subgraph_mask(g, comp))
            unmixed = lo == hi
        return CoverProfile(0, 0, unmixed)

    monkeypatch.setattr(experiments, "cover_profile", last_flag_only)
    assert abs(_unmixed_gap(5, 0.3)) > 4


def test_cycle_calibration_small():
    cfg = ExperimentConfig(kind="cycle_calibration", seed=21, trials=4000,
                           n_list=(20,), schedule=ParamSchedule.constant(0.15),
                           k_max=5, poisson_k3=True)
    report = run_cycle_calibration(cfg, workers=2)
    for k in (4, 5):
        cell = next(c for c in report.cells
                    if c.cell_id == f"mean_chordless_{k}")
        assert cell.extra["gap_se"] <= 4.0
    tv_cell = next(c for c in report.cells
                   if c.cell_id == "triangle_poisson_tv")
    assert 0 <= tv_cell.estimate <= 1


def _graph_cycle_row(draw, k_max, want_k3):
    """The cycle row counted on the built graph's edges, not on the draw's
    pairs."""
    g = draw.graph()
    return (count_chordless_cycles(g, k_max),
            count_triangles(g) if want_k3 else None)


@pytest.mark.parametrize("form, n, schedule", [
    ("dense", 60, ParamSchedule.constant(0.1)),
    ("non_edges", 40, ParamSchedule.constant(0.99)),
    ("sparse", 500, ParamSchedule.sparse(1.0))],
    ids=("dense", "non_edges", "sparse"))
def test_cycle_calibration_pair_route_matches_graph_route(monkeypatch, form,
                                                          n, schedule):
    cfg = ExperimentConfig(kind="cycle_calibration", seed=47, trials=120,
                           n_list=(n,), schedule=schedule, k_max=4,
                           poisson_k3=True)
    p = schedule_p(schedule, n)
    draw = draw_gnp(n, p, substream_seed(47, "cycle_calibration", n, 0))
    assert form == ("non_edges" if draw.complemented else
                    "sparse" if p < _SPARSE_GNP_THRESHOLD else "dense")
    reports = [run_cycle_calibration(cfg, workers).to_json(
        include_timing=False) for workers in (1, 2)]
    monkeypatch.setattr(experiments, "_cycle_row", _graph_cycle_row)
    expected = run_cycle_calibration(cfg, 1).to_json(include_timing=False)
    assert reports == [expected, expected]


@pytest.mark.parametrize("k_max", [4, 6])
@pytest.mark.parametrize("poisson_k3", [False, True])
def test_cycle_calibration_seconds_sum_to_elapsed(monkeypatch, k_max,
                                                  poisson_k3):
    elapsed = {}
    sampled_rows = experiments._sampled_rows

    def recorded(config, workers, fn):
        for n, p, rows, seconds in sampled_rows(config, workers, fn):
            elapsed[n] = seconds
            yield n, p, rows, seconds

    monkeypatch.setattr(experiments, "_sampled_rows", recorded)
    cfg = ExperimentConfig(kind="cycle_calibration", seed=5, trials=30,
                           n_list=(8, 12),
                           schedule=ParamSchedule.constant(0.4),
                           k_max=k_max, poisson_k3=poisson_k3)
    report = run_cycle_calibration(cfg)
    for n in (8, 12):
        cells = [c for c in report.cells if c.n == n]
        assert len(cells) == k_max - 3 + poisson_k3
        assert math.fsum(c.seconds for c in cells) == pytest.approx(
            elapsed[n], rel=1e-12)


def test_tv_distance_poisson():
    assert _tv_distance_poisson([0] * 100, 0.0) == 0.0
    # All mass at 0 against Poisson(1): TV = 1 - e^{-1}.
    assert _tv_distance_poisson([0] * 1000, 1.0) == pytest.approx(
        1 - math.exp(-1), abs=1e-12)


def test_lipschitz_audit_clean():
    cfg = ExperimentConfig(kind="lipschitz_audit", seed=2, trials=60)
    report = run_lipschitz_audit(cfg, workers=2)
    assert not report.has_witness
    assert all(c.estimate == 0 for c in report.cells)


def test_lipschitz_trials_build_one_engine_each(monkeypatch):
    built = []

    class CountingEngine(betti.HomologyEngine):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(betti, "HomologyEngine", CountingEngine)
    assert map_trials(partial(_lipschitz_trial, 3), 20, 1) == [[]] * 20
    assert len(built) == 20
    built.clear()
    assert map_trials(partial(_additivity_trial, 3), 20, 1) == [[]] * 20
    assert len(built) == 20


def test_trial_tables_read_the_right_subgraphs(monkeypatch):
    grounds_seen = []
    real = experiments.induced_betti_tables

    def checked(g, grounds, *args):
        tables = real(g, grounds, *args)
        for u, table in zip(grounds, tables):
            assert table == betti.betti_table(induced_subgraph_mask(g, u))
        grounds_seen.append(((1 << g.n) - 1, grounds))
        return tables

    monkeypatch.setattr(experiments, "induced_betti_tables", checked)
    map_trials(partial(_lipschitz_trial, 3), 10, 1)
    for full, (whole, minus_v) in grounds_seen:
        assert whole == full and minus_v & ~full == 0
        assert (full ^ minus_v).bit_count() == 1
    grounds_seen.clear()
    map_trials(partial(_additivity_trial, 3), 10, 1)
    for full, (whole, a, b) in grounds_seen:
        assert whole == full and a & b == 0 and a | b == full
        assert a & (a + 1) == 0 and 2 <= a.bit_count() <= 6  # the low a.n


def test_gw_limit_small_run():
    cfg = ExperimentConfig(kind="gw_limit", seed=4, trials=20, n_list=(300,),
                           schedule=ParamSchedule.sparse(0.5),
                           gw_trials=4000, gw_cap=10 ** 4)
    report = run_gw_limit(cfg, workers=2)
    ids = {c.cell_id for c in report.cells}
    assert {"tree_induced_matching", "tree_pd", "tree_depth",
            "graph_reg_star", "graph_pd", "graph_depth"} <= ids
    graph_pd = next(c for c in report.cells if c.cell_id == "graph_pd")
    graph_depth = next(c for c in report.cells if c.cell_id == "graph_depth")
    assert graph_pd.estimate + graph_depth.estimate == pytest.approx(1.0)
    # Loose agreement gate at this small scale.
    assert graph_pd.extra["gap_combined_se"] < 12
    # Every tree censored: no tree-side estimate, written as null.
    cfg = ExperimentConfig(kind="gw_limit", seed=2, trials=2, n_list=(20,),
                           schedule=ParamSchedule.sparse(1.0),
                           gw_trials=3, gw_cap=1)
    cells = _strict_json(run_gw_limit(cfg).to_json())["cells"]
    tree_pd = next(c for c in cells if c["cell_id"] == "tree_pd")
    assert tree_pd["estimate"] is None
    assert (tree_pd["censored"], tree_pd["trials"]) == (3, 0)


def test_gw_limit_computes_each_value_once(monkeypatch):
    import eideal.asymptotics as asymptotics
    import eideal.betti as betti
    from eideal.graph_core import connected_components
    from eideal.random_models import sample_gnp, substream_seed

    grow_gw_tree = asymptotics.grow_gw_tree
    betti_table = betti.betti_table
    trees = []
    tables = []

    def counted_tree(*args, **kwargs):
        trees.append(args)
        return grow_gw_tree(*args, **kwargs)

    def counted_table(g, *args, **kwargs):
        tables.append(g)
        return betti_table(g, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "grow_gw_tree", counted_tree)
    monkeypatch.setattr(betti, "betti_table", counted_table)
    cfg = ExperimentConfig(kind="gw_limit", seed=8, trials=12, n_list=(150,),
                           schedule=ParamSchedule.sparse(1.0), betti_guard=10,
                           gw_trials=40, gw_cap=1000)
    run_gw_limit(cfg, workers=1)
    assert len(trees) == cfg.gw_trials
    cyclic = 0
    for t in range(cfg.trials):
        g = sample_gnp(150, 1.0 / 150, substream_seed(8, "gw_limit", 150, t))
        parts = connected_components(g)
        cyclic += sum(comp.edge_count >= comp.n and comp.n <= cfg.betti_guard
                      for comp in (induced_subgraph_mask(g, mask)
                                   for mask in parts.masks))
    assert cyclic > 0
    assert len(tables) == cyclic


def test_variance_audit_zero_p():
    cfg = ExperimentConfig(kind="variance_audit", seed=6, trials=30,
                           n_list=(40,), schedule=ParamSchedule.sparse(1.0))
    report = run_variance_audit(cfg)
    assert report.cells[0].estimate >= 0.0


def test_run_experiment_dispatch():
    cfg = ExperimentConfig(kind="threshold", seed=5, trials=5, n_list=(6,),
                           schedule=ParamSchedule.constant(0.5),
                           predicates=("is_cochordal",))
    report = run_experiment(cfg, workers=1)
    assert report.kind == "threshold"


def test_froberg_audit_small():
    from eideal.corpus import exhaustive_flag_audit, random_flag_audit

    checked, mismatches = exhaustive_flag_audit(4)
    assert checked == 64 and mismatches == []
    assert random_flag_audit(7, 25, seed=77) == []
    assert random_flag_audit(8, 10, seed=78) == []
    with pytest.raises(ValueError, match="n must be <= 11"):
        random_flag_audit(12, 1, seed=79)
