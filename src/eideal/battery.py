"""The acceptance battery: one callable per criterion, each returning a
pass/fail verdict with its measured numbers.

Every criterion pins its scale, seed handling and tolerance here; the pytest
acceptance module and the command-line battery both call these functions, so
there is exactly one definition of "passing".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

from . import chordality
from .asymptotics import (karp_sipser_upper, prob_lp_dense_window,
                          prob_lr_dense_window, prob_lr_sparse_window)
from .betti import betti_table, invariants, reg_pd_componentwise
from .comb_invariants import (induced_matching_number, matching_number,
                              tree_induced_matching)
from .experiments import (ExperimentConfig, map_gnp_trials, map_trials,
                          run_cycle_calibration, run_froberg_audit,
                          run_gw_limit, run_lipschitz_audit, run_threshold,
                          run_unmixed_scan, run_variance_audit)
from .graph_core import (build_graph, connected_components, cycle_graph,
                         enumerate_graphs, graph_from_edge_mask)
from .random_models import GnpDraw, ParamSchedule, rng_for, substream_seed

DEFAULT_SEED = 1729


@dataclass
class CriterionResult:
    name: str
    passed: bool
    summary: str
    numbers: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.summary}"


# -- 1 ----------------------------------------------------------------------

def criterion_froberg_exhaustive(seed: int = DEFAULT_SEED,
                                 workers: int = 1) -> CriterionResult:
    """Linear resolution <=> cochordal and linear presentation <=>
    4-cochordal on all 2^21 7-vertex graphs plus random 8/9 (froberg_audit)."""
    report = run_froberg_audit(ExperimentConfig(kind="froberg_audit",
                                                seed=seed), workers)
    checked = report.cells[0].trials
    return CriterionResult(
        "froberg_exhaustive", checked == 1 << 21 and not report.witnesses,
        f"{checked} graphs at n=7 plus 180 random at n=8,9; "
        f"{len(report.witnesses)} disagreements",
        {"checked_n7": checked, **{f"mismatches_n{c.n}": int(c.estimate)
                                   for c in report.cells}})


# -- 2 ----------------------------------------------------------------------

def criterion_c5_example(seed: int = DEFAULT_SEED,
                         workers: int = 1) -> CriterionResult:
    """Exact table and derived invariants of the 5-cycle."""
    table = betti_table(cycle_graph(5))
    inv = invariants(cycle_graph(5))
    expected = {(1, 2): 5, (2, 3): 5, (3, 5): 1}
    ok = (table.entries == expected and inv.regularity_ideal == 3
          and inv.pd_quotient == 3 and inv.depth_quotient == 2)
    return CriterionResult(
        "c5_worked_example", ok,
        f"table={dict(sorted(table.entries.items()))} reg(I)="
        f"{inv.regularity_ideal} pd={inv.pd_quotient} depth={inv.depth_quotient}",
        {"entries": {f"{i},{j}": r for (i, j), r in table.entries.items()}})


# -- 3 ----------------------------------------------------------------------

def _random_forest_edges(n: int, rng) -> list:
    return [(int(rng.integers(0, i)), i) for i in range(1, n)
            if rng.random() > 0.25]


def _forest_reg_mismatch(seed: int, t: int) -> bool:
    rng = rng_for(substream_seed(seed, "forest_reg", t))
    n = int(rng.integers(1, 15))
    f = build_graph(n, _random_forest_edges(n, rng))
    reg_ideal = betti_table(f).regularity_quotient() + 1
    return reg_ideal != tree_induced_matching(f) + 1


def criterion_forest_regularity(seed: int = DEFAULT_SEED,
                                workers: int = 1) -> CriterionResult:
    """reg(I) = nu + 1 on 500 random forests with at most 14 vertices,
    homology table against tree DP."""
    trials = 500
    bad = sum(map_trials(partial(_forest_reg_mismatch, seed), trials,
                         workers))
    return CriterionResult(
        "forest_regularity", bad == 0,
        f"{trials} forests, {bad} mismatches", {"mismatches": bad})


# -- 4 ----------------------------------------------------------------------

def criterion_lipschitz(seed: int = DEFAULT_SEED,
                        workers: int = 1) -> CriterionResult:
    """Vertex-deletion bounds and component additivity, zero violations."""
    config = ExperimentConfig(kind="lipschitz_audit", seed=seed, trials=1000)
    report = run_lipschitz_audit(config, workers)
    cells = {c.cell_id: c for c in report.cells}
    lip = cells["vertex_deletion_violations"].estimate
    add = cells["additivity_violations"].estimate
    ok = lip == 0 and add == 0 and not report.has_witness
    return CriterionResult(
        "lipschitz_and_additivity", ok,
        f"1000 deletion pairs: {int(lip)} violations; "
        f"{cells['additivity_violations'].trials} disconnected graphs: "
        f"{int(add)} additivity violations",
        {"deletion_violations": lip, "additivity_violations": add})


# -- 5 ----------------------------------------------------------------------

def criterion_dense_window(seed: int = DEFAULT_SEED,
                           workers: int = 1) -> CriterionResult:
    """Dense critical window at n=400, 1e4 trials: presentation probability
    near exp(-2) at rate 16, resolution probability near the truncated
    series value at rate 0.5; both within 0.02."""
    trials = 10 ** 4
    cfg_lp = ExperimentConfig(kind="threshold", seed=seed, trials=trials,
                              n_list=(400,),
                              schedule=ParamSchedule.window_dense(16.0),
                              predicates=("is_4_cochordal",))
    rep_lp = run_threshold(cfg_lp, workers)
    cell_lp = rep_lp.cells[0]
    gap_lp = abs(cell_lp.estimate - prob_lp_dense_window(16.0).value)

    cfg_lr = ExperimentConfig(kind="threshold", seed=seed, trials=trials,
                              n_list=(400,),
                              schedule=ParamSchedule.window_dense(0.5),
                              predicates=("is_cochordal",))
    rep_lr = run_threshold(cfg_lr, workers)
    cell_lr = rep_lr.cells[0]
    theory_lr = prob_lr_dense_window(0.5)
    gap_lr = abs(cell_lr.estimate - theory_lr.value)

    ok = gap_lp <= 0.02 and gap_lr <= 0.02
    return CriterionResult(
        "dense_window", ok,
        f"P(lp)={cell_lp.estimate:.4f} vs {cell_lp.theory:.4f} "
        f"(gap {gap_lp:.4f}); P(lr)={cell_lr.estimate:.4f} vs "
        f"{theory_lr.value:.4f} (gap {gap_lr:.4f}); tol 0.02",
        {"lp_estimate": cell_lp.estimate, "lp_theory": cell_lp.theory,
         "lr_estimate": cell_lr.estimate, "lr_theory": theory_lr.value,
         "lr_truncation_error": theory_lr.truncation_error})


# -- 6 ----------------------------------------------------------------------

def criterion_sparse_window(seed: int = DEFAULT_SEED,
                            workers: int = 1) -> CriterionResult:
    """Sparse critical window at rate 4, n=2000, 1e4 trials: both predicate
    probabilities near 2/e and within 0.01 of each other."""
    trials = 10 ** 4
    cfg = ExperimentConfig(kind="threshold", seed=seed, trials=trials,
                           n_list=(2000,),
                           schedule=ParamSchedule.window_sparse(4.0),
                           predicates=("is_4_cochordal", "is_cochordal"))
    report = run_threshold(cfg, workers)
    cells = {c.cell_id: c for c in report.cells}
    est4 = cells["is_4_cochordal"].estimate
    est_co = cells["is_cochordal"].estimate
    theory = prob_lr_sparse_window(4.0).value
    ok = abs(est4 - theory) <= 0.02 and abs(est4 - est_co) <= 0.01
    return CriterionResult(
        "sparse_window", ok,
        f"P(4co)={est4:.4f} vs {theory:.4f}; |P(4co)-P(co)|="
        f"{abs(est4 - est_co):.4f} (tols 0.02 / 0.01)",
        {"estimate_4co": est4, "estimate_co": est_co, "theory": theory})


# -- 7 ----------------------------------------------------------------------

def criterion_endpoints(seed: int = DEFAULT_SEED,
                        workers: int = 1) -> CriterionResult:
    """Double phase transition endpoints at n=500 over 1e3 trials."""
    trials = 10 ** 3
    n = 500
    checks = []
    for schedule, low, high in (
            (ParamSchedule.power(1.0, 2.5), 0.99, 1.0),
            (ParamSchedule.constant(0.5), 0.0, 0.01),
            (ParamSchedule.complement_power(1.0, 1.5), 0.99, 1.0)):
        cfg = ExperimentConfig(kind="threshold", seed=seed, trials=trials,
                               n_list=(n,), schedule=schedule,
                               predicates=("is_4_cochordal",))
        est = run_threshold(cfg, workers).cells[0].estimate
        checks.append((schedule.describe(), est, low, high,
                       low <= est <= high))
    ok = all(c[4] for c in checks)
    desc = "; ".join(f"{s}: {e:.3f} in [{lo},{hi}]"
                     for s, e, lo, hi, _ in checks)
    return CriterionResult("double_transition_endpoints", ok, desc,
                           {"checks": [(s, e) for s, e, *_ in checks]})


# -- 8 ----------------------------------------------------------------------

def criterion_cycle_calibration(seed: int = DEFAULT_SEED,
                                workers: int = 1) -> CriterionResult:
    """Chordless 4-cycle means within 4 sigma of the closed form at
    (60, 0.1) and (30, 0.3); exact rational equality separately tested on
    exhaustive corpora (m = 4, 5)."""
    from fractions import Fraction

    gaps = {}
    ok = True
    for n, q in ((60, 0.1), (30, 0.3)):
        cfg = ExperimentConfig(kind="cycle_calibration", seed=seed,
                               trials=10 ** 4, n_list=(n,),
                               schedule=ParamSchedule.constant(q), k_max=4)
        report = run_cycle_calibration(cfg, workers)
        cell = next(c for c in report.cells if c.cell_id == "mean_chordless_4")
        gaps[f"n{n}_q{q}"] = cell.extra["gap_se"]
        ok = ok and cell.extra["gap_se"] <= 4.0

    exact_ok = True
    for m in (4, 5):
        pairs = m * (m - 1) // 2
        # One count per graph at k_max = m gives every length k <= m.
        counted = [(g.edge_count, chordality.count_chordless_cycles(g, m))
                   for g in enumerate_graphs(m)]
        for qf in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for k in range(4, m + 1):
                acc = Fraction(0)
                for e, by_length in counted:
                    acc += (qf ** e * (1 - qf) ** (pairs - e) * by_length[k])
                formula = (Fraction(math.factorial(k - 1), 2) * math.comb(m, k)
                           * qf ** k * (1 - qf) ** (math.comb(k, 2) - k))
                exact_ok = exact_ok and acc == formula
    ok = ok and exact_ok
    gap_text = ", ".join(f"{k}={v:.2f}se" for k, v in gaps.items())
    return CriterionResult(
        "cycle_calibration", ok,
        f"mean gaps {gap_text} (tol 4se); exact m=4,5 equality: {exact_ok}",
        {"gaps_se": gaps, "exact_equality": exact_ok})


# -- 9 ----------------------------------------------------------------------

def criterion_gw_limit(seed: int = DEFAULT_SEED,
                       workers: int = 1) -> CriterionResult:
    """Graph-side means at rate 0.5, n=2000 (200 trials) against tree-side
    estimates (1e5 trees) within 4 combined standard errors, for the
    regularity, projective dimension and depth columns."""
    cfg = ExperimentConfig(kind="gw_limit", seed=seed, trials=200,
                           n_list=(2000,),
                           schedule=ParamSchedule.sparse(0.5),
                           gw_trials=10 ** 5, gw_cap=10 ** 5)
    report = run_gw_limit(cfg, workers)
    cells = {c.cell_id: c for c in report.cells}
    ok = True
    gaps = {}
    max_censor = 0.0
    for col in ("reg_star", "pd", "depth"):
        cell = cells[f"graph_{col}"]
        gaps[col] = cell.extra["gap_combined_se"]
        max_censor = max(max_censor, cell.extra["censored_component_fraction"])
        ok = ok and cell.extra["gap_combined_se"] <= 4.0
    ok = ok and max_censor < 0.001
    gap_text = ", ".join(f"{k}={v:.2f}" for k, v in gaps.items())
    return CriterionResult(
        "gw_limit_agreement", ok,
        f"gaps in combined se: {gap_text} (tol 4); censored component "
        f"fraction {max_censor:.2e} (tol 1e-3)",
        {"gaps": gaps, "censored_fraction": max_censor})


# -- 10 ---------------------------------------------------------------------

def _sandwich_row(draw: GnpDraw) -> tuple:
    g = draw.graph()
    parts = connected_components(g)
    reg = reg_pd_componentwise(g, parts=parts)[0]
    solved = {}
    nu = induced_matching_number(g, parts=parts, memo=solved)
    # Censored components carry reg* somewhere in [nu, M]; accumulating
    # those envelopes keeps both inequality checks conservative.  Their nu
    # is read from the search's memo, their M from one matching of them all.
    cens = sum(reg.censored)  # disjoint masks: the sum is the union
    cens_lo = sum(solved[mask] for mask in reg.censored)
    cens_hi = matching_number(g, cens)
    match = matching_number(g, ~cens) + cens_hi
    return (reg.value, len(parts), len(parts.masks), nu, match, cens_lo,
            cens_hi, reg.censored_components)


def criterion_sandwich(seed: int = DEFAULT_SEED,
                       workers: int = 1) -> CriterionResult:
    """Growth-rate sandwich at rate 1, n=2000, 200 trials: component-count
    lower bound and the matching fixed-point upper bound each hold per trial
    in at least 99% of trials; the deterministic inequalities hold always."""
    lam, n, trials = 1.0, 2000, 200
    p = lam / n
    upper = karp_sipser_upper(lam).value
    rows = map_gnp_trials("sandwich", seed, n, p, trials, workers,
                          _sandwich_row)
    lower_ok = 0
    upper_ok = 0
    det_ok = 0
    literal_ok = 0
    for (reg_star, comps, nontrivial, nu, match, clo, chi, _cens) in rows:
        lower_bound = comps / n - math.exp(-lam)
        if lower_bound <= (reg_star + clo) / n:
            lower_ok += 1
        if (reg_star + chi) / n <= upper:
            upper_ok += 1
        if nontrivial <= nu <= match:
            det_ok += 1
        if nontrivial / n - math.exp(-lam) <= (reg_star + clo) / n:
            literal_ok += 1
    ok = (lower_ok >= 0.99 * trials and upper_ok >= 0.99 * trials
          and det_ok == trials and literal_ok == trials)
    return CriterionResult(
        "regularity_sandwich", ok,
        f"lower bound ok {lower_ok}/{trials}, upper {upper_ok}/{trials} "
        f"(gate 99%); deterministic chain {det_ok}/{trials}",
        {"lower_ok": lower_ok, "upper_ok": upper_ok, "det_ok": det_ok,
         "ks_upper": upper})


# -- 11 ---------------------------------------------------------------------

def criterion_unmixed_regimes(seed: int = DEFAULT_SEED,
                              workers: int = 1) -> CriterionResult:
    """The five unmixedness regimes at their desk-scale gates."""
    regimes = [
        ("alpha_1.75", ParamSchedule.power(1.0, 1.75), 10 ** 4,
         lambda f: f >= 0.95),
        ("alpha_1.2", ParamSchedule.power(1.0, 1.2), 2000,
         lambda f: f <= 0.05),
        ("p_0.5", ParamSchedule.constant(0.5), 50, lambda f: f <= 0.01),
        ("co_alpha_0.4", ParamSchedule.complement_power(1.0, 0.4), 300,
         lambda f: f <= 0.05),
        ("co_alpha_2.5", ParamSchedule.complement_power(1.0, 2.5), 200,
         lambda f: f >= 0.99),
    ]
    results = {}
    ok = True
    for name, schedule, n, gate in regimes:
        cfg = ExperimentConfig(kind="unmixed_scan", seed=seed, trials=200,
                               n_list=(n,), schedule=schedule)
        cell = run_unmixed_scan(cfg, workers).cells[0]
        results[name] = cell.estimate
        ok = ok and gate(cell.estimate) and cell.guard_trips == 0
    desc = ", ".join(f"{k}={v:.3f}" for k, v in results.items())
    return CriterionResult("unmixedness_regimes", ok,
                           f"unmixed fractions: {desc}", results)


# -- 12 ---------------------------------------------------------------------

def criterion_variance(seed: int = DEFAULT_SEED,
                       workers: int = 1) -> CriterionResult:
    """Var(reg*)/n <= 8 at rate 1 for n in {100, 200, 400}, 500 trials."""
    cfg = ExperimentConfig(kind="variance_audit", seed=seed, trials=500,
                           n_list=(100, 200, 400),
                           schedule=ParamSchedule.sparse(1.0))
    report = run_variance_audit(cfg, workers)
    ratios = {c.n: c.estimate for c in report.cells}
    ok = all(v <= 8.0 for v in ratios.values())
    desc = ", ".join(f"n={n}: {v:.3f}" for n, v in ratios.items())
    return CriterionResult("variance_audit", ok,
                           f"Var(reg*)/n = {desc} (gate 8)", ratios)


# -- 13 ---------------------------------------------------------------------

def criterion_poisson_triangles(seed: int = DEFAULT_SEED,
                                workers: int = 1) -> CriterionResult:
    """Triangle-count distribution at rate 1, n=500, 1e4 trials within total
    variation 0.05 of Poisson(1/6)."""
    cfg = ExperimentConfig(kind="cycle_calibration", seed=seed,
                           trials=10 ** 4, n_list=(500,),
                           schedule=ParamSchedule.sparse(1.0), k_max=4,
                           poisson_k3=True)
    report = run_cycle_calibration(cfg, workers)
    cell = next(c for c in report.cells if c.cell_id == "triangle_poisson_tv")
    ok = cell.estimate <= 0.05
    return CriterionResult(
        "poisson_triangles", ok,
        f"TV distance {cell.estimate:.4f} to Poisson({cell.extra['poisson_mean']:.4f}) "
        f"(tol 0.05)", {"tv": cell.estimate})


# -- 14 ---------------------------------------------------------------------

def criterion_determinism(seed: int = DEFAULT_SEED,
                          workers: int = 1) -> CriterionResult:
    """Replaying an experiment must give byte-identical reports at any
    worker count."""
    cfg = ExperimentConfig(kind="threshold", seed=seed, trials=400,
                           n_list=(60, 120),
                           schedule=ParamSchedule.window_dense(4.0),
                           predicates=("is_4_cochordal", "is_cochordal"))
    blobs = []
    for w in (1, 2, max(4, workers)):
        report = run_threshold(cfg, w)
        blobs.append((report.to_json(include_timing=False),
                      report.to_csv(include_timing=False)))
    ok = all(b == blobs[0] for b in blobs[1:])
    return CriterionResult(
        "determinism_replay", ok,
        f"threshold replay at workers 1/2/{max(4, workers)}: "
        f"{'byte-identical' if ok else 'MISMATCH'}",
        {"worker_counts": [1, 2, max(4, workers)]})


CRITERIA = [
    criterion_froberg_exhaustive,
    criterion_c5_example,
    criterion_forest_regularity,
    criterion_lipschitz,
    criterion_dense_window,
    criterion_sparse_window,
    criterion_endpoints,
    criterion_cycle_calibration,
    criterion_gw_limit,
    criterion_sandwich,
    criterion_unmixed_regimes,
    criterion_variance,
    criterion_poisson_triangles,
    criterion_determinism,
]


def run_battery(seed: int = DEFAULT_SEED, workers: int = 1,
                full: bool = False, echo=print) -> list[CriterionResult]:
    """Run every acceptance criterion, printing one PASS/FAIL line each."""
    runs = [partial(c, seed=seed, workers=workers) for c in CRITERIA]
    if full:
        runs.append(partial(_full_field_sweep, workers))
    results = []
    for run in runs:
        t0 = time.perf_counter()
        result = run()
        result.seconds = time.perf_counter() - t0
        results.append(result)
        echo(result.line())
    return results


def _full_field_sweep(workers: int) -> CriterionResult:
    """Optional deep check: tables over the rationals and GF(2) agree on an
    extended corpus (exhaustive through 6 vertices, heavy random at 7)."""
    bad = 0
    for n in (4, 5, 6):
        for g in enumerate_graphs(n):
            if betti_table(g, "q").entries != betti_table(g, "f2").entries:
                bad += 1
    rng = rng_for(9, "field_sweep")
    for _ in range(2000):
        g = graph_from_edge_mask(7, int(rng.integers(0, 1 << 21)))
        if betti_table(g, "q").entries != betti_table(g, "f2").entries:
            bad += 1
    return CriterionResult("field_independence_sweep", bad == 0,
                           f"{bad} disagreements", {"bad": bad})
