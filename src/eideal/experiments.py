"""Reproducible Monte Carlo campaigns over random edge ideals.

Workers share nothing but the immutable config; every trial draws its own
substream from hash(seed, experiment, n, trial); per-trial values are merged
in trial order, so reports are bit-identical for any worker count.  Every
trial loop is ``map_trials``, and every G(n, p) trial loop is
``map_gnp_trials`` over it: a runner supplies only the function of one trial.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from functools import partial

from . import __version__
from .asymptotics import (expected_chordless_cycles, gw_limit_estimate,
                          prob_lp_dense_window, prob_lr_dense_window,
                          prob_lr_sparse_window)
from .betti import (DEFAULT_BETTI_GUARD, MAX_SCAN_VERTICES,
                    induced_betti_tables, reg_pd_componentwise)
from .chordality import (cycle_counts_from_pairs, induced_c4_and_triangles,
                         is_4_cochordal, is_chordal, is_cochordal,
                         is_locally_4_cochordal, is_locally_cochordal,
                         two_core)
from .comb_invariants import (DEFAULT_MIS_BUDGET, BudgetExceededError,
                              cover_profile)
from .graph_core import disjoint_union, max_degree, to_hex_dump
from .random_models import (GnpDraw, ParamSchedule, check_seed, draw_gnp,
                            rng_for, sample_gnp, schedule_p, substream_seed)

EXPERIMENT_KINDS = ("threshold", "gw_limit", "unmixed_scan",
                    "cycle_calibration", "lipschitz_audit", "variance_audit",
                    "froberg_audit")
# Kinds that sample graphs along a schedule at each n of n_list.
SAMPLED_KINDS = ("threshold", "gw_limit", "unmixed_scan", "cycle_calibration",
                 "variance_audit")

# Fields only one kind reads: the others neither write nor accept them.
KIND_FIELDS = {"cycle_calibration": ("k_max", "poisson_k3"),
               "gw_limit": ("gw_cap", "gw_trials"),
               "froberg_audit": ("exhaustive_n", "random_audit")}

PREDICATES = {
    "is_cochordal": is_cochordal,
    "is_4_cochordal": is_4_cochordal,
    "is_locally_cochordal": is_locally_cochordal,
    "is_locally_4_cochordal": is_locally_4_cochordal,
}

WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Score interval; stable at proportions near 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z2 = WILSON_Z * WILSON_Z
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (WILSON_Z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


class ConfigError(ValueError):
    """Invalid experiment config; message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    trials: int = 100
    n_list: tuple[int, ...] = ()
    schedule: ParamSchedule | None = None
    predicates: tuple[str, ...] = ()
    k_max: int = 6
    poisson_k3: bool = False
    betti_guard: int = DEFAULT_BETTI_GUARD
    mis_budget: int = DEFAULT_MIS_BUDGET
    gw_cap: int = 10 ** 5
    gw_trials: int = 10 ** 5
    exhaustive_n: int = 7
    random_audit: tuple[tuple[int, int], ...] = ((8, 120), (9, 60))

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "seed": self.seed,
                     "trials": self.trials}
        if self.n_list:
            obj["n_list"] = list(self.n_list)
        if self.schedule is not None:
            obj["schedule"] = self.schedule.to_json()
        if self.predicates:
            obj["predicates"] = list(self.predicates)
        for key in KIND_FIELDS.get(self.kind, ()):
            obj[key] = getattr(self, key)
        if "random_audit" in obj:
            obj["random_audit"] = [list(x) for x in self.random_audit]
        obj["betti_guard"] = self.betti_guard
        obj["mis_budget"] = self.mis_budget
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config: expected a JSON object")
        kind = obj.get("kind")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"kind: got {kind!r}, expected one of {EXPERIMENT_KINDS}")
        allowed = _CONFIG_KEYS.difference(
            *(keys for other, keys in KIND_FIELDS.items() if other != kind))
        unknown = sorted(obj.keys() - allowed)
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown key for kind {kind!r}, "
                              f"expected one of {sorted(allowed)}")
        try:
            kwargs: dict = {"kind": kind, "seed": check_seed(obj.get("seed"))}
        except ValueError as exc:
            raise ConfigError(f"seed: {exc}") from None
        if "n_list" in obj:
            nl = obj["n_list"]
            if (not isinstance(nl, list) or not nl
                    or any(type(x) is not int or x < 1 for x in nl)):
                raise ConfigError("n_list: must be a non-empty list of n >= 1")
            kwargs["n_list"] = tuple(nl)
        if "schedule" in obj:
            try:
                kwargs["schedule"] = ParamSchedule.from_json(obj["schedule"])
            except ValueError as exc:
                raise ConfigError(f"schedule: {exc}") from exc
        if "predicates" in obj:
            preds = obj["predicates"]
            if isinstance(preds, str):
                preds = [preds]
            if not isinstance(preds, list):
                raise ConfigError("predicates: expected a name or a list")
            for p in preds:
                if not isinstance(p, str) or p not in PREDICATES:
                    raise ConfigError(
                        f"predicates: unknown {p!r}, expected "
                        f"{sorted(PREDICATES)}")
            kwargs["predicates"] = tuple(preds)
        for key in ("trials", "k_max", "betti_guard", "mis_budget", "gw_cap",
                    "gw_trials", "exhaustive_n"):
            if key in obj:
                if type(obj[key]) is not int or obj[key] < 1:
                    raise ConfigError(f"{key}: must be an integer >= 1")
                kwargs[key] = obj[key]
        if "poisson_k3" in obj:
            if not isinstance(obj["poisson_k3"], bool):
                raise ConfigError("poisson_k3: must be a boolean")
            kwargs["poisson_k3"] = obj["poisson_k3"]
        if "random_audit" in obj:
            entries = obj["random_audit"]
            if not isinstance(entries, list) or any(
                    not isinstance(e, list) or list(map(type, e)) != [int, int]
                    for e in entries):
                raise ConfigError("random_audit: expected [[n, count], ...]")
            kwargs["random_audit"] = tuple(map(tuple, entries))
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def validate(self):
        if self.betti_guard > MAX_SCAN_VERTICES:
            raise ConfigError(f"betti_guard: must be <= {MAX_SCAN_VERTICES}, "
                              f"the lattice scan's mask width")
        if self.kind in SAMPLED_KINDS and self.schedule is None:
            raise ConfigError(f"schedule: required for kind {self.kind!r}")
        if self.kind in SAMPLED_KINDS and not self.n_list:
            raise ConfigError(f"n_list: required for kind {self.kind!r}")
        if self.kind == "threshold" and not self.predicates:
            raise ConfigError("predicates: required for kind 'threshold'")
        if (self.kind == "threshold" and self.schedule.kind == "window_dense"
                and "is_cochordal" in self.predicates):
            try:  # the cell's theory, refused here rather than after sampling
                prob_lr_dense_window(self.schedule.lam)
            except ValueError as exc:
                raise ConfigError(f"schedule: {exc}") from None
        if self.kind in ("gw_limit", "variance_audit"):
            if self.schedule.kind != "sparse":
                raise ConfigError(
                    f"schedule: kind {self.kind!r} needs a sparse schedule")
            if self.kind == "gw_limit" and self.schedule.lam > 1:
                raise ConfigError("schedule: gw_limit needs lambda <= 1")
        if (self.kind == "cycle_calibration"
                and not 4 <= self.k_max <= min(self.n_list)):
            raise ConfigError(f"k_max: cycle_calibration needs 4 <= k_max "
                              f"<= min(n_list) = {min(self.n_list)}")
        if (self.kind in ("gw_limit", "variance_audit", "cycle_calibration")
                and self.trials < 2):
            raise ConfigError(
                f"trials: kind {self.kind!r} needs trials >= 2 for a "
                f"sample variance")
        if self.kind == "froberg_audit":
            from .corpus import MAX_EXHAUSTIVE_N, MAX_RANDOM_AUDIT_N

            if self.exhaustive_n > MAX_EXHAUSTIVE_N:
                raise ConfigError(f"exhaustive_n: must be <= "
                                  f"{MAX_EXHAUSTIVE_N}")
            for n, count in self.random_audit:
                if not 1 <= n <= MAX_RANDOM_AUDIT_N or count < 1:
                    raise ConfigError(
                        f"random_audit: entry [{n}, {count}] needs 1 <= n <= "
                        f"{MAX_RANDOM_AUDIT_N} and count >= 1")


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


@dataclass
class Cell:
    experiment: str
    n: int | None
    cell_id: str
    estimate: float | None
    ci_lo: float | None = None
    ci_hi: float | None = None
    theory: float | None = None
    censored: int = 0
    guard_trips: int = 0
    trials: int = 0
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def as_dict(self, include_timing: bool = True) -> dict:
        """Field values with every non-finite float (an estimate that had no
        uncensored sample, say) given as None, which JSON writes as null."""
        obj = {"experiment": self.experiment, "n": self.n,
               "cell_id": self.cell_id, "estimate": self.estimate,
               "ci_lo": self.ci_lo, "ci_hi": self.ci_hi,
               "theory": self.theory, "censored": self.censored,
               "guard_trips": self.guard_trips, "trials": self.trials}
        if include_timing:
            obj["seconds"] = round(self.seconds, 3)
        if self.extra:
            obj["extra"] = self.extra
        return _finite_or_none(obj)


def _finite_or_none(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _finite_or_none(v) for k, v in x.items()}
    return x


CSV_COLUMNS = ("experiment", "n", "cell_id", "estimate", "ci_lo", "ci_hi",
               "theory", "censored", "guard_trips", "trials", "seconds")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    cells: list[Cell]
    witnesses: list[dict] = field(default_factory=list)
    version: str = __version__

    @property
    def has_witness(self) -> bool:
        return bool(self.witnesses)

    def to_json(self, include_timing: bool = True) -> str:
        obj = {"experiment": self.kind, "version": self.version,
               "config": self.config,
               "cells": [c.as_dict(include_timing) for c in self.cells],
               "witnesses": self.witnesses}
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def to_csv(self, include_timing: bool = True) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for c in self.cells:
            row = c.as_dict(include_timing=True)
            if not include_timing:
                row["seconds"] = None
            lines.append(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Deterministic chunked worker pool
# ---------------------------------------------------------------------------

def chunk_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """At most ``parts`` consecutive (lo, hi) ranges covering range(total)."""
    parts = max(1, min(parts, total))
    step = max(1, (total + parts - 1) // parts)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def run_chunked(fn, tasks: list, workers: int) -> list:
    """Apply a picklable function to tasks; results come back in task order
    (pool.map preserves ordering), so merges are worker-count independent."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    # Imported here: multiprocessing (socket and all) costs about 17 ms,
    # which a serial run need not pay.
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, tasks)


def _map_chunk(task):
    fn, lo, hi = task
    return list(map(fn, range(lo, hi)))


def map_trials(fn, trials: int, workers: int) -> list:
    """``[fn(t) for t in range(trials)]``, run in chunks of trials on the
    pool; ``fn`` and its rows must pickle."""
    tasks = [(fn, lo, hi) for lo, hi in chunk_ranges(trials, workers * 4)]
    return [row for part in run_chunked(_map_chunk, tasks, workers)
            for row in part]


def _gnp_trial(label, seed, n, p, fn, t):
    return fn(draw_gnp(n, p, substream_seed(seed, label, n, t)))


def map_gnp_trials(label: str, seed: int, n: int, p: float, trials: int,
                   workers: int, fn) -> list:
    """``fn`` of the ``GnpDraw`` of each trial t, drawn from substream
    (seed, label, n, t), in trial order."""
    return map_trials(partial(_gnp_trial, label, seed, n, p, fn), trials,
                      workers)


def _sampled_rows(config: ExperimentConfig, workers: int, fn):
    """Yield (n, p, rows, seconds) for each n of the config: ``fn``'s row of
    every trial at p = p(n), under the substream label ``config.kind``."""
    for n in config.n_list:
        p = schedule_p(config.schedule, n)
        t0 = time.perf_counter()
        rows = map_gnp_trials(config.kind, config.seed, n, p, config.trials,
                              workers, fn)
        yield n, p, rows, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

def _threshold_verdicts(draw: GnpDraw, pred_names) -> list[bool]:
    """Each named predicate on the drawn graph.

    A complemented draw lists the complement's edges, so the two cochordal
    predicates read its pairs and never build g: ``is_4_cochordal`` counts
    their induced 4-cycles by codegrees (``induced_c4_and_triangles``), and
    ``is_cochordal`` runs ``is_chordal`` on their 2-core (``two_core``).  On
    a plain draw they are the public predicates on the graph of the vertices
    with an edge (``live_graph``), built once: isolated vertices, universal
    in the complement, change neither.  The local predicates read g, built
    once, as isolated vertices change their verdicts: 2K2 is locally
    cochordal, 2K2 plus an isolated vertex is not.
    """
    graphs = {}
    verdicts = []
    for name in pred_names:
        if draw.complemented and name == "is_4_cochordal":
            verdicts.append(
                induced_c4_and_triangles(draw.n, draw.us, draw.vs)[0] == 0)
        elif draw.complemented and name == "is_cochordal":
            verdicts.append(is_chordal(two_core(draw.us, draw.vs)))
        else:
            live = name in ("is_cochordal", "is_4_cochordal")
            if live not in graphs:
                graphs[live] = draw.live_graph() if live else draw.graph()
            verdicts.append(PREDICATES[name](graphs[live]))
    return verdicts


def run_threshold(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    cells = []
    verdicts = partial(_threshold_verdicts, pred_names=config.predicates)
    for n, p, rows, elapsed in _sampled_rows(config, workers, verdicts):
        for i, name in enumerate(config.predicates):
            hits = sum(row[i] for row in rows)
            est = hits / config.trials
            lo_ci, hi_ci = wilson_interval(hits, config.trials)
            theory = _threshold_theory(config.schedule, name)
            cells.append(Cell("threshold", n, name, est, lo_ci, hi_ci,
                              theory, 0, 0, config.trials, elapsed,
                              extra={"p": p, "successes": hits}))
    return ExperimentReport("threshold", config.to_json(), cells)


def _threshold_theory(schedule: ParamSchedule, predicate: str) -> float | None:
    if schedule.kind == "window_sparse" and predicate in (
            "is_cochordal", "is_4_cochordal"):
        return prob_lr_sparse_window(schedule.lam).value
    if schedule.kind == "window_dense" and predicate == "is_4_cochordal":
        return prob_lp_dense_window(schedule.lam).value
    if schedule.kind == "window_dense" and predicate == "is_cochordal":
        return prob_lr_dense_window(schedule.lam).value
    if schedule.kind == "constant" and schedule.p in (0.0, 1.0):
        return 1.0
    return None


# ---------------------------------------------------------------------------
# gw_limit
# ---------------------------------------------------------------------------

def _componentwise_row(draw: GnpDraw, betti_guard: int) -> tuple:
    """(reg*, pd, censored components, components) of the drawn graph, from
    one componentwise dispatch on ``live_graph``: the n - g.n isolated
    vertices it leaves out add 0 to reg* and pd, and 1 each to the count."""
    g = draw.live_graph()
    reg, pd = reg_pd_componentwise(g, betti_guard=betti_guard)
    return (reg.value, pd.value, reg.censored_components,
            reg.total_components + draw.n - g.n)


def run_gw_limit(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    lam = config.schedule.lam
    cells = []
    t0 = time.perf_counter()
    tree_est = gw_limit_estimate(lam, config.gw_trials, config.gw_cap,
                                 config.seed)
    tree_seconds = (time.perf_counter() - t0) / len(tree_est)
    for which, est in tree_est.items():
        cells.append(Cell("gw_limit", None, f"tree_{which}", est.estimate,
                          est.estimate - WILSON_Z * est.stderr,
                          est.estimate + WILSON_Z * est.stderr,
                          None, round(est.censor_fraction * config.gw_trials),
                          0, est.trials, tree_seconds,
                          extra={"stderr": est.stderr,
                                 "censor_fraction": est.censor_fraction}))
    row = partial(_componentwise_row, betti_guard=config.betti_guard)
    for n, _p, rows, elapsed in _sampled_rows(config, workers, row):
        columns = (("reg_star", "induced_matching", [r[0] / n for r in rows]),
                   ("pd", "pd", [r[1] / n for r in rows]),
                   ("depth", "depth", [(n - r[1]) / n for r in rows]))
        censored = sum(r[2] for r in rows)
        total_comps = sum(r[3] for r in rows)
        for col, which, vals in columns:
            mean = math.fsum(vals) / len(vals)
            var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            se = math.sqrt(var / len(vals))
            est = tree_est[which]
            combined = math.hypot(se, est.stderr)
            gap_se = abs(mean - est.estimate) / combined if combined else 0.0
            cells.append(Cell(
                "gw_limit", n, f"graph_{col}", mean,
                mean - WILSON_Z * se, mean + WILSON_Z * se, est.estimate,
                censored, 0, len(vals), elapsed / 3,
                extra={"stderr": se, "gap_combined_se": gap_se,
                       "censored_component_fraction":
                           censored / total_comps if total_comps else 0.0}))
    return ExperimentReport("gw_limit", config.to_json(), cells)


# ---------------------------------------------------------------------------
# unmixed_scan
# ---------------------------------------------------------------------------

def _unmixed_verdict(draw: GnpDraw, budget: int) -> bool | None:
    """Whether ``live_graph`` is unmixed (isolated vertices lie in no minimal
    cover); None when its cover enumeration trips the budget."""
    try:
        return cover_profile(draw.live_graph(), budget).unmixed
    except BudgetExceededError:
        return None


def run_unmixed_scan(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    cells = []
    verdict = partial(_unmixed_verdict, budget=config.mis_budget)
    for n, p, rows, elapsed in _sampled_rows(config, workers, verdict):
        verdicts = [row for row in rows if row is not None]
        unmixed, counted = sum(verdicts), len(verdicts)
        trips = len(rows) - counted
        est = unmixed / counted if counted else float("nan")
        lo_ci, hi_ci = wilson_interval(unmixed, counted) if counted else (None,
                                                                          None)
        cells.append(Cell("unmixed_scan", n, "unmixed_fraction", est, lo_ci,
                          hi_ci, None, 0, trips, counted, elapsed,
                          extra={"p": p,
                                 "schedule": config.schedule.describe()}))
    return ExperimentReport("unmixed_scan", config.to_json(), cells)


# ---------------------------------------------------------------------------
# cycle_calibration
# ---------------------------------------------------------------------------

def _cycle_row(draw: GnpDraw, k_max: int, want_k3: bool) -> tuple:
    """(chordless cycle counts by length, triangle count or None) of the
    drawn graph, counted from the draw's pairs without building its rows."""
    by_length, triangles = cycle_counts_from_pairs(*draw.edge_pairs(), k_max)
    return by_length, triangles if want_k3 else None


def run_cycle_calibration(config: ExperimentConfig,
                          workers: int = 1) -> ExperimentReport:
    cells = []
    row = partial(_cycle_row, k_max=config.k_max, want_k3=config.poisson_k3)
    # Each n's seconds are split evenly over the cells it emits.
    per_n = config.k_max - 3 + config.poisson_k3
    for n, p, rows, elapsed in _sampled_rows(config, workers, row):
        trials = config.trials
        for k in range(4, config.k_max + 1):
            total = sum(counts[k] for counts, _ in rows)
            total_sq = sum(counts[k] ** 2 for counts, _ in rows)
            mean = total / trials
            var = (total_sq - trials * mean * mean) / (trials - 1)
            se = math.sqrt(max(var, 0.0) / trials)
            theory = expected_chordless_cycles(n, p, k)
            gap = abs(mean - theory) / se if se > 0 else (
                0.0 if mean == theory else math.inf)
            cells.append(Cell("cycle_calibration", n, f"mean_chordless_{k}",
                              mean, mean - WILSON_Z * se, mean + WILSON_Z * se,
                              theory, 0, 0, trials, elapsed / per_n,
                              extra={"stderr": se, "gap_se": gap, "p": p}))
        if config.poisson_k3:
            triangle_counts = [triangles for _, triangles in rows]
            lam3 = (n * p) ** 3 / 6.0
            tv = _tv_distance_poisson(triangle_counts, lam3)
            cells.append(Cell("cycle_calibration", n, "triangle_poisson_tv",
                              tv, None, None, 0.0, 0, 0, trials,
                              elapsed / per_n,
                              extra={"poisson_mean": lam3}))
    return ExperimentReport("cycle_calibration", config.to_json(), cells)


def _tv_distance_poisson(counts: list[int], lam: float) -> float:
    trials = len(counts)
    freq: dict[int, int] = {}
    for c in counts:
        freq[c] = freq.get(c, 0) + 1
    kmax = max(freq) if freq else 0
    tv = 0.0
    pmf_sum = 0.0
    pmf = math.exp(-lam)
    for k in range(0, kmax + 1):
        emp = freq.get(k, 0) / trials
        tv += abs(emp - pmf)
        pmf_sum += pmf
        pmf = pmf * lam / (k + 1)
    tv += 1.0 - pmf_sum  # residual Poisson mass beyond the observed max
    return tv / 2.0


# ---------------------------------------------------------------------------
# lipschitz_audit (vertex-deletion bounds + component additivity)
# ---------------------------------------------------------------------------

def _lipschitz_trial(seed: int, t: int) -> list[dict]:
    rng_seed = substream_seed(seed, "lipschitz_audit", t)
    rng = rng_for(rng_seed)
    n = int(rng.integers(2, 11))
    p = float(rng.uniform(0.05, 0.95))
    g = sample_gnp(n, p, substream_seed(rng_seed, "g"))
    v = int(rng.integers(0, n))
    full = (1 << n) - 1
    # G - v's table from G's engine: its subsets are the submasks of
    # V minus v, which G's table has already memoized.
    table_g, table_h = induced_betti_tables(g, (full, full & ~(1 << v)))
    reg_g = table_g.regularity_quotient()
    reg_h = table_h.regularity_quotient()
    pd_g = table_g.projective_dimension()
    pd_h = table_h.projective_dimension()
    violations = []
    if abs(reg_g - reg_h) > 1:
        violations.append({"kind": "reg", "graph": to_hex_dump(g).strip(),
                           "vertex": v, "delta": reg_g - reg_h})
    if abs(pd_g - pd_h) > max_degree(g) + 1:
        violations.append({"kind": "pd", "graph": to_hex_dump(g).strip(),
                           "vertex": v, "delta": pd_g - pd_h})
    return violations


def _additivity_trial(seed: int, t: int) -> list[dict]:
    rng_seed = substream_seed(seed, "additivity_audit", t)
    rng = rng_for(rng_seed)
    n1 = int(rng.integers(2, 7))
    n2 = int(rng.integers(2, 7))
    a = sample_gnp(n1, float(rng.uniform(0.1, 0.9)),
                   substream_seed(rng_seed, "a"))
    b = sample_gnp(n2, float(rng.uniform(0.1, 0.9)),
                   substream_seed(rng_seed, "b"))
    g = disjoint_union(a, b)
    # a holds the low a.n vertices of a + b, b the rest.
    full, low = (1 << g.n) - 1, (1 << a.n) - 1
    table, table_a, table_b = induced_betti_tables(
        g, (full, low, full & ~low))
    reg_sum = (table_a.regularity_quotient()
               + table_b.regularity_quotient())
    pd_sum = (table_a.projective_dimension()
              + table_b.projective_dimension())
    violations = []
    if table.regularity_quotient() != reg_sum:
        violations.append({"kind": "reg_additivity",
                           "graph": to_hex_dump(g).strip()})
    if table.projective_dimension() != pd_sum:
        violations.append({"kind": "pd_additivity",
                           "graph": to_hex_dump(g).strip()})
    return violations


def run_lipschitz_audit(config: ExperimentConfig,
                        workers: int = 1) -> ExperimentReport:
    t0 = time.perf_counter()
    lip_violations = [v for trial in map_trials(
        partial(_lipschitz_trial, config.seed), config.trials, workers)
        for v in trial]
    add_trials = max(200, config.trials // 5)
    add_violations = [v for trial in map_trials(
        partial(_additivity_trial, config.seed), add_trials, workers)
        for v in trial]
    elapsed = time.perf_counter() - t0
    cells = [
        Cell("lipschitz_audit", None, "vertex_deletion_violations",
             float(len(lip_violations)), None, None, 0.0, 0, 0,
             config.trials, elapsed / 2),
        Cell("lipschitz_audit", None, "additivity_violations",
             float(len(add_violations)), None, None, 0.0, 0, 0,
             add_trials, elapsed / 2),
    ]
    return ExperimentReport("lipschitz_audit", config.to_json(), cells,
                            witnesses=lip_violations + add_violations)


# ---------------------------------------------------------------------------
# variance_audit
# ---------------------------------------------------------------------------

def run_variance_audit(config: ExperimentConfig,
                       workers: int = 1) -> ExperimentReport:
    """Sample variance of reg*(I) over G(n, p) trials, divided by n.

    Each trial's reg* is ``_componentwise_row``'s; a censored component (not
    a tree, more than betti_guard vertices) adds 0 to it, and goes uncounted.
    """
    cells = []
    row = partial(_componentwise_row, betti_guard=config.betti_guard)
    for n, _p, rows, elapsed in _sampled_rows(config, workers, row):
        vals = [r[0] for r in rows]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        cells.append(Cell("variance_audit", n, "reg_star_variance_over_n",
                          var / n, None, None, 8.0, 0, 0, len(vals), elapsed,
                          extra={"mean_reg_star": mean, "variance": var}))
    return ExperimentReport("variance_audit", config.to_json(), cells)


# ---------------------------------------------------------------------------
# froberg_audit
# ---------------------------------------------------------------------------

def run_froberg_audit(config: ExperimentConfig,
                      workers: int = 1) -> ExperimentReport:
    from .corpus import exhaustive_flag_audit, random_flag_audit

    t0 = time.perf_counter()
    checked, mismatches = exhaustive_flag_audit(config.exhaustive_n, workers)
    elapsed = time.perf_counter() - t0
    cells = [Cell("froberg_audit", config.exhaustive_n,
                  "exhaustive_disagreements", float(len(mismatches)), None,
                  None, 0.0, 0, 0, checked, elapsed)]
    witnesses = [{"n": config.exhaustive_n, "edge_mask": m, "flags": flags}
                 for m, flags in mismatches]
    for n, count in config.random_audit:
        t0 = time.perf_counter()
        bad = random_flag_audit(n, count, config.seed)
        cells.append(Cell("froberg_audit", n, "random_disagreements",
                          float(len(bad)), None, None, 0.0, 0, 0, count,
                          time.perf_counter() - t0))
        witnesses.extend({"n": n, "edge_mask": m, "flags": flags}
                         for m, flags in bad)
    return ExperimentReport("froberg_audit", config.to_json(), cells,
                            witnesses=witnesses)


RUNNERS = {
    "threshold": run_threshold,
    "gw_limit": run_gw_limit,
    "unmixed_scan": run_unmixed_scan,
    "cycle_calibration": run_cycle_calibration,
    "lipschitz_audit": run_lipschitz_audit,
    "variance_audit": run_variance_audit,
    "froberg_audit": run_froberg_audit,
}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    config.validate()
    return RUNNERS[config.kind](config, workers)
