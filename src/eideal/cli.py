"""Command-line front door: sample graphs, compute invariants, evaluate
closed forms, run experiments and the acceptance battery.

Exit codes: 0 success, 2 usage/config/parse error, 3 an audit produced a
counterexample witness.  Battery failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .asymptotics import (TheoryValue, expected_chordless_cycles,
                          expected_local_cycles, karp_sipser_root,
                          karp_sipser_upper, mcdiarmid_tail,
                          near_lipschitz_tail, prob_lp_dense_window,
                          prob_lr_dense_window, prob_lr_sparse_window)
from .battery import DEFAULT_SEED, run_battery
from .betti import (DEFAULT_BETTI_GUARD, betti_table, linear_flags,
                    parse_field)
from .chordality import (has_induced_c4, is_4_cochordal, is_chordal,
                         is_cochordal, is_locally_4_cochordal,
                         is_locally_cochordal)
from .comb_invariants import (BudgetExceededError, cover_profile,
                              independence_number, induced_matching_number,
                              matching_number)
from .experiments import ConfigError, ExperimentConfig, run_experiment
from .graph_core import (build_graph, connected_components,
                         from_edge_list_text, max_degree, to_edge_list_text)
from .random_models import check_seed, sample_gnp, sample_gw_tree

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_WITNESS = 3


def _echo_config(args_dict: dict):
    print("config: " + json.dumps(args_dict, sort_keys=True), file=sys.stderr)


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_sample(args) -> int:
    if args.json and args.seed is None:
        return _fail("--json sampling requires an explicit --seed")
    seed = args.seed if args.seed is not None else time.time_ns() % (1 << 63)
    _echo_config({"command": "sample", "model": args.model, "n": args.n,
                  "p": args.p, "lambda": getattr(args, "lam", None),
                  "seed": seed, "out": args.out})
    try:
        if args.model == "gnp":
            if args.n is None or args.p is None:
                return _fail("gnp sampling needs --n and --p")
            g = sample_gnp(args.n, args.p, seed)
        else:
            if args.lam is None:
                return _fail("gw sampling needs --lambda")
            parents, censored = sample_gw_tree(args.lam, args.cap, seed)
            g = build_graph(len(parents), enumerate(parents[1:], 1))
    except ValueError as exc:  # the samplers reject out-of-range parameters
        return _fail(str(exc))
    text = to_edge_list_text(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    parts = connected_components(g)
    summary = {"n": g.n, "m": g.edge_count, "components": len(parts),
               "max_degree": max_degree(g), "seed": seed}
    if args.model == "gw":
        summary["censored"] = censored
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(" ".join(f"{k}={v}" for k, v in summary.items()),
              file=sys.stderr)
    return EXIT_OK


def _load_graph(path: str):
    return from_edge_list_text(Path(path).read_text())


def cmd_invariants(args) -> int:
    _echo_config({"command": "invariants", "in": args.infile,
                  "field": args.field, "json": args.json})
    try:
        g = _load_graph(args.infile)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read graph: {exc}")
    out: dict = {"n": g.n, "m": g.edge_count, "field": args.field,
                 "max_degree": max_degree(g),
                 "components": len(connected_components(g))}
    try:
        out["induced_matching"] = induced_matching_number(g)
        out["matching"] = matching_number(g)
        out["independence"] = independence_number(g)
        out["krull_dim"] = out["independence"]
        prof = cover_profile(g)
        out["min_cover"] = prof.min_cover
        out["max_minimal_cover"] = prof.max_minimal_cover
        out["unmixed"] = prof.unmixed
    except BudgetExceededError as exc:
        out["combinatorial_censored"] = str(exc)
    if g.n <= DEFAULT_BETTI_GUARD:
        table = betti_table(g, args.field)
        pd_q = table.projective_dimension()
        lr, lp = table.linear_flags()
        out["betti"] = {"censored": False,
                        "entries": [[i, j, r] for (i, j), r in
                                    sorted(table.entries.items())],
                        "regularity_ideal": table.regularity_quotient() + 1,
                        "pd": pd_q, "depth": g.n - pd_q,
                        "linear_resolution": lr, "linear_presentation": lp}
    else:
        out["betti"] = {"censored": True,
                        "reason": f"{g.n} vertices exceed the direct-table "
                                  f"guard {DEFAULT_BETTI_GUARD}"}
    if args.json:
        print(json.dumps(out, sort_keys=True, indent=2))
    else:
        _print_invariants_table(out)
    return EXIT_OK


def _print_invariants_table(out: dict):
    print(f"graph: {out['n']} vertices, {out['m']} edges, "
          f"{out['components']} components, max degree {out['max_degree']}")
    # A budget trip leaves only the values computed before it.
    sizes = [f"{key.replace('_', ' ')} {out[key]}" for key in
             ("induced_matching", "matching", "independence") if key in out]
    if sizes:
        print("  ".join(sizes))
    if "min_cover" in out:
        print(f"covers: min {out['min_cover']}, largest minimal "
              f"{out['max_minimal_cover']}, unmixed {out['unmixed']}  "
              f"krull dim {out['krull_dim']}")
    if "combinatorial_censored" in out:
        print(f"combinatorial: censored ({out['combinatorial_censored']})")
    betti = out["betti"]
    if betti["censored"]:
        print(f"betti: censored ({betti['reason']})")
        return
    print(f"reg(I) {betti['regularity_ideal']}  pd {betti['pd']}  "
          f"depth {betti['depth']}  linear resolution "
          f"{betti['linear_resolution']}  linear presentation "
          f"{betti['linear_presentation']}")
    print("beta(i,j) ranks of the quotient:")
    for i, j, r in betti["entries"]:
        print(f"  ({i},{j}): {r}")


def cmd_predicates(args) -> int:
    _echo_config({"command": "predicates", "in": args.infile,
                  "json": args.json})
    try:
        g = _load_graph(args.infile)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read graph: {exc}")
    out = {"n": g.n, "m": g.edge_count,
           "chordal": is_chordal(g),
           "has_induced_c4": has_induced_c4(g),
           "cochordal": is_cochordal(g),
           "four_cochordal_gap_free": is_4_cochordal(g),
           "locally_cochordal": is_locally_cochordal(g),
           "locally_four_cochordal": is_locally_4_cochordal(g)}
    if g.n <= DEFAULT_BETTI_GUARD:
        out["linear_resolution"], out["linear_presentation"] = \
            linear_flags(g)
    if args.json:
        print(json.dumps(out, sort_keys=True, indent=2))
    else:
        for k, v in out.items():
            print(f"{k}: {v}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        obj = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config: {exc}")
    try:
        config = ExperimentConfig.from_json(obj)
    except ConfigError as exc:
        return _fail(str(exc))
    _echo_config({"command": "experiment", "workers": args.workers,
                  **config.to_json()})
    report = run_experiment(config, args.workers)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = outdir / f"{config.kind}_report"
    stem.with_suffix(".json").write_text(report.to_json())
    stem.with_suffix(".csv").write_text(report.to_csv())
    print(f"wrote {stem.with_suffix('.json')} and {stem.with_suffix('.csv')}")
    if report.has_witness:
        print(f"audit produced {len(report.witnesses)} witness(es); "
              f"see the report JSON", file=sys.stderr)
        return EXIT_WITNESS
    return EXIT_OK


def cmd_battery(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    _echo_config({"command": "battery", "mode": "full" if args.full else
                  "quick", "seed": seed, "workers": args.workers,
                  "outdir": args.outdir})
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = run_battery(seed=seed, workers=args.workers, full=args.full)
    # Canonical report files carry no wall-clock data so replays are
    # byte-identical; timings go to a sidecar log.
    canon = {"seed": seed, "version": __version__,
             "criteria": [{"name": r.name, "passed": r.passed,
                           "summary": r.summary, "numbers": r.numbers}
                          for r in results]}
    (outdir / "battery_report.json").write_text(
        json.dumps(canon, sort_keys=True, indent=2, default=repr) + "\n")
    csv_lines = ["criterion,passed,summary"]
    csv_lines += [f"{r.name},{int(r.passed)},\"{r.summary}\"" for r in results]
    (outdir / "battery_report.csv").write_text("\n".join(csv_lines) + "\n")
    (outdir / "timings.log").write_text(
        "".join(f"{r.name}\t{r.seconds:.2f}s\n" for r in results))
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else 1


# formula -> (function, the flags it reads in argument order).
_THEORY = {
    "lr_sparse": (prob_lr_sparse_window, ("lambda",)),
    "lp_dense": (prob_lp_dense_window, ("lambda",)),
    "lr_dense": (prob_lr_dense_window, ("lambda", "tol")),
    "karp_sipser": (karp_sipser_upper, ("lambda",)),
    "expected_cycles": (expected_chordless_cycles, ("m", "q", "k")),
    "local_cycles": (expected_local_cycles, ("n", "p", "k")),
    "mcdiarmid": (mcdiarmid_tail, ("n", "lip", "t")),
    "near_lipschitz": (near_lipschitz_tail, ("n", "lambda", "lip", "t")),
}


def cmd_theory(args) -> int:
    fn, flags = _THEORY[args.formula]
    values = [getattr(args, "lam" if f == "lambda" else f) for f in flags]
    for flag, value in zip(flags, values):
        if value is None:
            return _fail(f"formula {args.formula!r} needs --{flag}")
    try:
        value = fn(*values)
        if args.formula == "karp_sipser":
            print(f"t_star = {karp_sipser_root(values[0]):.12f}")
    except ValueError as exc:
        return _fail(str(exc))
    if not isinstance(value, TheoryValue):
        print(f"value = {value:.12g}")
        return EXIT_OK
    print(f"value = {value.value:.12f}")
    if value.truncation_error:
        print(f"truncation_error <= {value.truncation_error:.3g}")
    return EXIT_OK


def _field_tag(text: str) -> str:
    """argparse type for --field: "q" or "f<p>" for a prime p."""
    try:
        parse_field(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _finite(text: str) -> float:
    """argparse type for the float flags: a number other than nan and inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"a finite number is required, "
                                         f"got {text!r}")
    return value


def _workers(text: str) -> int:
    """argparse type for --workers and EIDEAL_WORKERS: an integer >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"an integer >= 1 is required, "
                                         f"got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """argparse type for --seed: an integer that substream_seed can hash."""
    try:
        return check_seed(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eideal",
        description="edge-ideal invariants and random-graph experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a random graph or random tree")
    p.add_argument("--model", choices=("gnp", "gw"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=_finite)
    p.add_argument("--lambda", dest="lam", type=_finite)
    p.add_argument("--cap", type=int, default=10 ** 5)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("invariants", help="invariants of a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--field", type=_field_tag, default="q",
                   help="coefficient field: q (rationals) or f<p>, p prime")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("predicates", help="chordality-family predicates")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_predicates)

    p = sub.add_parser("experiment", help="run one experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default=".")
    p.add_argument("--workers", type=_workers)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("battery", help="run the acceptance battery")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True)
    mode.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--outdir", default="battery_out")
    p.add_argument("--workers", type=_workers)
    p.set_defaults(func=cmd_battery)

    p = sub.add_parser("theory", help="evaluate a closed-form value")
    p.add_argument("--formula", choices=tuple(_THEORY), required=True)
    p.add_argument("--lambda", dest="lam", type=_finite)
    p.add_argument("--tol", type=_finite, default=1e-12)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=_finite)
    p.add_argument("--p", type=_finite)
    p.add_argument("--t", type=_finite)
    p.add_argument("--lip", type=int)
    p.set_defaults(func=cmd_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", 1) is None:
            env = os.environ.get("EIDEAL_WORKERS")
            args.workers = _workers(env) if env else os.cpu_count() or 1
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other exits.
        return int(exc.code) if exc.code else EXIT_OK
    except argparse.ArgumentTypeError as exc:
        return _fail(f"EIDEAL_WORKERS: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
