import json
import math
import os
import subprocess
import sys
import time

import pytest

from eideal import asymptotics as asy
from eideal import cli
from eideal.experiments import ExperimentReport
from eideal.graph_core import cycle_graph, to_edge_list_text


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(to_edge_list_text(cycle_graph(5)))
    return str(path)


def run_cli(argv):
    return cli.main(argv)


def test_sample_gnp_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert run_cli(["sample", "--model", "gnp", "--n", "20", "--p", "0.3",
                    "--seed", "42", "--out", str(out1)]) == 0
    assert run_cli(["sample", "--model", "gnp", "--n", "20", "--p", "0.3",
                    "--seed", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_gnp_p_zero(capsys):
    assert run_cli(["sample", "--model", "gnp", "--n", "10", "--p", "0",
                    "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "10 0"


def test_sample_gw_lambda_zero(capsys):
    assert run_cli(["sample", "--model", "gw", "--lambda", "0", "--seed",
                    "1", "--json"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    assert summary["n"] == 1 and summary["censored"] is False


def test_sample_json_requires_seed(capsys):
    assert run_cli(["sample", "--model", "gnp", "--n", "5", "--p", "0.5",
                    "--json"]) == 2


def test_sample_bad_params(capsys):
    assert run_cli(["sample", "--model", "gnp", "--n", "5", "--p", "1.5",
                    "--seed", "1"]) == 2
    assert run_cli(["sample", "--model", "gnp", "--seed", "1"]) == 2
    assert run_cli(["sample", "--model", "gnp", "--n", "-3", "--p", "0.5",
                    "--seed", "1"]) == 2
    assert "n must be >= 0" in capsys.readouterr().err
    assert run_cli(["sample", "--model", "gw", "--lambda", "0.5", "--cap",
                    "0", "--seed", "1"]) == 2
    assert "cap must be >= 1" in capsys.readouterr().err


# The float flags of each subcommand, with a value the command accepts.
FLOAT_FLAG_CASES = [
    (["sample", "--model", "gnp", "--n", "5", "--seed", "1"], "p"),
    (["sample", "--model", "gw", "--seed", "1"], "lambda"),
    (["theory", "--formula", "karp_sipser"], "lambda"),
    (["theory", "--formula", "lr_sparse"], "lambda"),
    (["theory", "--formula", "lr_dense", "--lambda", "0.5"], "tol"),
    (["theory", "--formula", "expected_cycles", "--m", "4", "--k", "4"], "q"),
    (["theory", "--formula", "local_cycles", "--n", "9", "--k", "4"], "p"),
    (["theory", "--formula", "mcdiarmid", "--n", "9", "--lip", "1"], "t"),
]


@pytest.mark.parametrize("argv, flag", FLOAT_FLAG_CASES)
def test_non_finite_float_flags_are_usage_errors(argv, flag, capsys):
    # karp_sipser used to end in an ArithmeticError traceback, lr_sparse
    # printed "value = nan", and sample echoed NaN in its config line.
    for text in ("nan", "inf", "-inf", "NaN", "1e999", "x"):
        assert run_cli(argv + [f"--{flag}={text}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "config:" not in err
        assert f"--{flag}: a finite number is required, got {text!r}" in err
    assert run_cli(argv + [f"--{flag}", "0.25"]) == 0
    capsys.readouterr()


def test_karp_sipser_root_refuses_non_finite_rates():
    # nan and inf used to reach the grid scan and end in ArithmeticError.
    for lam, message in ((math.nan, "> 0"), (-math.inf, "> 0"), (0.0, "> 0"),
                         (math.inf, "finite")):
        with pytest.raises(ValueError, match=f"lam must be {message}"):
            asy.karp_sipser_root(lam)


def test_seed_beyond_the_hash_is_a_usage_error(monkeypatch, capsys):
    # substream_seed hashes 16 signed bytes; 2**128 used to end in an
    # OverflowError traceback.
    monkeypatch.setattr(cli, "run_battery", None)  # never reached
    for argv in (["sample", "--model", "gnp", "--n", "5", "--p", "0.5"],
                 ["battery"]):
        for seed in (2 ** 128, 2 ** 127, -2 ** 127 - 1):
            assert run_cli(argv + ["--seed", str(seed)]) == 2
            assert "[-2**127, 2**127)" in capsys.readouterr().err
    for seed in (2 ** 127 - 1, -2 ** 127):
        assert run_cli(["sample", "--model", "gnp", "--n", "5", "--p", "0.5",
                        "--seed", str(seed)]) == 0


def test_invariants_c5_json_golden(c5_file, capsys):
    assert run_cli(["invariants", "--in", c5_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"]["entries"] == [[1, 2, 5], [2, 3, 5], [3, 5, 1]]
    assert payload["betti"]["regularity_ideal"] == 3
    assert payload["betti"]["pd"] == 3
    assert payload["betti"]["depth"] == 2
    assert payload["betti"]["linear_resolution"] is False
    assert payload["betti"]["linear_presentation"] is True
    assert payload["induced_matching"] == 1
    assert payload["krull_dim"] == 2
    assert payload["unmixed"] is True


def test_invariants_json_byte_stable(c5_file, capsys):
    run_cli(["invariants", "--in", c5_file, "--json"])
    first = capsys.readouterr().out
    run_cli(["invariants", "--in", c5_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_invariants_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert run_cli(["invariants", "--in", str(bad)]) == 2


def test_invariants_large_graph_censors_betti(tmp_path, capsys):
    from eideal.graph_core import complete_graph

    path = tmp_path / "k20.txt"
    path.write_text(to_edge_list_text(complete_graph(20)))
    assert run_cli(["invariants", "--in", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"]["censored"] is True
    assert payload["induced_matching"] == 1
    assert payload["unmixed"] is True


def test_invariants_on_a_large_star_prints_its_covers(tmp_path, capsys):
    # A maximal independent set of 1,200 leaves: deeper than the
    # interpreter's recursion limit, so no search may recurse per vertex.
    from eideal.graph_core import star_graph

    path = tmp_path / "star.txt"
    path.write_text(to_edge_list_text(star_graph(1200)))
    assert run_cli(["invariants", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "covers: min 1, largest minimal 1200, unmixed False" in out


@pytest.mark.parametrize("solver", ["cover_profile", "independence_number"])
def test_invariants_text_reports_a_budget_trip(c5_file, capsys, monkeypatch,
                                               solver):
    from eideal.comb_invariants import BudgetExceededError

    def tripped(g, *args, **kwargs):
        raise BudgetExceededError(f"{solver} budget exhausted")

    monkeypatch.setattr(cli, solver, tripped)
    assert run_cli(["invariants", "--in", c5_file]) == 0
    out = capsys.readouterr().out
    assert "induced matching 1  matching 2" in out
    assert f"combinatorial: censored ({solver} budget exhausted)" in out
    assert ("independence 2" in out) == (solver == "cover_profile")
    assert "covers:" not in out
    assert "reg(I) 3" in out
    assert run_cli(["invariants", "--in", c5_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["combinatorial_censored"] == f"{solver} budget exhausted"


def test_invariants_c18_over_q_equals_f2(tmp_path, capsys):
    # Ind(C18) has GF(2) homology in one degree only, so the Q table is
    # read off GF(2) with no fraction-free elimination.
    path = tmp_path / "c18.txt"
    path.write_text(to_edge_list_text(cycle_graph(18)))
    payloads = {}
    for field in ("q", "f2"):
        assert run_cli(["invariants", "--in", str(path), "--field", field,
                        "--json"]) == 0
        payloads[field] = json.loads(capsys.readouterr().out)
        assert payloads[field].pop("field") == field
    assert payloads["q"] == payloads["f2"]
    assert payloads["q"]["betti"]["censored"] is False


def test_invariants_field_f3(c5_file, capsys):
    assert run_cli(["invariants", "--in", c5_file, "--json"]) == 0
    over_q = json.loads(capsys.readouterr().out)
    assert run_cli(["invariants", "--in", c5_file, "--field", "f3",
                    "--json"]) == 0
    over_f3 = json.loads(capsys.readouterr().out)
    assert over_f3["field"] == "f3"
    assert over_f3["betti"] == over_q["betti"]
    for bad in ("f4", "f1", "f", "r2"):
        assert run_cli(["invariants", "--in", c5_file, "--field", bad]) == 2
        # The library's own message, not argparse's generic one.
        assert f"{bad!r}" in capsys.readouterr().err


def test_predicates_c5(c5_file, capsys):
    assert run_cli(["predicates", "--in", c5_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cochordal"] is False
    assert payload["four_cochordal_gap_free"] is True
    assert payload["linear_resolution"] is False
    assert payload["linear_presentation"] is True


def test_predicates_build_one_engine(c5_file, capsys, monkeypatch):
    from eideal import betti

    built = []

    class CountingEngine(betti.HomologyEngine):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(betti, "HomologyEngine", CountingEngine)
    assert run_cli(["predicates", "--in", c5_file, "--json"]) == 0
    assert len(built) == 1


def test_theory_values(capsys):
    assert run_cli(["theory", "--formula", "lr_sparse", "--lambda", "4"]) == 0
    assert capsys.readouterr().out.startswith("value = 0.735758882343")
    assert run_cli(["theory", "--formula", "lp_dense", "--lambda", "0"]) == 0
    assert capsys.readouterr().out.startswith("value = 1.000000000000")
    assert run_cli(["theory", "--formula", "karp_sipser", "--lambda", "1"]) == 0
    out = capsys.readouterr().out
    assert "t_star = 0.567143290410" in out or "t_star = 0.567143290409" in out
    assert run_cli(["theory", "--formula", "expected_cycles", "--m", "4",
                    "--q", "0.5", "--k", "4"]) == 0
    assert capsys.readouterr().out.startswith("value = 0.046875")


def test_theory_missing_param(capsys):
    assert run_cli(["theory", "--formula", "lr_sparse"]) == 2


# formula -> (its flags in argument order with a value each, the library's
# value by keyword).  The values differ, so swapped flags change the answer.
THEORY_CASES = {
    "lr_sparse": ({"lambda": 4.0},
                  lambda: asy.prob_lr_sparse_window(lam=4.0)),
    "lp_dense": ({"lambda": 2.0}, lambda: asy.prob_lp_dense_window(lam=2.0)),
    "lr_dense": ({"lambda": 0.5, "tol": 1e-6},
                 lambda: asy.prob_lr_dense_window(lam=0.5, tol=1e-6)),
    "karp_sipser": ({"lambda": 1.5}, lambda: asy.karp_sipser_upper(lam=1.5)),
    "expected_cycles": ({"m": 7, "q": 0.3, "k": 5},
                        lambda: asy.expected_chordless_cycles(m=7, q=0.3,
                                                              k=5)),
    "local_cycles": ({"n": 30, "p": 0.5, "k": 6},
                     lambda: asy.expected_local_cycles(n=30, p=0.5, k=6)),
    "mcdiarmid": ({"n": 100, "lip": 2, "t": 40.0},
                  lambda: asy.mcdiarmid_tail(n=100, m_lip=2, t=40.0)),
    "near_lipschitz": ({"n": 100, "lambda": 1.5, "lip": 6, "t": 40.0},
                       lambda: asy.near_lipschitz_tail(n=100, lam=1.5,
                                                       m_lip=6, t=40.0)),
}


def _theory_argv(formula, flags):
    argv = ["theory", "--formula", formula]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    return argv


@pytest.mark.parametrize("formula", sorted(THEORY_CASES))
def test_every_theory_formula_prints_the_library_value(formula, capsys):
    flags, library = THEORY_CASES[formula]
    value = library()
    if isinstance(value, asy.TheoryValue):
        lines = [f"value = {value.value:.12f}"]
        if value.truncation_error:
            lines.append(f"truncation_error <= {value.truncation_error:.3g}")
    else:
        lines = [f"value = {value:.12g}"]
    if formula == "karp_sipser":
        lines.insert(0, f"t_star = {asy.karp_sipser_root(1.5):.12f}")
    assert run_cli(_theory_argv(formula, flags)) == 0
    assert capsys.readouterr() == ("\n".join(lines) + "\n", "")


@pytest.mark.parametrize("formula", sorted(THEORY_CASES))
def test_theory_names_the_first_missing_flag(formula, capsys):
    flags, _ = THEORY_CASES[formula]
    order = [flag for flag in flags if flag != "tol"]  # tol has a default
    for i, flag in enumerate(order):
        message = f"error: formula {formula!r} needs --{flag}\n"
        without_one = {f: v for f, v in flags.items() if f != flag}
        without_rest = {f: v for f, v in flags.items() if f not in order[i:]}
        for kept in (without_one, without_rest):
            assert run_cli(_theory_argv(formula, kept)) == 2
            assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("argv, message", [
    (["--formula", "local_cycles", "--n", "10", "--p", "-1", "--k", "4"],
     "p must be in [0, 1]"),
    (["--formula", "expected_cycles", "--m", "10", "--q", "2", "--k", "4"],
     "q must be in [0, 1]"),
    (["--formula", "near_lipschitz", "--n", "10", "--lambda", "-5", "--lip",
      "1", "--t", "1"], "lam must be >= 0"),
])
def test_theory_refuses_out_of_range_inputs(argv, message, capsys):
    assert run_cli(["theory", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flags, printed", [
    # These raised OverflowError (exit 1 with a traceback) or printed nan.
    ({"formula": "expected_cycles", "m": 200, "k": 180, "q": 0.5},
     "value = 0\n"),
    ({"formula": "expected_cycles", "m": 2000, "k": 170, "q": 0.5},
     "value = 0\n"),
    ({"formula": "local_cycles", "n": 300, "k": 200, "p": 0.5},
     "value = 0\n"),
    ({"formula": "near_lipschitz", "n": 10, "lambda": 1000, "lip": 400,
      "t": 1}, "value = inf\n"),
    ({"formula": "local_cycles", "n": 10 ** 6, "k": 200, "p": 0.99},
     "value = inf\n"),
])
def test_theory_past_float_range(flags, printed, capsys):
    argv = ["theory"]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == printed


def test_theory_local_cycles_below_float_range_is_finite(capsys):
    # This printed nan: the cycle factor overflows, the isolation factor
    # underflows, and the value is about exp(-196.8).
    assert run_cli(["theory", "--formula", "local_cycles", "--n", "10000",
                    "--k", "200", "--p", "0.99"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value = ")
    value = float(out.removeprefix("value = "))
    assert value == pytest.approx(
        asy.expected_local_cycles(10 ** 4, 0.99, 200), rel=1e-11)
    assert -196.9 < math.log(value) < -196.7


def test_theory_endless_dense_series_is_a_usage_error(capsys):
    # This had not returned after two minutes.
    assert run_cli(["theory", "--formula", "lr_dense", "--lambda",
                    "0.999999999", "--tol", "1e-300"]) == 2
    assert "over 10**6 terms" in capsys.readouterr().err


def test_experiment_end_to_end(tmp_path, capsys):
    config = {"kind": "threshold", "seed": 13, "trials": 30, "n_list": [10],
              "schedule": {"kind": "constant", "p": 1.0},
              "predicates": ["is_cochordal"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(cfg_path), "--outdir",
                    str(tmp_path), "--workers", "1"]) == 0
    report = json.loads((tmp_path / "threshold_report.json").read_text())
    assert report["cells"][0]["estimate"] == 1.0
    csv_text = (tmp_path / "threshold_report.csv").read_text()
    assert csv_text.splitlines()[0].startswith("experiment,n,cell_id")


def test_experiment_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": "wat", "seed": 1}))
    assert run_cli(["experiment", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "kind" in err
    cfg_path.write_text("{broken")
    assert run_cli(["experiment", "--config", str(cfg_path)]) == 2


def test_experiment_witness_exit_code(tmp_path, capsys, monkeypatch):
    config = {"kind": "lipschitz_audit", "seed": 3, "trials": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def fake_run(config, workers):
        return ExperimentReport("lipschitz_audit", {}, [],
                                witnesses=[{"kind": "reg", "graph": "3 0"}])

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert run_cli(["experiment", "--config", str(cfg_path), "--outdir",
                    str(tmp_path)]) == 3


def test_experiment_froberg_small(tmp_path, capsys):
    config = {"kind": "froberg_audit", "seed": 5, "exhaustive_n": 5,
              "random_audit": [[7, 10]]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["experiment", "--config", str(cfg_path), "--outdir",
                    str(tmp_path), "--workers", "1"]) == 0
    report = json.loads((tmp_path / "froberg_audit_report.json").read_text())
    assert all(c["estimate"] == 0 for c in report["cells"])


def test_battery_writes_canonical_files(tmp_path, monkeypatch, capsys):
    from eideal.battery import CriterionResult

    def fake_battery(seed, workers, full, echo=print):
        results = [CriterionResult("stub_a", True, "ok", {"x": 1}),
                   CriterionResult("stub_b", True, "fine", {})]
        for r in results:
            echo(r.line())
        return results

    monkeypatch.setattr(cli, "run_battery", fake_battery)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli(["battery", "--seed", "9", "--outdir", str(out1)]) == 0
    assert run_cli(["battery", "--seed", "9", "--outdir", str(out2)]) == 0
    for name in ("battery_report.json", "battery_report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    text = capsys.readouterr().out
    assert "[PASS] stub_a" in text
    assert "2/2 criteria passed" in text


def test_battery_failure_exit(tmp_path, monkeypatch, capsys):
    from eideal.battery import CriterionResult

    def fake_battery(seed, workers, full, echo=print):
        return [CriterionResult("stub", False, "nope", {})]

    monkeypatch.setattr(cli, "run_battery", fake_battery)
    assert run_cli(["battery", "--outdir", str(tmp_path / "x")]) == 1


def _workers_argv(command, tmp_path):
    # The config file is never read: the worker count is refused first.
    argv = [command, "--outdir", str(tmp_path)]
    if command == "experiment":
        argv += ["--config", str(tmp_path / "cfg.json")]
    return argv


@pytest.mark.parametrize("command", ["experiment", "battery"])
@pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
def test_bad_workers_flag_is_a_usage_error(command, value, tmp_path,
                                           monkeypatch, capsys):
    # --workers -2 ran serially and echoed "workers": -2.
    monkeypatch.delenv("EIDEAL_WORKERS", raising=False)
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a: ran.append(a))
    monkeypatch.setattr(cli, "run_battery", lambda **k: ran.append(k))
    argv = _workers_argv(command, tmp_path) + ["--workers", value]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "an integer >= 1 is required" in err
    assert not ran


@pytest.mark.parametrize("command", ["experiment", "battery"])
@pytest.mark.parametrize("value", ["abc", "0", "-4", "2.0"])
def test_bad_eideal_workers_is_a_usage_error(command, value, tmp_path,
                                             monkeypatch, capsys):
    # "abc" fell back to the CPU count without a word; 0 and -4 became 1.
    monkeypatch.setenv("EIDEAL_WORKERS", value)
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a: ran.append(a))
    monkeypatch.setattr(cli, "run_battery", lambda **k: ran.append(k))
    assert run_cli(_workers_argv(command, tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: EIDEAL_WORKERS: an integer >= 1 is required, "
        f"got {value!r}\n")
    assert not ran


def test_workers_come_from_the_flag_then_eideal_workers(tmp_path,
                                                        monkeypatch):
    seen = []

    def fake_battery(seed, workers, full, echo=print):
        seen.append(workers)
        return []

    monkeypatch.setattr(cli, "run_battery", fake_battery)
    argv = ["battery", "--outdir", str(tmp_path)]
    monkeypatch.setenv("EIDEAL_WORKERS", "3")
    assert run_cli(argv) == 0
    assert run_cli(argv + ["--workers", "2"]) == 0
    monkeypatch.setenv("EIDEAL_WORKERS", "abc")  # the flag wins, unread
    assert run_cli(argv + ["--workers", "2"]) == 0
    monkeypatch.delenv("EIDEAL_WORKERS")
    assert run_cli(argv) == 0
    assert seen == [3, 2, 2, os.cpu_count() or 1]


def test_run_battery_times_every_criterion(monkeypatch):
    from eideal import battery

    calls = []

    def stub(name):
        def criterion(*args, **kwargs):
            calls.append((name, args, kwargs))
            time.sleep(0.002)
            return battery.CriterionResult(name, True, "ok")
        return criterion

    monkeypatch.setattr(battery, "CRITERIA", [stub("a"), stub("b")])
    monkeypatch.setattr(battery, "_full_field_sweep", stub("sweep"))
    for full in (False, True):
        calls.clear()
        lines = []
        results = battery.run_battery(seed=5, workers=3, full=full,
                                      echo=lines.append)
        names = ["a", "b", "sweep"] if full else ["a", "b"]
        assert [r.name for r in results] == names
        assert all(r.seconds >= 0.002 for r in results)
        assert lines == [r.line() for r in results]
        assert calls[:2] == [("a", (), {"seed": 5, "workers": 3}),
                             ("b", (), {"seed": 5, "workers": 3})]
        assert calls[2:] == ([("sweep", (3,), {})] if full else [])


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "eideal.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_unknown_flag_rejected():
    proc = subprocess.run([sys.executable, "-m", "eideal.cli", "sample",
                           "--model", "gnp", "--n", "4", "--p", "0.5",
                           "--seed", "1", "--wat"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_invariants_flags_match_the_scans(tmp_path, capsys):
    # The flags are read off the Betti table; every graph on at most 6
    # vertices (up to isomorphism) must agree with the direct subset scans.
    import networkx as nx

    from eideal.betti import has_linear_presentation, has_linear_resolution
    from eideal.graph_core import build_graph

    path = tmp_path / "g.txt"
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() <= 6]
    assert len(atlas) == 209
    seen = set()
    for h in atlas:
        g = build_graph(h.number_of_nodes(), h.edges())
        path.write_text(to_edge_list_text(g))
        assert run_cli(["invariants", "--in", str(path), "--json"]) == 0
        betti = json.loads(capsys.readouterr().out)["betti"]
        assert betti["linear_resolution"] == has_linear_resolution(g)
        assert betti["linear_presentation"] == has_linear_presentation(g)
        seen.add((betti["linear_resolution"], betti["linear_presentation"]))
    assert seen == {(True, True), (False, True), (False, False)}
