import json
import subprocess
import sys

import pytest

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
