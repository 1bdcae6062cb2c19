"""End-to-end command-line checks, including golden report files."""

import dataclasses
import json
import math
import pathlib

import pytest

from netbell.cli import main
from netbell.scenario import SCENARIOS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_list_catalog(capsys):
    code, data = run_json(capsys, "list")
    assert code == 0
    names = {row["name"] for row in data["results"]["scenarios"]}
    assert names == {"chsh", "two-source", "star", "nkm", "ghz-a", "ghz-b",
                     "bilocal"}
    assert data["tool"]["name"] == "netbell"


def test_certify_chsh(capsys):
    code, data = run_json(capsys, "certify", "--scenario", "chsh")
    assert code == 0
    cert = data["results"]["certification"]
    assert cert["verdict"] == "PASS"
    assert cert["lhv_max"] == 2.0
    assert cert["method"] == "enumeration"
    assert cert["n_strategies_raw"] == 16


def test_certify_bilocal_is_informational(capsys):
    code, data = run_json(capsys, "certify", "--scenario", "bilocal")
    assert code == 0
    cert = data["results"]["certification"]
    assert cert["verdict"] == "INFO"
    assert "note" in cert


def test_certify_unproven_exits_1(capsys, monkeypatch):
    info = SCENARIOS["bilocal"]
    bi = info.build()["bi"]
    held = dataclasses.replace(bi, bound_model="genuine", classical_bound=2)
    monkeypatch.setitem(SCENARIOS, "bilocal", dataclasses.replace(
        info, build=lambda **_: {"bi": held}))
    code, data = run_json(capsys, "certify", "--scenario", "bilocal")
    assert code == 1
    assert data["results"]["certification"]["verdict"] == "UNPROVEN"


def test_certify_star_structure(capsys):
    code, data = run_json(capsys, "certify", "--scenario", "star", "--k", "4",
                          "--family", "combined")
    assert code == 0
    cert = data["results"]["certification"]
    assert cert["method"] == "cross-polytope"
    assert cert["lhv_max"] == 2.0


def test_evaluate_mixture_closed_form(capsys):
    code, data = run_json(capsys, "evaluate", "--scenario", "two-source",
                          "--family", "combined", "--state", "rho1(0.5)")
    assert code == 0
    res = data["results"]
    assert res["value"] == pytest.approx(3.0, abs=1e-12)
    assert res["exceeds_bound"] is True
    assert data["config"]["state"] == "rho1(0.5)"


def test_evaluate_with_angles(capsys):
    code, data = run_json(capsys, "evaluate", "--scenario", "chsh",
                          "--angles", "A:ZX=0.3")
    assert code == 0
    want = 2.0 * (math.cos(0.3) + math.sin(0.3))
    assert data["results"]["value"] == pytest.approx(want, abs=1e-12)


def test_optimize_achieves_claim(capsys):
    code, data = run_json(capsys, "optimize", "--scenario", "chsh",
                          "--starts", "3")
    assert code == 0
    opt = data["results"]["optimization"]
    assert opt["achieved"] is True
    assert opt["optimized_value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_optimize_fails_on_mixed_state(capsys):
    code, data = run_json(capsys, "optimize", "--scenario", "ghz-b",
                          "--state", "mixed", "--starts", "2")
    assert code == 1
    assert data["results"]["optimization"]["achieved"] is False


def test_simulate_json_deterministic(capsys, tmp_path):
    args = ("simulate", "--scenario", "star", "--k", "2", "--rounds", "2000",
            "--seed", "7")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    est = data["results"]["estimate"]
    assert est["n_rounds"] == 2000
    assert abs(est["value"] - 2.0) < 6 * est["se"]


def test_simulate_csv_round_log(capsys, tmp_path):
    log = tmp_path / "rounds.csv"
    code, data = run_json(capsys, "simulate", "--scenario", "chsh",
                          "--rounds", "50", "--seed", "3",
                          "--format", "csv", "--out", str(log))
    assert code == 0
    assert data["results"]["round_log"] == str(log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "round,party,input,outcome"
    assert len(lines) == 1 + 50 * 2


def test_config_file_fills_unset_flags(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenario": "star", "k": 2,
                               "family": "combined"}))
    code, data = run_json(capsys, "certify", "--config", str(cfg))
    assert code == 0
    assert data["config"]["scenario"] == "star"
    assert data["config"]["family"] == "combined"
    # explicit flags beat config values
    code, data = run_json(capsys, "certify", "--config", str(cfg),
                          "--family", "first")
    assert code == 0
    assert data["config"]["family"] == "first"


def test_usage_errors_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "warp-drive"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "chsh"])  # missing --rounds
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "chsh", "--rounds", "5",
              "--format", "csv"])  # csv needs --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--scenario", "chsh", "--state", "gibberish"])
    assert exc.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"warp": 9}))
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "chsh", "--config", str(bad)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["certify"])  # scenario neither on the line nor in a config
    assert exc.value.code == 2
    for bad_flag in (["--wiring", "3:x"], ["--wiring", "3"],
                     ["--inter-bits", "3:1:2"]):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--scenario", "nkm", *bad_flag])
        assert exc.value.code == 2
    for i, bad_config in enumerate(({"wiring": [3]}, {"wiring": [[2, 0]]},
                                    {"wiring": [["2", 0, 1]]},
                                    {"inter_bits": [3]}, {"inter_bits": {"x": 1}})):
        path = tmp_path / f"bad_nkm{i}.json"
        path.write_text(json.dumps({"scenario": "nkm", **bad_config}))
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--config", str(path)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
    for i, (command, bad_config) in enumerate((
            ("certify", {"scenario": "star", "k": "x"}),
            ("certify", {"scenario": "nkm", "n": "x"}),
            ("certify", {"scenario": "nkm", "m": [2]}),
            ("certify", {"scenario": "star", "r_num": "x"}),
            ("certify", {"scenario": "star", "r_den": 1e999}),
            ("certify", {"scenario": "chsh", "tolerance": "x"}),
            ("certify", {"scenario": ["chsh"]}),
            ("simulate", {"scenario": "chsh", "rounds": "x"}),
            ("simulate", {"scenario": "chsh", "rounds": 5, "seed": "x"}),
            ("simulate", {"scenario": "chsh", "rounds": 5, "angles": [1]}),
            ("optimize", {"scenario": "chsh", "starts": "x"}))):
        path = tmp_path / f"bad_value{i}.json"
        path.write_text(json.dumps(bad_config))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "bad" in err


def test_nkm_wiring_parsing(capsys):
    code, data = run_json(capsys, "certify", "--scenario", "nkm",
                          "--n", "3", "--k", "2", "--m", "2",
                          "--wiring", "3:1-2", "--family", "second")
    assert code == 0
    assert data["results"]["certification"]["lhv_max"] == 1.0


@pytest.mark.parametrize("name,argv", [
    ("certify_chsh.json", ("certify", "--scenario", "chsh")),
    ("certify_ghz_b.json", ("certify", "--scenario", "ghz-b")),
    ("simulate_star2.json",
     ("simulate", "--scenario", "star", "--k", "2", "--rounds", "2000",
      "--seed", "7")),
])
def test_golden_reports(tmp_path, name, argv):
    # regenerate with scripts/make_goldens.py when the schema changes
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
