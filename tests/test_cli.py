"""End-to-end command-line checks, including golden report files."""

import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest

from netbell import cli, lhv, network, sampler, scenario
from netbell.cli import main
from netbell.scenario import SCENARIOS
import scenario_oracle

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
    # two-source combined with its last term dropped, as an absolute power
    # form whose bracket [3.4912, 3.5198] holds the bound
    info = SCENARIOS["two-source"]
    model = scenario_oracle.build_two_source_linear()["combined"]
    held = dataclasses.replace(
        dataclasses.replace(model, terms=model.terms[:-1]).expr(),
        exponent=Fraction(1, 3), absolute=True, classical_bound=3.5)
    monkeypatch.setitem(SCENARIOS, "two-source", dataclasses.replace(
        info, build_family=lambda family, **_: held))
    code, data = run_json(capsys, "certify", "--scenario", "two-source")
    assert code == 1
    assert data["results"]["certification"]["verdict"] == "UNPROVEN"


def test_cli_builds_only_the_selected_family(capsys, monkeypatch):
    def refuse(k):
        raise AssertionError("a family other than the selected one was built")

    monkeypatch.setattr(scenario, "build_star_combined", refuse)
    code, data = run_json(capsys, "certify", "--scenario", "star", "--k", "3",
                          "--family", "first")
    assert code == 0
    assert data["results"]["inequality"] == "star-first-k3"
    # an unknown family is refused before anything is built
    monkeypatch.setattr(scenario, "build_star_first", refuse)
    monkeypatch.setattr(scenario, "build_star_second", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "star", "--k", "3", "--family", "third"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().endswith(
        "scenario 'star' has families first, second, combined; got 'third'")


def test_certify_star_structure(capsys):
    code, data = run_json(capsys, "certify", "--scenario", "star", "--k", "4",
                          "--family", "combined")
    assert code == 0
    cert = data["results"]["certification"]
    assert cert["method"] == "cross-polytope"
    assert cert["lhv_max"] == 2.0


def test_certify_star_k14_reports_the_strategy_count(capsys):
    # 2^16412 raw strategies: past 2^64 the count is written as "2^E", so
    # the report stays exact and json can write it
    code, data = run_json(capsys, "certify", "--scenario", "star", "--k", "14",
                          "--family", "first")
    assert code == 0
    cert = data["results"]["certification"]
    assert cert["n_strategies_raw"] == "2^16412"
    assert cert["verdict"] == "PASS"


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


def test_optimize_reports_the_proved_bound(capsys):
    code, data = run_json(capsys, "optimize", "--scenario", "ghz-b",
                          "--starts", "8", "--seed", "11")
    assert code == 0
    opt = data["results"]["optimization"]
    assert opt["upper_bound"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert opt["proved"] is True and opt["achieved"] is True
    assert len(opt["start_values"]) == 1
    code, data = run_json(capsys, "optimize", "--scenario", "ghz-a",
                          "--family", "combined", "--starts", "2")
    opt = data["results"]["optimization"]
    assert code == 0 and opt["upper_bound"] is None and opt["proved"] is False


def test_optimize_fails_on_mixed_state(capsys):
    code, data = run_json(capsys, "optimize", "--scenario", "ghz-b",
                          "--state", "mixed", "--starts", "2")
    assert code == 1
    opt = data["results"]["optimization"]
    assert opt["achieved"] is False and opt["proved"] is False
    assert opt["upper_bound"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert len(opt["start_values"]) == 2


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
    # 2^24 terms fit the 64-qubit register but not the term limit: refused
    # from the topology before any term is built; only the default family,
    # first, is built at all
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "star", "--k", "24"])
    assert exc.value.code == 2 and time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].endswith("star-first-k24 would have 16777216 terms, "
                            "over the limit of 131072")
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
            ("optimize", {"scenario": "chsh", "starts": "x"}),
            # non-integral numbers and booleans are not truncated to an int
            ("certify", {"scenario": "star", "k": 2.7}),
            ("certify", {"scenario": "nkm", "n": 3.5}),
            ("certify", {"scenario": "nkm", "m": True}),
            ("certify", {"scenario": "star", "r_num": 1.5}),
            ("certify", {"scenario": "star", "r_den": False}),
            ("simulate", {"scenario": "chsh", "rounds": 5.5}),
            ("simulate", {"scenario": "chsh", "rounds": 5, "seed": True}),
            ("optimize", {"scenario": "chsh", "starts": 2.5}))):
        path = tmp_path / f"bad_value{i}.json"
        path.write_text(json.dumps(bad_config))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "bad" in err
    starts_zero = tmp_path / "starts_zero.json"
    starts_zero.write_text(json.dumps({"scenario": "chsh", "starts": 0}))
    for argv in (["optimize", "--scenario", "chsh", "--starts", "0"],
                 ["optimize", "--scenario", "chsh", "--starts", "-3"],
                 ["optimize", "--config", str(starts_zero)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "starts must be at least 1" in err and "Traceback" not in err
    # a negative or non-finite tolerance is refused before any work, from the
    # flag or a config file (json.dumps writes NaN and Infinity as such)
    for i, (command, bad) in enumerate((("certify", "-1"), ("certify", "nan"),
                                        ("certify", "inf"), ("optimize", "-1e-9"),
                                        ("optimize", "nan"), ("optimize", "-inf"))):
        path = tmp_path / f"bad_tolerance{i}.json"
        path.write_text(json.dumps({"scenario": "chsh", "tolerance": float(bad)}))
        for argv in ([command, "--scenario", "chsh", f"--tolerance={bad}"],
                     [command, "--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "tolerance must be a finite number >= 0" in err
            assert "Traceback" not in err


def test_integral_float_config_value_is_accepted(capsys, tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps({"scenario": "star", "k": 2.0}))
    code, data = run_json(capsys, "certify", "--config", str(path))
    assert code == 0 and data["config"]["k"] == 2


def test_parameters_a_scenario_does_not_use_exit_2(capsys, tmp_path):
    # refused, not dropped while the report's config echoes them as applied
    for i, (argv, config, message) in enumerate((
            (["--scenario", "star", "--k", "2", "--wiring", "3:1-2"],
             {"scenario": "star", "wiring": [[3, 1, 2]]},
             "scenario 'star' takes no parameter 'wiring'"),
            (["--scenario", "chsh", "--inter-bits", "3:1"],
             {"scenario": "chsh", "inter_bits": {"3": 1}},
             "scenario 'chsh' takes no parameter 'inter_bits'"),
            (["--scenario", "ghz-b", "--k", "3"], {"scenario": "ghz-b", "k": 3},
             "scenario 'ghz-b' takes no parameter 'k'"),
            # the default nkm's sources 1 and 2 (1-based) are branch sources,
            # and it has no source 9; the message numbers from 1 too
            (["--scenario", "nkm", "--inter-bits", "1:1"],
             {"scenario": "nkm", "inter_bits": {"1": 1}},
             "inter bits name source 1, which is not a hub-hub source"),
            (["--scenario", "nkm", "--inter-bits", "9:1"],
             {"scenario": "nkm", "inter_bits": {"9": 1}},
             "inter bits name source 9, which is not a hub-hub source"))):
        path = tmp_path / f"unused{i}.json"
        path.write_text(json.dumps(config))
        for args in (["certify", *argv], ["certify", "--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[-1].endswith(message), err
    # the hub-hub source of the default nkm takes its bit
    code, data = run_json(capsys, "certify", "--scenario", "nkm", "--inter-bits", "3:1")
    assert code == 0 and data["config"]["inter_bits"] == {"3": 1}


def test_config_echo_round_trips_through_config(capsys, tmp_path):
    # flags, config files and the echo all number sources and hubs from 1
    argv = ["certify", "--scenario", "nkm", "--n", "4", "--k", "2", "--m", "3",
            "--wiring", "3:1-3,4:2-3", "--inter-bits", "4:1"]
    code, first = run_json(capsys, *argv)
    assert code == 0
    assert first["config"]["wiring"] == [[3, 1, 3], [4, 2, 3]]
    assert first["config"]["inter_bits"] == {"4": 1}
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(first["config"]))
    code, second = run_json(capsys, "certify", "--config", str(path))
    assert code == 0 and second == first


def test_power_echo_round_trips_through_config(capsys, tmp_path):
    # the echo writes the power as "r": "1/3"; fed back, stdout is the same
    code, first = run(capsys, "certify", "--scenario", "star", "--k", "3",
                      "--r-num", "1", "--r-den", "3")
    assert code == 0 and json.loads(first)["config"]["r"] == "1/3"
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(json.loads(first)["config"]))
    assert run(capsys, "certify", "--config", str(path)) == (0, first)
    # an integer power reads as r_num
    path.write_text(json.dumps({"scenario": "star", "k": 3, "r": 1}))
    code, data = run_json(capsys, "certify", "--config", str(path))
    assert code == 0 and data["config"]["r"] == "1"
    # both forms, or a malformed power, are usage errors
    for i, (config, argv) in enumerate((
            ({"scenario": "star", "k": 3, "r": "1/3", "r_num": 1}, []),
            ({"scenario": "star", "k": 3, "r": "1/3"}, ["--r-den", "3"]),
            ({"scenario": "star", "k": 3, "r": "1/0"}, []),
            ({"scenario": "star", "k": 3, "r": "one"}, []),
            ({"scenario": "star", "k": 3, "r": 0.5}, []))):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--config", str(path), *argv])
        assert exc.value.code == 2
        capsys.readouterr()


def test_zero_power_numerator_or_denominator_exits_2(capsys, tmp_path):
    # a zero is a usage error, not a missing value read as 1
    for num, den in (("1", "0"), ("0", "3")):
        path = tmp_path / f"power{num}{den}.json"
        path.write_text(json.dumps({"scenario": "star", "k": 3,
                                    "r_num": int(num), "r_den": int(den)}))
        for argv in (["--scenario", "star", "--k", "3", "--r-num", num,
                      "--r-den", den], ["--config", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(["certify", *argv])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "Traceback" not in err
            assert err.strip().splitlines()[-1].endswith(
                f"power r_num/r_den = {num}/{den}: "
                "numerator and denominator must be nonzero")
    # a missing part still reads as 1
    code, data = run_json(capsys, "certify", "--scenario", "star", "--k", "3",
                          "--r-den", "3")
    assert code == 0 and data["config"]["r"] == "1/3"


def test_wiring_messages_number_sources_from_1(capsys):
    for wiring, message in (("3:0-2", "hub index out of range in wiring for source 3"),
                            ("3:2-2", "source 3 must connect two distinct hubs")):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--scenario", "nkm", "--wiring", wiring])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().endswith(message)


@pytest.mark.parametrize("command", ["optimize", "simulate"])
def test_seed_outside_the_philox_range_exits_2_before_any_work(
        capsys, tmp_path, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(scenario, "build_chsh", refuse)
    rounds = ["--rounds", "5"] if command == "simulate" else []
    for i, bad in enumerate((-1, 1 << 128)):
        path = tmp_path / f"seed{i}.json"
        path.write_text(json.dumps({"scenario": "chsh", "seed": bad}))
        for argv in ([command, "--scenario", "chsh", *rounds, "--seed", str(bad)],
                     [command, "--config", str(path), *rounds]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "seed must be an integer in [0, 2^128)" in err
            assert "Traceback" not in err
    monkeypatch.undo()
    largest = (1 << 128) - 1
    code, data = run_json(capsys, command, "--scenario", "chsh",
                          *(rounds or ["--starts", "1"]), "--seed", str(largest))
    assert code == 0 and data["config"]["seed"] == largest


@pytest.mark.parametrize("k", ["33", "40"])
def test_star_beyond_the_register_exits_2_at_once(capsys, k):
    # the register check fires before 2^K hub labels are built
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "star", "--k", k])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].endswith(f"{2 * int(k)} qubits exceed the 64-qubit register")


@pytest.mark.parametrize("flags", [["--scenario", "star", "--k"],
                                   ["--scenario", "nkm", "--n"],
                                   ["--scenario", "nkm", "--m"]])
def test_oversized_network_exits_2_in_one_line(capsys, monkeypatch, flags):
    # the register check fires before any source of the 10^12 is built
    def built(*args, **kwargs):
        raise AssertionError("a source was built")

    monkeypatch.setattr(network, "SourceSpec", built)
    with pytest.raises(SystemExit) as exc:
        main(["certify", *flags, str(10 ** 12)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].endswith(f"{2 * 10 ** 12} qubits exceed the 64-qubit register")


def test_out_of_memory_exits_3_in_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(sampler, "simulate_rounds", exhausted)
    code = main(["simulate", "--scenario", "chsh", "--rounds", "1000000000000"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "out of memory" in err[0]


def test_uncaught_error_exits_3_in_one_line(capsys, monkeypatch):
    def broken(args, parser):
        raise RuntimeError("table out of step")
    monkeypatch.setattr(cli, "_cmd_certify", broken)
    code = main(["certify", "--scenario", "chsh"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "netbell certify: error: RuntimeError: table out of step"]


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "chsh", "--rounds", "1000"),
    ("simulate", "--scenario", "chsh", "--rounds", "1000", "--format", "csv"),
    ("certify", "--scenario", "chsh"),
])
def test_out_in_a_missing_directory_exits_2_before_any_work(
        capsys, monkeypatch, tmp_path, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before --out was checked")
    monkeypatch.setattr(sampler, "simulate_rounds", unreachable)
    monkeypatch.setattr(lhv, "certify", unreachable)
    out = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].endswith(f"--out {str(out)!r}: no such directory")


@pytest.mark.parametrize("argv", [
    ("simulate", "--scenario", "chsh", "--rounds", "1000"),
    ("simulate", "--scenario", "chsh", "--rounds", "1000", "--format", "csv"),
    ("certify", "--scenario", "chsh"),
])
def test_out_naming_a_directory_exits_2_before_any_work(
        capsys, monkeypatch, tmp_path, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before --out was checked")
    monkeypatch.setattr(sampler, "simulate_rounds", unreachable)
    monkeypatch.setattr(lhv, "certify", unreachable)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"netbell {argv[0]}: error: --out {str(tmp_path)!r}: is a directory"]


def test_nkm_wiring_parsing(capsys):
    code, data = run_json(capsys, "certify", "--scenario", "nkm",
                          "--n", "3", "--k", "2", "--m", "2",
                          "--wiring", "3:1-2", "--family", "second")
    assert code == 0
    assert data["results"]["certification"]["lhv_max"] == 1.0


def _make_goldens():
    """``scripts/make_goldens.py`` as a module: its ``CASES`` are the goldens."""
    spec = importlib.util.spec_from_file_location(
        "make_goldens", GOLDEN.parent.parent / "scripts" / "make_goldens.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("name,argv", _make_goldens().CASES.items())
def test_golden_reports(tmp_path, name, argv):
    # regenerate with scripts/make_goldens.py when the schema changes
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_make_goldens_check_writes_nothing_and_names_each_difference(
        tmp_path, monkeypatch, capsys):
    script = _make_goldens()
    assert script.check() == 0
    golden = tmp_path / "golden"
    golden.mkdir()
    for name in script.CASES:
        (golden / name).write_bytes((GOLDEN / name).read_bytes())
    (golden / "certify_chsh.json").write_text("{}\n")
    (golden / "simulate_star2.json").unlink()
    monkeypatch.setattr(script, "GOLDEN", golden)
    capsys.readouterr()
    assert script.check() == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"differs: {golden / 'certify_chsh.json'}",
                   f"differs: {golden / 'simulate_star2.json'}"]
    assert (golden / "certify_chsh.json").read_text() == "{}\n"
    assert sorted(p.name for p in golden.iterdir()) == [
        "certify_chsh.json", "certify_ghz_b.json"]


@pytest.mark.parametrize("argv,message", [
    (("--format", "csv"), "--format csv needs --out for the round log"),
    (("--rounds", "0"), "bad rounds '0': rounds must be at least 1 (an integer)"),
    (("--rounds", "-5"), "bad rounds '-5': rounds must be at least 1 (an integer)"),
])
def test_simulate_refuses_csv_without_out_and_rounds_below_1_before_any_work(
        capsys, monkeypatch, argv, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the options were checked")
    monkeypatch.setattr(sampler, "simulate_rounds", unreachable)
    monkeypatch.setattr(scenario, "build_chsh", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "chsh", "--rounds", "5", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"netbell simulate: error: {message}"]


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_unknown_angle_message_is_not_quoted(capsys, command):
    rounds = ["--rounds", "5"] if command == "simulate" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", "chsh", *rounds, "--angles", "Q:ZX=0.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"netbell {command}: error: no angle parameter ('Q', 'ZX')"]


def test_unrecognized_flag_is_one_line_naming_the_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--scenario", "chsh", "--warp", "9"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "netbell certify: error: unrecognized arguments: --warp 9"]


# option: (subcommand and the other flags, a well-formed value as flag text
# and as its JSON form, a malformed value as flag text and as a JSON value)
PARITY = {
    "scenario": (["certify"], "chsh", "chsh", "warp-drive", "warp-drive"),
    "family": (["certify", "--scenario", "star", "--k", "2"],
               "combined", "combined", "third", "third"),
    "k": (["certify", "--scenario", "star"], "3", 3, "2.7", 2.7),
    "n": (["certify", "--scenario", "nkm"], "3", 3, "x", "x"),
    "m": (["certify", "--scenario", "nkm"], "2", 2, "2.5", [2]),
    "r_num": (["certify", "--scenario", "star", "--k", "3", "--r-den", "3"],
              "1", 1, "1.5", 1.5),
    "r_den": (["certify", "--scenario", "star", "--k", "3"], "3", 3, "x", False),
    "wiring": (["certify", "--scenario", "nkm", "--n", "4", "--m", "3"],
               "3:1-3,4:2-3", [[3, 1, 3], [4, 2, 3]], "3:x", [[3, "x"]]),
    "inter_bits": (["certify", "--scenario", "nkm"], "3:1", {"3": 1},
                   "3:1:2", {"x": 1}),
    "state": (["evaluate", "--scenario", "two-source", "--family", "combined"],
              "rho1(0.5)", "rho1(0.5)", "gibberish", "gibberish"),
    "angles": (["evaluate", "--scenario", "two-source"], "A:ZX=0.3,C:ZX=0.5",
               {"A:ZX": 0.3, "C:ZX": 0.5}, "A:ZX=x", [1]),
    "rounds": (["simulate", "--scenario", "chsh"], "50", 50, "0", 0),
    "starts": (["optimize", "--scenario", "chsh"], "2", 2, "0", 2.5),
    "seed": (["optimize", "--scenario", "chsh", "--starts", "1"], "5", 5,
             "-1", True),
    "tolerance": (["certify", "--scenario", "chsh"], "1e-3", 1e-3, "nan",
                  float("inf")),
    "format": (["simulate", "--scenario", "chsh", "--rounds", "20"], "json",
               "json", "xml", "xml"),
}


@pytest.mark.parametrize("option", sorted(set(cli._OPTIONS) - {"r"}))
def test_flag_and_config_value_take_one_converter(capsys, tmp_path, option):
    # r is the one option with no flag; a well-formed value gives the same
    # stdout from both, a malformed one the same one-line error
    base, good_text, good_json, bad_text, bad_json = PARITY[option]
    flag = "--" + option.replace("_", "-")
    config = tmp_path / "run.json"

    def both(text, value):
        config.write_text(json.dumps({option: value}))
        return [*base, flag, text], [*base, "--config", str(config)]

    from_flag, from_config = both(good_text, good_json)
    flag_run = run(capsys, *from_flag)
    assert flag_run[0] == 0 and run(capsys, *from_config) == flag_run
    # and so does the report's config echo, fed back as the whole config
    config.write_text(json.dumps(json.loads(flag_run[1])["config"]))
    assert run(capsys, base[0], "--config", str(config)) == flag_run
    lines = []
    for argv, value in zip(both(bad_text, bad_json), (bad_text, bad_json)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith(f"netbell {base[0]}: error: ")
        lines.append(err.replace(repr(value), "<value>"))
    assert lines[0] == lines[1]


@pytest.mark.parametrize("command,config", [
    ("certify", {"scenario": "chsh", "tolerance": True}),
    ("evaluate", {"scenario": "two-source", "angles": {"A:ZX": True}}),
    ("certify", {"scenario": "nkm", "n": 4, "m": 3,
                 "wiring": [[3, True, 3], [4, 2, 3]]}),
    ("certify", {"scenario": "nkm", "inter_bits": {"3": True}}),
], ids=["tolerance", "angles", "wiring", "inter_bits"])
def test_config_true_is_no_number(capsys, tmp_path, command, config):
    # JSON true would read as 1, a well-formed value in each of these keys
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith(f"netbell {command}: error: bad ") and "True" in err


@pytest.mark.parametrize("script,args", [
    ("survey_bounds.py", ["--starts", "1"]),
    ("mc_convergence.py", ["--grid", "1000,4000", "--seeds", "3"]),
])
def test_scripts_run(script, args):
    # the README's study scripts, each on a small input in its own interpreter
    root = GOLDEN.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(root / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() and not done.stderr


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    # the sh block under "## Command line" runs as written
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].strip().splitlines()
    assert len(lines) >= 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "netbell", line
        assert main(words[1:]) == 0, line
        capsys.readouterr()


def _fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run in a new interpreter on this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_command_reads_the_terms_view(capsys, monkeypatch, tmp_path):
    # the reports read the table's labels and family names; ``terms`` builds
    # one record per label and is left to readers outside the package
    def unread(self):
        raise AssertionError("a command read InequalityExpr.terms")

    monkeypatch.setattr(scenario.InequalityExpr, "terms", property(unread))
    for argv in (["list"], ["certify", "--scenario", "bilocal"],
                 ["certify", "--scenario", "star", "--k", "3", "--family", "combined"],
                 ["evaluate", "--scenario", "ghz-a", "--family", "combined"],
                 ["optimize", "--scenario", "ghz-b", "--starts", "2"],
                 ["simulate", "--scenario", "two-source", "--family", "combined",
                  "--rounds", "2000"],
                 ["simulate", "--scenario", "chsh", "--rounds", "500", "--format",
                  "csv", "--out", str(tmp_path / "r.csv")]):
        code, out = run(capsys, *argv)
        assert code == 0 and out, argv


def test_each_command_loads_only_its_modules(tmp_path):
    # a usage error exits before numpy loads; numpy.ma takes milliseconds to
    # import at every invocation, and np.unique without an index or inverse
    # imports it
    base = ["netbell", "netbell.cli", "netbell.network", "netbell.pauli"]
    listed = [*base, "netbell.scenario"]
    quantum = [*listed, "netbell.quantum", "netbell.states"]
    sampled = [*listed, "netbell.sampler", "netbell.states"]
    commands = [
        (["list"], 0, listed),
        (["certify", "--scenario", "star", "--k", "3", "--family", "combined"], 0,
         [*listed, "netbell.lhv"]),
        (["evaluate", "--scenario", "two-source", "--family", "combined",
          "--state", "rho1(0.5)"], 0, quantum),
        (["optimize", "--scenario", "ghz-b", "--starts", "8", "--seed", "11"], 0,
         quantum),
        (["simulate", "--scenario", "star", "--k", "2", "--rounds", "2000"], 0,
         sampled),
        (["simulate", "--scenario", "star", "--k", "3", "--family", "combined",
          "--rounds", "2000", "--format", "csv", "--out", str(tmp_path / "r.csv")],
         0, sampled),
        (["certify", "--scenario", "nkm", "--wiring", "3:x"], 2, base),
    ]
    code = textwrap.dedent("""\
        import contextlib, io, json, sys
        from netbell import cli
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(sys.argv[1:])
            except SystemExit as exc:
                code = exc.code
        modules = sorted(m for m in sys.modules if m.split(".")[0] == "netbell")
        print(json.dumps([code, modules, "numpy" in sys.modules,
                          "numpy.ma" in sys.modules]))
    """)
    for argv, exit_code, modules in commands:
        got = json.loads(_fresh_python(code, *argv))
        assert got == [exit_code, sorted(modules), exit_code == 0, False], argv


def test_package_attributes_import_their_modules_on_first_use():
    names = ["cli", "lhv", "network", "pauli", "quantum", "sampler", "scenario",
             "states"]
    code = textwrap.dedent("""\
        import json, sys
        import netbell
        loaded = sorted(m for m in sys.modules if m.startswith("netbell."))
        numpy = "numpy" in sys.modules
        same = [getattr(netbell, name) is sys.modules["netbell." + name]
                for name in sys.argv[1:]]
        try:
            netbell.nope
        except AttributeError as exc:
            nope = str(exc)
        print(json.dumps([loaded, numpy, same, nope]))
    """)
    assert json.loads(_fresh_python(code, *names)) == [
        [], False, [True] * len(names),
        "module 'netbell' has no attribute 'nope'"]
