"""``scripts/equivalence.py``: a fixed slice of its corpus against the
committed manifest, and what ``--check`` reports.

``--check`` runs the whole corpus; the slice is the cases of six
expressions up to 2000 rounds, their cli cases at 7 rounds, and two runs
past a chunk boundary.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
SLICE = ("chsh/first", "two-source/combined", "ghz-b/first", "star-k2/first",
         "star/combined", "bilocal/bi")
PAST_A_CHUNK = ("star/combined|natural|65537|1", "two-source/combined|rho1(0.4)|65537|2")


def _script():
    spec = importlib.util.spec_from_file_location(
        "equivalence", ROOT / "scripts" / "equivalence.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _in_slice(case: str) -> bool:
    expr, _, rounds, *_ = case.split("|")
    return case in PAST_A_CHUNK or expr in SLICE and int(rounds) <= 2000


def test_a_slice_of_the_corpus_matches_the_manifest():
    script = _script()
    manifest = json.loads(script.MANIFEST.read_text())
    fresh = script.compute(_in_slice)
    assert len(fresh) == 6 * (5 * (3 * 2 + 1) + 1) + 2
    assert fresh == {case: manifest["cases"][case] for case in fresh}


def test_check_names_each_drifted_case_and_writes_nothing(tmp_path, monkeypatch,
                                                          capsys):
    script = _script()
    manifest = json.loads(script.MANIFEST.read_text())
    cases = dict(list(manifest["cases"].items())[:3])
    drifted = next(iter(cases))
    stored = {"versions": {"numpy": "0.0", "python": "0.0"},
              "cases": {**cases, drifted: "0" * 16}}
    path = tmp_path / "equivalence.json"
    path.write_text(json.dumps(stored))
    monkeypatch.setattr(script, "MANIFEST", path)
    monkeypatch.setattr(script, "compute", lambda: dict(cases))
    assert script.check() == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("versions differ: manifest {'numpy': '0.0'")
    assert err[1:] == [f"differs: {drifted}"]
    assert json.loads(path.read_text()) == stored
