"""Regenerate the golden CLI reports under tests/golden/.

    PYTHONPATH=src python3 scripts/make_goldens.py --check   # compare only
    PYTHONPATH=src python3 scripts/make_goldens.py           # overwrite

``--check`` writes the reports into a temporary directory, leaves
tests/golden/ untouched, and exits 1 naming every file that differs.  Run it
first; overwrite only after a deliberate schema change, then review the diff
before committing.  A golden that changed for any other reason is a bug to
fix, not a file to regenerate.
"""

import argparse
import pathlib
import sys
import tempfile

from netbell.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

CASES = {
    "certify_chsh.json": ("certify", "--scenario", "chsh"),
    "certify_ghz_b.json": ("certify", "--scenario", "ghz-b"),
    "simulate_star2.json": ("simulate", "--scenario", "star", "--k", "2",
                            "--rounds", "2000", "--seed", "7"),
}


def write_reports(target: pathlib.Path) -> int:
    target.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code = main([*argv, "--out", str(target / name)])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return code
    return 0


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = pathlib.Path(tmp)
        code = write_reports(fresh)
        if code != 0:
            return code
        differ = [name for name in CASES
                  if not (GOLDEN / name).is_file()
                  or (fresh / name).read_bytes() != (GOLDEN / name).read_bytes()]
    for name in differ:
        print(f"differs: {GOLDEN / name}", file=sys.stderr)
    if not differ:
        print(f"all {len(CASES)} goldens match")
    return 1 if differ else 0


def regenerate() -> int:
    code = write_reports(GOLDEN)
    if code == 0:
        for name in CASES:
            print(f"wrote {GOLDEN / name}")
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh reports with tests/golden/ only")
    raise SystemExit(check() if parser.parse_args().check else regenerate())
