"""Hash the batches, estimates and round logs of a fixed corpus.

    PYTHONPATH=src python3 scripts/equivalence.py --check   # compare only
    PYTHONPATH=src python3 scripts/equivalence.py           # overwrite

The corpus is every catalog family, star first K=2..8 and star combined
K=2, 3, 5 and 7, each on the states natural, mixed, smolin, rho1(0.4) and
mix(0.3, phi+*phi-, psi+*psi+).  Each (expression, state) pair runs 1, 7,
2000, 65535, 65536, 65537 and 300000 rounds at seeds 1 and 2, and once at
skewed angles (every angle key its own angle; 2000 rounds, seed 1).  A case
hashes every batch column with its dtype, the repr of
``estimate(...).as_dict()`` and, up to 2000 rounds, the round log's bytes.
A pair that ``simulate_rounds`` refuses hashes its error message.  The
``cli`` cases run ``netbell simulate --format csv`` in process at 7 and
65537 rounds (seed 2) and hash its report and round log.

``--check`` hashes the corpus afresh, writes nothing, and exits 1 naming
every case whose hash differs from tests/golden/equivalence.json.  The
hashes rest on numpy's and libm's float results, as the goldens do, so the
manifest records the numpy and Python versions, and ``--check`` says when
they differ from the running ones.  Like the goldens, the manifest is
rewritten only by a change that means to move an output; a case that moved
for any other reason is a bug to fix.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

from netbell import cli
from netbell.sampler import estimate, simulate_rounds
from netbell.scenario import SCENARIOS
from netbell.states import parse_state_spec

MANIFEST = (pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
            / "equivalence.json")

STATES = ("natural", "mixed", "smolin", "rho1(0.4)", "mix(0.3, phi+*phi-, psi+*psi+)")
ROUNDS = (1, 7, 2000, 65535, 65536, 65537, 300_000)
SEEDS = (1, 2)
CLI_ROUNDS = (7, 65537)
LOG_ROUNDS = 2000  # round logs are hashed up to this many rounds


def expressions() -> list[tuple[str, str, dict]]:
    """(scenario, family, params) of the corpus, each expression once."""
    builds = [(name, {}) for name in SCENARIOS]
    builds += [("star", {"k": k}) for k in range(2, 9)]
    out, seen = [], set()
    for name, params in builds:
        families = SCENARIOS[name].families
        if name == "star" and params:
            families = ("first", "combined") if params["k"] in (2, 3, 5, 7) else ("first",)
        for family in families:
            expr = SCENARIOS[name].build_family(family, **params)
            if expr.name not in seen:
                seen.add(expr.name)
                out.append((name, family, params))
    return out


def case_id(name: str, family: str, params: dict, *rest) -> str:
    tag = name + "".join(f"-{key}{value}" for key, value in params.items())
    return "|".join([f"{tag}/{family}", *map(str, rest)])


def _batch_digest(expr, spec: str, rounds: int, seed: int, angles=None) -> str:
    h = hashlib.sha256()
    try:
        state = parse_state_spec(spec, expr.topology)
        batch = simulate_rounds(expr, state, rounds, seed, angles)
    except (KeyError, ValueError) as exc:
        h.update(f"refused: {exc.args[0]}".encode())
        return h.hexdigest()[:16]
    for p in batch.parties:
        for column in (batch.input_idx[p], batch.outcomes[p]):
            h.update(f"{p} {column.dtype.str} {len(column)}\n".encode())
            h.update(column.tobytes())
    h.update(repr(estimate(expr, batch).as_dict()).encode())
    if rounds <= LOG_ROUNDS:
        log = io.StringIO(newline="")
        batch.to_csv(log)
        h.update(log.getvalue().encode())
    return h.hexdigest()[:16]


def _cli_digest(name: str, family: str, params: dict, spec: str, rounds: int,
                seed: int, tmp: pathlib.Path) -> str:
    log = tmp / "rounds.csv"
    argv = ["simulate", "--scenario", name, "--family", family, "--state", spec,
            "--rounds", str(rounds), "--seed", str(seed), "--format", "csv",
            "--out", str(log)]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update(out.getvalue().replace(str(log), "rounds.csv").encode())
    h.update(err.getvalue().encode())
    if code == 0:
        h.update(log.read_bytes())
        log.unlink()
    return h.hexdigest()[:16]


def cases(tmp: pathlib.Path):
    """(case id, a function of no arguments giving its digest), in corpus
    order; the cli cases write their round logs under ``tmp``."""
    for name, family, params in expressions():
        expr = SCENARIOS[name].build_family(family, **params)
        for spec in STATES:
            for rounds in ROUNDS:
                for seed in SEEDS:
                    yield (case_id(name, family, params, spec, rounds, seed),
                           functools.partial(_batch_digest, expr, spec, rounds, seed))
            for rounds in CLI_ROUNDS:
                yield (case_id(name, family, params, spec, rounds, 2, "cli"),
                       functools.partial(_cli_digest, name, family, params, spec,
                                         rounds, 2, tmp))
        skewed = {key: 0.2 + 0.1 * j for j, key in enumerate(expr.angle_keys())}
        yield (case_id(name, family, params, "natural", LOG_ROUNDS, 1, "skewed"),
               functools.partial(_batch_digest, expr, "natural", LOG_ROUNDS, 1, skewed))


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def compute(select=None) -> dict[str, str]:
    """Every case's digest, or those whose id ``select`` accepts."""
    with tempfile.TemporaryDirectory() as tmp:
        return {cid: digest() for cid, digest in cases(pathlib.Path(tmp))
                if select is None or select(cid)}


def check() -> int:
    manifest = json.loads(MANIFEST.read_text())
    if manifest["versions"] != versions():
        print(f"versions differ: manifest {manifest['versions']}, "
              f"running {versions()}; float results may move", file=sys.stderr)
    fresh = compute()
    drifted = [cid for cid in sorted(fresh.keys() | manifest["cases"].keys())
               if fresh.get(cid) != manifest["cases"].get(cid)]
    for cid in drifted:
        print(f"differs: {cid}", file=sys.stderr)
    if not drifted:
        print(f"all {len(fresh)} cases match")
    return 1 if drifted else 0


def regenerate() -> int:
    fresh = compute()
    MANIFEST.write_text(json.dumps({"versions": versions(), "cases": fresh},
                                   indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(fresh)} cases to {MANIFEST}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh hashes with the manifest only")
    raise SystemExit(check() if parser.parse_args().check else regenerate())
