"""The three benchmark workloads: their inputs, their ops and their checks.

Every op returns an ``Outcome``.  ``error`` marks an op the program failed to
complete (an exception, an unexpected exit code, a traceback); ``wrong`` marks
an output that completed but does not match its reference.  The first counts
into ``failed``, the second makes the run incorrect.

Run as a script (``python3 perfbench/workloads.py <workload>``) it only
imports netbell and builds the workload's expressions and states: that child
process is what ``setup_s`` times.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

WORKLOADS = ("catalog", "star-ladder", "cli")

CATALOG_ROUNDS = 300_000
CATALOG_STARTS = 8
LADDER_ROUNDS = 100_000
LADDER_STARTS = 2
LADDER_FIRST_K = range(2, 9)
# combined K=8 would allocate 2^25 dense estimate cells (about 1 GB)
LADDER_COMBINED_K = range(2, 8)
BIG_CSV_ROUNDS = 1_000_000

EVALUATE_RTOL = 1e-12    # odd powers of sqrt(2) differ in the last ulps
OPTIMIZE_TOL = 1e-6      # the CLI's claimed-max tolerance
ESTIMATE_SE = 5.0


def import_netbell():
    """Import netbell from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "netbell" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no netbell sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import netbell
    if pathlib.Path(netbell.__file__).resolve().parent != SRC / "netbell":
        raise SystemExit(f"perfbench: imported netbell from {netbell.__file__}")
    return netbell


def derive_seed(seed: int, *key) -> int:
    """Per-op program seed derived from the workload seed."""
    text = ":".join(str(k) for k in (seed, *key))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass
class Outcome:
    output: Any = None
    rounds: int = 0
    error: str | None = None
    wrong: str | None = None


@dataclass
class Op:
    """One timed call: ``run`` does the work, ``check`` judges its output."""

    kind: str                      # certify | evaluate | optimize | simulate
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], Outcome] = field(repr=False)


# -- library workloads -----------------------------------------------------------


def catalog_inputs():
    """Every SCENARIOS entry at its defaults, plus star K=2 and K=3, r=1/3."""
    import_netbell()
    from netbell import states
    from netbell.scenario import SCENARIOS
    builds = [(name, {}) for name in SCENARIOS]
    builds += [("star", {"k": 2}), ("star", {"k": 3, "r": Fraction(1, 3)})]
    inputs = []
    for name, params in builds:
        tag = name + "".join(f"-{k}{v}" for k, v in params.items())
        for family, expr in SCENARIOS[name].build(**params).items():
            state = states.parse_state_spec("natural", expr.topology)
            inputs.append((f"{tag}/{family}", expr, state))
    return inputs


def ladder_inputs():
    import_netbell()
    from netbell import scenario, states
    inputs = []
    for label, build, ks in (("first", scenario.build_star_first, LADDER_FIRST_K),
                             ("combined", scenario.build_star_combined,
                              LADDER_COMBINED_K)):
        for k in ks:
            expr = build(k)
            state = states.parse_state_spec("natural", expr.topology)
            inputs.append((f"star-k{k}/{label}", expr, state))
    return inputs


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _check_certify(expr, report, _outputs) -> Outcome:
    verdict = report.get("verdict")
    if expr.bound_model != "genuine":
        ok = verdict == "INFO"
    elif verdict != "PASS":
        ok = False
    elif expr.exponent == 1:
        ok = Fraction(report["lhv_max_exact"]) == Fraction(expr.classical_bound)
    else:
        ok = _close(report["lhv_max"], expr.classical_bound, EVALUATE_RTOL)
    wrong = None if ok else (f"verdict {verdict}, lhv_max {report.get('lhv_max')} "
                             f"vs bound {expr.classical_bound}")
    return Outcome(report, wrong=wrong)


def _check_evaluate(expr, value, _outputs) -> Outcome:
    ok = _close(value, expr.claimed_quantum_max, EVALUATE_RTOL)
    return Outcome(value, wrong=None if ok else
                   f"value {value!r} vs claimed {expr.claimed_quantum_max!r}")


def _check_optimize(expr, result, _outputs) -> Outcome:
    gap = result.value - expr.claimed_quantum_max
    return Outcome(result, wrong=None if abs(gap) <= OPTIMIZE_TOL else f"gap {gap!r}")


def _estimate_wrong(value, se, exact) -> str | None:
    if abs(value - exact) <= ESTIMATE_SE * se:
        return None
    return f"estimate {value!r} +- {se!r} vs exact {exact!r}"


def library_ops(workload: str, inputs, seed: int) -> list[Op]:
    """certify -> evaluate at pi/4 -> optimize -> simulate + estimate, per input.

    The evaluate op gives the exact value that the estimate is checked against.
    """
    from netbell import lhv, quantum, sampler
    catalog = workload == "catalog"
    rounds = CATALOG_ROUNDS if catalog else LADDER_ROUNDS
    starts = CATALOG_STARTS if catalog else LADDER_STARTS
    ops = []
    for name, expr, state in inputs:
        opt_seed = derive_seed(seed, workload, name, "optimize")
        sim_seed = derive_seed(seed, workload, name, "simulate")

        def simulate(expr=expr, state=state, sim_seed=sim_seed):
            batch = sampler.simulate_rounds(expr, state, rounds, sim_seed)
            return sampler.estimate(expr, batch)

        def check_simulate(report, outputs, name=name):
            exact = outputs[("evaluate", name)]
            return Outcome(report, rounds=report.n_rounds,
                           wrong=_estimate_wrong(report.value, report.se, exact))

        ops += [
            Op("certify", name, lambda expr=expr: lhv.certify(expr),
               lambda out, outputs, expr=expr: _check_certify(expr, out, outputs)),
            Op("evaluate", name, lambda e=expr, s=state: quantum.evaluate(e, s),
               lambda out, outputs, expr=expr: _check_evaluate(expr, out, outputs)),
            Op("optimize", name,
               lambda e=expr, s=state, o=opt_seed: quantum.optimize_angles(
                   e, s, starts=starts, seed=o),
               lambda out, outputs, expr=expr: _check_optimize(expr, out, outputs)),
            Op("simulate", name, simulate, check_simulate),
        ]
    return ops


# -- cli workload ----------------------------------------------------------------


@dataclass
class CliCase:
    """One netbell invocation and what it must produce."""

    argv: tuple[str, ...]
    exit_code: int = 0
    golden: str | None = None          # stdout must equal tests/golden/<name>
    csv_out: pathlib.Path | None = None
    csv_parties: int = 0
    rounds: int = 0
    expect: Callable[[dict], str | None] | None = None


def cli_inputs():
    """The expressions and states the CLI invocations build, by name."""
    import_netbell()
    from netbell import states
    from netbell.scenario import SCENARIOS
    out = {}
    for name, params, family, spec in (
            ("star", {"k": 3}, "combined", "natural"),
            ("two-source", {}, "combined", "rho1(0.5)"),
            ("ghz-b", {}, "first", "natural"),
            ("star", {"k": 2}, "first", "natural"),
            ("chsh", {}, "first", "natural")):
        expr = SCENARIOS[name].build(**params)[family]
        out[expr.name] = (expr, states.parse_state_spec(spec, expr.topology))
    return out


def cli_cases(seed: int, work: pathlib.Path) -> list[CliCase]:
    """README commands, the three golden reports, a large round log, one bad call."""
    from netbell import quantum
    from netbell.scenario import SCENARIOS

    def seed_for(tag):
        return str(derive_seed(seed, "cli", tag))

    built = cli_inputs()
    exact = {name: quantum.evaluate(expr, state) for name, (expr, state) in built.items()}
    (star3, _), (two, _), _, (star2, _), (chsh, _) = built.values()
    rho = exact[two.name]
    names = set(SCENARIOS)

    def listed(res):
        got = {row["name"] for row in res["scenarios"]}
        return None if got == names else f"scenarios {sorted(got)}"

    def certified(expr):
        def check(res):
            cert = res["certification"]
            ok = (cert["verdict"] == "PASS"
                  and Fraction(cert["lhv_max_exact"]) == Fraction(expr.classical_bound))
            return None if ok else f"verdict {cert['verdict']}, lhv_max {cert['lhv_max']}"
        return check

    def evaluated(res):
        return None if _close(res["value"], rho, EVALUATE_RTOL) else f"value {res['value']}"

    def optimized(res):
        opt = res["optimization"]
        ok = opt["achieved"] and abs(opt["gap"]) <= OPTIMIZE_TOL
        return None if ok else f"gap {opt['gap']}"

    def estimated(expr):
        def check(res):
            est = res["estimate"]
            se = float(est["se"])  # "inf" when a cell is empty
            return _estimate_wrong(est["value"], se, exact[expr.name])
        return check

    return [
        CliCase(("list",), expect=listed),
        CliCase(("certify", "--scenario", "star", "--k", "3", "--family", "combined"),
                expect=certified(star3)),
        CliCase(("evaluate", "--scenario", "two-source", "--family", "combined",
                 "--state", "rho1(0.5)"), expect=evaluated),
        CliCase(("optimize", "--scenario", "ghz-b", "--starts", "8",
                 "--seed", seed_for("optimize")), expect=optimized),
        CliCase(("simulate", "--scenario", "star", "--k", "2", "--rounds", "100000",
                 "--seed", seed_for("simulate")),
                rounds=100_000, expect=estimated(star2)),
        CliCase(("simulate", "--scenario", "chsh", "--rounds", "1000", "--format",
                 "csv", "--out", str(work / "rounds.csv"), "--seed", seed_for("csv")),
                csv_out=work / "rounds.csv", csv_parties=len(chsh.topology.party_ids()),
                rounds=1000, expect=estimated(chsh)),
        CliCase(("certify", "--scenario", "chsh"), golden="certify_chsh.json"),
        CliCase(("certify", "--scenario", "ghz-b"), golden="certify_ghz_b.json"),
        CliCase(("simulate", "--scenario", "star", "--k", "2", "--rounds", "2000",
                 "--seed", "7"), golden="simulate_star2.json", rounds=2000),
        CliCase(("simulate", "--scenario", "star", "--k", "3", "--family", "combined",
                 "--rounds", str(BIG_CSV_ROUNDS), "--format", "csv",
                 "--out", str(work / "big.csv"), "--seed", seed_for("big")),
                csv_out=work / "big.csv", csv_parties=len(star3.topology.party_ids()),
                rounds=BIG_CSV_ROUNDS,
                expect=estimated(star3)),
        # malformed input: a usage error must exit 2 with one line, no traceback
        CliCase(("certify", "--scenario", "nkm", "--wiring", "3:x"), exit_code=2),
    ]


def _csv_wrong(path: pathlib.Path, rounds: int, n_parties: int) -> str | None:
    with open(path, "rb") as fh:
        header = fh.readline()
        lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    if header.rstrip() != b"round,party,input,outcome":
        return f"csv header {header!r}"
    if lines != 1 + rounds * n_parties:
        return f"csv has {lines} lines, expected {1 + rounds * n_parties}"
    return None


def check_cli(case: CliCase, code: int, stdout: bytes, stderr: str) -> Outcome:
    """Judge one invocation from its exit code, stdout and stderr."""
    if "Traceback (most recent call last)" in stderr or code != case.exit_code:
        first = stderr.strip().splitlines()[-1:] or [""]
        return Outcome(error=f"exit {code} (want {case.exit_code}): {first[0]}")
    if case.exit_code != 0:
        return Outcome()
    if case.golden is not None:
        same = stdout == (GOLDEN / case.golden).read_bytes()
        return Outcome(rounds=case.rounds,
                       wrong=None if same else f"stdout differs from {case.golden}")
    results = json.loads(stdout)["results"]
    wrong = case.expect(results) if case.expect else None
    if wrong is None and case.csv_out is not None:
        wrong = _csv_wrong(case.csv_out, case.rounds, case.csv_parties)
    return Outcome(results, rounds=case.rounds, wrong=wrong)


def build_inputs(workload: str):
    """Everything a workload builds before its first timed op."""
    if workload == "catalog":
        return catalog_inputs()
    if workload == "star-ladder":
        return ladder_inputs()
    if workload == "cli":
        return cli_inputs()
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    build_inputs(sys.argv[1])
