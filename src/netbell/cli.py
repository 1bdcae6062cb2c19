"""Command-line interface.

Subcommands:

* ``list``      catalog of scenarios, their families, and parameters
* ``certify``   classical bound by enumeration or structure, with verdict
* ``evaluate``  exact quantum value on a state at given angles
* ``optimize``  angle optimization against the declared quantum maximum
* ``simulate``  finite-round simulation plus estimation with errors

Reports are JSON with sorted keys, so identical invocations produce
byte-identical output.  Exit codes: 0 success (PASS or INFO verdicts),
1 a check failed or a bound is UNPROVEN, 2 usage errors (among them an
``--out`` whose directory does not exist, caught before any work), 3 out of
memory or any other uncaught error (one line on stderr, ``netbell <cmd>: error:
<Type>: <message>``, never a traceback).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import operator
import os
import sys
from fractions import Fraction

from . import __version__, lhv, network, quantum, sampler, states
from .scenario import SCENARIOS, InequalityExpr


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _integer(value) -> int:
    """``int`` as argparse applies it, minus JSON's booleans and fractions."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise TypeError("expected an integer")
    return int(value)


def _seed(value) -> int:
    """An integer in [0, 2^128), the range of a Philox key."""
    seed = _integer(value)
    if not 0 <= seed < 1 << 128:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2^128), got {value!r}")
    return seed


def _power(value) -> Fraction:
    """A power as the report's config echo writes it: "p/q", or an integer."""
    return Fraction(value if isinstance(value, str) else _integer(value))


def _tolerance(value) -> float:
    """A finite, non-negative float; NaN, inf and negatives are usage errors."""
    tolerance = float(value)
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number >= 0, got {value!r}")
    return tolerance


# every config-file key with the check argparse gives its flag; wiring,
# inter_bits and angles are checked where they are parsed.  Sources and hubs
# are numbered from 1 in flags, config files, messages and the report's config
# echo, and the echo's power "r" reads back as r_num/r_den.
_CONFIG_KEYS = {"scenario": _text, "family": _text, "k": _integer,
                "n": _integer, "m": _integer, "r_num": _integer,
                "r_den": _integer, "r": _power, "wiring": None, "inter_bits": None,
                "state": _text, "angles": None, "rounds": _integer,
                "seed": _seed, "tolerance": _tolerance, "starts": _integer,
                "format": _text}


def _parse_wiring(text: str) -> tuple[tuple[int, int, int], ...]:
    """'3:1-2,4:2-3' with 1-based source and hub numbers."""
    out = []
    for part in text.split(","):
        src, _, hubs = part.strip().partition(":")
        a, _, b = hubs.partition("-")
        out.append((int(src), int(a), int(b)))
    return tuple(out)


def _parse_inter_bits(text: str) -> dict[int, int]:
    """'3:1,4:0' with 1-based source numbers."""
    out = {}
    for part in text.split(","):
        src, _, bit = part.strip().partition(":")
        out[int(src)] = int(bit)
    return out


def _parse_angles(text: str) -> dict[tuple[str, str], float]:
    """'A:ZX=0.7,C:ZY=0.8' keyed by party and measurement plane."""
    out = {}
    for part in text.split(","):
        key, _, value = part.strip().partition("=")
        party, _, plane = key.partition(":")
        out[(party.strip(), plane.strip())] = float(value)
    return out


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(config, dict):
        parser.error("config file must hold a JSON object")
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in _CONFIG_KEYS:
            parser.error(f"unknown config key {key!r}")
        if getattr(args, dest, None) is None:
            convert = _CONFIG_KEYS[dest]
            if convert is not None and value is not None:
                try:
                    value = convert(value)
                except (TypeError, ValueError, OverflowError, ZeroDivisionError,
                        argparse.ArgumentTypeError) as exc:
                    parser.error(f"bad config value {key}={value!r}: {exc}")
            setattr(args, dest, value)


def _build_scenario(args, parser) -> tuple[InequalityExpr, dict]:
    if args.scenario not in SCENARIOS:
        parser.error(f"unknown scenario {args.scenario!r}; "
                     f"choices: {', '.join(sorted(SCENARIOS))}")
    info = SCENARIOS[args.scenario]
    family = args.family
    if family is None:
        family = "bi" if args.scenario == "bilocal" else "first"
    if family not in info.families:
        parser.error(f"scenario {args.scenario!r} has families "
                     f"{', '.join(info.families)}; got {family!r}")
    params: dict = {}
    for key in ("k", "n", "m"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if args.r_num is not None or args.r_den is not None:
        num = 1 if args.r_num is None else args.r_num  # a missing part is 1
        den = 1 if args.r_den is None else args.r_den
        if num == 0 or den == 0:
            parser.error(f"power r_num/r_den = {num}/{den}: "
                         "numerator and denominator must be nonzero")
        params["r"] = Fraction(num, den)
    if getattr(args, "r", None) is not None:
        if "r" in params:
            parser.error("give the power as r or as r_num/r_den, not both")
        params["r"] = args.r
    if args.wiring is not None:
        wiring = args.wiring
        if isinstance(wiring, str):
            try:
                wiring = _parse_wiring(wiring)
            except ValueError as exc:
                parser.error(f"bad wiring {args.wiring!r}: {exc}")
        else:
            try:
                wiring = tuple((operator.index(s), operator.index(a),
                                operator.index(b)) for s, a, b in wiring)
            except (TypeError, ValueError):
                parser.error(f"bad wiring {args.wiring!r}: expected a list of "
                             "[source, hub, hub] triples")
        params["wiring"] = wiring
    if args.inter_bits is not None:
        bits = args.inter_bits
        if isinstance(bits, str):
            try:
                bits = _parse_inter_bits(bits)
            except ValueError as exc:
                parser.error(f"bad inter-bits {args.inter_bits!r}: {exc}")
        else:
            try:
                bits = {int(k): operator.index(v) for k, v in bits.items()}
            except (AttributeError, TypeError, ValueError):
                parser.error(f"bad inter-bits {args.inter_bits!r}: expected a "
                             "mapping from source to bit")
        params["inter_bits"] = bits
    resolved = {"scenario": args.scenario, "family": family}
    for key, value in params.items():
        resolved[key] = str(value) if isinstance(value, Fraction) else value
    # the builders number sources and hubs from 0
    if "wiring" in params:
        params["wiring"] = tuple((s - 1, a - 1, b - 1) for s, a, b in params["wiring"])
    if "inter_bits" in params:
        params["inter_bits"] = {s - 1: bit for s, bit in params["inter_bits"].items()}
    taken = inspect.signature(info.build_family).parameters
    for key in params:
        if key not in taken:
            parser.error(f"scenario {args.scenario!r} takes no parameter {key!r}")
    try:
        expr = info.build_family(family, **params)
    except network.SourceError as exc:
        parser.error("cannot build scenario: "
                     + exc.template.format(exc.source + 1))
    except (ValueError, KeyError) as exc:
        parser.error(f"cannot build scenario: {exc}")
    return expr, resolved


def _state_for(args, expr, parser):
    text = args.state or "natural"
    try:
        return text, states.parse_state_spec(text, expr.topology)
    except ValueError as exc:
        parser.error(f"bad state spec: {exc}")


def _angles_for(args, parser):
    if args.angles is None:
        return None, None
    raw = args.angles
    if isinstance(raw, str):
        try:
            parsed = _parse_angles(raw)
        except ValueError as exc:
            parser.error(f"bad angles: {exc}")
    else:
        parsed = {}
        try:
            for key, value in raw.items():
                party, _, plane = key.partition(":")
                parsed[(party, plane)] = float(value)
        except (AttributeError, TypeError, ValueError):
            parser.error(f"bad angles {raw!r}: expected a mapping from "
                         "'party:plane' to a number")
    return raw if isinstance(raw, str) else dict(raw), parsed


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _wrap(command: str, config: dict, results: dict) -> dict:
    return {
        "tool": {"name": "netbell", "version": __version__},
        "command": command,
        "config": config,
        "results": results,
    }


def _results(expr: InequalityExpr, **fields) -> dict:
    return {"inequality": expr.name, "tag": expr.tag,
            "declared_bound": expr.classical_bound, **fields}


def _finite(value: float) -> float | str:
    return value if math.isfinite(value) else "inf"


# -- subcommand handlers -----------------------------------------------------------


def _cmd_list(args, parser) -> int:
    rows = []
    for name in sorted(SCENARIOS):
        info = SCENARIOS[name]
        rows.append({
            "name": info.name,
            "tag": info.tag,
            "families": list(info.families),
            "parameters": info.params,
            "summary": info.summary,
        })
    _emit(_wrap("list", {}, {"scenarios": rows}), args.out)
    return 0


def _cmd_certify(args, parser) -> int:
    expr, config = _build_scenario(args, parser)
    tolerance = args.tolerance if args.tolerance is not None else 1e-6
    config["tolerance"] = tolerance
    report = lhv.certify(expr, tolerance=tolerance)
    results = _results(expr, claimed_quantum_max=expr.claimed_quantum_max,
                       certification=report)
    _emit(_wrap("certify", config, results), args.out)
    return 0 if report["verdict"] in ("PASS", "INFO") else 1


def _cmd_evaluate(args, parser) -> int:
    expr, config = _build_scenario(args, parser)
    state_text, state = _state_for(args, expr, parser)
    angles_text, angles = _angles_for(args, parser)
    config["state"] = state_text
    if angles_text is not None:
        config["angles"] = angles_text
    try:
        value = quantum.evaluate(expr, state, angles)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    results = _results(expr, value=value,
                       claimed_quantum_max=expr.claimed_quantum_max,
                       exceeds_bound=value > expr.classical_bound + 1e-12)
    _emit(_wrap("evaluate", config, results), args.out)
    return 0


def _cmd_optimize(args, parser) -> int:
    expr, config = _build_scenario(args, parser)
    state_text, state = _state_for(args, expr, parser)
    tolerance = args.tolerance if args.tolerance is not None else 1e-6
    starts = args.starts if args.starts is not None else 8
    if starts < 1:
        parser.error(f"starts must be at least 1, got {starts}")
    seed = args.seed if args.seed is not None else 11
    config.update(state=state_text, tolerance=tolerance, starts=starts,
                  seed=seed)
    check = quantum.claimed_max_check(expr, state, tolerance=tolerance,
                                      starts=starts, seed=seed)
    results = _results(expr, optimization=check)
    _emit(_wrap("optimize", config, results), args.out)
    return 0 if check["achieved"] else 1


def _cmd_simulate(args, parser) -> int:
    expr, config = _build_scenario(args, parser)
    state_text, state = _state_for(args, expr, parser)
    angles_text, angles = _angles_for(args, parser)
    if args.rounds is None:
        parser.error("simulate needs --rounds")
    rounds = args.rounds
    seed = args.seed if args.seed is not None else 1
    fmt = args.format or "json"
    if fmt not in ("json", "csv"):
        parser.error("--format must be json or csv")
    config.update(state=state_text, rounds=rounds, seed=seed, format=fmt)
    if angles_text is not None:
        config["angles"] = angles_text
    try:
        batch = sampler.simulate_rounds(expr, state, rounds, seed, angles)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    if fmt == "csv":
        if not args.out:
            parser.error("--format csv needs --out for the round log")
        batch.to_csv(args.out)
    report = sampler.estimate(expr, batch)
    payload = report.as_dict()
    payload["value"] = _finite(payload["value"])
    for part in (payload, *payload["terms"], *payload["families"].values()):
        part["se"] = _finite(part["se"])
    results = _results(expr, claimed_quantum_max=expr.claimed_quantum_max,
                       estimate=payload)
    if fmt == "csv":
        results["round_log"] = args.out
        _emit(_wrap("simulate", config, results), None)
    else:
        _emit(_wrap("simulate", config, results), args.out)
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netbell",
        description="Certify and probe network Bell inequalities")
    parser.add_argument("--version", action="version",
                        version=f"netbell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_state: bool) -> None:
        p.add_argument("--scenario", help="scenario name (see `netbell list`)")
        p.add_argument("--family", help="inequality family within the scenario")
        p.add_argument("--k", type=int, help="branch count (star, nkm)")
        p.add_argument("--n", type=int, help="source count (nkm)")
        p.add_argument("--m", type=int, help="hub count (nkm)")
        p.add_argument("--r-num", type=int, dest="r_num",
                       help="power numerator (odd; star)")
        p.add_argument("--r-den", type=int, dest="r_den",
                       help="power denominator (odd; star)")
        p.add_argument("--wiring", help="hub pairs per extra source, "
                                        "e.g. '3:1-2' (1-based)")
        p.add_argument("--inter-bits", dest="inter_bits",
                       help="fixed bits for hub-hub sources, e.g. '3:1'")
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--out", help="write the JSON report here")
        if with_state:
            p.add_argument("--state", help="state spec (default: natural)")

    p_list = sub.add_parser("list", help="catalog the built-in scenarios")
    p_list.add_argument("--out")
    p_list.set_defaults(handler=_cmd_list)

    p_cert = sub.add_parser("certify", help="compute the classical bound")
    add_common(p_cert, with_state=False)
    p_cert.add_argument("--tolerance", type=_tolerance,
                        help="verdict tolerance (default 1e-6)")
    p_cert.set_defaults(handler=_cmd_certify)

    p_eval = sub.add_parser("evaluate", help="exact quantum value")
    add_common(p_eval, with_state=True)
    p_eval.add_argument("--angles", help="e.g. 'A:ZX=0.7853,C:ZY=0.7853'")
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_opt = sub.add_parser("optimize", help="optimize measurement angles")
    add_common(p_opt, with_state=True)
    p_opt.add_argument("--starts", type=int, help="multi-start count (default 8)")
    p_opt.add_argument("--seed", type=_seed, help="start seed (default 11)")
    p_opt.add_argument("--tolerance", type=_tolerance,
                       help="claimed-max tolerance (default 1e-6)")
    p_opt.set_defaults(handler=_cmd_optimize)

    p_sim = sub.add_parser("simulate", help="simulate rounds and estimate")
    add_common(p_sim, with_state=True)
    p_sim.add_argument("--angles", help="e.g. 'A:ZX=0.7853'")
    p_sim.add_argument("--rounds", type=int, help="number of rounds")
    p_sim.add_argument("--seed", type=_seed, help="sampler seed (default 1)")
    p_sim.add_argument("--format", choices=("json", "csv"),
                       help="round log format when --out is given")
    p_sim.set_defaults(handler=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "list":
        _merge_config(args, parser)
        if args.scenario is None:
            parser.error("--scenario is required (or supply it via --config)")
    # before any work, so a bad path does not cost a whole run
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"--out {args.out!r}: no such directory")
    try:
        return args.handler(args, parser)
    except MemoryError:
        print(f"{parser.prog} {args.command}: error: out of memory; "
              "ask for fewer rounds or a smaller scenario", file=sys.stderr)
        return 3
    except Exception as exc:  # one line, never a traceback
        print(f"{parser.prog} {args.command}: error: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
