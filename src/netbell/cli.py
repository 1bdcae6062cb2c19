"""Command-line interface.

Subcommands:

* ``list``      catalog of scenarios, their families, and parameters
* ``certify``   classical bound by enumeration or structure, with verdict
* ``evaluate``  exact quantum value on a state at given angles
* ``optimize``  angle optimization against the declared quantum maximum
* ``simulate``  finite-round simulation plus estimation with errors

Each option has one converter, which takes the flag's text or the value a
``--config`` JSON file gives it.  Flags win, the config file fills the options
they leave unset, the subcommand's defaults fill the rest, and then every
value is converted once; the report's ``config`` echoes the converted values.

Reports are JSON with sorted keys, so identical invocations produce
byte-identical output.  Exit codes: 0 success (PASS or INFO verdicts),
1 a check failed or a bound is UNPROVEN, 2 a usage error, caught before any
work, 3 out of memory or any other uncaught error.  Either error prints one
line on stderr, ``netbell <cmd>: error: <message>`` (``<Type>: <message>``
for 3), never a usage block or a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__, network  # each handler imports the modules it runs

if TYPE_CHECKING:
    from .scenario import InequalityExpr


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one line, ``netbell <cmd>: error: <message>``."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# -- option converters: each takes a flag's text or a config file's JSON value --


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


def _number(value):
    """The value, unless it is a JSON true or false, which is no number."""
    if isinstance(value, bool):
        raise TypeError
    return value


def _integer(value) -> int:
    """``int`` of the text, or a JSON number with no fractional part."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise TypeError
    return int(value)


def _count(value) -> int:
    count = _integer(value)
    if count < 1:
        raise ValueError
    return count


def _seed(value) -> int:
    seed = _integer(value)
    if not 0 <= seed < 1 << 128:  # the range of a Philox key
        raise ValueError
    return seed


def _tolerance(value) -> float:
    tolerance = float(_number(value))
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError
    return tolerance


def _power(value) -> Fraction:
    return Fraction(value if isinstance(value, str) else _integer(value))


def _format(value) -> str:
    if value not in ("json", "csv"):
        raise ValueError
    return value


def _wiring(value) -> tuple[tuple[int, int, int], ...]:
    if isinstance(value, str):
        value = [map(int, re.fullmatch(r"(\d+):(\d+)-(\d+)", part.strip()).groups())
                 for part in value.split(",")]
    wiring = tuple(tuple(operator.index(_number(n)) for n in triple)
                   for triple in value)
    if any(len(triple) != 3 for triple in wiring):
        raise ValueError
    return wiring


def _inter_bits(value) -> dict[int, int]:
    if isinstance(value, str):
        value = {source: int(bit) for source, bit in
                 (part.split(":") for part in value.split(","))}
    return {int(source): operator.index(_number(bit))
            for source, bit in value.items()}


def _angles(value) -> dict[tuple[str, str], float]:
    if isinstance(value, str):
        value = dict(part.split("=") for part in value.split(","))
    return {tuple(side.strip() for side in key.split(":", 1)):
            float(_number(angle)) for key, angle in value.items()}


# option: (converter, what it must be, flag help).  The flag is --option with
# "-" for "_" and the config key is the option; sources and hubs are numbered
# from 1 in both.  r, a power as the report's config echo writes it, is a
# config key with no flag.
_OPTIONS = {
    "scenario": (_text, "a string", "scenario name (see `netbell list`)"),
    "family": (_text, "a string", "inequality family within the scenario"),
    "k": (_integer, "an integer", "branch count (star, nkm)"),
    "n": (_integer, "an integer", "source count (nkm)"),
    "m": (_integer, "an integer", "hub count (nkm)"),
    "r_num": (_integer, "an integer", "power numerator (odd; star)"),
    "r_den": (_integer, "an integer", "power denominator (odd; star)"),
    "r": (_power, "'p/q' or an integer", None),
    "wiring": (_wiring, "'3:1-2,4:2-3' or [[3, 1, 2], [4, 2, 3]]",
               "hub pairs per extra source, e.g. '3:1-2'"),
    "inter_bits": (_inter_bits, "'3:1,4:0' or {\"3\": 1, \"4\": 0}",
                   "fixed bits for hub-hub sources, e.g. '3:1'"),
    "state": (_text, "a string", "state spec"),
    "angles": (_angles, "'A:ZX=0.7,C:ZY=0.8' or {\"A:ZX\": 0.7, \"C:ZY\": 0.8}",
               "e.g. 'A:ZX=0.7853,C:ZY=0.7853' (default all pi/4)"),
    "rounds": (_count, "at least 1 (an integer)", "number of rounds"),
    "starts": (_count, "at least 1 (an integer)", "multi-start count"),
    "seed": (_seed, "an integer in [0, 2^128)", "random seed"),
    "tolerance": (_tolerance, "a finite number >= 0", "verdict tolerance"),
    "format": (_format, "json or csv",
               "json (the report to --out, or to stdout) or csv (a round log "
               "to --out, the report to stdout)"),
}

_SCENARIO_OPTIONS = ("scenario", "family", "k", "n", "m", "r_num", "r_den",
                     "wiring", "inter_bits")

# each subcommand's options beyond the scenario's, with their defaults; the
# run reads them and the report's config echoes them
_RUN_OPTIONS = {
    "certify": {"tolerance": 1e-6},
    "evaluate": {"state": "natural", "angles": None},
    "optimize": {"state": "natural", "tolerance": 1e-6, "starts": 8, "seed": 11},
    "simulate": {"state": "natural", "angles": None, "rounds": None, "seed": 1,
                 "format": "json"},
}


def _resolve(args, parser) -> None:
    """Fill unset options from --config, then from the defaults; convert each."""
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(config, dict):
            parser.error("config file must hold a JSON object")
        for key, value in config.items():
            option = key.replace("-", "_")
            if option not in _OPTIONS:
                parser.error(f"unknown config key {key!r}")
            if getattr(args, option) is None:
                setattr(args, option, value)
    for option, default in _RUN_OPTIONS[args.command].items():
        if getattr(args, option) is None:
            setattr(args, option, default)
    for option, (convert, rule, _) in _OPTIONS.items():
        value = getattr(args, option)
        if value is not None:
            try:
                setattr(args, option, convert(value))
            except (AttributeError, TypeError, ValueError, ArithmeticError):
                parser.error(f"bad {option} {value!r}: {option} must be {rule}")
    if args.scenario is None:
        parser.error("--scenario is required (or supply it via --config)")


def _build_scenario(args, parser) -> tuple[InequalityExpr, dict]:
    """The selected family, and the report's config echo of the run."""
    from .scenario import SCENARIOS
    info = SCENARIOS.get(args.scenario)
    if info is None:
        parser.error(f"unknown scenario {args.scenario!r}; "
                     f"choices: {', '.join(sorted(SCENARIOS))}")
    family = info.families[0] if args.family is None else args.family
    if family not in info.families:
        parser.error(f"scenario {args.scenario!r} has families "
                     f"{', '.join(info.families)}; got {family!r}")
    params = {key: value for key in ("k", "n", "m", "wiring", "inter_bits")
              if (value := getattr(args, key)) is not None}
    if args.r_num is not None or args.r_den is not None:
        num = 1 if args.r_num is None else args.r_num  # a missing part is 1
        den = 1 if args.r_den is None else args.r_den
        if num == 0 or den == 0:
            parser.error(f"power r_num/r_den = {num}/{den}: "
                         "numerator and denominator must be nonzero")
        params["r"] = Fraction(num, den)
    if args.r is not None:
        if "r" in params:
            parser.error("give the power as r or as r_num/r_den, not both")
        params["r"] = args.r
    config = {"scenario": args.scenario, "family": family, **params}
    config.update((key, getattr(args, key)) for key in _RUN_OPTIONS[args.command]
                  if getattr(args, key) is not None)
    if "r" in config:
        config["r"] = str(config["r"])
    if "angles" in config:
        config["angles"] = {":".join(key): angle for key, angle in args.angles.items()}
    # the builders number sources and hubs from 0
    if "wiring" in params:
        params["wiring"] = tuple((s - 1, a - 1, b - 1) for s, a, b in params["wiring"])
    if "inter_bits" in params:
        params["inter_bits"] = {s - 1: bit for s, bit in params["inter_bits"].items()}
    code = info.build_family.__code__  # its positional and keyword-only names
    taken = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    for key in params:
        if key not in taken:
            parser.error(f"scenario {args.scenario!r} takes no parameter {key!r}")
    try:
        expr = info.build_family(family, **params)
    except network.SourceError as exc:
        parser.error("cannot build scenario: "
                     + exc.template.format(exc.source + 1))
    except (ValueError, KeyError) as exc:  # str() of a KeyError would quote it
        parser.error(f"cannot build scenario: {exc.args[0]}")
    return expr, config


def _state(args, expr, parser):
    from . import states
    try:
        return states.parse_state_spec(args.state, expr.topology)
    except ValueError as exc:
        parser.error(f"bad state spec: {exc}")


def _emit(command: str, config: dict, results: dict, out: str | None) -> None:
    report = {"tool": {"name": "netbell", "version": __version__},
              "command": command, "config": config, "results": results}
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _results(expr: InequalityExpr, **fields) -> dict:
    return {"inequality": expr.name, "tag": expr.tag,
            "declared_bound": expr.classical_bound, **fields}


def _finite(value: float) -> float | str:
    return value if math.isfinite(value) else "inf"


# -- subcommand handlers -----------------------------------------------------------


def _cmd_list(args, parser) -> int:
    from .catalog import CATALOG  # static text: no numpy, no builders
    rows = [{"name": entry.name, "tag": entry.tag, "families": list(entry.families),
             "parameters": entry.params, "summary": entry.summary}
            for _, entry in sorted(CATALOG.items())]
    _emit("list", {}, {"scenarios": rows}, args.out)
    return 0


def _cmd_certify(args, parser) -> int:
    from . import lhv
    expr, config = _build_scenario(args, parser)
    report = lhv.certify(expr, tolerance=args.tolerance)
    results = _results(expr, claimed_quantum_max=expr.claimed_quantum_max,
                       certification=report)
    _emit("certify", config, results, args.out)
    return 0 if report["verdict"] in ("PASS", "INFO") else 1


def _cmd_evaluate(args, parser) -> int:
    from . import quantum
    expr, config = _build_scenario(args, parser)
    state = _state(args, expr, parser)
    try:
        value = quantum.evaluate(expr, state, args.angles)
    except (KeyError, ValueError) as exc:
        parser.error(exc.args[0])
    results = _results(expr, value=value,
                       claimed_quantum_max=expr.claimed_quantum_max,
                       exceeds_bound=value > expr.classical_bound + 1e-12)
    _emit("evaluate", config, results, args.out)
    return 0


def _cmd_optimize(args, parser) -> int:
    from . import quantum
    expr, config = _build_scenario(args, parser)
    state = _state(args, expr, parser)
    check = quantum.claimed_max_check(expr, state, tolerance=args.tolerance,
                                      starts=args.starts, seed=args.seed)
    results = _results(expr, optimization=check)
    _emit("optimize", config, results, args.out)
    return 0 if check["achieved"] else 1


def _cmd_simulate(args, parser) -> int:
    if args.rounds is None:
        parser.error("simulate needs --rounds")
    csv = args.format == "csv"
    if csv and not args.out:
        parser.error("--format csv needs --out for the round log")
    from . import sampler
    expr, config = _build_scenario(args, parser)
    state = _state(args, expr, parser)
    try:
        counts = sampler.ProfileCounts(expr)
        chunks = sampler.simulate_chunks(expr, state, args.rounds, args.seed,
                                         args.angles)
    except (KeyError, ValueError) as exc:
        parser.error(exc.args[0])
    # a chunk at a time: its rows to the round log, its rounds to the counts
    index = expr.input_index
    vocab = dict(zip(index.parties, index.vocab))
    with (sampler.RoundLog(args.out, index.parties, vocab) if csv
          else contextlib.nullcontext()) as log:
        for first, chunk in chunks:
            if csv:
                log.write(chunk, first)
            counts.add(chunk)
    payload = counts.report().as_dict()
    payload["value"] = _finite(payload["value"])
    for part in (payload, *payload["terms"], *payload["families"].values()):
        part["se"] = _finite(part["se"])
    results = _results(expr, claimed_quantum_max=expr.claimed_quantum_max,
                       estimate=payload)
    if csv:
        results["round_log"] = args.out
    _emit("simulate", config, results, None if csv else args.out)
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netbell",
                     description="Certify and probe network Bell inequalities")
    parser.add_argument("--version", action="version",
                        version=f"netbell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_list = sub.add_parser("list", help="catalog the built-in scenarios")
    p_list.add_argument("--out", help="write the JSON report here")
    p_list.set_defaults(handler=_cmd_list, parser=p_list)
    for name, handler, summary in (
            ("certify", _cmd_certify, "compute the classical bound"),
            ("evaluate", _cmd_evaluate, "exact quantum value"),
            ("optimize", _cmd_optimize, "optimize measurement angles"),
            ("simulate", _cmd_simulate, "simulate rounds and estimate")):
        p = sub.add_parser(name, help=summary)
        for option in (*_SCENARIO_OPTIONS, *_RUN_OPTIONS[name]):
            default = _RUN_OPTIONS[name].get(option)
            p.add_argument("--" + option.replace("_", "-"), help=_OPTIONS[option][2]
                           + ("" if default is None else f" (default {default})"))
        p.add_argument("--config", help="JSON file with values for the unset flags")
        p.add_argument("--out", help="write the JSON report here")
        p.set_defaults(handler=handler, parser=p, **dict.fromkeys(_OPTIONS))
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    parser = args.parser  # the subcommand's, so every message names it
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command != "list":
        _resolve(args, parser)
    # before any work, so a bad path does not cost a whole run
    if args.out and os.path.isdir(args.out):
        parser.error(f"--out {args.out!r}: is a directory")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        parser.error(f"--out {args.out!r}: no such directory")
    try:
        return args.handler(args, parser)
    except MemoryError:
        print(f"{parser.prog}: error: out of memory; "
              "ask for fewer rounds or a smaller scenario", file=sys.stderr)
        return 3
    except Exception as exc:  # one line, never a traceback
        print(f"{parser.prog}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
