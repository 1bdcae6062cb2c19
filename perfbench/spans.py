"""Spans and counters around the calls into netbell's modules.

The benchmark wraps netbell's public functions by patching module and class
attributes in its own process only; nothing in the package changes.  Calls
inside a module go through the module's globals, so nested calls (certify ->
enumerate_vertices, parse_state_spec -> network_state) are recorded too.

A span is ``(name, layer, start, end, parent, op)``: ``parent`` indexes the
enclosing span (-1 at top level) and ``op`` is the benchmark op that caused it.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("scenario", "states", "lhv", "quantum", "sampler", "cli")

# (layer, module, attribute or Class.method) wrapped with a span
SPANNED = [
    ("scenario", "scenario", "build_chsh"),
    ("scenario", "scenario", "build_bilocal_baseline"),
    ("scenario", "scenario", "build_star_first"),
    ("scenario", "scenario", "build_star_second"),
    ("scenario", "scenario", "build_star_combined"),
    ("scenario", "scenario", "build_star_nonlinear"),
    ("scenario", "scenario", "build_two_source_linear"),
    ("scenario", "scenario", "build_nkm"),
    ("scenario", "scenario", "build_ghz_a"),
    ("scenario", "scenario", "build_ghz_b"),
    ("states", "states", "network_state"),
    ("states", "states", "parse_state_spec"),
    ("states", "states", "expectation"),
    ("lhv", "lhv", "certify"),
    ("lhv", "lhv", "cross_polytope_structure"),
    ("lhv", "lhv", "enumerate_vertices"),
    ("lhv", "lhv", "normalization_check"),
    ("lhv", "lhv", "linear_lhv_max"),
    ("lhv", "lhv", "nonlinear_lhv_max"),
    ("quantum", "quantum", "compile_expression"),
    ("quantum", "quantum", "evaluate"),
    ("quantum", "quantum", "optimize_angles"),
    ("sampler", "sampler", "simulate_rounds"),
    ("sampler", "sampler", "estimate"),
    ("sampler", "sampler", "RoundBatch.to_csv"),
    ("cli", "cli", "main"),
]
CLI_SUBCOMMANDS = ("list", "certify", "evaluate", "optimize", "simulate")

# counters that must repeat exactly across runs at one seed
EXACT_COUNTERS = ("quantum.value_calls", "lhv.strategies_reduced", "lhv.vertices",
                  "states.expectation_calls", "sampler.cells_allocated",
                  "sampler.cells_touched", "sampler.csv_bytes")
COUNTERS = ("scenario.terms", "states.expectation_calls",
            "lhv.strategies_reduced", "lhv.vertices", "lhv.route_enumeration",
            "lhv.route_structure", "quantum.value_calls", "quantum.starts",
            "quantum.sweeps", "quantum.starts_at_best", "sampler.rounds",
            "sampler.cells_allocated", "sampler.cells_touched",
            "sampler.empty_cells", "sampler.csv_bytes")


def _touched_cells(expr, batch) -> int:
    """Distinct dense cells that ``estimate`` reads: 2^s per term, deduplicated."""
    parties = expr.topology.party_ids()
    sizes = [len(batch.vocab[p]) for p in parties]
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
    cells = set()
    for t in expr.terms:
        corr = t.correlator
        base, offsets = 0, np.zeros(1, dtype=np.int64)
        for p, stride in zip(parties, strides):
            index = batch.vocab[p].index
            if p in corr.exponent_map:
                i0 = index(expr.input_label(t.family, p, "0"))
                i1 = index(expr.input_label(t.family, p, "1"))
                base += i0 * stride
                offsets = np.concatenate([offsets, offsets + (i1 - i0) * stride])
            else:
                base += index(expr.input_label(t.family, p, corr.joint_map[p])) * stride
        cells.update((base + offsets).tolist())
    return len(cells)


class Tracer:
    """In-memory spans and counters; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self._open_layers: Counter = Counter()
        self._outer: list[bool] = []    # per span: no enclosing span of its name
        self._patched: list[tuple] = []
        self._touched: dict[tuple, int] = {}
        self.missing: list[str] = []     # what could not be wrapped or counted

    # -- recording -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self._outer.clear()
        self.counts.clear()

    def _wrap(self, layer: str, name: str, fn, after=None, outer_in_layer=False):
        """Span around ``fn``.  ``after`` sees the result of calls that are not
        nested in a call of the same function (or, with ``outer_in_layer``,
        of any function of the same layer), so counts are not doubled."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.main.{argv[0] if argv else 'none'}"
            outer = tracer._open_names[span_name] == 0
            counted = outer and (not outer_in_layer or tracer._open_layers[layer] == 0)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._outer.append(outer)
            tracer._stack.append(index)
            tracer._open_names[span_name] += 1
            tracer._open_layers[layer] += 1
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._open_names[span_name] -= 1
                tracer._open_layers[layer] -= 1
                tracer._stack.pop()
                tracer.spans[index] = (span_name, layer, start, end, parent, tracer.op)
            if after is not None and counted:
                try:
                    after(args, kwargs, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    tracer.missing.append(f"{span_name} counters: {exc!r}")
            return result

        return wrapper

    def install(self, netbell) -> None:
        mods = {name: getattr(netbell, name) for name in
                ("scenario", "states", "lhv", "quantum", "sampler", "cli")}
        hooks = {
            "build": self._after_build,
            "expectation": self._count("states.expectation_calls"),
            "enumerate_vertices": self._after_enumerate,
            "certify": self._after_certify,
            "optimize_angles": self._after_optimize,
            "simulate_rounds": self._after_simulate,
            "estimate": self._after_estimate,
            "RoundBatch.to_csv": self._after_to_csv,
        }
        for layer, mod_name, attr in SPANNED:
            owner, fn_name = mods[mod_name], attr
            if "." in attr:
                cls_name, fn_name = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = owner.__dict__.get(fn_name)
            if fn is None:  # gone from netbell: its metrics read 0
                self.missing.append(f"{mod_name}.{attr}")
                continue
            build = attr.startswith("build_")
            hook = hooks.get("build" if build else attr)
            self._patch(owner, fn_name, self._wrap(
                layer, f"{mod_name}.{fn_name}", fn, hook, outer_in_layer=build))
        compiled = getattr(mods["quantum"], "CompiledExpression", None)
        value = getattr(compiled, "__dict__", {}).get("value")
        if value is None:
            self.missing.append("quantum.CompiledExpression.value")
            return
        counts = self.counts

        def counted_value(self_, angles):
            counts["quantum.value_calls"] += 1
            return value(self_, angles)

        self._patch(compiled, "value", counted_value)

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- counters at the same boundaries ---------------------------------------

    def _count(self, key):
        def after(args, kwargs, result):
            self.counts[key] += 1
        return after

    def _after_build(self, args, kwargs, result):
        exprs = result.values() if isinstance(result, dict) else [result]
        self.counts["scenario.terms"] += sum(len(e.terms) for e in exprs)

    def _after_enumerate(self, args, kwargs, result):
        self.counts["lhv.strategies_reduced"] += result.n_reduced
        self.counts["lhv.vertices"] += len(result.vectors)

    def _after_certify(self, args, kwargs, result):
        route = "enumeration" if result["method"] == "enumeration" else "structure"
        self.counts[f"lhv.route_{route}"] += 1

    def _after_optimize(self, args, kwargs, result):
        best = result.value
        tol = 1e-9 * max(1.0, abs(best))
        self.counts["quantum.starts"] += len(result.start_values)
        self.counts["quantum.sweeps"] += result.sweeps
        self.counts["quantum.starts_at_best"] += sum(
            1 for v in result.start_values if v >= best - tol)

    def _after_simulate(self, args, kwargs, result):
        self.counts["sampler.rounds"] += len(result)

    def _after_estimate(self, args, kwargs, result):
        expr, batch = args[0], args[1]
        self.counts["sampler.cells_allocated"] += math.prod(
            len(batch.vocab[p]) for p in batch.parties)
        key = (expr.name, expr.tag)   # the CLI builds a fresh expression per call
        if key not in self._touched:
            self._touched[key] = _touched_cells(expr, batch)
        self.counts["sampler.cells_touched"] += self._touched[key]
        self.counts["sampler.empty_cells"] += result.empty_cells

    def _after_to_csv(self, args, kwargs, result):
        target = args[1] if len(args) > 1 else kwargs["target"]
        if isinstance(target, (str, bytes, os.PathLike)):
            self.counts["sampler.csv_bytes"] += os.path.getsize(target)

    # -- derived metrics -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive time per function, self time per layer, and the counters.

        Nested calls of one function count once; a layer's self time is its
        spans' time minus the time their child spans cover.
        """
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        build = 0.0
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            if layer == "scenario" and (parent < 0 or self.spans[parent][1] != "scenario"):
                build += end - start
        for i, (name, layer, start, end, parent, _) in enumerate(self.spans):
            if self._outer[i]:
                inclusive[name] += end - start
            self_time[layer] += (end - start) - child_time[i]
        out: dict[str, float] = {"scenario.build_s": build}
        for layer, mod, attr in SPANNED:
            fn = attr.split(".")[-1]
            if not attr.startswith("build_") and attr != "main":
                out[f"{layer}.{fn}_s"] = inclusive[f"{mod}.{fn}"]
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.main.{sub}_s"] = inclusive[f"cli.main.{sub}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        for key in COUNTERS:
            out[key] = self.counts[key]
        return out


def add_ratios(m: dict[str, float]) -> dict[str, float]:
    """Useful outcomes over attempts, from (possibly summed) counters."""
    m["quantum.starts_at_best_frac"] = m["quantum.starts_at_best"] / max(
        1, m["quantum.starts"])
    m["sampler.cells_touched_frac"] = m["sampler.cells_touched"] / max(
        1, m["sampler.cells_allocated"])
    return m
