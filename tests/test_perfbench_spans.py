"""The benchmark's spans must still find every function they wrap, and its
counters every attribute they read.

``perfbench/spans.py`` patches netbell functions by name and only notes a
name or attribute it cannot find, so a rename would silently zero that
layer's metrics.
"""

import importlib
import importlib.util
import pathlib
import time

import netbell
from netbell import lhv, quantum, sampler, scenario, states

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_resolves_in_netbell():
    wrapped = [(mod, attr) for _, mod, attr in _spans().SPANNED]
    wrapped.append(("quantum", "CompiledExpression.value"))  # counted calls
    missing = []
    for mod, attr in wrapped:
        owner = importlib.import_module(f"netbell.{mod}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # the spans look in the owner's own namespace, as they patch it
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{mod}.{attr}")
    assert not missing


def test_trace_hooks_read_every_counter(tmp_path):
    """The hooks read netbell objects (vertex sets, correlators, round
    batches, estimate reports) and only note a failed read, so a refactor
    could zero a layer's counters; none may fail on star first K=2, whose
    table the hub builder computes from the bits, nor on ghz-b, whose table
    the small builders write from rows."""
    tracer = _spans().Tracer(time.perf_counter)
    tracer.install(netbell)
    try:
        for build in (lambda: scenario.build_star_first(2), scenario.build_ghz_b):
            expr = build()
            lhv.certify(expr)
            lhv.enumerate_vertices(expr)
            state = states.network_state(expr.topology)
            quantum.optimize_angles(expr, state, starts=2)
            batch = sampler.simulate_rounds(expr, state, 100, seed=1)
            sampler.estimate(expr, batch)
            batch.to_csv(str(tmp_path / "rounds.csv"))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    for key in ("lhv.strategies_reduced", "lhv.vertices", "sampler.rounds",
                "sampler.cells_touched", "sampler.csv_bytes"):
        assert tracer.counts[key] > 0, key
