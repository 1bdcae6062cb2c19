"""netbell benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; netbell is imported from its ``src``.
The run measures set-up in fresh processes, then repeats whole passes of the
workload for ``--seconds`` (at least two), checks every output, and prints one
JSON object as its last stdout line.  With ``--trace 0`` that object carries
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics from spans around the calls into each netbell module.  Times are
normalised to a reference host speed (see hostspeed.py).  Details (every pass,
every failure, the environment, and the spans) go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads as wl
from hostspeed import REFERENCE_S, HostSpeed
from spans import EXACT_COUNTERS, Tracer, add_ratios

WORK = wl.ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
clock = time.perf_counter


def _below_parent() -> None:
    """Run a child below this process's priority on their shared CPU, so the
    host-speed handler preempts it at once and its kernel times the CPU alone."""
    os.nice(5)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(wl.SRC)
    return env


def timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = clock()
    proc = subprocess.run(argv, capture_output=True, env=child_env(), cwd=wl.ROOT,
                          timeout=CHILD_TIMEOUT_S, preexec_fn=_below_parent)
    return clock() - start, proc


def run_items(items, call, host: HostSpeed, label=None, tracer=None):
    """Call every item once; returns [(item, seconds, kernel seconds, result)]."""
    raw = []
    host.probe()
    for item in items:
        if tracer is not None:
            tracer.op = label(item)
        result, seconds, kernel = host.timed(call, item)
        raw.append((item, seconds, kernel, result))
    return raw


def measure_setup(workload: str, host: HostSpeed) -> list[tuple[float, float]]:
    """Fresh process: import netbell, build the workload's expressions and states."""
    argv = [sys.executable, str(wl.ROOT / "perfbench" / "workloads.py"), workload]
    raw = run_items(range(SETUP_REPEATS), lambda _: timed_child(argv)[1], host)
    for _, _, _, proc in raw:
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-500:]}")
    return [(dt, kernel) for _, dt, kernel, _ in raw]


def measure_cli_import() -> float:
    """Fresh ``import netbell.cli`` minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(timed_child([sys.executable, "-c", "pass"])[0])
        full.append(timed_child([sys.executable, "-c", "import netbell.cli"])[0])
    return statistics.median(full) - statistics.median(bare)


# -- one pass ----------------------------------------------------------------------


def judged(check, *args) -> wl.Outcome:
    """A check that raises (say, on a changed report format) marks the op wrong."""
    try:
        return check(*args)
    except Exception as exc:  # reported, never fatal
        return wl.Outcome(wrong=f"check raised {exc!r}")


def call_op(op):
    try:
        return op.run(), None
    except Exception:  # a failed op is counted, never fatal
        return None, traceback.format_exc(limit=3)


def library_pass(ops, host, tracer=None):
    """Every op once; rows are (kind, name, seconds, kernel seconds, outcome)."""
    raw = run_items(ops, call_op, host, lambda op: f"{op.kind}:{op.name}", tracer)
    outputs = {(op.kind, op.name): out for op, _, _, (out, err) in raw if err is None}
    return [(op.kind, op.name, dt, kernel,
             wl.Outcome(error=err) if err else judged(op.check, out, outputs))
            for op, dt, kernel, (out, err) in raw]


def run_cli_subprocess(case):
    proc = subprocess.run([sys.executable, "-m", "netbell", *case.argv],
                          capture_output=True, env=child_env(), cwd=wl.ROOT,
                          timeout=CHILD_TIMEOUT_S, preexec_fn=_below_parent)
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def run_cli_inprocess(case):
    from netbell import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(case.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter would print and exit 1 for
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue()


def cli_pass(cases, invoke, host, tracer=None):
    for case in cases:  # a round log must come from this pass
        if case.csv_out is not None:
            case.csv_out.unlink(missing_ok=True)
    raw = run_items(cases, invoke, host, lambda c: c.argv[0], tracer)
    return [(case.argv[0], " ".join(case.argv), dt, kernel,
             judged(wl.check_cli, case, *result))
            for case, dt, kernel, result in raw]


# -- metrics -----------------------------------------------------------------------


def pass_summary(times, rows) -> dict:
    """Per-pass metrics from per-op ``times`` (raw or rescaled) and their rows."""
    per_kind = {k: sum(t for t, r in zip(times, rows) if r[0] == k)
                for k in ("certify", "optimize", "simulate")}
    rounds = sum(r[4].rounds for r in rows if r[0] == "simulate")
    return {"wall_s": sum(times), "certify_s": per_kind["certify"],
            "optimize_s": per_kind["optimize"], "simulate_s": per_kind["simulate"],
            "rounds_per_s": rounds / per_kind["simulate"] if per_kind["simulate"] else 0.0}


def tail(latencies: list[float], per_pass: int) -> tuple[float, float]:
    """Tail latency at the highest percentile with ten samples beyond it in
    ``MIN_PASSES`` passes, so the percentile does not move with the pass count."""
    n = MIN_PASSES * per_pass
    pct = 100.0 * (n - 10) / n
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    return pct, cuts[round(pct * 10) - 1]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment() -> dict:
    import numpy
    src = hashlib.sha256()
    for path in sorted((wl.SRC / "netbell").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_1m": os.getloadavg()[0],
            "git_revision": git_revision(), "src_sha256": src.hexdigest(),
            "platform": platform.platform()}


def git_revision() -> str | None:
    head = wl.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (wl.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


# -- the run -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "netbell" / "__init__.py").is_file():
        print(f"perfbench: no netbell sources under {wl.SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # one CPU for this process and its children: the host-speed probes then
    # time the CPU that the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload, trace = args.workload, bool(args.trace)
    declared = declared_metrics(trace)
    host = HostSpeed()
    with host:
        setup_runs = [] if trace else measure_setup(workload, host)
        netbell = wl.import_netbell()
        tracer = Tracer(clock) if trace else None
        if trace and workload != "cli":
            tracer.install(netbell)     # the library workloads' in-process set-up
        if workload == "cli":
            cases = wl.cli_cases(args.seed, WORK)
            # traced runs call cli.main in-process, untraced runs spawn netbell
            invoke = run_cli_inprocess if trace else run_cli_subprocess

            def one_pass(t=None):
                return cli_pass(cases, invoke, host, t)
        else:
            ops = wl.library_ops(workload, wl.build_inputs(workload), args.seed)

            def one_pass(t=None):
                return library_pass(ops, host, t)
        setup_layers = None
        if trace:
            setup_layers = tracer.layer_metrics() if workload != "cli" else None
            tracer.uninstall()
            tracer.reset()

        passes, traced = [], []   # rows per untraced pass / (rows, layers, spans) per traced
        start = clock()
        while True:
            passes.append(one_pass())
            if trace:
                tracer.install(netbell)
                try:
                    rows = one_pass(tracer)
                finally:
                    tracer.uninstall()
                traced.append((rows, tracer.layer_metrics(), list(tracer.spans)))
                tracer.reset()
            elapsed = clock() - start
            per_round = elapsed / len(passes)
            if len(passes) >= (1 if trace else MIN_PASSES) and elapsed + per_round > args.seconds:
                break

    all_rows = [r for rows in passes for r in rows] + [r for rows, _, _ in traced for r in rows]
    attempted = len(all_rows)
    failed = [(r[0], r[1], r[4].error) for r in all_rows if r[4].error]
    wrong = [(r[0], r[1], r[4].wrong) for r in all_rows if r[4].wrong]

    def scaled(rows):
        return [host.normalise(r[2], r[3]) for r in rows]

    summaries = [pass_summary(scaled(rows), rows) for rows in passes]
    raw_summaries = [pass_summary([r[2] for r in rows], rows) for rows in passes]
    latencies = [t for rows in passes for t in scaled(rows)]
    tail_pct, tail_s = tail(latencies, len(passes[0]))
    values = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
    values.update(op_p50_s=statistics.median(latencies), op_tail_s=tail_s,
                  peak_rss_mb=peak_rss_mb(with_children=workload == "cli"))
    if setup_runs:
        values["setup_s"] = statistics.median(host.normalise(*run) for run in setup_runs)

    if trace:
        per_pass = []
        for _, layers, _ in traced:
            merged = dict(layers)
            if setup_layers is not None:
                for key, v in setup_layers.items():
                    merged[key] += v
            per_pass.append(add_ratios(merged))
        values = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        values["cli.import_s"] = measure_cli_import()
        values["trace.wall_s"] = statistics.median(
            sum(scaled(rows)) for rows, _, _ in traced)
        values["trace.untraced_wall_s"] = statistics.median(s["wall_s"] for s in summaries)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        counters_repeat = all(
            {k: p[k] for k in EXACT_COUNTERS} == {k: per_pass[0][k] for k in EXACT_COUNTERS}
            for p in per_pass)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    # human-readable report, then the details file, then the result line
    print(f"workload {workload}  seed {args.seed}  trace {int(trace)}  "
          f"passes {len(passes)}{f' + {len(traced)} traced' if trace else ''}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  ops_failed_frac {len(failed) / attempted:.4f} "
          f"({len(failed)} failed / {attempted} attempted)")
    kernel = statistics.quantiles(host.kernel_s, n=10)
    print(f"  times are at reference host speed: the calibration kernel took "
          f"{kernel[0] / REFERENCE_S:.2f}x to {kernel[-1] / REFERENCE_S:.2f}x its reference "
          f"time (10th to 90th percentile)")
    if not trace:
        raw_wall = statistics.median(s["wall_s"] for s in raw_summaries)
        print(f"  unscaled wall_s {raw_wall:.6g} s")
        print(f"  op_tail_s is p{tail_pct:.1f} of {len(latencies)} op latencies")
        if workload == "cli":
            print(f"  cli_p50_s {values['op_p50_s']:.6g} s, cli_tail_s (p{tail_pct:.1f}, "
                  f"n={len(latencies)}) {tail_s:.6g} s: ops are netbell invocations")
    for what in sorted(set(tracer.missing)) if trace else ():
        print(f"  NOT TRACED {what}")
    for kind, name, why in failed:
        print(f"  FAILED {kind} {name}: {why}")
    for kind, name, why in wrong:
        print(f"  WRONG {kind} {name}: {why}")

    details = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(trace), "environment": environment(), "metrics": values,
        "setup_runs": [{"s": dt, "kernel_s": k} for dt, k in setup_runs],
        "host_kernel_s": {"reference": REFERENCE_S, "deciles": kernel,
                          "n": len(host.kernel_s)},
        "passes": summaries, "unscaled_passes": raw_summaries,
        "pass_quartiles": {k: quartiles([s[k] for s in summaries]) for k in summaries[0]},
        "op_tail_percentile": tail_pct, "op_latency_samples": len(latencies),
        "ops": [{"kind": r[0], "name": r[1], "s": r[2], "kernel_s": r[3],
                 "error": r[4].error, "wrong": r[4].wrong} for r in all_rows],
    }
    if trace:
        details["counters_repeat_across_passes"] = counters_repeat
        details["not_traced"] = sorted(set(tracer.missing))
        details["layers_per_pass"] = per_pass
        spans_file = WORK / f"spans-{workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "op"],
             "passes": [spans for _, _, spans in traced]}))
        details["spans_file"] = spans_file.name
    (WORK / f"result-{workload}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1, default=str))
    for path in (WORK / "big.csv", WORK / "rounds.csv"):
        path.unlink(missing_ok=True)

    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
