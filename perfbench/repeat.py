"""Repeat the benchmark over seeds and state its noise.

    python3 perfbench/repeat.py --workloads catalog cli --seeds 1-10
    python3 perfbench/repeat.py --workloads catalog --seeds 1-5 --counters 3 --held-out 9001

For every workload: one run per seed, then per end-to-end metric the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.  ``--counters N`` adds two traced
runs at seed N and compares the exact counters, which must agree exactly.
``--held-out S`` adds one run at a seed not used while tuning and reports
whether each metric falls inside the seeds' quartile range widened by its bound.
The summary is written to ``.perfbench_work/repeat-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spans import EXACT_COUNTERS  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: correct {result['correct']} "
          f"failed {result['failed']}/{result['attempted']}", flush=True)
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--counters", type=int, help="seed for the counter check")
    parser.add_argument("--held-out", type=int, dest="held_out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        stats = {name: spread([r["metrics"][name]["value"] for r in runs])
                 for name in bounds}
        entry = {"seeds": args.seeds, "metrics": stats,
                 "correct": all(r["correct"] for r in runs),
                 "failed": [r["failed"] for r in runs],
                 "attempted": [r["attempted"] for r in runs]}
        print(f"{workload}: {len(runs)} runs")
        for name, st in stats.items():
            bound = bounds[name]["bound"]
            flag = "ok" if st["spread"] < bound / 3 else (
                "within bound" if st["spread"] <= bound else "TOO NOISY")
            print(f"  {name:<14} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                  f"q3 {st['q3']:<12.6g} spread {st['spread']:.3f} / bound {bound} {flag}")
        if args.counters is not None:
            a, b = (run_once(workload, args.counters, seconds, 1) for _ in range(2))
            diff = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                    for k in EXACT_COUNTERS
                    if a["metrics"][k]["value"] != b["metrics"][k]["value"]}
            entry["counters_repeat"] = not diff
            entry["counters"] = {k: a["metrics"][k]["value"] for k in EXACT_COUNTERS}
            print(f"  exact counters repeat at seed {args.counters}: {not diff} {diff or ''}")
        if args.held_out is not None:
            held = run_once(workload, args.held_out, seconds, 0)
            inside = {}
            for name, st in stats.items():
                slack = bounds[name]["bound"] * st["median"]
                v = held["metrics"][name]["value"]
                inside[name] = st["q1"] - slack <= v <= st["q3"] + slack
            entry["held_out"] = {"seed": args.held_out, "correct": held["correct"],
                                 "inside": inside}
            print(f"  held-out seed {args.held_out}: correct {held['correct']}, outside "
                  f"the widened quartiles: {[k for k, ok in inside.items() if not ok]}")
        summary[workload] = entry
    out = ROOT / ".perfbench_work" / f"repeat-{'-'.join(args.workloads)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
