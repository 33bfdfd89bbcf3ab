"""Repeat the benchmark over seeds and report each metric's quartile spread.

    python3 perfbench/spread.py --workloads rotation_long,grid_short --seeds 1-10 \
        --seconds 30 --trace 0 --out results.json

Runs ``perfbench/run.py`` once per (workload, seed), one after another, and
prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, next
to the bound of the metric in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            env = json.loads(next(line for line in done.stdout.splitlines()
                                  if line.startswith("environment: "))[len("environment: "):])
            runs.append({"seed": seed, "environment": env, "result": result})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = runs[0]["result"]["metrics"]
        metrics = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in names}
        report[workload] = {"runs": runs, "metrics": metrics}
        for name, m in metrics.items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {workload:<14} {name:<32} median={m['median']:<14.6g} "
                  f"spread={spread:<8} bound={bounds.get(name)}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
