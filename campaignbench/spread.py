#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload (--trace 0) and
prints, per metric, the median and the interquartile range as a share
of the median, next to a third of the metric's bound from
BENCHMARK.json (the target a steady benchmark stays under).

Usage (from the repository root):
    python3 campaignbench/spread.py [--seeds 10] [--first-seed 1] \
        [workload ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in args.workloads:
        values = {}
        failed = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed",
                                    str(seed), "--seconds",
                                    str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: correct is false")
            failed.add(result["failed"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.seeds} seeds, failed runs {sorted(failed)}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            target = bounds[name] / 3
            ok = spread < target or name == "setup_s"
            steady = steady and ok
            print(f"  {name:20s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  (bound/3 {target:.4f}){'' if ok else '  TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
