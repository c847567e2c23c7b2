#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Usage (from the repository root):
    python3 campaignbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 campaignbench/run.py --self-test

`--workload all` runs every workload of BENCHMARK.json in turn, each in
its own process, and exits nonzero if any of them does.

The first call configures and compiles the simulator library and the
benchmark binary into .bench_build/campaignbench (Release); later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the binary's JSON result. Exits nonzero, printing no result,
when the build fails (for example when ../src is absent).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaignbench")
# Kills a hung run; the binary starts no timed pass after 100 s.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Once configured, `cmake --build` reconfigures by itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "campaignbench")


def run(binary, args):
    try:
        return subprocess.run([binary] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"campaignbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"campaignbench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else 0
    if not at or args[at:at + 1] != ["all"]:
        return run(binary, args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    codes = [run(binary, args[:at] + [name] + args[at + 1:])
             for name in names]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
