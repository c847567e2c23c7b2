#!/usr/bin/env python3
"""Worker-count bit-identity smoke test for samcampaign (stdlib only).

Every run executes in a fresh single-threaded Session, so a campaign's
results must not depend on how many workers ran it. This checks that
end to end on the real campaign binary:

  1. run the fig12/13/15 quick campaigns at `--jobs 1` and `--jobs 8`;
  2. assert the BENCH documents are byte-identical modulo wall-clock
     fields (wall_ms, run_wall_ms_total, throughput, jobs) -- every
     cycle count, stat counter, ECC/RAS figure, and derived metric
     must match;
  3. assert the JOURNALs are identical modulo the per-line wall
     timestamp (ts_ms), attempt wall times, and line order.

Usage:
    python3 tools/jobs_diff_smoke.py <samcampaign> [fig...]

Registered as the `jobs_diff_smoke` ctest, which passes the built
binary. Exit 0 on success, 1 with a diagnostic on the first mismatch.
"""

import json
import os
import subprocess
import sys
import tempfile

FIGS = ["12", "13", "15"]
WALL_BENCH_KEYS = ("wall_ms", "run_wall_ms_total", "jobs", "throughput")
WALL_JOURNAL_KEYS = ("ts_ms", "wall_ms")


def fail(step, message, proc=None):
    print(f"jobs_diff_smoke: FAIL [{step}]: {message}")
    if proc is not None:
        print(f"  command: {' '.join(proc.args)}")
        print(f"  exit:    {proc.returncode}")
        for line in proc.stdout.splitlines()[-15:]:
            print(f"  | {line}")
    sys.exit(1)


def normalized_bench(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in WALL_BENCH_KEYS:
        doc.pop(key, None)
    for row in doc.get("runs", []):
        for key in WALL_BENCH_KEYS:
            row.pop(key, None)
    return doc


def strip_wall(node, keys):
    """Drop wall-clock keys anywhere in a JSON tree, in place."""
    if isinstance(node, dict):
        for key in keys:
            node.pop(key, None)
        for value in node.values():
            strip_wall(value, keys)
    elif isinstance(node, list):
        for value in node:
            strip_wall(value, keys)
    return node


def normalized_journal(path):
    lines = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            lines.append(
                strip_wall(json.loads(raw),
                           WALL_JOURNAL_KEYS + ("throughput",)))
    # Journal lines land in worker completion order, which is
    # legitimately nondeterministic at --jobs > 1; the invariant is the
    # multiset of records, so compare in a canonical order.
    lines.sort(key=lambda row: json.dumps(row, sort_keys=True))
    return lines


def run_campaign(samcampaign, out, fig, jobs):
    os.makedirs(out)
    proc = subprocess.run(
        [samcampaign, "--fig", fig, "--quick", "--jobs", jobs,
         "--out", out],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail(f"fig{fig} jobs={jobs}", "campaign failed", proc)
    return (normalized_bench(os.path.join(out, f"BENCH_fig{fig}.json")),
            normalized_journal(
                os.path.join(out, f"JOURNAL_fig{fig}.jsonl")))


def first_diff(a, b):
    """Human-readable pointer at the first differing entry."""
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return f"entry {i}: {json.dumps(x)[:200]} != " \
                       f"{json.dumps(y)[:200]}"
        return f"length {len(a)} != {len(b)}"
    ka, kb = set(a), set(b)
    if ka != kb:
        return f"key sets differ: {sorted(ka ^ kb)}"
    for k in sorted(ka):
        if a[k] != b[k]:
            if isinstance(a[k], (list, dict)):
                return f"'{k}': " + first_diff(a[k], b[k])
            return f"'{k}': {a[k]} != {b[k]}"
    return "(no diff found?)"


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 1
    samcampaign = sys.argv[1]
    figs = sys.argv[2:] or FIGS
    with tempfile.TemporaryDirectory(prefix="jobs_diff_") as tmp:
        for fig in figs:
            one_bench, one_journal = run_campaign(
                samcampaign, os.path.join(tmp, f"f{fig}_j1"), fig, "1")
            many_bench, many_journal = run_campaign(
                samcampaign, os.path.join(tmp, f"f{fig}_j8"), fig, "8")
            tag = f"fig{fig} jobs=1 vs 8"
            if one_bench != many_bench:
                fail(tag, "BENCH differs: " +
                     first_diff(one_bench, many_bench))
            if one_journal != many_journal:
                fail(tag, "JOURNAL differs: " +
                     first_diff(one_journal, many_journal))
            print(f"jobs_diff_smoke: {tag}: BENCH+JOURNAL "
                  f"bit-identical ({len(one_bench['runs'])} runs)")
    print("jobs_diff_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
