#!/usr/bin/env python3
"""Crash-safety smoke test for samcampaign (stdlib only).

Proves the write-ahead-journal + resume contract end to end, on real
binaries, with real SIGKILLs:

  1. run a quick fig12 campaign (cheap designs only) to get a golden
     BENCH document;
  2. for several seeds, chaos-kill the campaign process itself partway
     through (`--chaos seed=S,die@K`), then `--resume` the journal and
     assert the merged BENCH document is byte-identical to the golden
     one (wall-clock fields excepted);
  3. exhaust retries on one spec (`kill@spec:0`) and assert the
     campaign still completes with partial results, a `failed` array,
     and a non-zero exit -- then resume to convergence;
  4. spot-check flag validation (usage errors exit 2);
  5. check that a silently wrong samsim result is reported as SDC and
     exits 1;
  6. check that running out of memory (paper-scale tables under a
     512 MiB address-space limit) is a one-line diagnostic and exit 2,
     for samsim and for samcampaign under both isolation modes, whose
     runs must fail without a retry. Skipped when SAM_SANITIZE is set
     in the environment: sanitizer runtimes reserve far more address
     space than the limit allows.

Usage:
    python3 tools/chaos_smoke.py <samcampaign> [<samsim>]

Registered as the `chaos_smoke` ctest; the driver passes the built
binaries. Exit 0 on success, 1 with a diagnostic on the first failure.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import tempfile

# Cheap designs only: the expensive layouts (RC-NVM, SAM-sub) pay a
# multi-second table materialization per forked worker, which is an
# isolation cost, not a crash-safety behavior. 72 runs.
CAMPAIGN = [
    "--fig", "12", "--quick", "--ta", "256", "--tb", "256",
    "--only", "SAM-en/,GS-DRAM/,baseline/,ideal/",
    "--jobs", "2", "--isolate", "proc",
]
DIE_POINTS = [(3, 10), (7, 25), (11, 40)]  # (seed, launch to die at)
MAX_RESUMES = 6


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def load_normalized(path):
    """BENCH document with wall-clock (and jobs) fields stripped."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("wall_ms", "run_wall_ms_total", "jobs", "throughput"):
        doc.pop(key, None)
    for row in doc.get("runs", []):
        row.pop("wall_ms", None)
        row.pop("throughput", None)
    return doc


def fail(step, message, proc=None):
    print(f"chaos_smoke: FAIL [{step}]: {message}")
    if proc is not None:
        print(f"  command: {' '.join(proc.args)}")
        print(f"  exit:    {proc.returncode}")
        tail = proc.stdout.splitlines()[-15:]
        for line in tail:
            print(f"  | {line}")
    sys.exit(1)


def expect_exit(step, proc, want):
    if proc.returncode != want:
        fail(step, f"expected exit {want}, got {proc.returncode}", proc)


def campaign_cmd(samcampaign, out_dir, extra):
    return [samcampaign] + CAMPAIGN + ["--out", out_dir] + extra


def golden_run(samcampaign, tmp):
    out = os.path.join(tmp, "golden")
    os.mkdir(out)
    proc = run(campaign_cmd(samcampaign, out, []), tmp)
    expect_exit("golden", proc, 0)
    doc = load_normalized(os.path.join(out, "BENCH_fig12.json"))
    if len(doc["runs"]) != 72:
        fail("golden", f"expected 72 runs, got {len(doc['runs'])}")
    print(f"chaos_smoke: golden campaign ok ({len(doc['runs'])} runs)")
    return doc


def check_die_resume(samcampaign, tmp, golden, seed, point):
    step = f"die seed={seed}@{point}"
    out = os.path.join(tmp, f"die_{seed}")
    os.mkdir(out)
    journal = os.path.join(out, "J.jsonl")
    proc = run(campaign_cmd(samcampaign, out, [
        "--chaos", f"seed={seed},die@{point}", "--journal", journal]),
        tmp)
    if proc.returncode != -signal.SIGKILL and proc.returncode != 137:
        fail(step, "campaign survived its own chaos SIGKILL", proc)
    if not os.path.exists(journal):
        fail(step, "no journal written before the crash")

    for attempt in range(MAX_RESUMES):
        proc = run(campaign_cmd(samcampaign, out,
                                ["--resume", journal]), tmp)
        if proc.returncode == 0:
            break
    else:
        fail(step, f"no clean exit after {MAX_RESUMES} resumes", proc)

    merged = load_normalized(os.path.join(out, "BENCH_fig12.json"))
    if merged != golden:
        fail(step, "merged BENCH differs from the golden document")
    summary = [l for l in proc.stdout.splitlines() if "from journal" in l]
    print(f"chaos_smoke: {step} resumed ok"
          f" ({summary[0].strip() if summary else 'no summary line'})")


def check_failed_path(samcampaign, tmp, golden):
    step = "kill@spec"
    out = os.path.join(tmp, "failpath")
    os.mkdir(out)
    journal = os.path.join(out, "J.jsonl")
    proc = run(campaign_cmd(samcampaign, out, [
        "--chaos", "seed=3,kill@spec:0", "--retries", "2",
        "--journal", journal]), tmp)
    expect_exit(step, proc, 1)
    bench = os.path.join(out, "BENCH_fig12.json")
    with open(bench, encoding="utf-8") as fh:
        doc = json.load(fh)
    failed = doc.get("failed", [])
    if len(failed) != 1 or failed[0].get("failure") != "crash":
        fail(step, f"expected one crash-failed run, got {failed}", proc)
    if len(doc["runs"]) != 71:
        fail(step, f"expected 71 surviving runs, got {len(doc['runs'])}")

    proc = run(campaign_cmd(samcampaign, out, ["--resume", journal]),
               tmp)
    expect_exit(step + " resume", proc, 0)
    if load_normalized(bench) != golden:
        fail(step, "resumed BENCH differs from the golden document")
    print("chaos_smoke: retry-exhaustion path ok "
          "(partial results + failed[] + exit 1, resume converges)")


def check_flag_validation(samcampaign, samsim, tmp):
    cases = [([samcampaign, "--fig", "12", "--jobs", "0"], "--jobs 0"),
             ([samcampaign, "--fig", "12", "--chaos", "banana"],
              "--chaos banana"),
             ([samcampaign, "--fig", "99"], "--fig 99"),
             ([samcampaign, "--engine", "step"], "--engine step"),
             ([samcampaign, "--fig", "12", "--out",
               os.path.join(tmp, "no-such-dir")], "--out <missing dir>")]
    if samsim:
        cases += [([samsim, "--jobs", "0"], "samsim --jobs 0"),
                  ([samsim, "--sel", "1.5"], "samsim --sel 1.5"),
                  ([samsim, "--ta", "banana"], "samsim --ta banana"),
                  ([samsim, "--design", "banana"],
                   "samsim --design banana"),
                  ([samsim, "--query", "banana"],
                   "samsim --query banana"),
                  ([samsim, "--ecc", "banana"], "samsim --ecc banana"),
                  ([samsim, "--fault-model", "banana"],
                   "samsim --fault-model banana"),
                  ([samsim, "--tech", "banana"], "samsim --tech banana"),
                  ([samsim, "--fault-model", "chipkill",
                    "--chipkill-chip", "99"],
                   "samsim --fault-model chipkill --chipkill-chip 99"),
                  ([samsim, "--fail-chip", "99"],
                   "samsim --fail-chip 99"),
                  ([samsim, "--design", "GS-DRAM", "--fail-chip", "16"],
                   "samsim --design GS-DRAM --fail-chip 16"),
                  ([samsim, "--chipkill-chip", "3"],
                   "samsim --chipkill-chip without chipkill model"),
                  ([samsim, "--engine", "step"], "samsim --engine step")]
    for cmd, label in cases:
        proc = run(cmd, tmp)
        expect_exit(f"validation {label}", proc, 2)
        if len(proc.stdout.strip().splitlines()) != 1:
            fail(f"validation {label}",
                 "usage errors must be one-line diagnostics", proc)
    print(f"chaos_smoke: flag validation ok ({len(cases)} cases)")


def check_sdc_verdict(samsim, tmp):
    """A wrong result with no poisoned rows is SDC and exits 1."""
    cases = [["--ecc", "SEC-DED", "--fault-model", "chipkill"],
             ["--ecc", "none", "--fault-model", "chipkill"]]
    for flags in cases:
        label = "samsim " + " ".join(flags)
        proc = run([samsim] + flags, tmp)
        expect_exit(f"sdc {label}", proc, 1)
        if "result: SDC (silent data corruption)" not in proc.stdout:
            fail(f"sdc {label}", "expected the SDC verdict line", proc)
    print(f"chaos_smoke: SDC verdict ok ({len(cases)} cases)")


OOM_LIMIT = 512 << 20


def run_capped(cmd, cwd):
    """Run `cmd` under a 512 MiB address-space limit (child only)."""

    def cap_address_space():
        # Child only: the limit is set between fork and exec.
        resource.setrlimit(resource.RLIMIT_AS, (OOM_LIMIT, OOM_LIMIT))

    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          preexec_fn=cap_address_space)


def check_oom_verdict(samsim, tmp):
    """Out of memory is a one-line diagnostic and exit 2, not a crash."""
    step = "oom samsim --scale paper"
    if os.environ.get("SAM_SANITIZE"):
        print(f"chaos_smoke: {step} skipped (sanitizer build)")
        return
    proc = run_capped([samsim, "--scale", "paper", "--query", "Q1"], tmp)
    lines = proc.stderr.strip().splitlines()
    if proc.returncode != 2 or len(lines) != 1 or \
            "out of memory" not in lines[0]:
        print(f"chaos_smoke: FAIL [{step}]: expected exit 2 and one "
              f"'out of memory' stderr line, got exit "
              f"{proc.returncode}")
        for line in lines[-15:]:
            print(f"  | {line}")
        sys.exit(1)
    print(f"chaos_smoke: {step} under a 512 MiB limit ok ({lines[0]})")


def check_campaign_oom(samcampaign, tmp):
    """A run out of memory fails at once; the campaign exits 2."""
    if os.environ.get("SAM_SANITIZE"):
        print("chaos_smoke: oom samcampaign skipped (sanitizer build)")
        return
    for isolate in ("thread", "proc"):
        step = f"oom samcampaign --scale paper --isolate {isolate}"
        out = os.path.join(tmp, f"oom_{isolate}")
        os.mkdir(out)
        proc = run_capped([samcampaign, "--fig", "12", "--scale", "paper",
                           "--only", "SAM-en/Q1", "--isolate", isolate],
                          out)
        output = proc.stdout + proc.stderr
        failed = [l for l in proc.stdout.splitlines() if ": FAILED " in l]
        problems = []
        if proc.returncode != 2:
            problems.append(f"expected exit 2, got {proc.returncode}")
        if not failed:
            problems.append("no FAILED run line")
        for line in failed:
            if "after 1 attempt(s): out of memory (Ta=" not in line or \
                    not line.endswith("records) (oom)"):
                problems.append("not a one-attempt out-of-memory "
                                f"failure: {line}")
        if "bad_alloc" in output:
            problems.append("bare std::bad_alloc in the output")
        if problems:
            print(f"chaos_smoke: FAIL [{step}]: {'; '.join(problems)}")
            for line in output.splitlines()[-15:]:
                print(f"  | {line}")
            sys.exit(1)
        print(f"chaos_smoke: {step} under a 512 MiB limit ok "
              f"({len(failed)} runs failed once with exit 2)")


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    samcampaign = os.path.abspath(sys.argv[1])
    samsim = os.path.abspath(sys.argv[2]) if len(sys.argv) > 2 else None
    with tempfile.TemporaryDirectory(prefix="chaos_smoke_") as tmp:
        golden = golden_run(samcampaign, tmp)
        for seed, point in DIE_POINTS:
            check_die_resume(samcampaign, tmp, golden, seed, point)
        check_failed_path(samcampaign, tmp, golden)
        check_flag_validation(samcampaign, samsim, tmp)
        if samsim:
            check_sdc_verdict(samsim, tmp)
            check_oom_verdict(samsim, tmp)
        check_campaign_oom(samcampaign, tmp)
    print("chaos_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
