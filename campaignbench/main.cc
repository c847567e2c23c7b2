/**
 * @file
 * campaignbench -- the repository's end-to-end benchmark.
 *
 * One process runs one workload (see workloads.cc) through the
 * top-level API with one worker thread:
 *
 *   --trace 0  priming passes (every cold table build; their median is
 *              setup_s), then timed passes over all of the workload's
 *              runs (at least three, and more until --seconds have
 *              passed), then verification of every run against the
 *              reference executor, outside the timed window. Prints the
 *              end-to-end metrics.
 *   --trace 1  one priming pass and one timed pass as above, then the
 *              same runs composed layer by layer (layer_adapter.cc) with
 *              a span around each layer call. Prints the per-layer
 *              metrics, and fails the exactness guard unless every
 *              traced run reproduces its untraced RunStats.
 *
 * A run that throws (panic) or disagrees with the reference is counted
 * as failed with its id and first diagnostic line; the workload keeps
 * going and the run's host time still counts. The last line of stdout
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Usage:
 *   campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *   campaignbench --self-test
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "campaignbench/layer_adapter.hh"
#include "campaignbench/workloads.hh"
#include "src/common/logging.hh"
#include "src/core/session.hh"
#include "src/runner/campaign.hh"

namespace {

using namespace sam;
using namespace sam::campaignbench;
using Clock = std::chrono::steady_clock;

/** Priming passes per --trace 0 run; setup_s is their median. */
constexpr unsigned kSetupRepeats = 3;

/** Fewest timed passes: each run's median host time needs three
 *  samples to drop one slow one. */
constexpr unsigned kMinPasses = 3;

/** Stop starting timed passes past this much process time, so a run
 *  stays well under three minutes. */
constexpr double kPassDeadlineS = 100.0;

const auto kStart = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr,
                 "campaignbench: %s\n"
                 "usage: campaignbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       campaignbench --self-test\n",
                 message.c_str());
    std::exit(2);
}

unsigned long long
parseNumber(const char *flag, const char *text, unsigned long long hi)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || text[0] == '-' ||
        v > hi)
        usageError(std::string(flag) + " wants an integer in [0, " +
                   std::to_string(hi) + "], got '" + text + "'");
    return v;
}

// ----- Running -------------------------------------------------------

/** One run through CampaignRunner; a throw becomes a failed outcome. */
RunOutcome
runUntraced(CampaignRunner &runner, const RunSpec &spec)
{
    RunOutcome out;
    const auto t0 = Clock::now();
    try {
        std::vector<RunResult> r = runner.run({spec});
        out.stats = std::move(r.front().stats);
        // Latency histograms are not part of the compared outputs.
        out.stats.telemetry.reset();
    } catch (const std::exception &e) {
        out.failed = true;
        out.error = e.what();
    }
    out.hostMs = secondsSince(t0) * 1e3;
    return out;
}

struct Pass
{
    std::vector<RunOutcome> runs;
    double wallS = 0.0;
};

Pass
runPass(CampaignRunner &runner, const std::vector<RunSpec> &specs)
{
    Pass pass;
    const auto t0 = Clock::now();
    for (const RunSpec &spec : specs)
        pass.runs.push_back(runUntraced(runner, spec));
    pass.wallS = secondsSince(t0);
    return pass;
}

// ----- Outputs, verification and digest ------------------------------

std::string
firstLine(const std::string &text)
{
    return text.substr(0, text.find('\n'));
}

/**
 * The failure's first diagnostic line. A protocol-checker panic puts a
 * generic header first, then the violation count, then the first
 * violated rule; join those three so the line names the rule.
 */
std::string
diagnostic(const std::string &error)
{
    std::string line;
    std::size_t pos = 0;
    for (int kept = 0; kept < 3 && pos < error.size();) {
        std::size_t nl = error.find('\n', pos);
        if (nl == std::string::npos)
            nl = error.size();
        std::string part = error.substr(pos, nl - pos);
        part.erase(0, part.find_first_not_of(' '));
        if (!part.empty()) {
            line += (kept++ ? " | " : "") + part;
        }
        pos = nl + 1;
    }
    return line;
}

/** The simulated outputs of a run, one canonical line. */
std::string
simulatedLine(const RunOutcome &o)
{
    if (o.failed)
        return "FAILED " + o.error;
    const RunStats &s = o.stats;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "cycles=%llu rd=%llu wr=%llu srd=%llu swr=%llu act=%llu "
        "hit=%llu miss=%llu msw=%llu chk=%llu ecc=%llu/%llu "
        "ras=%llu/%llu/%llu/%llu energy=%.17g rows=%llu agg=%llu "
        "sum=%llu",
        static_cast<unsigned long long>(s.cycles),
        static_cast<unsigned long long>(s.memReads),
        static_cast<unsigned long long>(s.memWrites),
        static_cast<unsigned long long>(s.strideReads),
        static_cast<unsigned long long>(s.strideWrites),
        static_cast<unsigned long long>(s.activates),
        static_cast<unsigned long long>(s.rowHits),
        static_cast<unsigned long long>(s.rowMisses),
        static_cast<unsigned long long>(s.modeSwitches),
        static_cast<unsigned long long>(s.checkedCommands),
        static_cast<unsigned long long>(s.eccCorrectedLines),
        static_cast<unsigned long long>(s.eccUncorrectable),
        static_cast<unsigned long long>(s.scrubWritebacks),
        static_cast<unsigned long long>(s.readRetries),
        static_cast<unsigned long long>(s.poisonedReads),
        static_cast<unsigned long long>(s.linesRetired),
        s.power.totalEnergyPj(),
        static_cast<unsigned long long>(s.result.rows),
        static_cast<unsigned long long>(s.result.aggregate),
        static_cast<unsigned long long>(s.result.checksum));
    return buf;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct Failure
{
    std::string id;
    std::string diagnostic;
};

/** Verification of every run of every pass, done after timing. */
struct Verdict
{
    std::vector<Failure> failures;
    /** Problems that make the benchmark's result untrustworthy:
     *  reference mismatches, passes that disagree, guard failures. */
    std::vector<std::string> errors;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    double verifyS = 0.0;
};

Verdict
verify(const std::vector<RunSpec> &specs, const std::vector<Pass> &passes)
{
    Verdict v;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &spec = specs[i];
        const RunOutcome &first = passes.front().runs[i];
        const std::string line = simulatedLine(first);
        for (const Pass &p : passes) {
            if (simulatedLine(p.runs[i]) != line)
                v.errors.push_back(spec.id +
                                   ": simulated outputs differ between "
                                   "timed passes");
        }
        v.digest = fnv1a(v.digest, spec.id + " " + line + "\n");
        if (first.failed) {
            v.failures.push_back({spec.id, diagnostic(first.error)});
            continue;
        }
        try {
            Session(spec.config).checkResult(spec.query, first.stats);
        } catch (const std::exception &e) {
            v.failures.push_back({spec.id, diagnostic(e.what())});
            v.errors.push_back(spec.id + ": " + firstLine(e.what()));
        }
    }
    v.verifyS = secondsSince(t0);
    return v;
}

/**
 * Exactness guard: every traced run must reproduce its untraced run --
 * the same simulated outputs, or the same failure.
 */
void
guardExactness(const std::vector<RunSpec> &specs, const Pass &untraced,
               const std::vector<RunOutcome> &traced,
               std::vector<std::string> &errors)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string want = simulatedLine(untraced.runs[i]);
        const std::string got = simulatedLine(traced[i]);
        if (want != got)
            errors.push_back(specs[i].id + ": traced run differs: " +
                             firstLine(got) + " vs untraced " +
                             firstLine(want));
    }
}

// ----- Metrics -------------------------------------------------------

/** Percentile by linear interpolation between closest ranks. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    if (v.empty())
        return 0.0;
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
frac(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

void
printVerdict(const std::string &workload, std::size_t runs,
             const Verdict &v, const std::vector<std::string> &errors)
{
    std::printf("runs_failed %zu of %zu\n", v.failures.size(), runs);
    for (const Failure &f : v.failures)
        std::printf("  FAILED %s: %s\n", f.id.c_str(),
                    f.diagnostic.c_str());
    std::printf("digest %s %016llx (simulated outputs of every run)\n",
                workload.c_str(),
                static_cast<unsigned long long>(v.digest));
    for (const std::string &e : errors)
        std::printf("ERROR %s\n", e.c_str());
}

// ----- Modes ---------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned seconds = 10;
    bool trace = false;
};

int
runEndToEnd(const Options &opt, const std::vector<RunSpec> &specs)
{
    const std::vector<RunSpec> prime = primingSpecs(specs);
    std::vector<std::string> errors;

    // Each priming pass gets a fresh runner, hence a cold TableCache;
    // the last runner stays warm for the timed passes.
    std::unique_ptr<CampaignRunner> runner;
    std::vector<double> setups;
    for (unsigned r = 0; r < kSetupRepeats; ++r) {
        runner.reset();
        runner = std::make_unique<CampaignRunner>(1);
        const Pass p = runPass(*runner, prime);
        setups.push_back(p.wallS);
        for (std::size_t i = 0; i < p.runs.size(); ++i) {
            if (p.runs[i].failed && r == 0)
                std::printf("priming run %s failed: %s\n",
                            prime[i].id.c_str(),
                            diagnostic(p.runs[i].error).c_str());
        }
    }

    const std::uint64_t misses0 = tableCacheMisses(*runner);
    std::vector<Pass> passes;
    const auto timed0 = Clock::now();
    do {
        passes.push_back(runPass(*runner, specs));
    } while ((passes.size() < kMinPasses ||
              secondsSince(timed0) < opt.seconds) &&
             secondsSince(kStart) + passes.back().wallS < kPassDeadlineS);
    const std::uint64_t timedMisses =
        tableCacheMisses(*runner) - misses0;
    if (timedMisses != 0)
        errors.push_back("timed passes took " +
                         std::to_string(timedMisses) +
                         " TableCache misses; priming missed a table");

    const Verdict v = verify(specs, passes);
    errors.insert(errors.end(), v.errors.begin(), v.errors.end());

    // Each run's host time is its median over the timed passes; the
    // timed pass is the sum of those, which filters a slow spell that
    // hits one pass without hiding one that hits every pass.
    std::vector<double> runMs;
    double wallS = 0.0, cycles = 0.0, completedS = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::vector<double> perPass;
        for (const Pass &p : passes)
            perPass.push_back(p.runs[i].hostMs);
        runMs.push_back(percentile(perPass, 0.5));
        wallS += runMs.back() / 1e3;
        const RunOutcome &o = passes.front().runs[i];
        if (!o.failed) {
            cycles += static_cast<double>(o.stats.cycles);
            completedS += runMs.back() / 1e3;
        }
    }

    std::printf("workload %s: %zu runs, seed %llu, %zu priming runs x "
                "%u, %zu timed pass(es), verify %.3f s (untimed)\n",
                opt.workload.c_str(), specs.size(),
                static_cast<unsigned long long>(opt.seed), prime.size(),
                kSetupRepeats, passes.size(), v.verifyS);
    std::printf("timed pass seconds:");
    for (const Pass &p : passes)
        std::printf(" %.3f", p.wallS);
    std::printf("\nrun_ms_p50/p95 over n=%zu runs (median of passes per "
                "run)\n",
                runMs.size());
    printVerdict(opt.workload, specs.size(), v, errors);
    printResult(errors.empty(), specs.size(), v.failures.size(),
                {{"wall_s", wallS, "s"},
                 {"setup_s", percentile(setups, 0.5), "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"},
                 {"sim_mcycles_per_s",
                  completedS > 0 ? cycles / completedS / 1e6 : 0.0,
                  "Mcycle/s"},
                 {"run_ms_p50", percentile(runMs, 0.50), "ms"},
                 {"run_ms_p95", percentile(runMs, 0.95), "ms"}});
    return 0;
}

int
runTraced(const Options &opt, const std::vector<RunSpec> &specs)
{
    const std::vector<RunSpec> prime = primingSpecs(specs);
    std::vector<std::string> errors;

    // Untraced reference: one priming pass, one timed pass.
    auto runner = std::make_unique<CampaignRunner>(1);
    runPass(*runner, prime);
    const std::uint64_t misses0 = tableCacheMisses(*runner);
    const Pass untraced = runPass(*runner, specs);
    if (tableCacheMisses(*runner) != misses0)
        errors.push_back("untraced timed pass took TableCache misses");
    const Verdict v = verify(specs, {untraced});
    errors.insert(errors.end(), v.errors.begin(), v.errors.end());
    runner.reset();  // free its tables before the traced pass builds

    // Traced: the same priming and timed runs, layer by layer.
    TracedRunner traced;
    LayerLedger primeL, timedL;
    for (const RunSpec &spec : prime)
        traced.run(spec, primeL);
    std::vector<RunOutcome> outcomes;
    for (const RunSpec &spec : specs) {
        outcomes.push_back(traced.run(spec, timedL));
        outcomes.back().stats.telemetry.reset();
    }
    if (timedL.tableCacheMisses != 0)
        errors.push_back("traced timed pass took TableCache misses");
    guardExactness(specs, untraced, outcomes, errors);

    const double tableS = primeL.tableSetupS + timedL.tableSetupS;
    const std::uint64_t linesBuilt =
        primeL.linesBuilt + timedL.linesBuilt;
    const std::uint64_t tcHits =
        primeL.tableCacheHits + timedL.tableCacheHits;
    const std::uint64_t tcAll =
        tcHits + primeL.tableCacheMisses + timedL.tableCacheMisses;
    const LayerLedger &t = timedL;
    auto hitFrac = [&t](unsigned lvl) {
        return frac(t.cacheHits[lvl], t.cacheHits[lvl] + t.cacheMisses[lvl]);
    };

    std::printf("workload %s: %zu runs, seed %llu; traced pass %.3f s, "
                "untraced pass %.3f s\n",
                opt.workload.c_str(), specs.size(),
                static_cast<unsigned long long>(opt.seed), t.wallS,
                untraced.wallS);
    std::printf("note: table metrics cover the priming and timed "
                "passes; all others cover the timed pass only\n"
                "note: ProtocolChecker::observe runs once per command "
                "inside the replay loop, so its cost is part of "
                "sim.replay.replay_s; check.finalize_s is the "
                "violations() sort-and-scan only\n");
    printVerdict(opt.workload, specs.size(), v, errors);
    printResult(
        errors.empty(), specs.size(), v.failures.size(),
        {{"imdb.table.build_s", tableS, "s"},
         {"imdb.table.lines_built", static_cast<double>(linesBuilt),
          "count"},
         {"imdb.table.lines_touched_frac",
          frac(traced.linesTouched(), linesBuilt), "frac"},
         {"sim.table_cache.hit_frac", frac(tcHits, tcAll), "frac"},
         {"imdb.executor.exec_s", t.execS, "s"},
         {"sim.core_port.trace_entries",
          static_cast<double>(t.traceEntries), "count"},
         {"cache.l1.hit_frac", hitFrac(0), "frac"},
         {"cache.l2.hit_frac", hitFrac(1), "frac"},
         {"cache.llc.hit_frac", hitFrac(2), "frac"},
         {"ecc.lines_checked", static_cast<double>(t.eccLinesChecked),
          "count"},
         {"ecc.corrected_lines", static_cast<double>(t.eccCorrected),
          "count"},
         {"ecc.uncorrectable", static_cast<double>(t.eccUncorrectable),
          "count"},
         {"controller.requests",
          static_cast<double>(t.controllerRequests), "count"},
         {"controller.row_hit_pick_frac",
          frac(t.rowHitPicks, t.rowHitPicks + t.fcfsPicks), "frac"},
         {"sim.replay.replay_s", t.replayS, "s"},
         {"sim.replay.ns_per_command",
          t.checkCommands ? t.replayS * 1e9 /
                                static_cast<double>(t.checkCommands)
                          : 0.0,
          "ns"},
         {"dram.commands", static_cast<double>(t.dramCommands), "count"},
         {"dram.row_hit_frac", frac(t.rowHits, t.rowHits + t.rowMisses),
          "frac"},
         {"dram.refreshes", static_cast<double>(t.refreshes), "count"},
         {"dram.mode_switches", static_cast<double>(t.modeSwitches),
          "count"},
         {"check.finalize_s", t.checkFinalizeS, "s"},
         {"check.commands", static_cast<double>(t.checkCommands),
          "count"},
         {"check.violations", static_cast<double>(t.violations),
          "count"},
         {"telemetry.finish_s", t.telemetryFinishS, "s"},
         {"faults.scrub_writebacks",
          static_cast<double>(t.scrubWritebacks), "count"},
         {"faults.read_retries", static_cast<double>(t.readRetries),
          "count"},
         {"faults.poisoned_reads", static_cast<double>(t.poisonedReads),
          "count"},
         {"power.compute_s", t.powerS, "s"},
         {"runner.other_s", t.otherS, "s"},
         {"runner.trace_overhead_s", t.wallS - untraced.wallS, "s"},
         {"core.verify_s", v.verifyS, "s"}});
    return 0;
}

/**
 * Tiny campaign that exercises failure accounting and the exactness
 * guard: baseline/Q11 at Tb 65536 is a known protocol-checker failure,
 * a tampered result must be caught by verification, and a tampered
 * untraced run must trip the guard.
 */
int
runSelfTest()
{
    const std::vector<RunSpec> specs = selfTestSpecs();
    std::vector<std::string> problems;
    auto expect = [&problems](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        if (!ok)
            problems.push_back(what);
    };

    CampaignRunner runner(1);
    runPass(runner, primingSpecs(specs));
    const std::uint64_t misses0 = tableCacheMisses(runner);
    Pass untraced = runPass(runner, specs);
    expect(tableCacheMisses(runner) == misses0,
           "priming leaves the timed pass zero TableCache misses");

    const Verdict v = verify(specs, {untraced});
    expect(v.errors.empty(), "every completed run matches the reference");
    expect(v.failures.size() == 1 && v.failures[0].id == "baseline/Q11" &&
               v.failures[0].diagnostic.find("tREFI") != std::string::npos,
           "baseline/Q11 at Tb 65536 is the one failure, a tREFI panic");
    for (const Failure &f : v.failures)
        std::printf("     failed %s: %s\n", f.id.c_str(),
                    f.diagnostic.c_str());
    expect(untraced.runs.back().hostMs > 0,
           "a failed run's host time is kept");

    Pass tampered = untraced;
    tampered.runs[0].stats.result.checksum += 1;
    const Verdict tv = verify(specs, {tampered});
    expect(tv.failures.size() == 2 && tv.errors.size() == 1 &&
               tv.failures[0].id == specs[0].id,
           "a wrong result is counted as failed and flagged");
    expect(tv.digest != v.digest, "the digest covers the result");

    TracedRunner traced;
    LayerLedger ledger;
    for (const RunSpec &spec : primingSpecs(specs))
        traced.run(spec, ledger);
    std::vector<RunOutcome> outcomes;
    for (const RunSpec &spec : specs)
        outcomes.push_back(traced.run(spec, ledger));
    std::vector<std::string> guard;
    guardExactness(specs, untraced, outcomes, guard);
    for (const std::string &g : guard)
        std::printf("     %s\n", g.c_str());
    expect(guard.empty(), "traced runs reproduce the untraced runs");

    Pass off = untraced;
    off.runs[1].stats.cycles += 1;
    guard.clear();
    guardExactness(specs, off, outcomes, guard);
    expect(guard.size() == 1, "the guard catches a one-cycle difference");

    std::printf("self-test %s\n", problems.empty() ? "passed" : "FAILED");
    return problems.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // One malloc arena for every thread. With glibc's default of one
    // arena per thread, which arena the timed-pass worker inherits from
    // the exited priming threads varies from process to process, and
    // peak RSS with it (by 15% on chipkill-full).
    mallopt(M_ARENA_MAX, 1);
    sam::setQuietLogging(true);
    Options opt;
    bool selfTest = false;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(a + " wants a value");
            return argv[++i];
        };
        if (a == "--self-test") {
            selfTest = true;
        } else if (a == "--workload") {
            opt.workload = value();
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = parseNumber("--seed", value(), ~0ULL);
            haveSeed = true;
        } else if (a == "--seconds") {
            opt.seconds = static_cast<unsigned>(
                parseNumber("--seconds", value(), 3600));
            haveSeconds = true;
        } else if (a == "--trace") {
            opt.trace = parseNumber("--trace", value(), 1) == 1;
            haveTrace = true;
        } else {
            usageError("unknown option '" + a + "'");
        }
    }

    try {
        if (selfTest)
            return runSelfTest();
        if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
            usageError("--workload, --seed, --seconds and --trace are "
                       "all required");
        const std::vector<RunSpec> specs =
            workloadSpecs(opt.workload, opt.seed);
        if (specs.empty()) {
            std::string names;
            for (const std::string &n : workloadNames())
                names += " " + n;
            usageError("unknown workload '" + opt.workload +
                       "' (one of:" + names + ")");
        }
        return opt.trace ? runTraced(opt, specs)
                         : runEndToEnd(opt, specs);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaignbench: %s\n", e.what());
        return 1;
    }
}
