/**
 * @file
 * Park-vs-poll differential tests: the replay loop with blocked cores
 * parked (ReplayEngineKind::Event) must be indistinguishable from the
 * same loop polling every core every round (ReplayEngineKind::Step)
 * -- same end cycles, same stat counters, same ECC/RAS accounting, and
 * the same Device command stream command-by-command. Every design runs
 * every quick benchmark query both ways; chipkill-at-cycle-T fault
 * runs are included so the comparison covers RAS retries and
 * retirement, and telemetry-on-vs-off cycle identity is pinned with
 * parking on. */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/imdb/executor.hh"
#include "src/imdb/query.hh"
#include "src/sim/system.hh"
#include "src/sim/table_cache.hh"

namespace sam {
namespace {

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.taRecords = 1024;
    cfg.tbRecords = 2048;
    cfg.collectStatsText = false;
    return cfg;
}

std::vector<Query>
allBenchmarkQueries()
{
    std::vector<Query> queries = benchmarkQQueries();
    const auto qs = benchmarkQsQueries();
    queries.insert(queries.end(), qs.begin(), qs.end());
    return queries;
}

/**
 * Shared table images: every runUnder() System starts from identical
 * bytes, and the suite builds each table line once, not once per
 * (design, query, replay variant) combination.
 */
std::shared_ptr<TableCache>
sharedTables()
{
    static auto cache = std::make_shared<TableCache>();
    return cache;
}

/**
 * Run one query on a fresh System with the given replay variant, with
 * the full command trace captured. Fresh per call: RAS error logs and
 * fault-injector state accumulate inside a System, and a fair diff
 * needs both variants to start from the same state.
 */
RunStats
runUnder(SimConfig cfg, ReplayEngineKind engine, const Query &query)
{
    cfg.engine = engine;
    cfg.telemetry.enabled = true;
    cfg.telemetry.commandTrace = true;
    System sys(cfg, sharedTables());
    return sys.runQuery(query);
}

std::string
describeCommand(const Command &c)
{
    return c.str();
}

void
expectSameCommandStream(const RunStats &step, const RunStats &event,
                        const std::string &label)
{
    ASSERT_NE(step.telemetry, nullptr) << label;
    ASSERT_NE(event.telemetry, nullptr) << label;
    const std::vector<Command> &a = step.telemetry->commands;
    const std::vector<Command> &b = event.telemetry->commands;
    ASSERT_EQ(a.size(), b.size()) << label << ": command counts differ";
    for (std::size_t i = 0; i < a.size(); ++i) {
        const bool same =
            a[i].kind == b[i].kind && a[i].at == b[i].at &&
            a[i].mode == b[i].mode &&
            a[i].addr.channel == b[i].addr.channel &&
            a[i].addr.rank == b[i].addr.rank &&
            a[i].addr.bankGroup == b[i].addr.bankGroup &&
            a[i].addr.bank == b[i].addr.bank &&
            a[i].addr.row == b[i].addr.row &&
            a[i].addr.column == b[i].addr.column;
        ASSERT_TRUE(same)
            << label << ": command " << i << " diverges: step="
            << describeCommand(a[i])
            << " event=" << describeCommand(b[i]);
    }
}

void
expectSameStats(const RunStats &step, const RunStats &event,
                const std::string &label)
{
    EXPECT_TRUE(step.result == event.result) << label;
    EXPECT_EQ(step.cycles, event.cycles) << label;
    EXPECT_EQ(step.memReads, event.memReads) << label;
    EXPECT_EQ(step.memWrites, event.memWrites) << label;
    EXPECT_EQ(step.strideReads, event.strideReads) << label;
    EXPECT_EQ(step.strideWrites, event.strideWrites) << label;
    EXPECT_EQ(step.activates, event.activates) << label;
    EXPECT_EQ(step.rowHits, event.rowHits) << label;
    EXPECT_EQ(step.rowMisses, event.rowMisses) << label;
    EXPECT_EQ(step.modeSwitches, event.modeSwitches) << label;
    EXPECT_EQ(step.eccCorrectedLines, event.eccCorrectedLines) << label;
    EXPECT_EQ(step.eccUncorrectable, event.eccUncorrectable) << label;
    EXPECT_EQ(step.checkedCommands, event.checkedCommands) << label;
    EXPECT_EQ(step.scrubWritebacks, event.scrubWritebacks) << label;
    EXPECT_EQ(step.readRetries, event.readRetries) << label;
    EXPECT_EQ(step.poisonedReads, event.poisonedReads) << label;
    EXPECT_EQ(step.linesRetired, event.linesRetired) << label;
}

// --------------------------------------------------------------------
// Every design x every benchmark query, parked and polled
// --------------------------------------------------------------------

class EngineDiffTest : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(EngineDiffTest, StepAndEventEnginesAreIndistinguishable)
{
    SimConfig cfg = smallConfig();
    cfg.design = GetParam();
    for (const Query &q : allBenchmarkQueries()) {
        const std::string label =
            designName(GetParam()) + " " + q.name;
        const RunStats step =
            runUnder(cfg, ReplayEngineKind::Step, q);
        const RunStats event =
            runUnder(cfg, ReplayEngineKind::Event, q);
        expectSameStats(step, event, label);
        expectSameCommandStream(step, event, label);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, EngineDiffTest,
    ::testing::Values(DesignKind::Baseline, DesignKind::RcNvmBit,
                      DesignKind::RcNvmWord, DesignKind::GsDram,
                      DesignKind::GsDramEcc, DesignKind::SamSub,
                      DesignKind::SamIo, DesignKind::SamEn,
                      DesignKind::Ideal),
    [](const ::testing::TestParamInfo<DesignKind> &info) {
        std::string name = designName(info.param);
        std::erase(name, '-');
        return name;
    });

// --------------------------------------------------------------------
// Fault paths: chipkill at cycle T exercises RAS retries, scrub
// writebacks, and retirement both ways
// --------------------------------------------------------------------

TEST(EngineDiffFaults, ChipkillAtCycleTMatchesAcrossEngines)
{
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::SamEn;
    cfg.faults.model = FaultModel::Chipkill;
    // Cycle 50 lands mid-query at this table scale: reads before it
    // are clean, everything after reconstructs the dead chip.
    cfg.faults.chipkillAt = 50;
    cfg.faults.chipkillChip = 5;
    const Query q = benchmarkQQueries()[2];
    const RunStats step = runUnder(cfg, ReplayEngineKind::Step, q);
    const RunStats event = runUnder(cfg, ReplayEngineKind::Event, q);
    expectSameStats(step, event, "chipkill@50");
    expectSameCommandStream(step, event, "chipkill@50");
    // The fault actually fired -- the diff covered the RAS read path.
    EXPECT_GT(event.eccCorrectedLines + event.eccUncorrectable, 0u);
}

TEST(EngineDiffFaults, TransientFaultsMatchAcrossEngines)
{
    SimConfig cfg = smallConfig();
    cfg.design = DesignKind::GsDramEcc;
    cfg.faults.model = FaultModel::Transient;
    const Query q = benchmarkQQueries()[0];
    const RunStats step = runUnder(cfg, ReplayEngineKind::Step, q);
    const RunStats event = runUnder(cfg, ReplayEngineKind::Event, q);
    expectSameStats(step, event, "transient");
    expectSameCommandStream(step, event, "transient");
}

// --------------------------------------------------------------------
// Telemetry must be a pure observer: enabling it cannot move cycles
// with parking on
// --------------------------------------------------------------------

TEST(EngineDiffTelemetry, TelemetryOnVsOffIsCycleIdenticalUnderEvent)
{
    SimConfig base = smallConfig();
    base.design = DesignKind::SamEn;
    base.engine = ReplayEngineKind::Event;
    for (const Query &q : allBenchmarkQueries()) {
        SimConfig on = base;
        on.telemetry.enabled = true;
        on.telemetry.commandTrace = true;
        SimConfig off = base;
        off.telemetry.enabled = false;
        System sysOn(on);
        System sysOff(off);
        const RunStats rOn = sysOn.runQuery(q);
        const RunStats rOff = sysOff.runQuery(q);
        expectSameStats(rOn, rOff, "telemetry on/off " + q.name);
        EXPECT_EQ(rOff.telemetry, nullptr);
    }
}

} // namespace
} // namespace sam
