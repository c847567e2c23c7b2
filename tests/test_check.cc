/**
 * @file
 * Tests for the protocol-checker oracle (src/check): hand-built illegal
 * command streams must each be rejected with the correct constraint
 * named, legal streams -- hand-built, random Device traffic, and
 * full-system replays on every design -- must validate clean, and the
 * report on a failing engine stream is pinned as text.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "src/check/protocol_checker.hh"
#include "src/dram/device.hh"
#include "src/dram/timing.hh"
#include "src/imdb/query.hh"
#include "src/sim/system.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// Hand-built command streams
// --------------------------------------------------------------------

Command
cmd(CmdKind kind, Cycle at, unsigned bg, unsigned bank,
    std::uint64_t row, AccessMode mode = AccessMode::Regular)
{
    Command c;
    c.kind = kind;
    c.at = at;
    c.addr.rank = 0;
    c.addr.bankGroup = bg;
    c.addr.bank = bank;
    c.addr.row = row;
    c.mode = mode;
    return c;
}

Command
rankCmd(CmdKind kind, Cycle at, unsigned rank,
        AccessMode mode = AccessMode::Regular)
{
    Command c;
    c.kind = kind;
    c.at = at;
    c.addr.rank = rank;
    c.mode = mode;
    return c;
}

class CheckerTest : public ::testing::Test
{
  protected:
    std::set<std::string>
    constraintsOf(ProtocolChecker &checker)
    {
        std::set<std::string> names;
        for (const Violation &v : checker.violations())
            names.insert(v.constraint);
        return names;
    }

    void
    expectSingle(ProtocolChecker &checker, const std::string &name)
    {
        EXPECT_EQ(checker.violations().size(), 1u) << checker.report();
        EXPECT_TRUE(constraintsOf(checker).count(name))
            << "expected " << name << "\n"
            << checker.report();
    }

    Geometry geom;
    TimingParams timing = ddr4Timing();
};

TEST_F(CheckerTest, CleanHandBuiltStreamPasses)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 23, 0, 0, 1));
    checker.observe(cmd(CmdKind::Pre, 62, 0, 0, 1));
    checker.observe(cmd(CmdKind::Act, 79, 0, 0, 2));
    checker.observe(cmd(CmdKind::Wr, 96, 0, 0, 2));
    checker.observe(cmd(CmdKind::Rd, 121, 0, 0, 2));
    checker.observe(
        cmd(CmdKind::ModeSwitch, 125, 0, 0, 2, AccessMode::Stride));
    checker.observe(cmd(CmdKind::Rd, 127, 0, 0, 2, AccessMode::Stride));
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_EQ(checker.commandCount(), 9u);
}

TEST_F(CheckerTest, FifthActivateInsideTfawDetected)
{
    ProtocolChecker checker(geom, timing);
    // Four ACTs spaced by tRRD_L across bank groups, then a fifth only
    // 24 cycles after the first -- inside the tFAW = 26 window.
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Act, 6, 1, 0, 1));
    checker.observe(cmd(CmdKind::Act, 12, 2, 0, 1));
    checker.observe(cmd(CmdKind::Act, 18, 3, 0, 1));
    checker.observe(cmd(CmdKind::Act, 24, 0, 1, 1));
    expectSingle(checker, "tFAW");
}

TEST_F(CheckerTest, PrechargeBeforeTrasDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 5));
    checker.observe(cmd(CmdKind::Pre, 10, 0, 0, 5));
    expectSingle(checker, "tRAS");
}

TEST_F(CheckerTest, ReadInsideTwtrLDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Wr, 17, 0, 0, 1));
    // Write data ends at 17 + CWL + tBL = 33. A read at 37 satisfies
    // the rank-wide tWTR_S = 3 but not the same-group tWTR_L = 9.
    checker.observe(cmd(CmdKind::Rd, 37, 0, 0, 1));
    expectSingle(checker, "tWTR_L");
    EXPECT_FALSE(constraintsOf(checker).count("tWTR_S"));
}

TEST_F(CheckerTest, CasInsideModeSwitchTrtrDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(
        cmd(CmdKind::ModeSwitch, 20, 0, 0, 1, AccessMode::Stride));
    checker.observe(cmd(CmdKind::Rd, 21, 0, 0, 1, AccessMode::Stride));
    expectSingle(checker, "tRTR(mode)");
}

TEST_F(CheckerTest, DoubleActivateDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Act, 100, 0, 0, 2));
    expectSingle(checker, "bank-state");
}

TEST_F(CheckerTest, ReadToClosedBankDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Rd, 0, 0, 0, 1));
    expectSingle(checker, "bank-state");
}

TEST_F(CheckerTest, ReadToWrongRowDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 2));
    expectSingle(checker, "bank-state");
}

TEST_F(CheckerTest, RefreshWithOpenRowDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(rankCmd(CmdKind::Ref, 100, 0));
    expectSingle(checker, "bank-state");
}

TEST_F(CheckerTest, CasModeMismatchDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    // Stride CAS while the rank never left regular mode.
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 1, AccessMode::Stride));
    expectSingle(checker, "mode-state");
}

TEST_F(CheckerTest, ModeSwitchAtLastCasDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 1));
    // A switch in the same cycle as the rank's last CAS would
    // retroactively change that CAS's I/O mode.
    checker.observe(
        cmd(CmdKind::ModeSwitch, 17, 0, 0, 1, AccessMode::Stride));
    expectSingle(checker, "mode-state");
}

TEST_F(CheckerTest, DataBusOverlapAcrossRanksDetected)
{
    ProtocolChecker checker(geom, timing);
    Command act1 = cmd(CmdKind::Act, 0, 0, 0, 1);
    Command rd = cmd(CmdKind::Rd, 17, 0, 0, 1); // data [34, 38)
    Command act2 = rankCmd(CmdKind::Act, 0, 1);
    act2.addr.row = 1;
    Command wr = rankCmd(CmdKind::Wr, 24, 1); // data [36, 40)
    wr.addr.row = 1;
    checker.observe(act1);
    checker.observe(rd);
    checker.observe(act2);
    checker.observe(wr);
    expectSingle(checker, "bus-overlap");
}

TEST_F(CheckerTest, RankSwitchWithoutBubbleDetected)
{
    ProtocolChecker checker(geom, timing);
    Command act1 = cmd(CmdKind::Act, 0, 0, 0, 1);
    Command rd1 = cmd(CmdKind::Rd, 17, 0, 0, 1); // data [34, 38)
    Command act2 = rankCmd(CmdKind::Act, 0, 1);
    act2.addr.row = 1;
    Command rd2 = rankCmd(CmdKind::Rd, 22, 1); // data [39, 43)
    rd2.addr.row = 1;
    checker.observe(act1);
    checker.observe(rd1);
    checker.observe(act2);
    checker.observe(rd2);
    expectSingle(checker, "tRTR(bus)");
}

TEST_F(CheckerTest, ReadToWriteTurnaroundDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(cmd(CmdKind::Act, 0, 0, 0, 1));
    checker.observe(cmd(CmdKind::Rd, 17, 0, 0, 1)); // data [34, 38)
    // Write data at 27 + CWL = 39 follows read data without the
    // 2-cycle driver-turnaround bubble.
    checker.observe(cmd(CmdKind::Wr, 27, 0, 0, 1)); // data [39, 43)
    expectSingle(checker, "rd-wr-turnaround");
}

TEST_F(CheckerTest, CommandDuringRefreshBlackoutDetected)
{
    ProtocolChecker checker(geom, timing);
    checker.observe(rankCmd(CmdKind::Ref, 0, 0));
    checker.observe(cmd(CmdKind::Act, 100, 0, 0, 1)); // < tRFC = 420
    expectSingle(checker, "tRFC");
}

TEST_F(CheckerTest, RefreshPostponedPastDeadlineDetected)
{
    ProtocolChecker checker(geom, timing);
    // DDR4 allows postponing at most 8 refresh intervals.
    checker.observe(
        rankCmd(CmdKind::Ref, Cycle{9} * timing.tREFI + 1, 0));
    expectSingle(checker, "tREFI");
}

TEST_F(CheckerTest, RefreshOnRramIsIllegal)
{
    ProtocolChecker checker(geom, rramTiming());
    checker.observe(rankCmd(CmdKind::Ref, 0, 0));
    expectSingle(checker, "tREFI");
}

TEST_F(CheckerTest, EngineStreamReportIsPinned)
{
    // Baseline Q11 with a 65536-record Tb postpones a refresh past the
    // tREFI deadline on both ranks. The report text feeds the campaign
    // digest, so it is pinned whatever order the stream arrives in.
    SimConfig cfg;
    cfg.taRecords = 1024;
    cfg.tbRecords = 65536;
    cfg.check = false;
    cfg.collectStatsText = false;
    cfg.telemetry.enabled = true;
    cfg.telemetry.commandTrace = true;
    System sys(cfg);
    Query q11;
    for (const Query &q : benchmarkQQueries()) {
        if (q.name == "Q11")
            q11 = q;
    }
    const RunStats rs = sys.runQuery(q11);
    ASSERT_EQ(rs.telemetry->droppedCommands, 0u);
    std::vector<Command> stream = rs.telemetry->commands;

    const std::string expected =
        "ProtocolChecker: 2 violation(s) over 123122 commands\n"
        "  [121307] tREFI: REF ch0 rk1 @730933: refresh #63 postponed "
        "past 673920\n"
        "  [121322] tREFI: REF ch0 rk0 @731073: refresh #63 postponed "
        "past 673920";
    ProtocolChecker emitted(geom, sys.timing());
    for (const Command &c : stream)
        emitted.observe(c);
    EXPECT_EQ(emitted.report(), expected);

    std::shuffle(stream.begin(), stream.end(), std::mt19937(13));
    ProtocolChecker shuffled(geom, sys.timing());
    for (const Command &c : stream)
        shuffled.observe(c);
    EXPECT_EQ(shuffled.report(), expected);
}

// --------------------------------------------------------------------
// Legal streams from the real timing engine
// --------------------------------------------------------------------

class RandomTrafficTest : public ::testing::TestWithParam<MemTech>
{
};

TEST_P(RandomTrafficTest, DeviceStreamValidatesClean)
{
    const Geometry geom;
    const TimingParams timing = timingFor(GetParam());
    Device device(geom, timing);
    ProtocolChecker checker(geom, timing);
    checker.attach(device);

    std::mt19937 rng(42);
    Cycle t = 0;
    for (int i = 0; i < 2000; ++i) {
        DeviceAccess acc;
        acc.addr.rank = rng() % geom.ranks;
        acc.addr.bankGroup = rng() % geom.bankGroups;
        acc.addr.bank = rng() % geom.banksPerGroup;
        acc.addr.row = rng() % 64;
        acc.addr.column = rng() % geom.linesPerRow();
        acc.isWrite = rng() % 4 == 0;
        acc.mode = rng() % 8 == 0 ? AccessMode::Stride
                                  : AccessMode::Regular;
        acc.extraBursts = rng() % 16 == 0 ? 1 : 0;
        device.access(acc, t);
        t += rng() % 20;
        if (rng() % 128 == 0)
            t += 5000; // idle gap: forces refresh catch-up bursts
    }
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_GT(checker.commandCount(), 2000u);
    if (timing.tREFI > 0) {
        EXPECT_GT(device.stats().refreshes.value(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(BothTechs, RandomTrafficTest,
                         ::testing::Values(MemTech::DRAM,
                                           MemTech::RRAM));

class DesignCheckTest : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(DesignCheckTest, SystemReplayValidatesClean)
{
    SimConfig cfg;
    cfg.design = GetParam();
    cfg.taRecords = 1024;
    cfg.tbRecords = 2048;
    ASSERT_TRUE(cfg.check); // checking is the default
    System sys(cfg);
    // A protocol violation panics inside runQuery; surviving the calls
    // with a non-empty validated stream is the assertion.
    const RunStats arith = sys.runQuery(arithQuery(8, 0.25, cfg.taFields));
    EXPECT_GT(arith.checkedCommands, 0u);
    const RunStats join = sys.runQuery(benchmarkQsQueries().front());
    EXPECT_GT(join.checkedCommands, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignCheckTest,
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

} // namespace
} // namespace sam
