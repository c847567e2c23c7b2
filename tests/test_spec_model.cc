/**
 * @file
 * Tests for the declarative timing spec (src/check/spec_model).
 *
 * The golden tests pin the full rendered rule table for both timing
 * presets: any change to a derived gap, a rule's scope, or the rule
 * set itself must show up as a reviewed golden diff here. The unit
 * tests pin earliestLegal, and the rules breached one cycle earlier,
 * against hand-built ProtocolChecker streams at the exact legality
 * boundary, and the verifier tests run the Device-vs-spec search
 * in-process.
 */

#include <gtest/gtest.h>

#include "src/check/protocol_checker.hh"
#include "src/check/spec_model.hh"
#include "src/dram/timing.hh"

namespace sam {
namespace {

Geometry
smallGeom(unsigned ranks = 2, unsigned groups = 2, unsigned banks = 1)
{
    Geometry g;
    g.channels = 1;
    g.ranks = ranks;
    g.bankGroups = groups;
    g.banksPerGroup = banks;
    return g;
}

SpecModel::Cand
cand(CmdKind kind, unsigned rank, unsigned group = 0,
     std::uint64_t row = 0, AccessMode mode = AccessMode::Regular)
{
    SpecModel::Cand c;
    c.kind = kind;
    c.addr.rank = rank;
    c.addr.bankGroup = group;
    c.addr.row = row;
    c.mode = mode;
    return c;
}

Command
cmdAt(CmdKind kind, Cycle at, unsigned rank, unsigned group = 0,
      std::uint64_t row = 0, AccessMode mode = AccessMode::Regular)
{
    Command c;
    c.kind = kind;
    c.at = at;
    c.addr.rank = rank;
    c.addr.bankGroup = group;
    c.addr.row = row;
    c.mode = mode;
    return c;
}

std::vector<Violation>
replay(const Geometry &geom, const TimingParams &timing,
       const std::vector<Command> &cmds)
{
    ProtocolChecker pc(geom, timing);
    for (const Command &c : cmds)
        pc.observe(c);
    return pc.violations();
}

/** Names of the rules `c` breaches when issued at `at`. */
std::vector<std::string>
breachNames(const SpecModel &m, const SpecModel::Cand &c, Cycle at)
{
    std::vector<SpecBreach> found;
    m.breaches(c, at, found);
    std::vector<std::string> names;
    for (const SpecBreach &b : found)
        names.push_back(b.rule);
    return names;
}

bool
flags(const std::vector<Violation> &vs, const std::string &constraint)
{
    for (const Violation &v : vs) {
        if (v.constraint == constraint)
            return true;
    }
    return false;
}

TEST(SpecRuleTable, GoldenDdr4)
{
    EXPECT_EQ(describeRuleTable(ddr4Timing()),
              "PRE->ACT bank any gap=17 tRP\n"
              "ACT->ACT bank any gap=56 tRC\n"
              "ACT->PRE bank any gap=39 tRAS\n"
              "RD->PRE bank any gap=9 tRTP\n"
              "WR->PRE bank any gap=34 tWR\n"
              "ACT->RD bank any gap=17 tRCD\n"
              "ACT->WR bank any gap=17 tRCD\n"
              "ACT->ACT rank any gap=4 tRRD_S\n"
              "ACT->ACT group any gap=6 tRRD_L\n"
              "RD->RD rank any gap=4 tCCD_S\n"
              "RD->WR rank any gap=4 tCCD_S\n"
              "WR->RD rank any gap=4 tCCD_S\n"
              "WR->WR rank any gap=4 tCCD_S\n"
              "RD->RD group any gap=6 tCCD_L\n"
              "RD->WR group any gap=6 tCCD_L\n"
              "WR->RD group any gap=6 tCCD_L\n"
              "WR->WR group any gap=6 tCCD_L\n"
              "WR->RD rank any gap=19 tWTR_S\n"
              "WR->RD group any gap=25 tWTR_L\n"
              "MSW->RD rank any gap=2 tRTR(mode)\n"
              "MSW->WR rank any gap=2 tRTR(mode)\n"
              "MSW->MSW rank any gap=2 tRTR(mode)\n"
              "RD->MSW rank any gap=1 mode-state\n"
              "WR->MSW rank any gap=1 mode-state\n"
              "REF->REF rank any gap=420 tRFC\n"
              "REF->ACT rank any gap=420 tRFC\n"
              "REF->RD rank any gap=420 tRFC\n"
              "REF->WR rank any gap=420 tRFC\n"
              "REF->MSW rank any gap=420 tRFC\n"
              "RD->REF rank any gap=1 tRFC\n"
              "WR->REF rank any gap=1 tRFC\n"
              "MSW->REF rank any gap=1 tRFC\n"
              "RD->RD channel same gap=4 bus-overlap\n"
              "RD->RD channel diff gap=4 bus-overlap\n"
              "RD->RD channel diff gap=6 tRTR(bus) bubble=2\n"
              "RD->WR channel same gap=9 bus-overlap\n"
              "RD->WR channel same gap=11 rd-wr-turnaround\n"
              "RD->WR channel diff gap=9 bus-overlap\n"
              "RD->WR channel diff gap=11 tRTR(bus) bubble=2\n"
              "WR->RD channel diff gap=1 tRTR(bus) bubble=2\n"
              "WR->WR channel same gap=4 bus-overlap\n"
              "WR->WR channel diff gap=4 bus-overlap\n"
              "WR->WR channel diff gap=6 tRTR(bus) bubble=2\n"
              "# tFAW: 5th ACT >= oldest-of-last-4-ACTs + 26 "
              "(rank window)\n"
              "# state: ACT needs bank closed; PRE needs bank open; "
              "RD/WR need open row and matching mode; REF needs all "
              "banks in rank closed\n"
              "# refresh: k-th REF due by (k+9)*9360 "
              "(tREFI, 8 postponements)\n");
}

TEST(SpecRuleTable, GoldenRram)
{
    EXPECT_EQ(describeRuleTable(rramTiming()),
              "PRE->ACT bank any gap=1 tRP\n"
              "ACT->ACT bank any gap=7 tRC\n"
              "ACT->PRE bank any gap=6 tRAS\n"
              "RD->PRE bank any gap=9 tRTP\n"
              "WR->PRE bank any gap=136 tWR\n"
              "ACT->RD bank any gap=35 tRCD\n"
              "ACT->WR bank any gap=35 tRCD\n"
              "ACT->ACT rank any gap=4 tRRD_S\n"
              "ACT->ACT group any gap=6 tRRD_L\n"
              "RD->RD rank any gap=4 tCCD_S\n"
              "RD->WR rank any gap=4 tCCD_S\n"
              "WR->RD rank any gap=4 tCCD_S\n"
              "WR->WR rank any gap=4 tCCD_S\n"
              "RD->RD group any gap=6 tCCD_L\n"
              "RD->WR group any gap=6 tCCD_L\n"
              "WR->RD group any gap=6 tCCD_L\n"
              "WR->WR group any gap=6 tCCD_L\n"
              "WR->RD rank any gap=28 tWTR_S\n"
              "WR->RD group any gap=40 tWTR_L\n"
              "MSW->RD rank any gap=2 tRTR(mode)\n"
              "MSW->WR rank any gap=2 tRTR(mode)\n"
              "MSW->MSW rank any gap=2 tRTR(mode)\n"
              "RD->MSW rank any gap=1 mode-state\n"
              "WR->MSW rank any gap=1 mode-state\n"
              "RD->RD channel same gap=4 bus-overlap\n"
              "RD->RD channel diff gap=4 bus-overlap\n"
              "RD->RD channel diff gap=6 tRTR(bus) bubble=2\n"
              "RD->WR channel same gap=9 bus-overlap\n"
              "RD->WR channel same gap=11 rd-wr-turnaround\n"
              "RD->WR channel diff gap=9 bus-overlap\n"
              "RD->WR channel diff gap=11 tRTR(bus) bubble=2\n"
              "WR->RD channel diff gap=1 tRTR(bus) bubble=2\n"
              "WR->WR channel same gap=4 bus-overlap\n"
              "WR->WR channel diff gap=4 bus-overlap\n"
              "WR->WR channel diff gap=6 tRTR(bus) bubble=2\n"
              "# tFAW: 5th ACT >= oldest-of-last-4-ACTs + 26 "
              "(rank window)\n"
              "# state: ACT needs bank closed; PRE needs bank open; "
              "RD/WR need open row and matching mode; REF needs all "
              "banks in rank closed\n"
              "# refresh: REF illegal (tREFI=0)\n");
}

TEST(SpecModel, ActToCasBoundaryMatchesChecker)
{
    const Geometry geom = smallGeom();
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    m.apply(cand(CmdKind::Act, 0), 100);

    const SpecModel::Cand rd = cand(CmdKind::Rd, 0);
    ASSERT_TRUE(m.stateLegal(rd));
    const Cycle e = m.earliestLegal(rd, m.lastIssue());
    EXPECT_EQ(e, 100 + t.tRCD);
    EXPECT_EQ(breachNames(m, rd, e - 1),
              std::vector<std::string>{"tRCD"});
    EXPECT_TRUE(m.legalAt(rd, e));
    EXPECT_FALSE(m.legalAt(rd, e - 1));

    const std::vector<Command> ok = {cmdAt(CmdKind::Act, 100, 0),
                                     cmdAt(CmdKind::Rd, e, 0)};
    EXPECT_TRUE(replay(geom, t, ok).empty());
    const std::vector<Command> bad = {cmdAt(CmdKind::Act, 100, 0),
                                      cmdAt(CmdKind::Rd, e - 1, 0)};
    EXPECT_TRUE(flags(replay(geom, t, bad), "tRCD"));
}

TEST(SpecModel, WriteRecoveryFoldsDataOffset)
{
    const Geometry geom = smallGeom();
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    m.apply(cand(CmdKind::Act, 0), 0);
    m.apply(cand(CmdKind::Wr, 0), t.tRCD);

    const SpecModel::Cand pre = cand(CmdKind::Pre, 0);
    const Cycle e = m.earliestLegal(pre, m.lastIssue());
    // tWR counts from write-data end: issue + CWL + tBL + tWR.
    EXPECT_EQ(e, t.tRCD + t.cwl + t.tBL + t.tWR);
    EXPECT_EQ(breachNames(m, pre, e - 1),
              std::vector<std::string>{"tWR"});

    const std::vector<Command> ok = {cmdAt(CmdKind::Act, 0, 0),
                                     cmdAt(CmdKind::Wr, t.tRCD, 0),
                                     cmdAt(CmdKind::Pre, e, 0)};
    EXPECT_TRUE(replay(geom, t, ok).empty());
    const std::vector<Command> bad = {cmdAt(CmdKind::Act, 0, 0),
                                      cmdAt(CmdKind::Wr, t.tRCD, 0),
                                      cmdAt(CmdKind::Pre, e - 1, 0)};
    EXPECT_TRUE(flags(replay(geom, t, bad), "tWR"));
}

TEST(SpecModel, TfawWindowBindsOnFifthAct)
{
    // Five banks on one rank so the 5th ACT is limited by the window
    // (with four banks, recycling a bank makes tRP dominate).
    const Geometry geom = smallGeom(1, 5, 1);
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    std::vector<Command> cmds;
    for (unsigned i = 0; i < 4; ++i) {
        const Cycle at = i * t.tRRD_S;
        m.apply(cand(CmdKind::Act, 0, i), at);
        cmds.push_back(cmdAt(CmdKind::Act, at, 0, i));
    }
    const SpecModel::Cand fifth = cand(CmdKind::Act, 0, 4);
    const Cycle e = m.earliestLegal(fifth, m.lastIssue());
    EXPECT_EQ(e, t.tFAW); // Window opened at cycle 0.
    EXPECT_EQ(breachNames(m, fifth, e - 1),
              std::vector<std::string>{"tFAW"});

    cmds.push_back(cmdAt(CmdKind::Act, e, 0, 4));
    EXPECT_TRUE(replay(geom, t, cmds).empty());
    cmds.back().at = e - 1;
    EXPECT_TRUE(flags(replay(geom, t, cmds), "tFAW"));
}

TEST(SpecModel, RefreshBlackoutAndTiedSwitch)
{
    const Geometry geom = smallGeom();
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    m.apply(cand(CmdKind::ModeSwitch, 0, 0, 0, AccessMode::Stride), 10);

    // REF must serialize strictly after the switch: an equal-time REF
    // sorts first and retroactively swallows the switch.
    const SpecModel::Cand ref = cand(CmdKind::Ref, 0);
    EXPECT_EQ(m.earliestLegal(ref, m.lastIssue()), 11);
    const std::vector<Command> tied = {
        cmdAt(CmdKind::ModeSwitch, 10, 0, 0, 0, AccessMode::Stride),
        cmdAt(CmdKind::Ref, 10, 0)};
    EXPECT_TRUE(flags(replay(geom, t, tied), "tRFC"));

    m.apply(ref, 11);
    const SpecModel::Cand act = cand(CmdKind::Act, 0);
    const Cycle e = m.earliestLegal(act, m.lastIssue());
    EXPECT_EQ(e, 11 + t.tRFC);
    EXPECT_EQ(breachNames(m, act, e - 1),
              std::vector<std::string>{"tRFC"});
}

TEST(SpecModel, StateRules)
{
    const Geometry geom = smallGeom();
    SpecModel m(geom, ddr4Timing());
    EXPECT_FALSE(m.stateLegal(cand(CmdKind::Pre, 0))); // Closed bank.
    EXPECT_TRUE(m.stateLegal(cand(CmdKind::Ref, 0)));
    m.apply(cand(CmdKind::Act, 0, 0, 7), 0);
    EXPECT_FALSE(m.stateLegal(cand(CmdKind::Act, 0))); // Open bank.
    EXPECT_FALSE(m.stateLegal(cand(CmdKind::Ref, 0))); // Open bank.
    EXPECT_FALSE(m.stateLegal(cand(CmdKind::Rd, 0, 0, 3))); // Row.
    EXPECT_FALSE(m.stateLegal(
        cand(CmdKind::Rd, 0, 0, 7, AccessMode::Stride))); // Mode.
    EXPECT_TRUE(m.stateLegal(cand(CmdKind::Rd, 0, 0, 7)));

    SpecModel rram(geom, rramTiming());
    EXPECT_FALSE(rram.stateLegal(cand(CmdKind::Ref, 0))); // tREFI=0.
}

TEST(SpecModel, LegalityIsUpwardClosed)
{
    const Geometry geom = smallGeom();
    const TimingParams t = ddr4Timing();
    SpecModel m(geom, t);
    m.apply(cand(CmdKind::Act, 0), 0);
    m.apply(cand(CmdKind::Rd, 0), t.tRCD);
    for (CmdKind kind : {CmdKind::Pre, CmdKind::Rd}) {
        const SpecModel::Cand c = cand(kind, 0);
        const Cycle e = m.earliestLegal(c, m.lastIssue());
        for (Cycle delta = 0; delta < 4; ++delta)
            EXPECT_TRUE(m.legalAt(c, e + delta));
    }
}

TEST(SpecModel, RefDeadlinePostponesEightIntervals)
{
    const TimingParams t = ddr4Timing();
    SpecModel m(smallGeom(), t);
    EXPECT_EQ(m.refDeadline(0, 0), Cycle{9} * t.tREFI);
    m.apply(cand(CmdKind::Ref, 0), 100);
    EXPECT_EQ(m.refDeadline(0, 0), Cycle{10} * t.tREFI);
}

void
expectDeviceObeysSpec(const TimingParams &timing)
{
    VerifyOptions opt;
    opt.depth = 2;
    opt.maxNodes = 50000;
    const VerifyStats stats =
        verifyDeviceAgainstSpec(smallGeom(), timing, timing, opt);
    EXPECT_TRUE(stats.ok()) << stats.summary()
                            << (stats.failures.empty()
                                    ? ""
                                    : "\n" + stats.failures.front());
    EXPECT_TRUE(stats.exhausted) << stats.summary();
    EXPECT_GT(stats.specStates, 0u);
    EXPECT_GT(stats.earliestProbes, 0u);
    EXPECT_GT(stats.monotoneProbes, 0u);
}

TEST(SpecVerifier, DeviceObeysSpecDdr4)
{
    expectDeviceObeysSpec(ddr4Timing());
}

TEST(SpecVerifier, DeviceObeysSpecRram)
{
    expectDeviceObeysSpec(rramTiming());
}

TEST(SpecVerifier, DetectsInjectedDeviceLooseness)
{
    // Sanity-check the harness itself: an engine one cycle short on
    // tRCD, checked against the real preset, must be caught.
    TimingParams loose = ddr4Timing();
    --loose.tRCD;
    VerifyOptions opt;
    opt.depth = 1;
    const VerifyStats stats =
        verifyDeviceAgainstSpec(smallGeom(), loose, ddr4Timing(), opt);
    ASSERT_FALSE(stats.ok()) << stats.summary();
    EXPECT_NE(stats.failures.front().find("tRCD"), std::string::npos)
        << stats.failures.front();
}

} // namespace
} // namespace sam
