/**
 * @file
 * Unit tests for the phase-2 replay loop on hand-recorded traces:
 * each way a core stops issuing (MSHR stall, queue backpressure,
 * epoch done) must resume, the parked loop must match the polled one
 * command for command, epochs must act as barriers, and the
 * replayStep/replayEvent entry points must be the loop itself.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/check/protocol_checker.hh"
#include "src/controller/address_mapping.hh"
#include "src/controller/controller.hh"
#include "src/designs/design.hh"
#include "src/designs/design_model.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"
#include "src/sim/core_port.hh"
#include "src/sim/replay_engine.hh"

namespace sam {
namespace {

/** Bytes between rows of one bank (column and bank-select bits). */
constexpr Addr kRowStride = Addr{1} << 18;

/** Bytes between the same row of neighbouring banks. */
constexpr Addr kBankStride = Addr{1} << 13;

/**
 * Per-core traces recorded through CorePort's memory side, as the
 * cache hierarchy would on misses and writebacks.
 */
class Traces
{
  public:
    explicit Traces(unsigned cores)
    {
        for (unsigned c = 0; c < cores; ++c) {
            ports.push_back(std::make_unique<CorePort>(
                c, CoreCacheConfig{}, 8, data_));
        }
    }

    void read(unsigned core, Addr line)
    {
        std::uint8_t buf[kCachelineBytes];
        ports[core]->fetchLine(line, buf);
    }

    void write(unsigned core, Addr line)
    {
        Writeback wb;
        wb.line = line;
        wb.dirtyMask = 0xff;
        wb.validMask = 0xff;
        wb.data.fill(0);
        ports[core]->writeback(wb);
    }

    std::vector<std::unique_ptr<CorePort>> ports;

  private:
    DataPath data_{EccScheme::SecDed};
};

/** What one replay produced. */
struct Outcome
{
    Cycle end = 0;
    std::vector<std::string> commands;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    bool clean = false;
};

/** A fresh baseline timing-only memory system under the protocol oracle. */
struct Rig
{
    Geometry geom;
    TimingParams timing = ddr4Timing();
    AddressMapping mapping{geom};
    Device device{geom, timing};
    MemoryController controller{device};
    DesignModel model{makeDesign(DesignKind::Baseline), mapping, 8};
    ProtocolChecker checker{geom, timing};
    std::vector<std::string> commands;

    Rig()
    {
        checker.attach(device);
        device.addCommandObserver(this, [this](const Command &c) {
            commands.push_back(c.str());
        });
    }

    ~Rig() { device.removeCommandObserver(this); }

    Outcome finish(Cycle end)
    {
        Outcome o;
        o.end = end;
        o.commands = commands;
        o.reads = controller.stats().readsServed;
        o.writes = controller.stats().writesServed;
        o.clean = checker.clean();
        return o;
    }
};

Outcome
replay(const Traces &t, unsigned mshrs, ReplayEngineKind kind)
{
    Rig rig;
    return rig.finish(
        replayTraces(t.ports, rig.controller, rig.model, mshrs, kind));
}

/** Parked and polled replays agree on everything observable. */
void
expectParkedMatchesPolled(const Traces &t, unsigned mshrs)
{
    const Outcome polled = replay(t, mshrs, ReplayEngineKind::Step);
    const Outcome parked = replay(t, mshrs, ReplayEngineKind::Event);
    EXPECT_TRUE(polled.clean);
    EXPECT_TRUE(parked.clean);
    EXPECT_EQ(parked.end, polled.end);
    EXPECT_EQ(parked.reads, polled.reads);
    EXPECT_EQ(parked.writes, polled.writes);
    EXPECT_EQ(parked.commands, polled.commands);
}

TEST(ReplayLoop, EmptyTracesFinishAtCycleZero)
{
    const Traces t(4);
    for (ReplayEngineKind kind :
         {ReplayEngineKind::Step, ReplayEngineKind::Event}) {
        const Outcome o = replay(t, 16, kind);
        EXPECT_EQ(o.end, 0u);
        EXPECT_TRUE(o.commands.empty());
        EXPECT_EQ(o.reads + o.writes, 0u);
    }
}

TEST(ReplayLoop, SingleReadActivatesAndCompletesAfterIt)
{
    Traces t(1);
    t.read(0, 5 * kRowStride);
    const Outcome o = replay(t, 16, ReplayEngineKind::Event);
    EXPECT_TRUE(o.clean);
    EXPECT_EQ(o.reads, 1u);
    ASSERT_EQ(o.commands.size(), 2u);
    EXPECT_EQ(o.commands[0].substr(0, 3), "ACT");
    EXPECT_EQ(o.commands[1].substr(0, 2), "RD");
    const TimingParams timing = ddr4Timing();
    EXPECT_GE(o.end, timing.tRCD + timing.cl);
}

TEST(ReplayLoop, ComputeGapsDelayIssue)
{
    // The gap recorded before an entry is core time the replay must
    // wait out before the request can arrive.
    constexpr Cycle kGap = 50000;
    Traces near(1);
    near.read(0, 0);
    near.read(0, kRowStride);
    Traces far(1);
    far.read(0, 0);
    far.ports[0]->compute(kGap);
    far.read(0, kRowStride);

    const Outcome a = replay(near, 16, ReplayEngineKind::Event);
    const Outcome b = replay(far, 16, ReplayEngineKind::Event);
    EXPECT_EQ(b.reads, 2u);
    EXPECT_GE(b.end, kGap);
    EXPECT_GT(b.end, a.end);
}

TEST(ReplayLoop, SingleMshrSerialisesReadsAndResumes)
{
    // One MSHR: every read after the first stalls until the one in
    // flight is served, so the core parks and resumes once per read
    // and loses the bank-level parallelism a wider window exploits.
    Traces t(2);
    for (unsigned i = 0; i < 40; ++i) {
        t.read(0, i * kBankStride);
        t.read(1, i * kBankStride + 100 * kRowStride);
    }
    expectParkedMatchesPolled(t, 1);

    const Outcome narrow = replay(t, 1, ReplayEngineKind::Event);
    const Outcome wide = replay(t, 16, ReplayEngineKind::Event);
    EXPECT_EQ(narrow.reads, 80u);
    EXPECT_EQ(wide.reads, 80u);
    EXPECT_GT(narrow.end, wide.end);
}

TEST(ReplayLoop, BackpressuredCoresResumeWhenQueuesDrain)
{
    // Far more outstanding requests than the backpressure depth: the
    // cores stop issuing until service drains the queues, then every
    // request still reaches the device.
    Traces t(3);
    for (unsigned i = 0; i < 400; ++i) {
        t.read(0, i * 64);
        t.write(1, (i + 4096) * 64);
        t.read(2, (i % 97) * kRowStride + 128);
    }
    expectParkedMatchesPolled(t, 1024);

    const Outcome o = replay(t, 1024, ReplayEngineKind::Event);
    EXPECT_EQ(o.reads, 800u);
    EXPECT_EQ(o.writes, 400u);
}

TEST(ReplayLoop, EpochBarrierHoldsLaterEpochsBehindEarlierTraffic)
{
    // Core 1's only read is in epoch 1: it cannot arrive before all of
    // epoch 0's traffic (core 0's reads) has completed.
    Traces overlapped(2);
    Traces barrier(2);
    Traces alone(2);
    for (unsigned i = 0; i < 30; ++i) {
        overlapped.read(0, i * kRowStride);
        barrier.read(0, i * kRowStride);
        alone.read(0, i * kRowStride);
    }
    overlapped.read(1, 3 * kRowStride + 512);
    for (auto &p : barrier.ports)
        p->newEpoch();
    barrier.read(1, 3 * kRowStride + 512);

    const Outcome o = replay(overlapped, 16, ReplayEngineKind::Event);
    const Outcome b = replay(barrier, 16, ReplayEngineKind::Event);
    const Outcome a = replay(alone, 16, ReplayEngineKind::Event);
    EXPECT_EQ(b.reads, 31u);
    EXPECT_GT(b.end, a.end);
    EXPECT_GE(b.end, o.end);
    expectParkedMatchesPolled(barrier, 16);
}

TEST(ReplayLoop, UnevenEpochCountsAcrossCoresAllComplete)
{
    // Core 0 records three epochs, core 1 one, core 2 none: a core
    // whose trace has run out of epochs sits each later epoch out.
    Traces t(3);
    for (unsigned e = 0; e < 3; ++e) {
        for (unsigned i = 0; i < 10; ++i)
            t.read(0, (e * 10 + i) * kRowStride);
        t.write(0, e * 64);
        if (e < 2)
            t.ports[0]->newEpoch();
    }
    for (unsigned i = 0; i < 25; ++i)
        t.read(1, i * 64 + 8 * kRowStride);
    expectParkedMatchesPolled(t, 4);

    const Outcome o = replay(t, 4, ReplayEngineKind::Event);
    EXPECT_EQ(o.reads, 55u);
    EXPECT_EQ(o.writes, 3u);
}

TEST(ReplayLoop, StepAndEventEntryPointsAreTheLoop)
{
    Traces t(2);
    for (unsigned i = 0; i < 64; ++i) {
        t.read(0, (i % 11) * kRowStride + i * 64);
        t.write(1, (i % 5) * kRowStride + i * 64);
    }
    Rig step_rig;
    const Outcome step = step_rig.finish(replayStep(
        t.ports, step_rig.controller, step_rig.model, 2));
    Rig event_rig;
    const Outcome event = event_rig.finish(replayEvent(
        t.ports, event_rig.controller, event_rig.model, 2));

    const Outcome polled = replay(t, 2, ReplayEngineKind::Step);
    const Outcome parked = replay(t, 2, ReplayEngineKind::Event);
    EXPECT_EQ(step.end, polled.end);
    EXPECT_EQ(step.commands, polled.commands);
    EXPECT_EQ(event.end, parked.end);
    EXPECT_EQ(event.commands, parked.commands);
}

TEST(ReplayLoop, RepeatedReplayIsDeterministic)
{
    // The same traces on fresh memory systems give the same command
    // stream: nothing in the loop depends on addresses of heap
    // objects or on container iteration order.
    Traces t(4);
    for (unsigned i = 0; i < 50; ++i) {
        for (unsigned c = 0; c < 4; ++c) {
            const Addr line = ((i * 7 + c * 13) % 29) * kRowStride +
                              ((i + c) % 128) * 64;
            if ((i + c) % 4 == 0)
                t.write(c, line);
            else
                t.read(c, line);
        }
    }
    const Outcome first = replay(t, 3, ReplayEngineKind::Event);
    const Outcome second = replay(t, 3, ReplayEngineKind::Event);
    EXPECT_TRUE(first.clean);
    EXPECT_EQ(first.end, second.end);
    EXPECT_EQ(first.commands, second.commands);
    EXPECT_EQ(first.reads + first.writes, 200u);
}

} // namespace
} // namespace sam
