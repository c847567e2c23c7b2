/**
 * @file
 * Unit and property tests for the memory controller layer: address
 * mapping (bit slicing, Figure 10 stride remap),
 * FR-FCFS scheduling, write-drain watermarks, and serving the requests
 * a design model builds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/common/random.hh"
#include "src/controller/address_mapping.hh"
#include "src/controller/controller.hh"
#include "src/controller/request_queue.hh"
#include "src/designs/design.hh"
#include "src/designs/design_model.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// Address mapping
// --------------------------------------------------------------------

class MappingTest : public ::testing::Test
{
  protected:
    Geometry geom;
    AddressMapping map{geom};
};

TEST_F(MappingTest, FieldWidthsMatchGeometry)
{
    EXPECT_EQ(map.offsetBits(), 6u);
    EXPECT_EQ(map.columnBits(), 7u);   // 128 lines per 8KB row
    EXPECT_EQ(map.channelBits(), 0u);
    EXPECT_EQ(map.bankBits(), 2u);
    EXPECT_EQ(map.groupBits(), 2u);
    EXPECT_EQ(map.rankBits(), 1u);
    EXPECT_EQ(map.bankSelBits(), 5u);
}

TEST_F(MappingTest, DecomposeComposeRoundTrip)
{
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr =
            (rng.next() % geom.capacityBytes()) & ~Addr{63};
        const MappedAddr m = map.decompose(addr);
        EXPECT_EQ(map.compose(m), addr);
    }
}

TEST_F(MappingTest, CoordinatesInRange)
{
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.next() % geom.capacityBytes();
        const MappedAddr m = map.decompose(addr);
        EXPECT_LT(m.channel, geom.channels);
        EXPECT_LT(m.rank, geom.ranks);
        EXPECT_LT(m.bankGroup, geom.bankGroups);
        EXPECT_LT(m.bank, geom.banksPerGroup);
        EXPECT_LT(m.column, geom.linesPerRow());
        EXPECT_LT(m.row, geom.rowsPerBank);
    }
}

TEST_F(MappingTest, ConsecutiveLinesShareRow)
{
    // Column bits sit lowest: sequential lines fill a row (open-page
    // friendliness, Table 2).
    const Addr base = Addr{7} << 30;
    const MappedAddr first = map.decompose(base);
    for (unsigned i = 1; i < geom.linesPerRow(); ++i) {
        const MappedAddr m = map.decompose(base + i * 64ull);
        EXPECT_TRUE(m.sameRow(first)) << i;
        EXPECT_EQ(m.column, i);
    }
    // The next line after the row moves to another bank, same row id.
    const MappedAddr next =
        map.decompose(base + Addr{geom.rowBytes});
    EXPECT_FALSE(next.sameBank(first));
}

TEST_F(MappingTest, SameBankStrideIsTheFullBankSpan)
{
    // Consecutive DRAM rows of one bank are a full bank-span apart in
    // the flat address space (Table 2's rw:rk:bk:ch:cl order).
    const Addr a = Addr{1} << 30;
    const Addr b = a + (Addr{1} << 18); // +1 row, same selector bits
    const MappedAddr ma = map.decompose(a);
    const MappedAddr mb = map.decompose(b);
    EXPECT_EQ(mb.row, ma.row + 1);
    EXPECT_TRUE(ma.sameBank(mb));
}

TEST_F(MappingTest, StrideRemapIsInvolution)
{
    Rng rng(4);
    for (unsigned unit : {8u, 16u, 32u}) {
        const unsigned g = 64 / unit;
        for (int i = 0; i < 500; ++i) {
            const Addr v = rng.next() & ((Addr{1} << 40) - 1);
            EXPECT_EQ(map.strideRemap(map.strideRemap(v, g, unit), g,
                                      unit),
                      v);
        }
    }
}

TEST_F(MappingTest, StrideRemapWalksChunksAcrossLines)
{
    // Figure 10 semantics: a virtually-contiguous strided walk of 16B
    // chunks lands on chunk slot s of G consecutive physical lines.
    const unsigned unit = 16, g = 4;
    const Addr page = Addr{5} << 12;
    for (unsigned chunk = 0; chunk < g; ++chunk) {
        const Addr v = page + chunk * unit; // virtual chunk index
        const Addr p = map.strideRemap(v, g, unit);
        // Physical: line `chunk` of the group, chunk slot 0.
        EXPECT_EQ(p, page + chunk * kCachelineBytes);
    }
    // The second virtual line selects chunk slot 1 of each line.
    const Addr v2 = page + kCachelineBytes;
    EXPECT_EQ(map.strideRemap(v2, g, unit), page + unit);
}

TEST_F(MappingTest, StrideRemapPreservesPageBase)
{
    Rng rng(5);
    for (int i = 0; i < 300; ++i) {
        const Addr v = rng.next() & ((Addr{1} << 40) - 1);
        const Addr p = map.strideRemap(v, 8, 8);
        EXPECT_EQ(p & ~Addr{511}, v & ~Addr{511}); // same 512B group
    }
}

TEST_F(MappingTest, StrideGatherBuildsLinePlans)
{
    // The hardware view of an sload: G consecutive physical lines at
    // one chunk slot each, derived purely from the Figure 10 remap.
    for (unsigned unit : {8u, 16u, 32u}) {
        const unsigned g = 64 / unit;
        const Addr group_base = Addr{3} << 20;
        for (unsigned vline = 0; vline < g; ++vline) {
            const auto plan = map.strideGather(
                group_base + vline * kCachelineBytes, g, unit);
            ASSERT_EQ(plan.lines.size(), g);
            EXPECT_EQ(plan.sector, vline); // virtual line = chunk slot
            for (unsigned i = 0; i < g; ++i)
                EXPECT_EQ(plan.lines[i],
                          group_base + i * kCachelineBytes);
        }
    }
}

TEST_F(MappingTest, StrideGatherRoundTripsThroughData)
{
    // Scatter then gather through a DataPath using the ISA-level plan:
    // the virtual stride line reads back exactly.
    DataPath dp(EccScheme::SscDsd);
    const unsigned unit = 8, g = 8;
    const Addr base = Addr{9} << 20;
    std::vector<std::uint8_t> stride_line(kCachelineBytes);
    for (unsigned i = 0; i < kCachelineBytes; ++i)
        stride_line[i] = static_cast<std::uint8_t>(i * 3 + 1);
    const auto plan = map.strideGather(base + 2 * kCachelineBytes, g,
                                       unit);
    dp.strideWrite(plan.lines, plan.sector, unit, stride_line);
    const auto r = dp.strideRead(plan.lines, plan.sector, unit);
    EXPECT_EQ(r.data, stride_line);
}

// --------------------------------------------------------------------
// FR-FCFS controller
// --------------------------------------------------------------------

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : device(geom, ddr4Timing()), mapping(geom), ctrl(device)
    {
    }

    MemRequest
    readReq(Addr line, Cycle arrival)
    {
        MemRequest r;
        r.type = AccessType::Read;
        r.arrival = arrival;
        r.id = nextId++;
        r.device.addr = mapping.decompose(line);
        return r;
    }

    MemRequest
    writeReq(Addr line, Cycle arrival)
    {
        MemRequest r = readReq(line, arrival);
        r.type = AccessType::Write;
        r.device.isWrite = true;
        return r;
    }

    Geometry geom;
    Device device;
    AddressMapping mapping;
    MemoryController ctrl;
    std::uint64_t nextId = 1;
};

TEST_F(ControllerTest, EmptyControllerReturnsNothing)
{
    EXPECT_FALSE(ctrl.serviceNext().has_value());
    EXPECT_FALSE(ctrl.hasPending());
}

TEST_F(ControllerTest, ServesSingleRead)
{
    ctrl.push(readReq(0x1000, 0));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(c->isRead);
    EXPECT_GT(c->done, 0u);
    EXPECT_EQ(ctrl.stats().readsServed.value(), 1u);
}

TEST_F(ControllerTest, RowHitPreferredOverOlderConflict)
{
    // Open a row, then queue a conflicting request (older) and a
    // row-hit request (younger): FR-FCFS must pick the hit.
    ctrl.push(readReq(0x0, 0));
    ctrl.serviceNext(); // opens row of 0x0

    ctrl.push(readReq(Addr{geom.rowBytes} * 32, 1)); // same bank, other row
    ctrl.push(readReq(0x40, 2));                     // row hit
    const auto first = ctrl.serviceNext();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->id, 3u); // the row hit (ids 1,2,3 in push order)
    EXPECT_GE(ctrl.stats().frRowHitPicks.value(), 1u);
}

TEST_F(ControllerTest, WritesDrainWhenReadsIdle)
{
    ctrl.push(writeReq(0x2000, 0));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_FALSE(c->isRead);
    EXPECT_EQ(ctrl.stats().writesServed.value(), 1u);
}

TEST_F(ControllerTest, ReadsPrioritisedUntilWriteWatermark)
{
    // Queue a few writes (below high watermark) and one read: the read
    // must be served first.
    for (int i = 0; i < 4; ++i)
        ctrl.push(writeReq(0x4000 + i * 64ull, 0));
    ctrl.push(readReq(0x8000, 0));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(c->isRead);
}

TEST_F(ControllerTest, WriteBurstTriggersDrainMode)
{
    // Fill beyond the high watermark: writes must start draining even
    // with reads present.
    for (int i = 0; i < 25; ++i)
        ctrl.push(writeReq(0x10000 + i * 64ull, 0));
    ctrl.push(readReq(0x20000, 0));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_FALSE(c->isRead); // draining
}

TEST_F(ControllerTest, DrainAllCompletesEverything)
{
    for (int i = 0; i < 10; ++i) {
        ctrl.push(readReq(0x40000 + i * 4096ull, i));
        ctrl.push(writeReq(0x80000 + i * 4096ull, i));
    }
    Cycle last = 0;
    while (auto c = ctrl.serviceNext())
        last = std::max(last, c->done);
    EXPECT_FALSE(ctrl.hasPending());
    EXPECT_GT(last, 0u);
    EXPECT_EQ(ctrl.stats().readsServed.value(), 10u);
    EXPECT_EQ(ctrl.stats().writesServed.value(), 10u);
}

TEST_F(ControllerTest, SequentialReadsPipelineOnOpenRow)
{
    // 16 sequential lines: one ACT, 15 hits; throughput near tBL.
    std::vector<Cycle> done;
    for (int i = 0; i < 16; ++i)
        ctrl.push(readReq(0x100000 + i * 64ull, 0));
    while (auto c = ctrl.serviceNext())
        done.push_back(c->done);
    ASSERT_EQ(done.size(), 16u);
    // Average spacing of completions close to the burst length.
    const double span =
        static_cast<double>(done.back() - done.front());
    EXPECT_LT(span / 15.0, ddr4Timing().tCCD_L + 1);
    EXPECT_EQ(device.stats().activates.value(), 1u);
}

TEST_F(ControllerTest, StrideRequestServedInStrideMode)
{
    MemRequest r;
    r.type = AccessType::StrideRead;
    r.device.addr = mapping.decompose(0x200000);
    r.device.mode = AccessMode::Stride;
    r.id = 99;
    ctrl.push(std::move(r));
    const auto c = ctrl.serviceNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->id, 99u);
    EXPECT_TRUE(c->isRead);
    EXPECT_EQ(ctrl.stats().strideReadsServed.value(), 1u);
    EXPECT_EQ(device.stats().strideReads.value(), 1u);
}

TEST_F(ControllerTest, ServesDesignModelRequests)
{
    // The four request kinds as the replay loop builds them: through a
    // design model (SAM-en, 8-byte stride unit, so G = 8 lines).
    DesignModel model(makeDesign(DesignKind::SamEn), mapping, 8);
    std::vector<Addr> group;
    for (unsigned i = 0; i < model.gatherFactor(); ++i)
        group.push_back(0x300000 + i * kCachelineBytes);
    std::vector<MemRequest> reqs;
    reqs.push_back(model.lineRequest(AccessType::Read, 0x1000, 0, 0));
    reqs.push_back(model.lineRequest(AccessType::Write, 0x2000, 5, 1));
    reqs.push_back(model.strideRequest(AccessType::StrideRead,
                                       group.data(), group.size(), 2,
                                       10, 0));
    reqs.push_back(model.strideRequest(AccessType::StrideWrite,
                                       group.data(), group.size(), 3,
                                       15, 1));
    std::vector<Cycle> arrival;
    for (MemRequest &r : reqs) {
        r.id = nextId++;
        arrival.push_back(r.arrival);
        ctrl.push(std::move(r));
    }

    const Cycle pipeline = ControllerParams{}.pipelineLatency;
    unsigned served = 0;
    while (auto c = ctrl.serviceNext()) {
        ASSERT_GE(c->id, 1u);
        ASSERT_LE(c->id, arrival.size());
        EXPECT_GE(c->done, arrival[c->id - 1] + pipeline) << c->id;
        ++served;
    }
    EXPECT_EQ(served, 4u);
    const ControllerStats &st = ctrl.stats();
    EXPECT_EQ(st.readsServed.value(), 1u);
    EXPECT_EQ(st.writesServed.value(), 1u);
    EXPECT_EQ(st.strideReadsServed.value(), 1u);
    EXPECT_EQ(st.strideWritesServed.value(), 1u);
    EXPECT_EQ(device.stats().strideReads.value(), 1u);
    EXPECT_EQ(device.stats().strideWrites.value(), 1u);
}

TEST_F(ControllerTest, ReadLatencyAccumulates)
{
    ctrl.push(readReq(0x5000, 0));
    ctrl.serviceNext();
    EXPECT_GT(ctrl.stats().totalReadLatency.value(), 0.0);
}

// The queue removes heap entries lazily and rebuilds its indexes once
// stale entries outnumber live ones (RequestQueue::maybeCompact). Churn
// through enough push/pop cycles to cross the rebuild budget
// (2 * live + 64) many times over while the live backlog stays small,
// and check the FR-FCFS pick order and size bookkeeping never drift.
// With no open rows in the device, every pick is rule 2: oldest
// insertion first.
TEST_F(ControllerTest, RequestQueueCompactionKeepsFcfsOrder)
{
    RequestQueue q(geom);
    bool row_hit = false;
    std::uint64_t expect_id = 1;

    // Sustained churn: grow the backlog to 96, then pop 64, for many
    // rounds. Spread requests over distinct rows so the row buckets
    // accumulate stale entries too.
    for (unsigned round = 0; round < 32; ++round) {
        for (unsigned i = 0; i < 96; ++i) {
            const Addr line =
                Addr{(round * 96 + i) % 1024} * geom.rowBytes +
                (i % 8) * kCachelineBytes;
            q.push(readReq(line, /*arrival=*/0));
        }
        for (unsigned i = 0; i < 64; ++i) {
            ASSERT_FALSE(q.empty());
            const MemRequest r = q.popBest(/*now=*/1, row_hit);
            EXPECT_FALSE(row_hit);
            ASSERT_EQ(r.id, expect_id++);
        }
    }
    // 32 * (96 - 64) requests remain; drain them in insertion order.
    EXPECT_EQ(q.size(), 32u * 32u);
    while (!q.empty()) {
        const MemRequest r = q.popBest(/*now=*/1, row_hit);
        ASSERT_EQ(r.id, expect_id++);
    }
    EXPECT_EQ(expect_id, nextId);
    EXPECT_EQ(q.size(), 0u);
}

// Same churn with future arrivals: requests promote from the pending
// heap as the clock advances, so compaction also runs against a queue
// whose eligible set is a moving subset of the backlog.
TEST_F(ControllerTest, RequestQueueCompactionWithStaggeredArrivals)
{
    RequestQueue q(geom);
    bool row_hit = false;
    // 1024 requests arriving at cycles 0, 10, 20, ...; each pop runs
    // at `now` just past its own request's arrival, so only a small
    // arrived window is eligible at any pick.
    for (unsigned i = 0; i < 1024; ++i) {
        q.push(readReq(Addr{i % 256} * geom.rowBytes,
                       /*arrival=*/Cycle{i} * 10));
    }
    std::uint64_t expect_id = nextId - 1024;
    for (unsigned i = 0; i < 1024; ++i) {
        const MemRequest r =
            q.popBest(/*now=*/Cycle{i} * 10 + 1, row_hit);
        ASSERT_EQ(r.id, expect_id++);
    }
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace sam
