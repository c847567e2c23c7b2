/**
 * @file
 * Tests for the telemetry subsystem: the log-linear histogram and
 * windowed time series primitives, the Device multi-observer hook, the
 * passive collector's request/command attribution, the summary JSON
 * documents, and the Perfetto trace-event exporter. Also pins the
 * zero-overhead contract: enabling telemetry must not change simulated
 * cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/histogram.hh"
#include "src/common/timeseries.hh"
#include "src/common/types.hh"
#include "src/dram/device.hh"
#include "src/dram/timing.hh"
#include "src/imdb/query.hh"
#include "src/sim/system.hh"
#include "src/telemetry/perfetto.hh"
#include "src/telemetry/telemetry.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------

TEST(Histogram, EmptyHistogramIsAllZero)
{
    const Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.p99, 0.0);
}

TEST(Histogram, SmallValuesGetExactBuckets)
{
    // Values below kSubBuckets are their own bucket: no quantization.
    Histogram h;
    for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), v);
        EXPECT_EQ(Histogram::bucketLow(v), v);
        EXPECT_EQ(Histogram::bucketWidth(v), 1u);
        h.record(v);
    }
    for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v)
        EXPECT_EQ(h.bucketCount(v), 1u);
}

TEST(Histogram, TracksExactCountMinMaxMean)
{
    Histogram h;
    h.record(10);
    h.record(1000);
    h.record(100);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), (10.0 + 1000.0 + 100.0) / 3.0);
}

TEST(Histogram, BucketGeometryIsConsistent)
{
    // Every value must land in a bucket whose [low, low+width) range
    // contains it, and the index must be monotone in the value.
    std::size_t prev = 0;
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{15}, std::uint64_t{16},
                            std::uint64_t{17}, std::uint64_t{31},
                            std::uint64_t{32}, std::uint64_t{1000},
                            std::uint64_t{65535}, std::uint64_t{1} << 20,
                            (std::uint64_t{1} << 40) + 12345,
                            ~std::uint64_t{0}}) {
        const std::size_t idx = Histogram::bucketIndex(v);
        ASSERT_LT(idx, Histogram::kBuckets) << "v=" << v;
        EXPECT_GE(idx, prev) << "v=" << v;
        prev = idx;
        const std::uint64_t low = Histogram::bucketLow(idx);
        const std::uint64_t width = Histogram::bucketWidth(idx);
        EXPECT_LE(low, v) << "v=" << v;
        EXPECT_LT(v - low, width) << "v=" << v;
    }
}

TEST(Histogram, QuantilesWithinBucketRelativeError)
{
    // Uniform 1..10000: quantile estimates may only be off by the
    // bucket quantization, bounded by 1/kSubBuckets relative error.
    Histogram h;
    for (std::uint64_t v = 1; v <= 10000; ++v)
        h.record(v);
    for (double q : {0.10, 0.50, 0.95, 0.99}) {
        const double exact = 1.0 + q * 9999.0;
        const double got = h.quantile(q);
        EXPECT_NEAR(got, exact, exact / Histogram::kSubBuckets + 1.0)
            << "q=" << q;
    }
}

TEST(Histogram, QuantileClampedToObservedRange)
{
    Histogram h;
    h.record(100);
    h.record(200);
    EXPECT_GE(h.quantile(0.0), 100.0);
    EXPECT_LE(h.quantile(1.0), 200.0);
    // A single sample answers every quantile with itself.
    Histogram one;
    one.record(777);
    EXPECT_DOUBLE_EQ(one.quantile(0.01), 777.0);
    EXPECT_DOUBLE_EQ(one.quantile(0.99), 777.0);
}

TEST(Histogram, MergeMatchesRecordingEverythingInOne)
{
    Histogram a, b, all;
    for (std::uint64_t v = 1; v < 500; ++v) {
        (v % 2 ? a : b).record(v * 7);
        all.record(v * 7);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    for (double q : {0.5, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
}

// --------------------------------------------------------------------
// WindowSeries
// --------------------------------------------------------------------

TEST(WindowSeries, AggregatesSamplesIntoWindows)
{
    WindowSeries s(100, 16);
    s.add(0, 10.0);
    s.add(50, 30.0);
    s.add(150, 5.0);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.window(0).index, 0u);
    EXPECT_DOUBLE_EQ(s.window(0).sum, 40.0);
    EXPECT_EQ(s.window(0).count, 2u);
    EXPECT_DOUBLE_EQ(s.window(0).peak, 30.0);
    EXPECT_DOUBLE_EQ(s.window(0).mean(), 20.0);
    EXPECT_EQ(s.window(1).index, 1u);
    EXPECT_DOUBLE_EQ(s.totalSum(), 45.0);
    EXPECT_EQ(s.windowCycles(), 100u);
}

TEST(WindowSeries, SkippedSpansAreZeroFilled)
{
    // A sample that lands past an idle stretch must leave explicit
    // idle windows behind, not holes, so idle time reads the same as a
    // clock ticking through it.
    WindowSeries s(10, 16);
    s.add(5, 1.0);
    s.add(95, 1.0); // window 9; windows 1..8 materialize as zeros
    ASSERT_EQ(s.size(), 10u);
    for (std::size_t i = 1; i < 9; ++i) {
        EXPECT_EQ(s.window(i).index, i);
        EXPECT_EQ(s.window(i).count, 0u);
        EXPECT_DOUBLE_EQ(s.window(i).sum, 0.0);
    }
    EXPECT_EQ(s.window(9).count, 1u);
}

TEST(WindowSeries, WideSkipMaterializesOnlyRetainedWindows)
{
    WindowSeries s(10, 16);
    s.add(5, 1.0);
    s.add(995, 1.0); // window 99; only 84..99 fit the capacity
    EXPECT_EQ(s.size(), 16u);
    EXPECT_EQ(s.window(0).index, 84u);
    EXPECT_EQ(s.window(15).index, 99u);
    // Window 0 plus zero-fills 1..83 were evicted.
    EXPECT_EQ(s.evicted(), 84u);
}

TEST(WindowSeries, OutOfOrderWithinRetainedRangeIsAccepted)
{
    WindowSeries s(10, 16);
    s.add(5, 1.0);  // window 0
    s.add(95, 1.0); // window 9
    s.add(7, 2.0);  // window 0 again -- retained, so accepted
    ASSERT_EQ(s.size(), 10u);
    EXPECT_EQ(s.window(0).index, 0u);
    EXPECT_DOUBLE_EQ(s.window(0).sum, 3.0);
    EXPECT_EQ(s.droppedOld(), 0u);

    // But a sample older than the series' first-ever window is
    // dropped: windows are never created behind the front (zero-fill
    // only covers spans between samples, not the span before the
    // first).
    WindowSeries late(10, 16);
    late.add(95, 1.0);
    late.add(5, 2.0);
    EXPECT_EQ(late.size(), 1u);
    EXPECT_EQ(late.droppedOld(), 1u);
}

TEST(WindowSeries, EvictsOldestBeyondCapacity)
{
    WindowSeries s(10, 4);
    for (Cycle at = 0; at < 60; at += 10)
        s.add(at, 1.0);
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.evicted(), 2u);
    EXPECT_EQ(s.window(0).index, 2u);
}

TEST(WindowSeries, CountsSamplesForEvictedWindows)
{
    WindowSeries s(10, 2);
    s.add(0, 1.0);
    s.add(10, 1.0);
    s.add(20, 1.0); // evicts window 0
    s.add(3, 9.0);  // window 0 is gone: dropped, not resurrected
    EXPECT_EQ(s.droppedOld(), 1u);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.window(0).index, 1u);
    EXPECT_DOUBLE_EQ(s.totalSum(), 2.0);
}

TEST(WindowSeries, RejectsDegenerateConfiguration)
{
    EXPECT_THROW(WindowSeries(0, 4), std::logic_error);
    EXPECT_THROW(WindowSeries(10, 0), std::logic_error);
}

// --------------------------------------------------------------------
// Device command-observer list
// --------------------------------------------------------------------

DeviceAccess
readAt(unsigned bg, unsigned bank, std::uint64_t row)
{
    DeviceAccess acc;
    acc.addr.bankGroup = bg;
    acc.addr.bank = bank;
    acc.addr.row = row;
    return acc;
}

TEST(DeviceObservers, MultipleObserversSeeTheSameStreamInAttachOrder)
{
    Device dev(Geometry{}, ddr4Timing());
    std::vector<std::string> order;
    std::vector<Command> first, second;
    int a = 0, b = 0;
    dev.addCommandObserver(&a, [&](const Command &c) {
        order.push_back("a");
        first.push_back(c);
    });
    dev.addCommandObserver(&b, [&](const Command &c) {
        order.push_back("b");
        second.push_back(c);
    });
    EXPECT_EQ(dev.commandObservers(), 2u);

    dev.access(readAt(0, 0, 7), 0);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].kind, second[i].kind);
        EXPECT_EQ(first[i].at, second[i].at);
    }
    // Notification order is strictly a,b,a,b,... per command.
    ASSERT_EQ(order.size(), 2 * first.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i % 2 ? "b" : "a");
}

TEST(DeviceObservers, DoubleAttachSameOwnerAsserts)
{
    Device dev(Geometry{}, ddr4Timing());
    int owner = 0;
    unsigned seen = 0;
    dev.addCommandObserver(&owner, [&](const Command &) { ++seen; });
    EXPECT_THROW(dev.addCommandObserver(&owner, [](const Command &) {}),
                 std::logic_error);
    // Strong guarantee: the failed attach leaves the list untouched --
    // the original observer is still registered, alone, and fires.
    EXPECT_EQ(dev.commandObservers(), 1u);
    dev.access(readAt(0, 0, 3), 0);
    EXPECT_GT(seen, 0u);
    dev.removeCommandObserver(&owner);
    EXPECT_EQ(dev.commandObservers(), 0u);
}

TEST(DeviceObservers, RemoveDetachesOnlyThatOwner)
{
    Device dev(Geometry{}, ddr4Timing());
    int a = 0, b = 0;
    unsigned seen_a = 0, seen_b = 0;
    dev.addCommandObserver(&a, [&](const Command &) { ++seen_a; });
    dev.addCommandObserver(&b, [&](const Command &) { ++seen_b; });

    dev.access(readAt(0, 0, 1), 0);
    EXPECT_GT(seen_a, 0u);
    EXPECT_EQ(seen_a, seen_b);

    dev.removeCommandObserver(&a);
    EXPECT_EQ(dev.commandObservers(), 1u);
    const unsigned a_before = seen_a;
    dev.access(readAt(1, 0, 1), 0);
    EXPECT_EQ(seen_a, a_before);   // a no longer notified
    EXPECT_GT(seen_b, a_before);   // b still live

    int absent = 0;
    dev.removeCommandObserver(&absent); // no-op, must not throw
    EXPECT_EQ(dev.commandObservers(), 1u);
}

// --------------------------------------------------------------------
// Telemetry collector
// --------------------------------------------------------------------

TelemetryConfig
tracedConfig()
{
    TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.commandTrace = true;
    cfg.windowCycles = 256;
    return cfg;
}

/** Drive one observed request through an attached collector. */
AccessResult
driveRequest(Device &dev, Telemetry &tel, std::uint64_t id,
             RequestClass cls, const DeviceAccess &acc, Cycle arrival,
             Cycle earliest)
{
    tel.beginRequest(id, cls, /*core=*/0, acc.addr.channel, arrival,
                     /*read_depth=*/1, /*write_depth=*/0, earliest);
    const AccessResult r = dev.access(acc, earliest);
    tel.endRequest(r, r.done);
    return r;
}

TEST(Telemetry, AttributesLatencyAndCommandsToRequests)
{
    const Geometry geom;
    Device dev(geom, ddr4Timing());
    Telemetry tel(tracedConfig(), geom, ddr4Timing());
    tel.attach(dev);
    EXPECT_EQ(dev.commandObservers(), 1u);

    const AccessResult r0 =
        driveRequest(dev, tel, 1, RequestClass::Read, readAt(0, 0, 3),
                     /*arrival=*/0, /*earliest=*/0);
    DeviceAccess wr = readAt(0, 0, 3);
    wr.isWrite = true;
    driveRequest(dev, tel, 2, RequestClass::Write, wr, r0.done, r0.done);

    const auto snap = tel.finish();
    EXPECT_EQ(dev.commandObservers(), 0u); // finish() detaches
    EXPECT_EQ(snap->totalRequests, 2u);
    EXPECT_GE(snap->totalCommands, 2u); // at least ACT + RD (+WR)
    EXPECT_EQ(snap->classHistogram(RequestClass::Read).count(), 1u);
    EXPECT_EQ(snap->classHistogram(RequestClass::Write).count(), 1u);
    EXPECT_EQ(snap->classHistogram(RequestClass::StrideRead).count(), 0u);
    EXPECT_EQ(snap->latency[0].min(), r0.done); // arrival 0

    ASSERT_EQ(snap->requests.size(), 2u);
    const RequestRecord &req = snap->requests[0];
    EXPECT_EQ(req.id, 1u);
    ASSERT_NE(req.firstCmd, RequestRecord::kNoCommand);
    ASSERT_LE(req.lastCmd, snap->commands.size() - 1);
    // The first request's span must cover its ACT and RD.
    bool saw_rd = false;
    for (std::size_t i = req.firstCmd; i <= req.lastCmd; ++i)
        saw_rd = saw_rd || snap->commands[i].kind == CmdKind::Rd;
    EXPECT_TRUE(saw_rd);
}

TEST(Telemetry, BandwidthSeriesCountLineBytesPerCas)
{
    const Geometry geom;
    Device dev(geom, ddr4Timing());
    Telemetry tel(tracedConfig(), geom, ddr4Timing());
    tel.attach(dev);

    Cycle t = 0;
    for (int i = 0; i < 4; ++i) {
        const auto r = driveRequest(dev, tel, i, RequestClass::Read,
                                    readAt(0, 0, 3), t, t);
        t = r.done;
    }
    const auto snap = tel.finish();
    // 4 reads on one open row = 4 CAS = 4 cachelines on channel 0, all
    // attributed to the one touched bank.
    EXPECT_DOUBLE_EQ(snap->channels[0].bandwidthBytes.totalSum(),
                     4.0 * kCachelineBytes);
    double bank_bytes = 0;
    std::size_t active = 0;
    for (const WindowSeries &b : snap->bankBandwidth) {
        bank_bytes += b.totalSum();
        active += b.size() ? 1 : 0;
    }
    EXPECT_DOUBLE_EQ(bank_bytes, 4.0 * kCachelineBytes);
    EXPECT_EQ(active, 1u);
    // One row hit rate sample per request; first is a miss.
    const WindowSeries &hits = snap->channels[0].rowHitRate;
    double hit_count = 0, hit_sum = 0;
    for (const SeriesWindow &w : hits.windows()) {
        hit_count += static_cast<double>(w.count);
        hit_sum += w.sum;
    }
    EXPECT_DOUBLE_EQ(hit_count, 4.0);
    EXPECT_DOUBLE_EQ(hit_sum, 3.0);
}

TEST(Telemetry, CommandTraceBoundIsRespected)
{
    const Geometry geom;
    TelemetryConfig cfg = tracedConfig();
    cfg.maxTraceCommands = 2;
    Device dev(geom, ddr4Timing());
    Telemetry tel(cfg, geom, ddr4Timing());
    tel.attach(dev);

    Cycle t = 0;
    for (int i = 0; i < 8; ++i) {
        const auto r = driveRequest(dev, tel, i, RequestClass::Read,
                                    readAt(0, 0, i), t, t);
        t = r.done;
    }
    const auto snap = tel.finish();
    EXPECT_EQ(snap->commands.size(), 2u);
    EXPECT_GT(snap->droppedCommands, 0u);
    EXPECT_EQ(snap->totalCommands,
              snap->commands.size() + snap->droppedCommands);
    // Histograms keep counting past the trace bound.
    EXPECT_EQ(snap->classHistogram(RequestClass::Read).count(), 8u);
}

TEST(Telemetry, LifecycleAsserts)
{
    const Geometry geom;
    Device dev(geom, ddr4Timing());
    Telemetry tel(tracedConfig(), geom, ddr4Timing());
    tel.attach(dev);
    EXPECT_THROW(tel.attach(dev), std::logic_error);

    AccessResult r;
    EXPECT_THROW(tel.endRequest(r, 10), std::logic_error);

    (void)tel.finish();
    EXPECT_THROW(tel.finish(), std::logic_error);
}

TEST(Telemetry, DestructorDetachesFromDevice)
{
    const Geometry geom;
    Device dev(geom, ddr4Timing());
    {
        Telemetry tel(tracedConfig(), geom, ddr4Timing());
        tel.attach(dev);
        EXPECT_EQ(dev.commandObservers(), 1u);
    }
    EXPECT_EQ(dev.commandObservers(), 0u);
}

TEST(Telemetry, SummaryJsonHasTheDocumentedShape)
{
    const Geometry geom;
    Device dev(geom, ddr4Timing());
    Telemetry tel(tracedConfig(), geom, ddr4Timing());
    tel.attach(dev);
    driveRequest(dev, tel, 1, RequestClass::StrideRead, readAt(0, 1, 2),
                 0, 0);
    const auto snap = tel.finish();

    const std::string doc = snap->summaryJson().dump();
    for (const char *needle :
         {"\"schema\": \"sam-telemetry-v1\"", "\"latencyCycles\"",
          "\"stride_read\"", "\"p99\"", "\"channels\"",
          "\"bandwidthBytes\"", "\"queueDepth\"", "\"rowHitRate\"",
          "\"modeSwitches\"", "\"banks\"", "\"counters\"",
          "\"totalCommands\""}) {
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
    }

    // latencyJson only lists classes that actually saw requests.
    const std::string lat = snap->latencyJson().dump();
    EXPECT_NE(lat.find("\"stride_read\""), std::string::npos);
    EXPECT_EQ(lat.find("\"scrub\""), std::string::npos);
}

TEST(Telemetry, BankLabelsDecodeFlatIndices)
{
    const Geometry geom; // 1 channel, 2 ranks, 4x4 banks
    Device dev(geom, ddr4Timing());
    Telemetry tel(tracedConfig(), geom, ddr4Timing());
    const auto snap = tel.finish();
    EXPECT_EQ(snap->bankLabel(0), "ch0.rk0.bg0.bk0");
    EXPECT_EQ(snap->bankLabel(5), "ch0.rk0.bg1.bk1");
    EXPECT_EQ(snap->bankLabel(16), "ch0.rk1.bg0.bk0");
    EXPECT_EQ(snap->bankLabel(31), "ch0.rk1.bg3.bk3");
}

// --------------------------------------------------------------------
// Perfetto exporter
// --------------------------------------------------------------------

TEST(Perfetto, TraceDocumentHasTracksSlicesAndFlows)
{
    const Geometry geom;
    Device dev(geom, ddr4Timing());
    Telemetry tel(tracedConfig(), geom, ddr4Timing());
    tel.attach(dev);
    Cycle t = 0;
    for (int i = 0; i < 3; ++i) {
        const auto r = driveRequest(dev, tel, i, RequestClass::Read,
                                    readAt(0, 0, i), t, t);
        t = r.done;
    }
    const auto snap = tel.finish();
    const std::string doc = perfettoTraceJson(*snap).dump();

    for (const char *needle :
         {"\"traceEvents\"", "\"displayTimeUnit\"",
          "\"process_name\"", "\"thread_name\"",
          "\"ph\": \"M\"", "\"ph\": \"X\"",
          // Request->command flows: start, step, finish.
          "\"ph\": \"s\"", "\"ph\": \"f\"",
          "\"bp\": \"e\"",
          "\"cat\": \"req\"",
          "\"ACT\"", "\"RD\"", "\"requests\""}) {
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
    }
    // Durations are in microseconds: no command lasts a millisecond.
    EXPECT_EQ(doc.find("\"dur\": -"), std::string::npos);
}

TEST(Perfetto, EmptySnapshotStillProducesAValidSkeleton)
{
    const Geometry geom;
    Telemetry tel(tracedConfig(), geom, ddr4Timing());
    const auto snap = tel.finish();
    const std::string doc = perfettoTraceJson(*snap).dump();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_EQ(doc.find("\"ph\": \"s\""), std::string::npos); // no flows
}

// --------------------------------------------------------------------
// End to end through the system simulator
// --------------------------------------------------------------------

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.taRecords = 512;
    cfg.tbRecords = 512;
    return cfg;
}

TEST(TelemetrySystem, RunProducesSnapshotWithLatencies)
{
    SimConfig cfg = tinyConfig();
    cfg.design = DesignKind::SamEn;
    cfg.telemetry.enabled = true;
    System sys(cfg);
    const RunStats r = sys.runQuery(benchmarkQsQueries()[0]);
    ASSERT_NE(r.telemetry, nullptr);
    EXPECT_GT(r.telemetry->totalRequests, 0u);
    EXPECT_GT(r.telemetry->totalCommands, 0u);
    std::uint64_t samples = 0;
    for (const Histogram &h : r.telemetry->latency)
        samples += h.count();
    EXPECT_EQ(samples, r.telemetry->totalRequests);
    // Command trace stays off unless requested.
    EXPECT_TRUE(r.telemetry->commands.empty());
    EXPECT_TRUE(r.telemetry->requests.empty());
}

TEST(TelemetrySystem, DisabledTelemetryLeavesNoSnapshot)
{
    System sys(tinyConfig());
    const RunStats r = sys.runQuery(benchmarkQQueries()[0]);
    EXPECT_EQ(r.telemetry, nullptr);
}

TEST(TelemetrySystem, CollectionIsTimingNeutral)
{
    // The acceptance bar for the whole subsystem: observing a run must
    // not change it. Same config with and without telemetry (and with
    // the full command trace) must report identical cycle counts.
    const Query q = benchmarkQsQueries()[0];
    SimConfig off = tinyConfig();
    off.design = DesignKind::SamEn;

    SimConfig on = off;
    on.telemetry.enabled = true;
    on.telemetry.commandTrace = true;

    const RunStats r_off = System(off).runQuery(q);
    const RunStats r_on = System(on).runQuery(q);
    EXPECT_EQ(r_off.cycles, r_on.cycles);
    EXPECT_TRUE(r_off.result == r_on.result);
    ASSERT_NE(r_on.telemetry, nullptr);
    EXPECT_GT(r_on.telemetry->commands.size(), 0u);
}

} // namespace
} // namespace sam
