/**
 * @file
 * google-benchmark microbenchmarks for the memory substrate: device
 * access scheduling throughput (row hits, conflicts, stride mode),
 * controller scheduling, and the functional stride gather path.
 */

#include <benchmark/benchmark.h>

#include "src/common/random.hh"
#include "src/controller/controller.hh"
#include "src/dram/data_path.hh"
#include "src/dram/device.hh"
#include "src/dram/io_buffer.hh"

namespace {

using namespace sam;

void
BM_DeviceRowHits(benchmark::State &state)
{
    Geometry geom;
    Device dev(geom, ddr4Timing());
    DeviceAccess acc;
    acc.addr.row = 7;
    Cycle t = 0;
    unsigned col = 0;
    for (auto _ : state) {
        acc.addr.column = col++ % geom.linesPerRow();
        const auto r = dev.access(acc, t);
        t = r.issue;
        benchmark::DoNotOptimize(r.done);
    }
}
BENCHMARK(BM_DeviceRowHits);

void
BM_DeviceRowConflicts(benchmark::State &state)
{
    Geometry geom;
    Device dev(geom, ddr4Timing());
    DeviceAccess acc;
    Cycle t = 0;
    std::uint64_t row = 0;
    for (auto _ : state) {
        acc.addr.row = row++ % geom.rowsPerBank;
        const auto r = dev.access(acc, t);
        t = r.issue;
        benchmark::DoNotOptimize(r.done);
    }
}
BENCHMARK(BM_DeviceRowConflicts);

void
BM_DeviceBankInterleaved(benchmark::State &state)
{
    Geometry geom;
    Device dev(geom, ddr4Timing());
    DeviceAccess acc;
    Rng rng(1);
    Cycle t = 0;
    for (auto _ : state) {
        acc.addr.bank = static_cast<unsigned>(rng.below(4));
        acc.addr.bankGroup = static_cast<unsigned>(rng.below(4));
        acc.addr.rank = static_cast<unsigned>(rng.below(2));
        acc.addr.row = rng.below(1024);
        const auto r = dev.access(acc, t);
        t = r.issue;
        benchmark::DoNotOptimize(r.done);
    }
}
BENCHMARK(BM_DeviceBankInterleaved);

void
BM_ControllerSequentialReads(benchmark::State &state)
{
    Geometry geom;
    Device dev(geom, ddr4Timing());
    AddressMapping map(geom);
    MemoryController ctrl(dev);
    Addr addr = Addr{1} << 30;
    std::uint64_t id = 1;
    for (auto _ : state) {
        MemRequest r;
        r.type = AccessType::Read;
        r.id = id++;
        r.device.addr = map.decompose(addr);
        ctrl.push(std::move(r));
        benchmark::DoNotOptimize(ctrl.serviceNext());
        addr += kCachelineBytes;
    }
}
BENCHMARK(BM_ControllerSequentialReads);

void
BM_DataPathStrideRead(benchmark::State &state)
{
    DataPath dp(EccScheme::SscDsd);
    Rng rng(2);
    std::vector<std::uint8_t> line(kCachelineBytes);
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 8; ++i) {
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.below(256));
        dp.writeLine(i * 64ull, line);
        addrs.push_back(i * 64ull);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(dp.strideRead(addrs, 3, 8));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kCachelineBytes);
}
BENCHMARK(BM_DataPathStrideRead);

void
BM_StrideGatherOnly(benchmark::State &state)
{
    Rng rng(3);
    std::vector<std::vector<std::uint8_t>> lines(8);
    for (auto &l : lines) {
        l.resize(kCachelineBytes);
        for (auto &b : l)
            b = static_cast<std::uint8_t>(rng.below(256));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(StrideGather::gather(lines, 5, 8));
    }
}
BENCHMARK(BM_StrideGatherOnly);

} // namespace

BENCHMARK_MAIN();
