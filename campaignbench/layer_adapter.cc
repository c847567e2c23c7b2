#include "campaignbench/layer_adapter.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "src/check/protocol_checker.hh"
#include "src/common/logging.hh"
#include "src/faults/fault_injector.hh"
#include "src/faults/ras_engine.hh"
#include "src/sim/system.hh"
#include "src/telemetry/telemetry.hh"

namespace sam::campaignbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Same numbering as System's table placement. */
unsigned
layoutIndex(LayoutKind layout)
{
    switch (layout) {
      case LayoutKind::RowStore:      return 0;
      case LayoutKind::ColumnStore:   return 1;
      case LayoutKind::SamAligned:    return 2;
      case LayoutKind::VerticalGroup: return 3;
      case LayoutKind::GsSegmented:   return 4;
    }
    panic("unknown LayoutKind");
}

TableSchema
taSchema(const SimConfig &c)
{
    return TableSchema{"Ta", c.taFields, c.taRecords};
}

TableSchema
tbSchema(const SimConfig &c)
{
    return TableSchema{"Tb", c.tbFields, c.tbRecords};
}

DesignSpec
designOf(const SimConfig &c)
{
    return makeDesign(c.design, c.ecc, c.tech, c.overrideTech);
}

} // namespace

std::uint64_t
tableCacheMisses(const CampaignRunner &runner)
{
    return runner.tableCache()->misses();
}

LayoutKind
layoutFor(const SimConfig &config, const Query &query)
{
    const DesignSpec spec = designOf(config);
    if (spec.kind == DesignKind::Ideal) {
        const TableSchema schema = query.table == TableRef::Ta
            ? taSchema(config)
            : tbSchema(config);
        const unsigned gather =
            kCachelineBytes / strideUnitBytes(config.ecc);
        if (query.rowPreferred ||
            !choosePlan(query, schema, gather,
                        /*has_row_fallback=*/false)
                 .worthColumns) {
            return LayoutKind::RowStore;
        }
        return LayoutKind::ColumnStore;
    }
    return spec.layout;
}

/** Which lines of one cold-built table pair phase 1 fetched. */
struct TracedRunner::Footprint
{
    Addr taBase = 0;
    std::uint64_t taLines = 0;
    Addr tbBase = 0;
    std::uint64_t tbLines = 0;
    std::vector<bool> touched;
    std::uint64_t distinct = 0;

    void
    mark(Addr line)
    {
        std::uint64_t bit = 0;
        if (line >= taBase && (line - taBase) / kCachelineBytes < taLines)
            bit = (line - taBase) / kCachelineBytes;
        else if (line >= tbBase &&
                 (line - tbBase) / kCachelineBytes < tbLines)
            bit = taLines + (line - tbBase) / kCachelineBytes;
        else
            return;
        if (!touched[bit]) {
            touched[bit] = true;
            ++distinct;
        }
    }
};

TracedRunner::TracedRunner() : tables_(std::make_shared<TableCache>()) {}

TracedRunner::~TracedRunner() = default;

std::uint64_t
TracedRunner::linesTouched() const
{
    std::uint64_t n = 0;
    for (const auto &[key, fp] : footprints_)
        n += fp->distinct;
    return n;
}

RunOutcome
TracedRunner::run(const RunSpec &spec, LayerLedger &ledger)
{
    const SimConfig &config = spec.config;
    const Query &query = spec.query;
    sam_assert(!config.collectStatsText,
               "the traced run does not rebuild statsText");
    RunOutcome out;
    // Spans of this run; counters go straight into the ledger.
    LayerLedger &l = ledger;
    double table_s = 0, exec_s = 0, replay_s = 0, finalize_s = 0,
           finish_s = 0, power_s = 0;
    const auto run0 = Clock::now();
    try {
        // ----- System construction (System::System) ----------------
        const DesignSpec dspec = designOf(config);
        const Geometry geom;
        const TimingParams timing =
            timingFor(dspec.tech).derated(dspec.areaOverhead);
        const unsigned stride_unit = strideUnitBytes(config.ecc);
        const AddressMapping mapping(geom);
        DataPath data_path(dspec.ecc);
        RasEngine ras(config.ras);
        data_path.setRasPolicy(&ras);
        std::unique_ptr<FaultInjector> injector;
        if (config.faults.model != FaultModel::None) {
            injector = std::make_unique<FaultInjector>(config.faults);
            data_path.setFaultHook(injector.get());
        }

        // ----- Table setup (System::tablesFor) -----------------------
        auto t0 = Clock::now();
        const LayoutKind layout = layoutFor(config, query);
        const unsigned gather = kCachelineBytes / stride_unit;
        const std::uint64_t need =
            2 * std::max(taSchema(config).sizeBytes(),
                         tbSchema(config).sizeBytes());
        Addr span = Addr{1} << 30;
        while (span < need)
            span <<= 1;
        Table ta(taSchema(config), (Addr{layoutIndex(layout)} * 2 + 1) * span,
                 layout, gather, geom);
        Table tb(tbSchema(config), (Addr{layoutIndex(layout)} * 2 + 2) * span,
                 layout, gather, geom);
        const std::uint64_t misses_before = tables_->misses();
        const std::uint64_t hits_before = tables_->hits();
        auto snap = tables_->materialized(ta, tb, dspec.ecc);
        l.tableCacheHits += tables_->hits() - hits_before;
        if (tables_->misses() != misses_before) {
            l.tableCacheMisses += tables_->misses() - misses_before;
            l.linesBuilt += snap->size();
        }
        auto &slot = footprints_[snap.get()];
        if (!slot) {
            slot = std::make_unique<Footprint>();
            slot->taBase = ta.base();
            slot->taLines = ta.footprintBytes() / kCachelineBytes;
            slot->tbBase = tb.base();
            slot->tbLines = tb.footprintBytes() / kCachelineBytes;
            slot->touched.assign(slot->taLines + slot->tbLines, false);
        }
        Footprint *fp = slot.get();
        data_path.store().install(std::move(snap));
        table_s = secondsSince(t0);

        data_path.beginRun();

        // ----- Phase 1: functional execution (System::runQuery) -----
        const unsigned sector_bytes =
            dspec.supportsStride ? stride_unit : kCachelineBytes;
        std::vector<std::unique_ptr<CorePort>> ports;
        ExecEnv env;
        for (unsigned c = 0; c < config.cores; ++c) {
            ports.push_back(std::make_unique<CorePort>(
                c, config.caches, sector_bytes, data_path));
            env.ports.push_back(ports.back().get());
        }
        env.ta = &ta;
        env.tb = &tb;
        env.useStride = dspec.supportsStride && !query.rowPreferred;
        env.strideUnit = stride_unit;
        env.fieldMajorPreferred = dspec.strideAcrossRows ||
                                  layout == LayoutKind::ColumnStore;
        env.computePerRecord = config.computePerRecord;
        env.computePerValue = config.computePerValue;
        env.barrier = [&ports] {
            for (auto &p : ports)
                p->newEpoch();
        };

        RunStats &rs = out.stats;
        t0 = Clock::now();
        rs.result = executeQuery(query, env);
        for (auto &p : ports)
            p->flushCaches();
        exec_s = secondsSince(t0);

        for (const auto &p : ports) {
            const CoreTrace &trace = p->trace();
            l.traceEntries += trace.entries.size();
            for (const TraceEntry &e : trace.entries) {
                if (isWrite(e.type))
                    continue;
                const Addr *lines = trace.lines(e);
                for (unsigned i = 0; i < e.lineCount; ++i)
                    fp->mark(lines[i]);
            }
            for (unsigned lvl = 0; lvl < 3; ++lvl) {
                const CacheStats &cs = p->hierarchy().level(lvl).stats();
                l.cacheHits[lvl] += cs.hits.value();
                l.cacheMisses[lvl] += cs.misses.value();
            }
        }

        // ----- Phase 2: timing replay -------------------------------
        DesignModel model(dspec, mapping, stride_unit);
        Device device(geom, timing);
        MemoryController controller(device, data_path, mapping, {},
                                    /*functional=*/false);
        std::unique_ptr<ProtocolChecker> checker;
        if (config.check) {
            checker = std::make_unique<ProtocolChecker>(geom, timing);
            checker->attach(device);
        }
        std::unique_ptr<Telemetry> telemetry;
        if (config.telemetry.enabled) {
            telemetry = std::make_unique<Telemetry>(config.telemetry,
                                                    geom, timing);
            telemetry->attach(device);
            controller.setTelemetry(telemetry.get());
        }
        t0 = Clock::now();
        rs.cycles = config.engine == ReplayEngineKind::Step
            ? replayStep(ports, controller, model, config.mshrsPerCore)
            : replayEvent(ports, controller, model, config.mshrsPerCore);
        replay_s = secondsSince(t0);

        const ControllerStats &cs = controller.stats();
        l.controllerRequests +=
            cs.readsServed.value() + cs.writesServed.value() +
            cs.strideReadsServed.value() + cs.strideWritesServed.value();
        l.rowHitPicks += cs.frRowHitPicks.value();
        l.fcfsPicks += cs.fcfsPicks.value();
        const DeviceStats &ds = device.stats();
        l.dramCommands += ds.activates.value() + ds.precharges.value() +
                         ds.reads.value() + ds.writes.value() +
                         ds.strideReads.value() +
                         ds.strideWrites.value() +
                         ds.refreshes.value() + ds.modeSwitches.value();
        l.rowHits += ds.rowHits.value();
        l.rowMisses += ds.rowMisses.value();
        l.refreshes += ds.refreshes.value();
        l.modeSwitches += ds.modeSwitches.value();
        const EccStats &es = data_path.stats();
        l.eccLinesChecked += es.linesChecked.value();
        l.eccCorrected += es.correctedLines.value();
        l.eccUncorrectable += es.uncorrectable.value();
        l.scrubWritebacks += ras.stats().scrubWritebacks.value();
        l.readRetries += ras.stats().retriesAttempted.value();
        l.poisonedReads += ras.stats().poisonedReads.value();

        if (checker) {
            rs.checkedCommands = checker->commandCount();
            l.checkCommands += rs.checkedCommands;
            t0 = Clock::now();
            const bool clean = checker->clean();
            finalize_s = secondsSince(t0);
            l.violations += checker->violations().size();
            if (!clean) {
                // The message panic() would throw from System::runQuery.
                throw std::logic_error(
                    "panic: timing engine emitted an illegal command "
                    "stream\n" + checker->report());
            }
        }
        if (telemetry) {
            t0 = Clock::now();
            rs.telemetry = telemetry->finish();
            finish_s = secondsSince(t0);
        }

        // ----- Statistics and power ---------------------------------
        rs.memReads = ds.reads.value();
        rs.memWrites = ds.writes.value();
        rs.strideReads = ds.strideReads.value();
        rs.strideWrites = ds.strideWrites.value();
        rs.activates = ds.activates.value();
        rs.rowHits = ds.rowHits.value();
        rs.rowMisses = ds.rowMisses.value();
        rs.modeSwitches = ds.modeSwitches.value();
        rs.eccCorrectedLines = es.correctedLines.value();
        rs.eccUncorrectable = es.uncorrectable.value();
        rs.scrubWritebacks = ras.stats().scrubWritebacks.value();
        rs.readRetries = ras.stats().retriesAttempted.value();
        rs.poisonedReads = ras.stats().poisonedReads.value();
        rs.linesRetired = ras.stats().linesRetired.value();

        t0 = Clock::now();
        const double total_cas =
            static_cast<double>(rs.memReads + rs.memWrites +
                                rs.strideReads + rs.strideWrites);
        const double stride_frac = total_cas > 0
            ? (rs.strideReads + rs.strideWrites) / total_cas
            : 0.0;
        const unsigned chips = dspec.ecc == EccScheme::None ? 16 : 18;
        const PowerModel pm(iddFor(dspec.tech), timing, chips,
                            dspec.power);
        rs.power = pm.compute(ds, rs.cycles, stride_frac);
        power_s = secondsSince(t0);
    } catch (const std::exception &e) {
        out.failed = true;
        out.error = e.what();
    }
    const double wall_s = secondsSince(run0);
    out.hostMs = wall_s * 1e3;
    l.tableSetupS += table_s;
    l.execS += exec_s;
    l.replayS += replay_s;
    l.checkFinalizeS += finalize_s;
    l.telemetryFinishS += finish_s;
    l.powerS += power_s;
    l.otherS += wall_s - table_s - exec_s - replay_s - finalize_s -
                finish_s - power_s;
    l.wallS += wall_s;
    return out;
}

} // namespace sam::campaignbench
