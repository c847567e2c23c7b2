#include "src/sim/replay_engine.hh"

#include <algorithm>

#include "src/common/logging.hh"

namespace sam {

namespace {

/** Requests one core may issue per round. */
constexpr unsigned kIssueBatch = 32;

/** Queue depth (reads + writes) above which no core issues. */
constexpr std::size_t kBackpressureDepth = 256;

/**
 * One in-flight read of a core's MSHR window. `done` stays
 * kInvalidCycle until the completion arrives.
 */
struct Mshr
{
    std::uint64_t id = 0;
    Cycle done = kInvalidCycle;
};

/** Why a core stopped issuing; anything but Runnable parks it. */
enum class Wait : std::uint8_t
{
    Runnable,      ///< In the issue sweep.
    Backpressure,  ///< Queue depth exceeded kBackpressureDepth.
    MshrStall,     ///< Window full, no in-flight read served yet.
    EpochDone,     ///< All of this epoch's entries issued.
};

struct CoreState
{
    const CoreTrace *trace = nullptr;
    /** Next entry to issue and the end of the current epoch. */
    std::size_t idx = 0;
    std::size_t end = 0;
    Cycle clock = 0;
    Wait wait = Wait::Runnable;
    /**
     * In-flight reads, unordered. MSHR-sized and flat: the retire
     * scan and the completion match walk a handful of contiguous
     * entries instead of churning per-epoch hash maps.
     */
    std::vector<Mshr> window;
};

bool
backpressured(const MemoryController &controller)
{
    return controller.readQueueDepth() + controller.writeQueueDepth() >
           kBackpressureDepth;
}

} // namespace

Cycle
replayTraces(const std::vector<std::unique_ptr<CorePort>> &ports,
             MemoryController &controller, DesignModel &model,
             unsigned mshrs_per_core, ReplayEngineKind kind)
{
    const bool park = kind == ReplayEngineKind::Event;
    const unsigned num_cores = static_cast<unsigned>(ports.size());
    std::vector<CoreState> cores(num_cores);
    std::size_t num_epochs = 0;
    for (unsigned c = 0; c < num_cores; ++c) {
        cores[c].trace = &ports[c]->trace();
        cores[c].window.reserve(mshrs_per_core);
        num_epochs = std::max(num_epochs, cores[c].trace->numEpochs());
    }

    std::uint64_t next_id = 1;
    Cycle max_done = 0;

    // Issue up to kIssueBatch of core c's entries; on stopping short,
    // record why in its wait state.
    const auto issue_some = [&](unsigned c) -> bool {
        CoreState &cs = cores[c];
        const CoreTrace &trace = *cs.trace;
        unsigned batch = 0;
        while (cs.idx < cs.end && batch < kIssueBatch) {
            if (backpressured(controller)) {
                cs.wait = Wait::Backpressure;
                return batch > 0;
            }
            const TraceEntry &e = trace.entries[cs.idx];
            Cycle t = cs.clock + e.gap;
            const bool is_read = !isWrite(e.type);
            if (is_read && cs.window.size() >= mshrs_per_core) {
                // Retire the earliest *known* completion; stall if
                // none of the in-flight reads has been served yet.
                Cycle best = kInvalidCycle;
                std::size_t best_i = cs.window.size();
                for (std::size_t i = 0; i < cs.window.size(); ++i) {
                    if (cs.window[i].done < best) {
                        best = cs.window[i].done;
                        best_i = i;
                    }
                }
                if (best_i == cs.window.size()) {
                    cs.wait = Wait::MshrStall;
                    return batch > 0;
                }
                // Swap-with-back: MSHR slots are unordered (the scan
                // above picks by completion time, entries match
                // completions by id).
                cs.window[best_i] = cs.window.back();
                cs.window.pop_back();
                t = std::max(t, best);
            }

            MemRequest req;
            if (isStride(e.type)) {
                req = model.strideRequest(e.type, trace.lines(e),
                                          e.lineCount, e.sector, t, c);
            } else {
                req = model.lineRequest(e.type, trace.lines(e)[0], t, c);
            }
            req.id = next_id++;
            if (is_read)
                cs.window.push_back({req.id, kInvalidCycle});
            controller.push(std::move(req));
            cs.clock = t;
            ++cs.idx;
            ++batch;
        }
        // A core stopped by the batch limit stays in the sweep.
        if (cs.idx >= cs.end)
            cs.wait = Wait::EpochDone;
        return batch > 0;
    };

    for (std::size_t epoch = 0; epoch < num_epochs; ++epoch) {
        // Barrier: all cores resume together after prior epoch traffic.
        for (CoreState &cs : cores) {
            cs.clock = std::max(cs.clock, max_done);
            const bool active = epoch < cs.trace->numEpochs();
            cs.idx = active ? cs.trace->epochBegin(epoch) : 0;
            cs.end = active ? cs.trace->epochEnd(epoch) : 0;
            cs.window.clear();
            cs.wait = cs.idx < cs.end ? Wait::Runnable : Wait::EpochDone;
        }

        while (true) {
            bool progress = false;
            for (unsigned c = 0; c < num_cores; ++c) {
                if (!park || cores[c].wait == Wait::Runnable)
                    progress = issue_some(c) || progress;
            }

            if (auto comp = controller.serviceNext()) {
                max_done = std::max(max_done, comp->done);
                if (comp->isRead) {
                    sam_assert(comp->coreId < num_cores,
                               "orphan completion");
                    CoreState &cs = cores[comp->coreId];
                    bool matched = false;
                    for (Mshr &m : cs.window) {
                        if (m.id == comp->id) {
                            m.done = comp->done;
                            matched = true;
                            break;
                        }
                    }
                    sam_assert(matched, "orphan completion");
                    // The stalled owner now has a known completion
                    // to retire against.
                    if (cs.wait == Wait::MshrStall)
                        cs.wait = Wait::Runnable;
                }
                if (!backpressured(controller)) {
                    for (CoreState &cs : cores) {
                        if (cs.wait == Wait::Backpressure)
                            cs.wait = Wait::Runnable;
                    }
                }
                progress = true;
            }

            if (!progress) {
                // Nothing issued and the queues are empty: the epoch
                // is complete -- or the replay deadlocked.
                for (const CoreState &cs : cores)
                    sam_assert(cs.idx >= cs.end, "replay deadlock");
                break;
            }
        }

        for (const CoreState &cs : cores)
            max_done = std::max(max_done, cs.clock);
    }
    return max_done;
}

Cycle
replayStep(const std::vector<std::unique_ptr<CorePort>> &ports,
           MemoryController &controller, DesignModel &model,
           unsigned mshrs_per_core)
{
    return replayTraces(ports, controller, model, mshrs_per_core,
                        ReplayEngineKind::Step);
}

Cycle
replayEvent(const std::vector<std::unique_ptr<CorePort>> &ports,
            MemoryController &controller, DesignModel &model,
            unsigned mshrs_per_core)
{
    return replayTraces(ports, controller, model, mshrs_per_core,
                        ReplayEngineKind::Event);
}

} // namespace sam
