/**
 * @file
 * The traced run: one query run composed from the layers' public calls
 * exactly as System::runQuery composes them, with a host-time span
 * around each call and the layer counters read off afterwards.
 *
 * This file pair is the only place the benchmark reaches below the
 * top-level API (RunSpec -> CampaignRunner/Session -> RunStats). When
 * a layer it calls is merged or removed (TableCache, ProtocolChecker,
 * replayStep/replayEvent), re-point this adapter; the exactness guard
 * in main.cc fails until it again reproduces the untraced RunStats.
 */

#ifndef SAM_CAMPAIGNBENCH_LAYER_ADAPTER_HH
#define SAM_CAMPAIGNBENCH_LAYER_ADAPTER_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/runner/campaign.hh"

namespace sam::campaignbench {

/** What one run produced: its RunStats, or the failure it threw. */
struct RunOutcome
{
    bool failed = false;
    /** The exception's full message when failed. */
    std::string error;
    RunStats stats;
    /** Host milliseconds of the run. */
    double hostMs = 0.0;
};

/** Host time and work counts per layer, summed over traced runs. */
struct LayerLedger
{
    // Host seconds inside each layer's calls.
    double tableSetupS = 0.0;    ///< Table + TableCache + install.
    double execS = 0.0;          ///< executeQuery + cache flush.
    double replayS = 0.0;        ///< replay loop, checker observe included.
    double checkFinalizeS = 0.0; ///< ProtocolChecker::violations().
    double telemetryFinishS = 0.0;
    double powerS = 0.0;
    double otherS = 0.0;         ///< Run wall minus the spans above.
    double wallS = 0.0;

    std::uint64_t tableCacheHits = 0;
    std::uint64_t tableCacheMisses = 0;
    std::uint64_t linesBuilt = 0;  ///< Lines of cold-built snapshots.

    std::uint64_t traceEntries = 0;
    std::array<std::uint64_t, 3> cacheHits{};   ///< L1, L2, LLC.
    std::array<std::uint64_t, 3> cacheMisses{};
    std::uint64_t eccLinesChecked = 0;
    std::uint64_t eccCorrected = 0;
    std::uint64_t eccUncorrectable = 0;

    std::uint64_t controllerRequests = 0;
    std::uint64_t rowHitPicks = 0;   ///< FR-FCFS picks that were row hits.
    std::uint64_t fcfsPicks = 0;     ///< Oldest-first fallback picks.

    std::uint64_t dramCommands = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t modeSwitches = 0;

    std::uint64_t checkCommands = 0;
    std::uint64_t violations = 0;

    std::uint64_t scrubWritebacks = 0;
    std::uint64_t readRetries = 0;
    std::uint64_t poisonedReads = 0;
};

/**
 * Runs RunSpecs through the layers one call at a time, sharing one
 * TableCache across runs as CampaignRunner does.
 */
class TracedRunner
{
  public:
    TracedRunner();
    ~TracedRunner();

    TracedRunner(const TracedRunner &) = delete;
    TracedRunner &operator=(const TracedRunner &) = delete;

    /** Run one spec; failures are returned, never thrown. */
    RunOutcome run(const RunSpec &spec, LayerLedger &ledger);

    /** Distinct table lines phase 1 fetched from memory, over every
     *  run so far. */
    std::uint64_t linesTouched() const;

  private:
    struct Footprint;

    std::shared_ptr<TableCache> tables_;
    /** Keyed by snapshot identity: one per cold-built table pair. */
    std::map<const void *, std::unique_ptr<Footprint>> footprints_;
};

/** TableCache misses `runner` has taken so far. */
std::uint64_t tableCacheMisses(const CampaignRunner &runner);

/** The table layout a run of `query` under `config` uses (mirrors
 *  System::layoutFor). */
LayoutKind layoutFor(const SimConfig &config, const Query &query);

} // namespace sam::campaignbench

#endif // SAM_CAMPAIGNBENCH_LAYER_ADAPTER_HH
