/**
 * @file
 * Run telemetry: latency histograms, windowed time series, and an
 * optional full command trace.
 *
 * The collector rides the two existing observation points — the Device
 * command observer (shared with the src/check protocol oracle) and the
 * controller's request begin/end notifications — so it is purely
 * passive: it never changes scheduling decisions, timestamps, or data,
 * and when disabled nothing is attached and the simulated timing is
 * bit-identical to a build without telemetry.
 *
 * Collected always (when enabled):
 *   - per-request-class end-to-end latency histograms (p50/p95/p99),
 *   - per-channel windowed series: data-bus bytes, read/write queue
 *     depth at issue, row-hit rate, I/O mode switches,
 *   - per-bank windowed data-bus bytes.
 * Collected only with `commandTrace` (the Perfetto path):
 *   - the raw command stream and per-request command spans, bounded by
 *     maxTraceCommands/maxTraceRequests (overflow is counted, not
 *     silently dropped).
 */

#ifndef SAM_TELEMETRY_TELEMETRY_HH
#define SAM_TELEMETRY_TELEMETRY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.hh"
#include "src/common/json.hh"
#include "src/common/timeseries.hh"
#include "src/common/types.hh"
#include "src/dram/command.hh"
#include "src/dram/device.hh"
#include "src/dram/timing.hh"

namespace sam {

/** Request classes tracked with separate latency histograms. */
enum class RequestClass {
    Read,
    Write,
    StrideRead,
    StrideWrite,
};

inline constexpr std::size_t kRequestClasses = 4;

std::string requestClassName(RequestClass cls);

/** Collector configuration (all bounds keep the footprint fixed). */
struct TelemetryConfig
{
    /** Master switch; off means nothing is attached or recorded. */
    bool enabled = false;
    /** Record the raw command stream (needed for Perfetto export). */
    bool commandTrace = false;
    /** Width of one time-series aggregation window (cycles). */
    Cycle windowCycles = 4096;
    /** Retained windows per series (oldest evicted beyond this). */
    std::size_t maxWindows = 512;
    /** Command-trace bound; overflow is counted, not recorded. */
    std::size_t maxTraceCommands = 1u << 20;
    /** Request-span bound for the trace. */
    std::size_t maxTraceRequests = 1u << 18;
};

/** One request's command-stream span in the trace. */
struct RequestRecord
{
    std::uint64_t id = 0;
    RequestClass cls = RequestClass::Read;
    unsigned core = 0;
    unsigned channel = 0;
    Cycle arrival = 0;
    Cycle start = 0;   ///< When the controller began serving it.
    Cycle done = 0;    ///< Completion time (pipeline latency included).
    /** [firstCmd, lastCmd] index span into `commands` (npos if none). */
    std::size_t firstCmd = kNoCommand;
    std::size_t lastCmd = kNoCommand;

    static constexpr std::size_t kNoCommand = ~std::size_t{0};
};

/** Per-channel windowed series bundle. */
struct ChannelSeries
{
    ChannelSeries(Cycle window_cycles, std::size_t max_windows)
        : bandwidthBytes(window_cycles, max_windows),
          queueDepth(window_cycles, max_windows),
          rowHitRate(window_cycles, max_windows),
          modeSwitches(window_cycles, max_windows)
    {
    }

    WindowSeries bandwidthBytes;  ///< Data-bus bytes per window.
    WindowSeries queueDepth;      ///< Read+write queue depth at issue.
    WindowSeries rowHitRate;      ///< 1/0 per request; mean = hit rate.
    WindowSeries modeSwitches;    ///< SAM I/O mode switches per window.
};

/**
 * Immutable result of one run's collection. Shared (not copied) into
 * RunStats so campaign plumbing stays cheap.
 */
struct TelemetrySnapshot
{
    TelemetryConfig config;
    Geometry geom;
    TimingParams timing;
    double tCkNs = 0.833;

    std::array<Histogram, kRequestClasses> latency;
    std::vector<ChannelSeries> channels;       ///< Per channel.
    std::vector<WindowSeries> bankBandwidth;   ///< Per flat bank.

    std::vector<Command> commands;             ///< Trace only.
    std::vector<RequestRecord> requests;       ///< Trace only.

    std::uint64_t totalCommands = 0;
    std::uint64_t totalRequests = 0;
    std::uint64_t droppedCommands = 0;
    std::uint64_t droppedRequests = 0;

    const Histogram &
    classHistogram(RequestClass cls) const
    {
        return latency[static_cast<std::size_t>(cls)];
    }

    /** Flat-bank label, e.g. "ch0.rk1.bg2.bk3". */
    std::string bankLabel(std::size_t flat_bank) const;

    /** "sam-telemetry-v1" summary document (no raw command stream). */
    Json summaryJson() const;

    /** Latency histogram summaries only (embedded in BENCH JSON). */
    Json latencyJson() const;
};

/**
 * Live collector. Attach to a Device, point the controller at it, run,
 * then finish() to freeze the snapshot.
 */
class Telemetry
{
  public:
    Telemetry(const TelemetryConfig &config, const Geometry &geom,
              const TimingParams &timing);
    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** Subscribe to the device's command stream. */
    void attach(Device &dev);

    /** Controller hook: one request is about to be issued. */
    void beginRequest(std::uint64_t id, RequestClass cls, unsigned core,
                      unsigned channel, Cycle arrival,
                      std::size_t read_depth, std::size_t write_depth,
                      Cycle now);

    /** Controller hook: the request begun last completed. */
    void endRequest(const AccessResult &result, Cycle done);

    /** Freeze and hand over the collected data. */
    std::shared_ptr<const TelemetrySnapshot> finish();

  private:
    void onCommand(const Command &cmd);

    std::unique_ptr<TelemetrySnapshot> snap_;
    Device *device_ = nullptr;

    /** The request currently being served (controller serves one at a
     *  time, so a single pending slot suffices). */
    RequestRecord pending_;
    bool pendingActive_ = false;
    bool pendingTraced_ = false;
};

} // namespace sam

#endif // SAM_TELEMETRY_TELEMETRY_HH
