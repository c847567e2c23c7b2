/**
 * @file
 * FR-FCFS open-page memory controller (paper Table 2: open-page policy,
 * FR-FCFS scheduling, posted writes drained between watermarks). It is
 * timing-only: phase 1 already moved the bytes through the DataPath, so
 * the controller schedules requests and moves no data.
 */

#ifndef SAM_CONTROLLER_CONTROLLER_HH
#define SAM_CONTROLLER_CONTROLLER_HH

#include <cstdint>
#include <optional>

#include "src/common/logging.hh"
#include "src/common/stats.hh"
#include "src/controller/address_mapping.hh"
#include "src/controller/request.hh"
#include "src/controller/request_queue.hh"
#include "src/dram/device.hh"

namespace sam {

class DataPath;
class Telemetry;

/** Controller tuning knobs. */
struct ControllerParams
{
    unsigned writeHighWatermark = 24;  ///< Start draining writes.
    unsigned writeLowWatermark = 8;    ///< Stop draining writes.
    Cycle pipelineLatency = 4;         ///< Controller + ECC decode.
};

/** Controller statistics. */
struct ControllerStats
{
    Counter readsServed;
    Counter writesServed;
    Counter strideReadsServed;
    Counter strideWritesServed;
    Counter frRowHitPicks;   ///< Scheduling picks that were row hits.
    Counter fcfsPicks;       ///< Fallback oldest-first picks.
    Accum totalReadLatency;  ///< Sum of (done - arrival) over reads.

    void registerIn(StatGroup &group) const;
};

/**
 * One channel's memory controller. Owns scheduling; the Device owns
 * timing state.
 *
 * Event-driven: serviceNext() picks the best eligible request under
 * FR-FCFS, issues it to the device and returns the completion. The
 * internal clock advances to each serviced request's issue time.
 *
 * The controller registers as the device's RowStateListener and
 * forwards row open/close transitions to both queues, which keep an
 * incremental open-row index for rule-1 picks.
 */
class MemoryController : public RowStateListener
{
  public:
    explicit MemoryController(Device &device,
                              ControllerParams params = {});

    /**
     * Compatibility form for campaignbench/layer_adapter.cc, its only
     * caller; remove it with the benchmark change of ROADMAP item 3.
     * The controller is timing-only: `functional` must be false and the
     * DataPath is ignored.
     */
    MemoryController(Device &device, DataPath &, const AddressMapping &,
                     ControllerParams params, bool functional)
        : MemoryController(device, params)
    {
        sam_assert(!functional, "the memory controller is timing-only");
    }
    ~MemoryController() override;

    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    void rowOpened(std::size_t flat_bank, std::uint64_t row) override;
    void rowClosed(std::size_t flat_bank) override;

    /** Enqueue a request (arrival time already set by the producer). */
    void push(MemRequest req);

    bool hasPending() const { return !readQ_.empty() || !writeQ_.empty(); }
    std::size_t readQueueDepth() const { return readQ_.size(); }
    std::size_t writeQueueDepth() const { return writeQ_.size(); }

    /**
     * Serve one request. Returns std::nullopt when both queues are
     * empty. The controller clock never runs backwards; requests
     * arriving "in the past" are served as soon as seen.
     */
    std::optional<Completion> serviceNext();

    Cycle now() const { return now_; }
    const ControllerStats &stats() const { return stats_; }

    /**
     * Attach a telemetry collector. The controller reports request
     * begin/end around each device access so end-to-end latency and
     * queue-depth series can be attributed per request. Null detaches.
     */
    void setTelemetry(Telemetry *telemetry) { telemetry_ = telemetry; }

  private:
    /** Issue one request to the device. */
    Completion serve(MemRequest req);

    Device &device_;
    ControllerParams params_;

    Telemetry *telemetry_ = nullptr;
    RequestQueue readQ_;
    RequestQueue writeQ_;
    bool drainingWrites_ = false;
    Cycle now_ = 0;
    ControllerStats stats_;
};

} // namespace sam

#endif // SAM_CONTROLLER_CONTROLLER_HH
