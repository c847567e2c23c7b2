/**
 * @file
 * The phase-2 trace replay loop.
 *
 * Replay walks each epoch in rounds. A round first lets every core
 * issue (in core-id order, at most 32 requests each) and then
 * services one request. That order fixes the RequestQueue insertion
 * sequence, which FR-FCFS uses for tie-breaking, so it is the same
 * whichever way the loop finds the cores to poll.
 *
 * The loop's one variant is *parking*. A core that stops issuing
 * records why: its MSHR window is full with no completion to retire
 * against, the controller queues are backpressured, or its epoch is
 * done. A parked core is left out of the issue sweeps until the
 * completion handler clears the reason (a read of its own completes,
 * or the queues drain below the backpressure threshold). Those are
 * the only events that can unblock it, so a parked sweep skips
 * exactly the polls that would have issued nothing. The polling
 * variant visits every core every round and is the reference that
 * tests/test_engine_diff.cc compares the parked loop against.
 */

#ifndef SAM_SIM_REPLAY_ENGINE_HH
#define SAM_SIM_REPLAY_ENGINE_HH

#include <memory>
#include <vector>

#include "src/common/types.hh"
#include "src/controller/controller.hh"
#include "src/designs/design_model.hh"
#include "src/sim/core_port.hh"

namespace sam {

/** How the replay loop finds the cores to poll each round. */
enum class ReplayEngineKind
{
    Step,   ///< Poll every core every round (the reference).
    Event,  ///< Park a blocked core until a completion unblocks it.
};

/**
 * Replay the captured per-core traces through the controller and
 * return the cycle the last request completes.
 */
Cycle replayTraces(const std::vector<std::unique_ptr<CorePort>> &ports,
                   MemoryController &controller, DesignModel &model,
                   unsigned mshrs_per_core, ReplayEngineKind kind);

/** replayTraces with every core polled every round. */
Cycle replayStep(const std::vector<std::unique_ptr<CorePort>> &ports,
                 MemoryController &controller, DesignModel &model,
                 unsigned mshrs_per_core);

/** replayTraces with blocked cores parked (the default). */
Cycle replayEvent(const std::vector<std::unique_ptr<CorePort>> &ports,
                  MemoryController &controller, DesignModel &model,
                  unsigned mshrs_per_core);

} // namespace sam

#endif // SAM_SIM_REPLAY_ENGINE_HH
