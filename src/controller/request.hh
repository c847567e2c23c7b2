/**
 * @file
 * Timing requests the replay loop hands the memory controller, and the
 * completions it returns.
 */

#ifndef SAM_CONTROLLER_REQUEST_HH
#define SAM_CONTROLLER_REQUEST_HH

#include <cstdint>

#include "src/common/types.hh"
#include "src/dram/device.hh"

namespace sam {

/**
 * The request types visible above the controller. StrideRead and
 * StrideWrite correspond to the paper's sload / sstore ISA extension
 * (Section 5.1.2); the request type is how the "instruction" informs
 * the controller to drive the stride mode.
 */
enum class AccessType { Read, Write, StrideRead, StrideWrite };

inline bool
isWrite(AccessType t)
{
    return t == AccessType::Write || t == AccessType::StrideWrite;
}

inline bool
isStride(AccessType t)
{
    return t == AccessType::StrideRead || t == AccessType::StrideWrite;
}

/**
 * One line-granular (or stride-line-granular) memory request. It is
 * timing-only: the bytes already moved in phase 1 (CorePort ->
 * DataPath), so a request carries what the scheduler and the device
 * need and no data.
 */
struct MemRequest
{
    AccessType type = AccessType::Read;
    unsigned coreId = 0;
    Cycle arrival = 0;
    std::uint64_t id = 0;

    /**
     * The device access this request performs, filled by the design
     * model before enqueue (line or gather-group row, I/O mode, extra
     * bursts).
     */
    DeviceAccess device;
};

/** Completion record returned by the controller. */
struct Completion
{
    std::uint64_t id = 0;
    Cycle done = 0;
    unsigned coreId = 0;
    bool isRead = false;
};

} // namespace sam

#endif // SAM_CONTROLLER_REQUEST_HH
