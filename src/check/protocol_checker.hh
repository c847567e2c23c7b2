/**
 * @file
 * DDR4/RRAM protocol oracle: a driver over the SpecModel rule table.
 *
 * The ProtocolChecker observes the command stream a Device emits
 * (ACT/PRE/RD/WR/REF plus SAM I/O mode switches), orders it once by
 * issue cycle (specOrder), and walks it through a SpecModel
 * (src/check/spec_model): each command is reported under every rule it
 * breaks -- a bank/mode/refresh state rule, a pairwise issue-gap rule
 * (tRCD, tRP, tRAS/tRC, tRRD_S/L, tCCD_S/L, tWR, tWTR_S/L, tRTP, tRFC,
 * SAM's Section 5.3 mode rules, data-bus overlap, rank-switch and
 * read-to-write bubbles), the tFAW window, or the tREFI postponement
 * deadline -- and then applied. The checker makes no timing comparison
 * of its own: the table is the one timing specification, and the
 * imperative engine in src/dram/device is checked against it.
 *
 * The command bus itself (one command slot per cycle) is not modelled
 * by the engine and therefore not checked.
 */

#ifndef SAM_CHECK_PROTOCOL_CHECKER_HH
#define SAM_CHECK_PROTOCOL_CHECKER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/dram/command.hh"
#include "src/dram/timing.hh"

namespace sam {

class Device;

/** One detected protocol violation, with full command context. */
struct Violation
{
    /** Name of the violated constraint (e.g. "tFAW", "bank-state"). */
    std::string constraint;
    /** Human-readable description with the commands involved. */
    std::string message;
    /** The offending command. */
    Command cmd;
    /** Index of the command in the time-sorted stream. */
    std::size_t index = 0;
};

class ProtocolChecker
{
  public:
    ProtocolChecker(const Geometry &geom, const TimingParams &timing);

    /** Detaches from the observed device, if attached. */
    ~ProtocolChecker();

    ProtocolChecker(const ProtocolChecker &) = delete;
    ProtocolChecker &operator=(const ProtocolChecker &) = delete;

    /** Record one command (any order; sorted before checking). */
    void observe(const Command &cmd);

    /**
     * Install this checker as `dev`'s command observer. The device
     * must outlive the checker (or the checker must be destroyed
     * first); the observer is unhooked in the destructor.
     */
    void attach(Device &dev);

    /**
     * Sort the observed stream and check it against the spec, in
     * stream order. Idempotent until more commands are observed.
     * Returns all violations found.
     */
    const std::vector<Violation> &violations();

    /** True when the whole observed stream is protocol-legal. */
    bool clean() { return violations().empty(); }

    std::size_t commandCount() const { return commands_.size(); }

    /** Multi-line report of up to `max_violations` violations. */
    std::string report(std::size_t max_violations = 20);

  private:
    void run();

    Geometry geom_;
    TimingParams timing_;
    Device *device_ = nullptr; ///< Attached device (for detach).
    std::vector<Command> commands_;
    std::vector<Violation> violations_;
    bool checked_ = false;
};

} // namespace sam

#endif // SAM_CHECK_PROTOCOL_CHECKER_HH
