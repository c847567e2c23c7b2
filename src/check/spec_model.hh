/**
 * @file
 * The declarative DDR4/RRAM timing specification.
 *
 * Every protocol rule lives here as data: a table of pairwise issue-gap
 * rules (prev-kind -> next-kind at bank / bank-group / rank / channel
 * scope), plus the few constraints that are not pairwise (the tFAW
 * four-activate window, bank/mode/refresh state legality, the tREFI
 * postponement deadline). SpecModel evaluates the table forward over a
 * stream in specOrder(): it answers "what is the earliest cycle this
 * candidate may issue?" and "which rules does issuing it at this cycle
 * break?". The ProtocolChecker is a thin driver over the latter.
 *
 * verifyDeviceAgainstSpec() then checks the imperative timing engine
 * (src/dram/device) against the table by bounded exhaustive search over
 * short Device::access sequences: every emitted stream must be clean.
 * At each new spec state the search also probes the table itself:
 *
 *  - issuing a candidate at its earliest legal cycle, and any later
 *    cycle up to the REF deadline, replays clean through the checker
 *    (legality is upward-closed in time, including same-cycle ties);
 *  - a REF's earliest cycle never lies past its tREFI deadline;
 *  - every state has at least one issuable candidate (no deadlock).
 *
 * States are deduplicated by a canonical encoding with cycle deltas
 * rebased to the last issue and saturated at the spec horizon (the
 * largest gap any rule can look back).
 */

#ifndef SAM_CHECK_SPEC_MODEL_HH
#define SAM_CHECK_SPEC_MODEL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.hh"
#include "src/dram/command.hh"
#include "src/dram/timing.hh"

namespace sam {

/** Scope a pairwise rule measures its gap across. */
enum class SpecScope { Bank, BankGroup, Rank, Channel };

/** Rank relation for Channel-scope (data-bus) rules. */
enum class SpecRankRel { Any, Same, Diff };

/**
 * One pairwise issue-gap rule: a `next`-kind command must issue at
 * least `gap` cycles after the latest `prev`-kind command in scope.
 * Gaps are in issue-to-issue cycles; rules derived from data-relative
 * constraints (tWR, tWTR, bus occupancy) fold the CAS-to-data offsets
 * into the gap. `name` is the constraint a violation is reported under.
 */
struct SpecRule
{
    CmdKind prev = CmdKind::Act;
    CmdKind next = CmdKind::Act;
    SpecScope scope = SpecScope::Bank;
    SpecRankRel rankRel = SpecRankRel::Any;
    unsigned gap = 0;
    /**
     * When nonzero, a breach is named by this rule only within the last
     * `bubble` cycles before its bound; an earlier issue breaks a
     * tighter rule on the same pair (tRTR(bus) over bus-overlap).
     */
    unsigned bubble = 0;
    std::string name;
};

/**
 * Same-cycle order the spec reads a stream in: by issue cycle, then
 * PRE, ACT, REF, CAS, mode switch (state changes that enable others
 * first, as a controller serializes them on the command bus). A mode
 * switch sorts after an equal-time CAS: the engine commits switches
 * strictly after the rank's last CAS, so a tie only appears in
 * adversarial streams, where the switch is the offender.
 */
bool specOrder(const Command &a, const Command &b);

/** One rule a command breaks, with what went wrong. */
struct SpecBreach
{
    std::string rule;
    std::string detail;
};

/**
 * Build the full pairwise rule table for one timing preset. Rules whose
 * derived gap is zero or negative (e.g. the same-rank WR->RD bus rule,
 * dominated by tWTR) are dropped: a non-positive issue gap can never
 * bind. Refresh-blackout rules are dropped when tRFC is zero.
 */
std::vector<SpecRule> specRuleTable(const TimingParams &timing);

/**
 * Render the rule table plus the non-pairwise constraints as stable
 * one-line-per-rule text (golden-test surface; see
 * tests/test_spec_model.cc).
 */
std::string describeRuleTable(const TimingParams &timing);

/**
 * Forward evaluator for the rule table: tracks per-bank / per-group /
 * per-rank last-issue times, the tFAW window, bank open state, rank
 * I/O mode and refresh count, and answers earliest-legal and
 * rule-breach queries. Copyable value type.
 */
class SpecModel
{
  public:
    /** A candidate command, before an issue time is chosen. */
    struct Cand
    {
        CmdKind kind = CmdKind::Act;
        MappedAddr addr;
        AccessMode mode = AccessMode::Regular;
    };

    SpecModel(const Geometry &geom, const TimingParams &timing);

    /**
     * Bank/row/mode/refresh state legality -- independent of the issue
     * time chosen.
     */
    bool stateLegal(const Cand &c) const { return stateRule(c) == nullptr; }

    /**
     * Every rule `c` breaks when issued at `at` (>= lastIssue()), in
     * `out` (cleared first): the violated state rule, if any, then each
     * distinct table rule or tFAW bound past `at`, then the tREFI
     * deadline of a REF.
     */
    void breaches(const Cand &c, Cycle at,
                  std::vector<SpecBreach> &out) const;

    /**
     * Earliest cycle >= `from` at which `c` may issue. `c` must be
     * state-legal. Pass lastIssue() as `from` to respect stream order.
     */
    Cycle earliestLegal(const Cand &c, Cycle from) const;

    /** True when `c` is state-legal and `at` >= its earliest cycle. */
    bool legalAt(const Cand &c, Cycle at) const;

    /** Commit `c` at `at` (must be >= lastIssue()). */
    void apply(const Cand &c, Cycle at);

    /** Issue time of the last applied command (0 when none). */
    Cycle lastIssue() const { return lastIssue_; }

    /**
     * Latest cycle the rank's next REF may issue: DDR4 allows
     * postponing 8 refresh intervals. Meaningless when tREFI is 0.
     */
    Cycle refDeadline(unsigned channel, unsigned rank) const;

    /** Current I/O mode of a rank. */
    AccessMode rankMode(unsigned channel, unsigned rank) const;

    /**
     * Canonical state encoding: cycle ages rebased to lastIssue() and
     * saturated at horizon(). Two states with equal encodings admit
     * exactly the same future behavior.
     */
    std::string canonical() const;

    /**
     * Look-back bound: no rule (pairwise, tFAW) reaches further than
     * this many cycles into the past.
     */
    Cycle horizon() const { return horizon_; }

    const std::vector<SpecRule> &rules() const { return rules_; }
    const Geometry &geometry() const { return geom_; }
    const TimingParams &timing() const { return timing_; }

  private:
    static constexpr unsigned kKinds = 6;

    /** Last issue time per command kind at one scope. */
    struct KindTimes
    {
        std::array<Cycle, kKinds> last{};
        std::array<bool, kKinds> has{};
    };
    struct BankS
    {
        KindTimes t;
        bool open = false;
        std::uint64_t row = 0;
    };
    struct GroupS
    {
        KindTimes t;
    };
    struct RankS
    {
        KindTimes t;
        std::vector<Cycle> actWindow; ///< Up to 4 most recent ACTs.
        AccessMode mode = AccessMode::Regular;
        std::uint64_t refCount = 0;
    };

    /**
     * Name of the state rule `c` violates ("bank-state", "mode-state",
     * or "tREFI" for REF without refresh), or null; with `detail`, also
     * say why.
     */
    const char *stateRule(const Cand &c,
                          std::string *detail = nullptr) const;
    std::size_t rankId(unsigned ch, unsigned rk) const;
    std::size_t groupId(const MappedAddr &a) const;
    std::size_t bankId(const MappedAddr &a) const;
    /** Kinds addressed to a specific bank (Act/Pre/Rd/Wr). */
    static bool bankKind(CmdKind kind);
    /**
     * Rule evaluation core shared by earliestLegal / breaches: calls
     * `fn(ruleIndex, boundCycle)` for every applicable rule instance
     * plus the tFAW window (ruleIndex == rules_.size()).
     */
    template <typename Fn> void forEachBound(const Cand &c, Fn fn) const;

    Geometry geom_;
    TimingParams timing_;
    std::vector<SpecRule> rules_;
    /** Indices into rules_ by the rule's `next` kind. */
    std::array<std::vector<std::size_t>, kKinds> byNext_;
    Cycle horizon_ = 0;
    Cycle lastIssue_ = 0;
    std::vector<BankS> banks_;
    std::vector<GroupS> groups_;
    std::vector<RankS> ranks_;
};

/** Knobs for the bounded exhaustive search. */
struct VerifyOptions
{
    unsigned depth = 3;           ///< Accesses per explored sequence.
    std::size_t maxNodes = 4000;  ///< Explored sequences cap.
    unsigned probeRows = 2;       ///< Row alphabet per bank.
    bool monotone = true;         ///< Probe upward-closure.
    std::size_t maxFailures = 20; ///< Stop collecting past this many.
};

/** Outcome of one verification run. */
struct VerifyStats
{
    std::size_t nodesExplored = 0;   ///< Access sequences run.
    std::size_t commandsChecked = 0; ///< Device commands checked.
    std::size_t specStates = 0;      ///< Distinct spec states probed.
    std::size_t statesDeduped = 0;   ///< Streams ending in a seen state.
    std::size_t checkerRuns = 0;     ///< ProtocolChecker replays.
    std::size_t earliestProbes = 0;  ///< Clean-at-earliest checks.
    std::size_t monotoneProbes = 0;  ///< Upward-closure checks.
    bool exhausted = false; ///< Every sequence run before maxNodes hit.
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
    std::string summary() const;
};

/**
 * Run every sequence of up to `opt.depth` accesses from a fixed
 * alphabet (RD/WR x mode x row x rank x bank x 0-1 extra bursts, at
 * non-decreasing arrival times that include a gap crossing tREFI) on a
 * Device with `engine` timing, and check each emitted stream against
 * the spec built from `timing` (the same preset, except when a test
 * injects an engine bug). See the file comment for the spec probes.
 */
VerifyStats verifyDeviceAgainstSpec(const Geometry &geom,
                                    const TimingParams &engine,
                                    const TimingParams &timing,
                                    const VerifyOptions &opt);

} // namespace sam

#endif // SAM_CHECK_SPEC_MODEL_HH
