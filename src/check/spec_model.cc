#include "src/check/spec_model.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "src/check/protocol_checker.hh"
#include "src/common/logging.hh"
#include "src/dram/device.hh"

namespace sam {

namespace {

constexpr unsigned
kindIx(CmdKind kind)
{
    return static_cast<unsigned>(kind);
}

const char *
specKindName(CmdKind kind)
{
    switch (kind) {
      case CmdKind::Act:        return "ACT";
      case CmdKind::Pre:        return "PRE";
      case CmdKind::Rd:         return "RD";
      case CmdKind::Wr:         return "WR";
      case CmdKind::Ref:        return "REF";
      case CmdKind::ModeSwitch: return "MSW";
    }
    panic("unknown CmdKind");
}

const char *
scopeName(SpecScope scope)
{
    switch (scope) {
      case SpecScope::Bank:      return "bank";
      case SpecScope::BankGroup: return "group";
      case SpecScope::Rank:      return "rank";
      case SpecScope::Channel:   return "channel";
    }
    panic("unknown SpecScope");
}

const char *
relName(SpecRankRel rel)
{
    switch (rel) {
      case SpecRankRel::Any:  return "any";
      case SpecRankRel::Same: return "same";
      case SpecRankRel::Diff: return "diff";
    }
    panic("unknown SpecRankRel");
}

const char *
modeName(AccessMode mode)
{
    return mode == AccessMode::Stride ? "stride" : "regular";
}

int
kindPriority(CmdKind kind)
{
    switch (kind) {
      case CmdKind::Pre:        return 0;
      case CmdKind::Act:        return 1;
      case CmdKind::Ref:        return 2;
      case CmdKind::Rd:
      case CmdKind::Wr:         return 3;
      case CmdKind::ModeSwitch: return 4;
    }
    panic("unknown CmdKind");
}

const std::string kFawName = "tFAW";

} // namespace

bool
specOrder(const Command &a, const Command &b)
{
    if (a.at != b.at)
        return a.at < b.at;
    return kindPriority(a.kind) < kindPriority(b.kind);
}

std::vector<SpecRule>
specRuleTable(const TimingParams &t)
{
    std::vector<SpecRule> rules;
    const auto add = [&rules](CmdKind prev, CmdKind next, SpecScope scope,
                              SpecRankRel rel, long long gap,
                              const char *name, unsigned bubble = 0) {
        // A non-positive issue gap can never bind (history is always at
        // or before the issue floor), so the rule is dropped.
        if (gap <= 0)
            return;
        SpecRule r;
        r.prev = prev;
        r.next = next;
        r.scope = scope;
        r.rankRel = rel;
        r.gap = static_cast<unsigned>(gap);
        r.bubble = bubble;
        r.name = name;
        rules.push_back(std::move(r));
    };
    const auto any = SpecRankRel::Any;

    // Bank state machine timings.
    add(CmdKind::Pre, CmdKind::Act, SpecScope::Bank, any, t.tRP, "tRP");
    add(CmdKind::Act, CmdKind::Act, SpecScope::Bank, any,
        static_cast<long long>(t.tRC()), "tRC");
    add(CmdKind::Act, CmdKind::Pre, SpecScope::Bank, any, t.tRAS,
        "tRAS");
    add(CmdKind::Rd, CmdKind::Pre, SpecScope::Bank, any, t.tRTP,
        "tRTP");
    // tWR counts from write-data end; fold the CAS-to-data-end offset
    // into an issue-to-issue gap.
    add(CmdKind::Wr, CmdKind::Pre, SpecScope::Bank, any,
        static_cast<long long>(t.cwl) + t.tBL + t.tWR, "tWR");
    add(CmdKind::Act, CmdKind::Rd, SpecScope::Bank, any, t.tRCD,
        "tRCD");
    add(CmdKind::Act, CmdKind::Wr, SpecScope::Bank, any, t.tRCD,
        "tRCD");

    // Activate spacing.
    add(CmdKind::Act, CmdKind::Act, SpecScope::Rank, any, t.tRRD_S,
        "tRRD_S");
    add(CmdKind::Act, CmdKind::Act, SpecScope::BankGroup, any,
        t.tRRD_L, "tRRD_L");

    // CAS spacing.
    const CmdKind cas[2] = {CmdKind::Rd, CmdKind::Wr};
    for (CmdKind prev : cas)
        for (CmdKind next : cas)
            add(prev, next, SpecScope::Rank, any, t.tCCD_S, "tCCD_S");
    for (CmdKind prev : cas)
        for (CmdKind next : cas)
            add(prev, next, SpecScope::BankGroup, any, t.tCCD_L,
                "tCCD_L");

    // Write-to-read turnaround (from write-data end).
    add(CmdKind::Wr, CmdKind::Rd, SpecScope::Rank, any,
        static_cast<long long>(t.cwl) + t.tBL + t.tWTR_S, "tWTR_S");
    add(CmdKind::Wr, CmdKind::Rd, SpecScope::BankGroup, any,
        static_cast<long long>(t.cwl) + t.tBL + t.tWTR_L, "tWTR_L");

    // SAM I/O mode pipeline (Section 5.3): tRTR after a switch, and a
    // switch must issue strictly after the rank's last CAS.
    add(CmdKind::ModeSwitch, CmdKind::Rd, SpecScope::Rank, any, t.tRTR,
        "tRTR(mode)");
    add(CmdKind::ModeSwitch, CmdKind::Wr, SpecScope::Rank, any, t.tRTR,
        "tRTR(mode)");
    add(CmdKind::ModeSwitch, CmdKind::ModeSwitch, SpecScope::Rank, any,
        t.tRTR, "tRTR(mode)");
    add(CmdKind::Rd, CmdKind::ModeSwitch, SpecScope::Rank, any, 1,
        "mode-state");
    add(CmdKind::Wr, CmdKind::ModeSwitch, SpecScope::Rank, any, 1,
        "mode-state");

    // Refresh blackout: nothing else on the rank for tRFC. The checker
    // does not black out PRE (the engine precharges before REF), so the
    // spec must not either.
    if (t.tRFC > 0) {
        const CmdKind blocked[5] = {CmdKind::Ref, CmdKind::Act,
                                    CmdKind::Rd, CmdKind::Wr,
                                    CmdKind::ModeSwitch};
        for (CmdKind next : blocked)
            add(CmdKind::Ref, next, SpecScope::Rank, any, t.tRFC,
                "tRFC");
        // The blackout also reaches *backward* across a same-cycle
        // tie: REF sorts before an equal-time CAS or mode switch, so a
        // REF issued in the same cycle retroactively swallows it. REF
        // must serialize strictly after them.
        const CmdKind tied[3] = {CmdKind::Rd, CmdKind::Wr,
                                 CmdKind::ModeSwitch};
        for (CmdKind prev : tied)
            add(prev, CmdKind::Ref, SpecScope::Rank, any, 1, "tRFC");
    }

    // Data bus occupancy, expressed as issue-to-issue gaps: a burst
    // occupies [issue + offset, issue + offset + tBL) where the offset
    // is CL for reads and CWL for writes. Rank handovers add a tRTR
    // bubble, named only when the bursts do not overlap outright; write
    // data behind read data on the same rank needs the 2-cycle
    // turnaround bubble.
    const auto off = [&t](CmdKind k) -> long long {
        return k == CmdKind::Wr ? t.cwl : t.cl;
    };
    for (CmdKind prev : cas) {
        for (CmdKind next : cas) {
            const long long gap = off(prev) + t.tBL - off(next);
            add(prev, next, SpecScope::Channel, SpecRankRel::Same, gap,
                "bus-overlap");
            if (prev == CmdKind::Rd && next == CmdKind::Wr)
                add(prev, next, SpecScope::Channel, SpecRankRel::Same,
                    gap + 2, "rd-wr-turnaround");
            add(prev, next, SpecScope::Channel, SpecRankRel::Diff, gap,
                "bus-overlap");
            add(prev, next, SpecScope::Channel, SpecRankRel::Diff,
                gap + t.tRTR, "tRTR(bus)", t.tRTR);
        }
    }
    return rules;
}

std::string
describeRuleTable(const TimingParams &t)
{
    std::ostringstream oss;
    for (const SpecRule &r : specRuleTable(t)) {
        oss << specKindName(r.prev) << "->" << specKindName(r.next)
            << " " << scopeName(r.scope) << " " << relName(r.rankRel)
            << " gap=" << r.gap << " " << r.name;
        if (r.bubble)
            oss << " bubble=" << r.bubble;
        oss << "\n";
    }
    oss << "# tFAW: 5th ACT >= oldest-of-last-4-ACTs + " << t.tFAW
        << " (rank window)\n";
    oss << "# state: ACT needs bank closed; PRE needs bank open; RD/WR"
           " need open row and matching mode; REF needs all banks in"
           " rank closed\n";
    if (t.tREFI == 0)
        oss << "# refresh: REF illegal (tREFI=0)\n";
    else
        oss << "# refresh: k-th REF due by (k+9)*" << t.tREFI
            << " (tREFI, 8 postponements)\n";
    return oss.str();
}

SpecModel::SpecModel(const Geometry &geom, const TimingParams &timing)
    : geom_(geom), timing_(timing), rules_(specRuleTable(timing))
{
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        horizon_ = std::max<Cycle>(horizon_, rules_[i].gap);
        byNext_[kindIx(rules_[i].next)].push_back(i);
    }
    horizon_ = std::max<Cycle>(horizon_, timing_.tFAW) + 1;
    banks_.resize(static_cast<std::size_t>(geom_.channels) *
                  geom_.ranks * geom_.banksPerRank());
    groups_.resize(static_cast<std::size_t>(geom_.channels) *
                   geom_.ranks * geom_.bankGroups);
    ranks_.resize(static_cast<std::size_t>(geom_.channels) *
                  geom_.ranks);
}

std::size_t
SpecModel::rankId(unsigned ch, unsigned rk) const
{
    return static_cast<std::size_t>(ch) * geom_.ranks + rk;
}

std::size_t
SpecModel::groupId(const MappedAddr &a) const
{
    return rankId(a.channel, a.rank) * geom_.bankGroups + a.bankGroup;
}

std::size_t
SpecModel::bankId(const MappedAddr &a) const
{
    return rankId(a.channel, a.rank) * geom_.banksPerRank() +
           a.bankInRank(geom_);
}

bool
SpecModel::bankKind(CmdKind kind)
{
    return kind == CmdKind::Act || kind == CmdKind::Pre ||
           kind == CmdKind::Rd || kind == CmdKind::Wr;
}

const char *
SpecModel::stateRule(const Cand &c, std::string *detail) const
{
    // Details are built only when asked for.
    const auto say = [detail](auto text) {
        if (detail)
            *detail = text();
    };
    switch (c.kind) {
      case CmdKind::Act: {
        const BankS &bank = banks_[bankId(c.addr)];
        if (!bank.open)
            return nullptr;
        say([&] {
            return "ACT to an already-open bank (row " +
                   std::to_string(bank.row) + " not precharged)";
        });
        return "bank-state";
      }
      case CmdKind::Pre:
        if (banks_[bankId(c.addr)].open)
            return nullptr;
        say([] { return std::string("PRE to a closed bank"); });
        return "bank-state";
      case CmdKind::Rd:
      case CmdKind::Wr: {
        const BankS &bank = banks_[bankId(c.addr)];
        if (!bank.open) {
            say([&] { return cmdKindName(c.kind) + " to a closed bank"; });
            return "bank-state";
        }
        if (bank.row != c.addr.row) {
            say([&] {
                return "CAS to row " + std::to_string(c.addr.row) +
                       " while row " + std::to_string(bank.row) +
                       " is open";
            });
            return "bank-state";
        }
        const AccessMode mode =
            ranks_[rankId(c.addr.channel, c.addr.rank)].mode;
        if (c.mode == mode)
            return nullptr;
        say([&] {
            return std::string("CAS in ") + modeName(c.mode) +
                   " mode while the rank is in " + modeName(mode) +
                   " mode";
        });
        return "mode-state";
      }
      case CmdKind::ModeSwitch:
        return nullptr;
      case CmdKind::Ref: {
        if (timing_.tREFI == 0) {
            say([] {
                return std::string(
                    "REF issued to a technology without refresh");
            });
            return "tREFI";
        }
        const std::size_t base =
            rankId(c.addr.channel, c.addr.rank) * geom_.banksPerRank();
        for (unsigned b = 0; b < geom_.banksPerRank(); ++b) {
            if (!banks_[base + b].open)
                continue;
            say([&] {
                return "REF with bank " + std::to_string(b) +
                       " open (row " +
                       std::to_string(banks_[base + b].row) + ")";
            });
            return "bank-state";
        }
        return nullptr;
      }
    }
    panic("unknown CmdKind");
}

template <typename Fn>
void
SpecModel::forEachBound(const Cand &c, Fn fn) const
{
    for (std::size_t i : byNext_[kindIx(c.kind)]) {
        const SpecRule &r = rules_[i];
        const auto visit = [&](const KindTimes &t) {
            const unsigned p = kindIx(r.prev);
            if (t.has[p])
                fn(i, t.last[p] + r.gap);
        };
        switch (r.scope) {
          case SpecScope::Bank:
            visit(banks_[bankId(c.addr)].t);
            break;
          case SpecScope::BankGroup:
            visit(groups_[groupId(c.addr)].t);
            break;
          case SpecScope::Rank:
            visit(ranks_[rankId(c.addr.channel, c.addr.rank)].t);
            break;
          case SpecScope::Channel:
            for (unsigned rk = 0; rk < geom_.ranks; ++rk) {
                if (r.rankRel == SpecRankRel::Same &&
                    rk != c.addr.rank)
                    continue;
                if (r.rankRel == SpecRankRel::Diff &&
                    rk == c.addr.rank)
                    continue;
                visit(ranks_[rankId(c.addr.channel, rk)].t);
            }
            break;
        }
    }
    if (c.kind == CmdKind::Act) {
        const RankS &rank = ranks_[rankId(c.addr.channel, c.addr.rank)];
        if (rank.actWindow.size() >= 4)
            fn(rules_.size(), rank.actWindow.front() + timing_.tFAW);
    }
}

Cycle
SpecModel::earliestLegal(const Cand &c, Cycle from) const
{
    sam_assert(stateLegal(c), "earliestLegal on a state-illegal cand");
    Cycle e = from;
    forEachBound(c, [&e](std::size_t, Cycle bound) {
        e = std::max(e, bound);
    });
    return e;
}

void
SpecModel::breaches(const Cand &c, Cycle at,
                    std::vector<SpecBreach> &out) const
{
    out.clear();
    std::string detail;
    if (const char *rule = stateRule(c, &detail))
        out.push_back({rule, std::move(detail)});
    const std::size_t timed = out.size();
    forEachBound(c, [&](std::size_t i, Cycle bound) {
        if (bound <= at)
            return;
        const bool faw = i == rules_.size();
        if (!faw && rules_[i].bubble && at + rules_[i].bubble < bound)
            return; // The tighter rule on the same pair names it.
        const std::string &name = faw ? kFawName : rules_[i].name;
        for (std::size_t k = timed; k < out.size(); ++k) {
            if (out[k].rule == name)
                return;
        }
        const unsigned gap = faw ? timing_.tFAW : rules_[i].gap;
        const Cycle since = bound - gap;
        out.push_back(
            {name, "only " + std::to_string(at - since) + " cycles after " +
                       cmdKindName(faw ? CmdKind::Act : rules_[i].prev) +
                       " @" + std::to_string(since) + ", need " +
                       std::to_string(gap)});
    });
    if (c.kind == CmdKind::Ref && timing_.tREFI > 0) {
        const Cycle deadline = refDeadline(c.addr.channel, c.addr.rank);
        if (at > deadline) {
            out.push_back(
                {"tREFI",
                 "refresh #" +
                     std::to_string(
                         ranks_[rankId(c.addr.channel, c.addr.rank)]
                             .refCount) +
                     " postponed past " + std::to_string(deadline)});
        }
    }
}

bool
SpecModel::legalAt(const Cand &c, Cycle at) const
{
    return stateLegal(c) && at >= earliestLegal(c, lastIssue_);
}

void
SpecModel::apply(const Cand &c, Cycle at)
{
    sam_assert(at >= lastIssue_, "commands must be applied in order");
    lastIssue_ = at;
    const unsigned k = kindIx(c.kind);
    RankS &rank = ranks_[rankId(c.addr.channel, c.addr.rank)];
    rank.t.last[k] = at;
    rank.t.has[k] = true;
    if (bankKind(c.kind)) {
        BankS &bank = banks_[bankId(c.addr)];
        GroupS &group = groups_[groupId(c.addr)];
        bank.t.last[k] = at;
        bank.t.has[k] = true;
        group.t.last[k] = at;
        group.t.has[k] = true;
        if (c.kind == CmdKind::Act) {
            bank.open = true;
            bank.row = c.addr.row;
            rank.actWindow.push_back(at);
            if (rank.actWindow.size() > 4)
                rank.actWindow.erase(rank.actWindow.begin());
        } else if (c.kind == CmdKind::Pre) {
            bank.open = false;
        }
    } else if (c.kind == CmdKind::ModeSwitch) {
        rank.mode = c.mode;
    } else {
        ++rank.refCount;
    }
}

Cycle
SpecModel::refDeadline(unsigned channel, unsigned rank) const
{
    const RankS &r = ranks_[rankId(channel, rank)];
    return (r.refCount + 1 + 8) * static_cast<Cycle>(timing_.tREFI);
}

AccessMode
SpecModel::rankMode(unsigned channel, unsigned rank) const
{
    return ranks_[rankId(channel, rank)].mode;
}

std::string
SpecModel::canonical() const
{
    std::string out;
    out.reserve(64 + banks_.size() * 32);
    const auto u32 = [&out](std::uint32_t v) {
        out.push_back(static_cast<char>(v & 0xff));
        out.push_back(static_cast<char>((v >> 8) & 0xff));
        out.push_back(static_cast<char>((v >> 16) & 0xff));
        out.push_back(static_cast<char>((v >> 24) & 0xff));
    };
    // Ages saturate at the horizon: anything older cannot influence
    // any rule and is merged with "never happened".
    const auto age = [&](const KindTimes &t, unsigned k) {
        if (!t.has[k])
            return std::uint32_t(0xffffffffu);
        const Cycle a = lastIssue_ - t.last[k];
        return a >= horizon_ ? std::uint32_t(0xffffffffu)
                             : static_cast<std::uint32_t>(a);
    };
    for (const BankS &bank : banks_) {
        u32(bank.open ? 1 : 0);
        // A closed bank's stale row is unobservable; mask it so states
        // differing only there merge.
        u32(bank.open ? static_cast<std::uint32_t>(bank.row) : 0);
        for (unsigned k = 0; k < kKinds; ++k)
            u32(age(bank.t, k));
    }
    for (const GroupS &group : groups_) {
        for (unsigned k = 0; k < kKinds; ++k)
            u32(age(group.t, k));
    }
    for (const RankS &rank : ranks_) {
        for (unsigned k = 0; k < kKinds; ++k)
            u32(age(rank.t, k));
        u32(static_cast<std::uint32_t>(rank.actWindow.size()));
        for (Cycle t : rank.actWindow) {
            const Cycle a = lastIssue_ - t;
            u32(a >= horizon_ ? static_cast<std::uint32_t>(horizon_)
                              : static_cast<std::uint32_t>(a));
        }
        u32(rank.mode == AccessMode::Stride ? 1 : 0);
        u32(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(rank.refCount, 15)));
    }
    return out;
}

std::string
VerifyStats::summary() const
{
    std::ostringstream oss;
    oss << "explored " << nodesExplored << " access sequence(s) ("
        << commandsChecked << " commands checked), " << specStates
        << " spec state(s) (" << statesDeduped << " merged), "
        << checkerRuns << " checker replays; probes: " << earliestProbes
        << " earliest-clean, " << monotoneProbes << " monotone; "
        << (exhausted ? "exhausted" : "CAPPED") << ", " << failures.size()
        << " failure(s)";
    return oss.str();
}

namespace {

SpecModel::Cand
candOf(const Command &cmd)
{
    return {cmd.kind, cmd.addr, cmd.mode};
}

Command
commandOf(const SpecModel::Cand &c, Cycle at)
{
    Command cmd;
    cmd.kind = c.kind;
    cmd.at = at;
    cmd.addr = c.addr;
    cmd.mode = c.mode;
    return cmd;
}

std::string
describeStream(const std::vector<Command> &cmds)
{
    std::string out;
    for (const Command &c : cmds)
        out += (out.empty() ? "" : "; ") + c.str();
    return out.empty() ? "<empty>" : out;
}

std::string
describeViolations(const std::vector<Violation> &vs)
{
    std::string out;
    const std::size_t shown = std::min<std::size_t>(vs.size(), 2);
    for (std::size_t i = 0; i < shown; ++i) {
        if (!out.empty())
            out += " | ";
        out += vs[i].constraint + ": " + vs[i].message;
    }
    if (shown < vs.size())
        out += " | +" + std::to_string(vs.size() - shown) + " more";
    return out;
}

/**
 * The access alphabet: every channel/rank/group/bank/row, RD or WR,
 * regular or stride mode, with 0 or 1 extra bursts.
 */
std::vector<DeviceAccess>
accessAlphabet(const Geometry &g, unsigned rows)
{
    std::vector<DeviceAccess> out;
    const unsigned n =
        g.channels * g.ranks * g.banksPerRank() * rows * 2 * 2 * 2;
    for (unsigned i = 0; i < n; ++i) {
        DeviceAccess a;
        a.extraBursts = i % 2;
        a.mode = (i / 2) % 2 ? AccessMode::Stride : AccessMode::Regular;
        a.isWrite = (i / 4) % 2;
        unsigned rest = i / 8;
        a.addr.row = rest % rows;
        rest /= rows;
        a.addr.bank = rest % g.banksPerGroup;
        rest /= g.banksPerGroup;
        a.addr.bankGroup = rest % g.bankGroups;
        rest /= g.bankGroups;
        a.addr.rank = rest % g.ranks;
        a.addr.channel = rest / g.ranks;
        out.push_back(a);
    }
    return out;
}

std::string
describeAccess(const DeviceAccess &a, Cycle at)
{
    const MappedAddr &addr = a.addr;
    std::string out = std::string(a.isWrite ? "WR" : "RD") + " ch" +
                      std::to_string(addr.channel) + " rk" +
                      std::to_string(addr.rank) + " bg" +
                      std::to_string(addr.bankGroup) + " bk" +
                      std::to_string(addr.bank) + " row" +
                      std::to_string(addr.row);
    if (a.mode == AccessMode::Stride)
        out += " stride";
    if (a.extraBursts)
        out += " +" + std::to_string(a.extraBursts);
    return out + " @" + std::to_string(at);
}

/** Every command kind on every bank and rank, in its legal mode. */
std::vector<SpecModel::Cand>
enumerateCands(const SpecModel &model, unsigned probe_rows)
{
    const Geometry &g = model.geometry();
    std::vector<SpecModel::Cand> out;
    for (unsigned ch = 0; ch < g.channels; ++ch) {
        for (unsigned rk = 0; rk < g.ranks; ++rk) {
            const AccessMode mode = model.rankMode(ch, rk);
            SpecModel::Cand c;
            c.addr.channel = ch;
            c.addr.rank = rk;
            for (unsigned bg = 0; bg < g.bankGroups; ++bg) {
                for (unsigned bk = 0; bk < g.banksPerGroup; ++bk) {
                    c.addr.bankGroup = bg;
                    c.addr.bank = bk;
                    c.mode = mode;
                    for (unsigned row = 0; row < probe_rows; ++row) {
                        c.addr.row = row;
                        for (CmdKind k :
                             {CmdKind::Act, CmdKind::Rd, CmdKind::Wr}) {
                            c.kind = k;
                            out.push_back(c);
                        }
                    }
                    c.addr.row = 0;
                    c.kind = CmdKind::Pre;
                    c.mode = AccessMode::Regular;
                    out.push_back(c);
                }
            }
            c.addr.bankGroup = c.addr.bank = 0;
            c.kind = CmdKind::ModeSwitch;
            c.mode = mode == AccessMode::Regular ? AccessMode::Stride
                                                 : AccessMode::Regular;
            out.push_back(c);
            c.kind = CmdKind::Ref;
            c.mode = AccessMode::Regular;
            out.push_back(c);
        }
    }
    return out;
}

/** Next sequence of the same length (odometer order); false at wrap. */
bool
advance(std::vector<std::size_t> &seq, std::size_t symbols)
{
    for (std::size_t &digit : seq) {
        if (++digit < symbols)
            return true;
        digit = 0;
    }
    return false;
}

} // namespace

VerifyStats
verifyDeviceAgainstSpec(const Geometry &geom, const TimingParams &engine,
                        const TimingParams &timing, const VerifyOptions &opt)
{
    VerifyStats stats;
    const auto fail = [&](std::string msg) {
        if (stats.failures.size() < opt.maxFailures)
            stats.failures.push_back(std::move(msg));
    };
    const auto check = [&](const std::vector<Command> &cmds) {
        ++stats.checkerRuns;
        ProtocolChecker pc(geom, timing);
        for (const Command &c : cmds)
            pc.observe(c);
        return pc.violations();
    };

    // Arrivals are non-decreasing, as the controller's clock: back to
    // back, one row cycle apart, or one refresh interval apart.
    std::vector<Cycle> gaps = {0, timing.tRC()};
    if (timing.tREFI > 0)
        gaps.push_back(timing.tREFI);
    const std::vector<DeviceAccess> alphabet =
        accessAlphabet(geom, opt.probeRows);
    sam_assert(!alphabet.empty(), "empty access alphabet");
    const std::size_t symbols = alphabet.size() * gaps.size();

    // Probes the spec itself at the state a clean stream reaches.
    const auto probeState = [&](std::vector<Command> &cmds,
                                const SpecModel &model) {
        const Cycle floor = model.lastIssue();
        std::size_t issuable = 0;
        for (const SpecModel::Cand &c :
             enumerateCands(model, opt.probeRows)) {
            if (!model.stateLegal(c))
                continue;
            ++issuable;
            const Cycle earliest = model.earliestLegal(c, floor);
            const bool ref = c.kind == CmdKind::Ref;
            const Cycle deadline =
                ref ? model.refDeadline(c.addr.channel, c.addr.rank) : 0;
            if (ref && earliest > deadline) {
                fail("REF earliest " + std::to_string(earliest) +
                     " past deadline " + std::to_string(deadline) +
                     " after [" + describeStream(cmds) + "]");
                continue;
            }
            // Clean at the earliest cycle and, legality being
            // upward-closed, at later ones up to the REF deadline.
            std::vector<Cycle> probes = {earliest};
            if (opt.monotone)
                probes.insert(probes.end(),
                              {earliest + 1, earliest + model.horizon()});
            for (Cycle at : probes) {
                if (ref && at > deadline)
                    continue;
                ++(at == earliest ? stats.earliestProbes
                                  : stats.monotoneProbes);
                cmds.push_back(commandOf(c, at));
                const std::vector<Violation> vs = check(cmds);
                if (!vs.empty()) {
                    fail(std::string(at == earliest
                                         ? "spec earliest not clean"
                                         : "not monotone") +
                         ": [" + describeStream(cmds) +
                         "] flagged: " + describeViolations(vs));
                }
                cmds.pop_back();
            }
        }
        if (issuable == 0) {
            fail("deadlock: no issuable candidate after [" +
                 describeStream(cmds) + "]");
        }
    };

    std::unordered_set<std::string> seen;
    bool capped = false;
    std::vector<std::size_t> seq;
    for (unsigned len = 1; len <= opt.depth && !capped; ++len) {
        seq.assign(len, 0);
        do {
            if (stats.failures.size() >= opt.maxFailures)
                break;
            if (stats.nodesExplored >= opt.maxNodes) {
                capped = true;
                break;
            }
            ++stats.nodesExplored;

            Device dev(geom, engine);
            std::vector<Command> cmds;
            dev.addCommandObserver(
                &cmds, [&cmds](const Command &c) { cmds.push_back(c); });
            Cycle t = 0;
            for (std::size_t s : seq) {
                t += gaps[s % gaps.size()];
                dev.access(alphabet[s / gaps.size()], t);
            }
            dev.removeCommandObserver(&cmds);
            stats.commandsChecked += cmds.size();

            const std::vector<Violation> vs = check(cmds);
            if (!vs.empty()) {
                std::string trail;
                t = 0;
                for (std::size_t s : seq) {
                    t += gaps[s % gaps.size()];
                    trail += (trail.empty() ? "" : "; ") +
                             describeAccess(alphabet[s / gaps.size()], t);
                }
                fail("engine broke the spec on [" + trail +
                     "]: " + describeViolations(vs));
                continue;
            }

            std::stable_sort(cmds.begin(), cmds.end(), specOrder);
            SpecModel model(geom, timing);
            for (const Command &c : cmds)
                model.apply(candOf(c), c.at);
            if (!seen.insert(model.canonical()).second) {
                ++stats.statesDeduped;
                continue;
            }
            ++stats.specStates;
            probeState(cmds, model);
        } while (advance(seq, symbols));
    }
    stats.exhausted =
        !capped && stats.failures.size() < opt.maxFailures;
    return stats;
}

} // namespace sam
