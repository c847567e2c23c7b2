#include "src/check/protocol_checker.hh"

#include <algorithm>
#include <sstream>

#include "src/check/spec_model.hh"
#include "src/common/logging.hh"
#include "src/dram/device.hh"

namespace sam {

ProtocolChecker::ProtocolChecker(const Geometry &geom,
                                 const TimingParams &timing)
    : geom_(geom), timing_(timing)
{
}

void
ProtocolChecker::observe(const Command &cmd)
{
    sam_assert(cmd.addr.channel < geom_.channels &&
                   cmd.addr.rank < geom_.ranks &&
                   cmd.addr.bankGroup < geom_.bankGroups &&
                   cmd.addr.bank < geom_.banksPerGroup,
               "observed command outside geometry");
    commands_.push_back(cmd);
    checked_ = false;
}

ProtocolChecker::~ProtocolChecker()
{
    if (device_)
        device_->removeCommandObserver(this);
}

void
ProtocolChecker::attach(Device &dev)
{
    sam_assert(device_ == nullptr, "checker already attached");
    device_ = &dev;
    dev.addCommandObserver(
        this, [this](const Command &cmd) { observe(cmd); });
}

const std::vector<Violation> &
ProtocolChecker::violations()
{
    if (!checked_)
        run();
    return violations_;
}

std::string
ProtocolChecker::report(std::size_t max_violations)
{
    const auto &v = violations();
    std::ostringstream oss;
    oss << "ProtocolChecker: " << v.size() << " violation(s) over "
        << commands_.size() << " commands";
    const std::size_t shown = std::min(v.size(), max_violations);
    for (std::size_t i = 0; i < shown; ++i) {
        oss << "\n  [" << v[i].index << "] " << v[i].constraint << ": "
            << v[i].message;
    }
    if (shown < v.size())
        oss << "\n  ... " << (v.size() - shown) << " more";
    return oss.str();
}

void
ProtocolChecker::run()
{
    violations_.clear();
    checked_ = true;

    // The engine emits commands in commit order; the spec reads them in
    // issue order. Sorting in place keeps ties in arrival order, also
    // when more commands arrive after a check.
    std::stable_sort(commands_.begin(), commands_.end(), specOrder);
    SpecModel model(geom_, timing_);
    std::vector<SpecBreach> found;
    for (std::size_t i = 0; i < commands_.size(); ++i) {
        const Command &cmd = commands_[i];
        const SpecModel::Cand cand{cmd.kind, cmd.addr, cmd.mode};
        model.breaches(cand, cmd.at, found);
        for (SpecBreach &b : found) {
            violations_.push_back(Violation{std::move(b.rule),
                                            cmd.str() + ": " + b.detail,
                                            cmd, i});
        }
        model.apply(cand, cmd.at);
    }
}

} // namespace sam
