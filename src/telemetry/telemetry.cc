#include "src/telemetry/telemetry.hh"

#include <utility>

#include "src/common/logging.hh"

namespace sam {

namespace {

Json
histogramJson(const Histogram &h)
{
    const HistogramSummary s = h.summary();
    Json j = Json::object();
    j.set("count", s.count);
    j.set("min", s.min);
    j.set("max", s.max);
    j.set("mean", s.mean);
    j.set("p50", s.p50);
    j.set("p95", s.p95);
    j.set("p99", s.p99);
    return j;
}

Json
seriesJson(const WindowSeries &s)
{
    Json j = Json::object();
    j.set("windowCycles", s.windowCycles());
    Json windows = Json::array();
    for (const SeriesWindow &w : s.windows()) {
        Json wj = Json::object();
        wj.set("index", w.index);
        wj.set("sum", w.sum);
        wj.set("count", w.count);
        wj.set("peak", w.peak);
        windows.push(std::move(wj));
    }
    j.set("windows", std::move(windows));
    j.set("evicted", s.evicted());
    j.set("droppedOld", s.droppedOld());
    return j;
}

} // namespace

std::string
requestClassName(RequestClass cls)
{
    switch (cls) {
      case RequestClass::Read:        return "read";
      case RequestClass::Write:       return "write";
      case RequestClass::StrideRead:  return "stride_read";
      case RequestClass::StrideWrite: return "stride_write";
    }
    panic("unknown RequestClass");
}

std::string
TelemetrySnapshot::bankLabel(std::size_t flat_bank) const
{
    const unsigned per_rank = geom.banksPerRank();
    const unsigned in_rank = static_cast<unsigned>(flat_bank % per_rank);
    const unsigned rank_id = static_cast<unsigned>(flat_bank / per_rank);
    return "ch" + std::to_string(rank_id / geom.ranks) + ".rk" +
           std::to_string(rank_id % geom.ranks) + ".bg" +
           std::to_string(in_rank / geom.banksPerGroup) + ".bk" +
           std::to_string(in_rank % geom.banksPerGroup);
}

Json
TelemetrySnapshot::latencyJson() const
{
    Json j = Json::object();
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        if (!latency[c].count())
            continue;
        j.set(requestClassName(static_cast<RequestClass>(c)),
              histogramJson(latency[c]));
    }
    return j;
}

Json
TelemetrySnapshot::summaryJson() const
{
    Json doc = Json::object();
    doc.set("schema", "sam-telemetry-v1");
    doc.set("tCkNs", tCkNs);
    doc.set("windowCycles", config.windowCycles);
    doc.set("latencyCycles", latencyJson());

    Json chans = Json::array();
    for (std::size_t c = 0; c < channels.size(); ++c) {
        Json cj = Json::object();
        cj.set("channel", static_cast<std::uint64_t>(c));
        cj.set("bandwidthBytes", seriesJson(channels[c].bandwidthBytes));
        cj.set("queueDepth", seriesJson(channels[c].queueDepth));
        cj.set("rowHitRate", seriesJson(channels[c].rowHitRate));
        cj.set("modeSwitches", seriesJson(channels[c].modeSwitches));
        chans.push(std::move(cj));
    }
    doc.set("channels", std::move(chans));

    Json banks = Json::array();
    for (std::size_t b = 0; b < bankBandwidth.size(); ++b) {
        // Idle banks are omitted so large geometries stay readable.
        if (!bankBandwidth[b].size())
            continue;
        Json bj = Json::object();
        bj.set("bank", bankLabel(b));
        bj.set("totalBytes", bankBandwidth[b].totalSum());
        bj.set("bandwidthBytes", seriesJson(bankBandwidth[b]));
        banks.push(std::move(bj));
    }
    doc.set("banks", std::move(banks));

    Json counters = Json::object();
    counters.set("totalCommands", totalCommands);
    counters.set("totalRequests", totalRequests);
    counters.set("tracedCommands",
                 static_cast<std::uint64_t>(commands.size()));
    counters.set("tracedRequests",
                 static_cast<std::uint64_t>(requests.size()));
    counters.set("droppedCommands", droppedCommands);
    counters.set("droppedRequests", droppedRequests);
    doc.set("counters", std::move(counters));
    return doc;
}

Telemetry::Telemetry(const TelemetryConfig &config, const Geometry &geom,
                     const TimingParams &timing)
    : snap_(std::make_unique<TelemetrySnapshot>())
{
    snap_->config = config;
    snap_->geom = geom;
    snap_->timing = timing;
    snap_->tCkNs = timing.tCkNs;
    snap_->channels.reserve(geom.channels);
    for (unsigned c = 0; c < geom.channels; ++c)
        snap_->channels.emplace_back(config.windowCycles,
                                     config.maxWindows);
    snap_->bankBandwidth.reserve(geom.totalBanks());
    for (unsigned b = 0; b < geom.totalBanks(); ++b)
        snap_->bankBandwidth.emplace_back(config.windowCycles,
                                          config.maxWindows);
}

Telemetry::~Telemetry()
{
    // The device must outlive the collector (declare it first); the
    // observer is unhooked here so a collector can be torn down early.
    if (device_)
        device_->removeCommandObserver(this);
}

void
Telemetry::attach(Device &dev)
{
    sam_assert(device_ == nullptr, "telemetry already attached");
    device_ = &dev;
    dev.addCommandObserver(
        this, [this](const Command &cmd) { onCommand(cmd); });
}

void
Telemetry::onCommand(const Command &cmd)
{
    TelemetrySnapshot &s = *snap_;
    ++s.totalCommands;

    const unsigned ch = cmd.addr.channel;
    if (cmd.kind == CmdKind::Rd || cmd.kind == CmdKind::Wr) {
        s.channels[ch].bandwidthBytes.add(cmd.at, kCachelineBytes);
        s.bankBandwidth[cmd.addr.flatBank(s.geom)].add(cmd.at,
                                                       kCachelineBytes);
    } else if (cmd.kind == CmdKind::ModeSwitch) {
        s.channels[ch].modeSwitches.add(cmd.at, 1.0);
    }

    if (!s.config.commandTrace)
        return;
    if (s.commands.size() >= s.config.maxTraceCommands) {
        ++s.droppedCommands;
        return;
    }
    s.commands.push_back(cmd);
    if (pendingActive_ && pendingTraced_) {
        const std::size_t idx = s.commands.size() - 1;
        if (pending_.firstCmd == RequestRecord::kNoCommand)
            pending_.firstCmd = idx;
        pending_.lastCmd = idx;
    }
}

void
Telemetry::beginRequest(std::uint64_t id, RequestClass cls, unsigned core,
                        unsigned channel, Cycle arrival,
                        std::size_t read_depth, std::size_t write_depth,
                        Cycle now)
{
    TelemetrySnapshot &s = *snap_;
    ++s.totalRequests;
    s.channels[channel].queueDepth.add(
        now, static_cast<double>(read_depth + write_depth));

    pending_ = RequestRecord{};
    pending_.id = id;
    pending_.cls = cls;
    pending_.core = core;
    pending_.channel = channel;
    pending_.arrival = arrival;
    pending_.start = now;
    pendingActive_ = true;
    pendingTraced_ = false;
    if (s.config.commandTrace) {
        if (s.requests.size() < s.config.maxTraceRequests)
            pendingTraced_ = true;
        else
            ++s.droppedRequests;
    }
}

void
Telemetry::endRequest(const AccessResult &result, Cycle done)
{
    sam_assert(pendingActive_, "endRequest without beginRequest");
    TelemetrySnapshot &s = *snap_;

    const Cycle lat = done >= pending_.arrival ? done - pending_.arrival
                                               : 0;
    s.latency[static_cast<std::size_t>(pending_.cls)].record(lat);
    s.channels[pending_.channel].rowHitRate.add(result.issue,
                                                result.rowHit ? 1.0 : 0.0);

    if (pendingTraced_) {
        pending_.done = done;
        s.requests.push_back(pending_);
    }
    pendingActive_ = false;
    pendingTraced_ = false;
}

std::shared_ptr<const TelemetrySnapshot>
Telemetry::finish()
{
    sam_assert(snap_ != nullptr, "telemetry already finished");
    if (device_) {
        device_->removeCommandObserver(this);
        device_ = nullptr;
    }
    return std::shared_ptr<const TelemetrySnapshot>(std::move(snap_));
}

} // namespace sam
