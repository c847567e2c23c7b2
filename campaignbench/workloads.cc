#include "campaignbench/workloads.hh"

#include <set>
#include <tuple>

#include "campaignbench/layer_adapter.hh"

namespace sam::campaignbench {

namespace {

/** Chips of an SSC-DSD rank: 16 data + 2 check. */
constexpr unsigned kChipsPerRank = 18;

/** RunSpecs deduplicated by id, as samcampaign's Book does. */
class SpecList
{
  public:
    void
    add(std::string id, SimConfig cfg, const Query &q)
    {
        if (!ids_.insert(id).second)
            return;
        // As samcampaign runs them: no gem5-style text dump.
        cfg.collectStatsText = false;
        specs_.push_back(RunSpec{std::move(id), cfg, q, /*verify=*/false});
    }

    void
    add(DesignKind d, SimConfig cfg, const Query &q)
    {
        cfg.design = d;
        add(designName(d) + "/" + q.name, cfg, q);
    }

    std::vector<RunSpec> take() { return std::move(specs_); }

  private:
    std::set<std::string> ids_;
    std::vector<RunSpec> specs_;
};

std::vector<Query>
allQueries()
{
    auto qs = benchmarkQQueries();
    const auto more = benchmarkQsQueries();
    qs.insert(qs.end(), more.begin(), more.end());
    return qs;
}

Query
queryNamed(const std::string &name)
{
    for (const Query &q : allQueries()) {
        if (q.name == name)
            return q;
    }
    panic("no benchmark query '", name, "'");
}

SimConfig
sized(std::uint64_t ta, std::uint64_t tb, bool telemetry)
{
    SimConfig cfg;
    cfg.taRecords = ta;
    cfg.tbRecords = tb;
    cfg.telemetry.enabled = telemetry;
    return cfg;
}

const std::vector<DesignKind> kFigureDesigns = {
    DesignKind::RcNvmBit, DesignKind::RcNvmWord, DesignKind::GsDram,
    DesignKind::GsDramEcc, DesignKind::SamSub,   DesignKind::SamIo,
    DesignKind::SamEn,     DesignKind::Ideal};

const std::vector<DesignKind> kSweepDesigns = {
    DesignKind::RcNvmWord, DesignKind::GsDramEcc, DesignKind::SamEn,
    DesignKind::Ideal};

/** samcampaign's fig12 and fig15 campaigns at quick scale (fig13's
 *  runs are a subset of fig12's), telemetry on as samcampaign runs
 *  them. */
std::vector<RunSpec>
figsQuick()
{
    SpecList list;
    const SimConfig fig12 = sized(4096, 8192, true);
    for (const Query &q : allQueries()) {
        list.add(DesignKind::Baseline, fig12, q);
        for (DesignKind d : kFigureDesigns)
            list.add(d, fig12, q);
    }

    const SimConfig fig15 = sized(2048, 2048, true);
    const unsigned nf = fig15.taFields;
    auto point = [&](const char *kind, unsigned proj, double sel,
                     const Query &q) {
        const std::string id = std::string(kind) + "/p" +
                               std::to_string(proj) + "/s" +
                               std::to_string(static_cast<unsigned>(
                                   sel * 100 + 0.5));
        SimConfig cfg = fig15;
        cfg.design = DesignKind::Baseline;
        list.add(id + "/baseline", cfg, q);
        for (DesignKind d : kSweepDesigns) {
            cfg.design = d;
            list.add(id + "/" + designName(d), cfg, q);
        }
    };
    const std::vector<double> sels = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9, 1.0};
    const std::vector<unsigned> projs = {2, 4, 8, 16, 32, 64, nf};
    for (unsigned proj : {8u, 64u, nf})
        for (double sel : sels)
            point("arith", proj, sel, arithQuery(proj, sel, nf));
    for (double sel : {0.1, 0.5, 1.0})
        for (unsigned proj : projs)
            point("arith", proj, sel, arithQuery(proj, sel, nf));
    for (double sel : sels)
        point("aggr", 8, sel, aggrQuery(8, sel, nf));
    for (unsigned proj : projs)
        point("aggr", proj, 1.0, aggrQuery(proj, 1.0, nf));
    return list.take();
}

std::vector<RunSpec>
pairGrid(const SimConfig &cfg, const std::vector<std::string> &queries)
{
    SpecList list;
    for (const std::string &name : queries) {
        const Query q = queryNamed(name);
        list.add(DesignKind::Baseline, cfg, q);
        list.add(DesignKind::SamEn, cfg, q);
    }
    return list.take();
}

std::vector<RunSpec>
chipkillFull(std::uint64_t seed)
{
    SimConfig cfg = sized(16384, 65536, false);
    cfg.ecc = EccScheme::SscDsd;
    cfg.faults.model = FaultModel::Chipkill;
    cfg.faults.chipkillAt = 0;
    cfg.faults.chipkillChip = static_cast<unsigned>(seed % kChipsPerRank);
    cfg.faults.seed = seed;
    std::vector<std::string> names;
    for (const Query &q : benchmarkQQueries())
        names.push_back(q.name);
    return pairGrid(cfg, names);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "figs-quick", "scan-500k", "update-250k", "chipkill-full"};
    return names;
}

std::vector<RunSpec>
workloadSpecs(const std::string &workload, std::uint64_t seed)
{
    if (workload == "figs-quick")
        return figsQuick();
    if (workload == "scan-500k")
        return pairGrid(sized(500'000, 500'000, false),
                        {"Q1", "Q4", "Qs1"});
    if (workload == "update-250k")
        return pairGrid(sized(250'000, 250'000, false),
                        {"Q11", "Q12", "Qs5", "Qs6"});
    if (workload == "chipkill-full")
        return chipkillFull(seed);
    return {};
}

std::vector<RunSpec>
primingSpecs(const std::vector<RunSpec> &specs)
{
    // Everything a table build depends on: the system's design and
    // table shapes plus the layout the query selects.
    using Key = std::tuple<int, int, bool, int, std::uint64_t, unsigned,
                           std::uint64_t, unsigned, int>;
    const Query shortQuery = queryNamed("Qs1");  // LIMIT 1024 rows
    std::set<Key> seen;
    std::vector<RunSpec> prime;
    for (const RunSpec &spec : specs) {
        const SimConfig &c = spec.config;
        const LayoutKind layout = layoutFor(c, spec.query);
        const Key key{static_cast<int>(c.design), static_cast<int>(c.ecc),
                      c.overrideTech, static_cast<int>(c.tech),
                      c.taRecords, c.taFields, c.tbRecords, c.tbFields,
                      static_cast<int>(layout)};
        if (!seen.insert(key).second)
            continue;
        // Qs1 is short; keep the run's own query only where Qs1 would
        // pick another layout (the ideal design's column store).
        const Query &q =
            layoutFor(c, shortQuery) == layout ? shortQuery : spec.query;
        prime.push_back(RunSpec{"prime/" + spec.id, c, q, false});
    }
    return prime;
}

std::vector<RunSpec>
selfTestSpecs()
{
    std::vector<RunSpec> specs =
        pairGrid(sized(1024, 1024, true), {"Q1", "Qs1"});
    std::vector<RunSpec> failing =
        pairGrid(sized(1024, 65536, false), {"Q11"});
    specs.push_back(failing.front());  // baseline/Q11
    return specs;
}

} // namespace sam::campaignbench
