/**
 * @file
 * High-level public API of the SAM library.
 *
 * A Session owns one simulated system per design and provides
 * one-call benchmarking: run a query on a design, get cycles, power,
 * energy, ECC events, and the functional result; or compare a design
 * against the row-store baseline to obtain the paper's speedup metric.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   sam::Session session;                       // default paper config
 *   auto q = sam::benchmarkQQueries()[0];       // Q1
 *   auto r = session.compare(sam::DesignKind::SamEn, q);
 *   std::cout << r.speedup << "\n";
 */

#ifndef SAM_CORE_SESSION_HH
#define SAM_CORE_SESSION_HH

#include <map>
#include <memory>

#include "src/imdb/query.hh"
#include "src/sim/system.hh"

namespace sam {

/** Result of comparing a design against the row-store baseline. */
struct Comparison
{
    RunStats design;
    RunStats baseline;
    /** Paper Figure 12 metric: baseline cycles / design cycles. */
    double speedup = 0.0;
    /** Paper Figure 13 metric: baseline energy / design energy. */
    double energyEfficiency = 0.0;
};

/**
 * Session: a cache of simulated systems sharing one benchmark
 * configuration. Systems (and their materialized tables) are built
 * lazily per design and reused across queries.
 */
class Session
{
  public:
    /**
     * `base` carries everything except the design kind. `tables` is
     * the table-image cache shared by the session's systems; a
     * private cache is created when none is given. A campaign passes
     * one cache to many sessions so each table line is built at most
     * once per process.
     */
    explicit Session(SimConfig base = {},
                     std::shared_ptr<TableCache> tables = nullptr);

    const SimConfig &baseConfig() const { return base_; }

    /** The table-image cache backing this session's systems. */
    const std::shared_ptr<TableCache> &tableCache() const
    {
        return tables_;
    }

    /** The system simulating `design` (built on first use). */
    System &system(DesignKind design);

    /** Run one query on one design. */
    RunStats run(DesignKind design, const Query &query);

    /** Run on `design` and on the baseline; compute paper metrics. */
    Comparison compare(DesignKind design, const Query &query);

    /**
     * Verify a run's functional result against the pure reference
     * executor; panics on mismatch (used by tests and examples).
     */
    void checkResult(const Query &query, const RunStats &stats) const;

  private:
    SimConfig base_;
    std::shared_ptr<TableCache> tables_;
    std::map<DesignKind, std::unique_ptr<System>> systems_;
};

/** Geometric mean helper for the figure benches. */
double geometricMean(const std::vector<double> &values);

} // namespace sam

#endif // SAM_CORE_SESSION_HH
