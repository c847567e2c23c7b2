/**
 * @file
 * The benchmark's workloads: each is a fixed list of RunSpecs built
 * from the paper's queries. Only chipkill-full reads the seed (it picks
 * the dead chip and the fault injector's seed); the other workloads
 * run the paper's fixed queries and are identical for every seed.
 * README.md in this directory says why each workload exists.
 */

#ifndef SAM_CAMPAIGNBENCH_WORKLOADS_HH
#define SAM_CAMPAIGNBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/campaign.hh"

namespace sam::campaignbench {

/** Names accepted by --workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * The workload's RunSpecs, deduplicated by id, in a fixed order. An
 * unknown name returns an empty list.
 */
std::vector<RunSpec> workloadSpecs(const std::string &workload,
                                   std::uint64_t seed);

/**
 * One short query per distinct table configuration of `specs`: the
 * priming pass that performs every cold table build before timing.
 */
std::vector<RunSpec> primingSpecs(const std::vector<RunSpec> &specs);

/** A tiny campaign for --self-test: two clean runs and baseline Q11
 *  at Tb 65536, a known protocol-checker failure. */
std::vector<RunSpec> selfTestSpecs();

} // namespace sam::campaignbench

#endif // SAM_CAMPAIGNBENCH_WORKLOADS_HH
