/**
 * @file
 * Output oracle and replay timing, both run outside the timed windows.
 *
 * The oracle rebuilds a mapping from its placements alone
 * (Router::replayMapping), checks it structurally
 * (mapper::validateMapping) and semantically against the independent
 * reference interpreter (sim::compareWithReference). Replay timing
 * drives MapEnv::step / undo and MapZeroNet::forward over the decision
 * points of a verified mapping.
 */

#ifndef PERFBENCH_ORACLE_HPP
#define PERFBENCH_ORACLE_HPP

#include <string>
#include <vector>

#include "cgra/architecture.hpp"
#include "dfg/dfg.hpp"
#include "mapper/mapping.hpp"
#include "rl/network.hpp"

namespace perfbench {

/**
 * Verify one mapping of @p dfg on @p arch at @p ii. Returns "" when it
 * replays, validates and computes the reference store stream, otherwise
 * what went wrong.
 */
std::string verifyMapping(const mapzero::dfg::Dfg &dfg,
                          const mapzero::cgra::Architecture &arch,
                          std::int32_t ii,
                          const std::vector<mapzero::mapper::Placement>
                              &placements);

/** Per-call samples collected by replayTiming(). */
struct ReplaySamples {
    std::vector<double> stepUs;
    std::vector<double> undoUs;
    std::vector<double> forwardUs;
};

/**
 * Replay @p placements through a fresh MapEnv @p reps times: time each
 * MapEnv::step, the network forward pass on the observation of each
 * decision point, and each MapEnv::undo back to the empty mapping.
 * Returns false when the replayed episode does not end in success.
 */
bool replayTiming(const mapzero::dfg::Dfg &dfg,
                  const mapzero::cgra::Architecture &arch, std::int32_t ii,
                  const std::vector<mapzero::mapper::Placement> &placements,
                  const mapzero::rl::MapZeroNet &net, int reps,
                  ReplaySamples &out);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HPP
