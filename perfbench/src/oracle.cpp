#include "oracle.hpp"

#include <chrono>

#include "bench.hpp"
#include "cgra/mrrg.hpp"
#include "dfg/schedule.hpp"
#include "mapper/environment.hpp"
#include "mapper/router.hpp"
#include "mapper/validator.hpp"
#include "nn/autograd.hpp"
#include "rl/features.hpp"
#include "sim/fabric_sim.hpp"

namespace perfbench {

namespace {

/** Loop iterations the fabric simulation runs per verification. */
constexpr std::int64_t kSimIterations = 8;

double
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

std::string
verifyMapping(const mapzero::dfg::Dfg &dfg,
              const mapzero::cgra::Architecture &arch, std::int32_t ii,
              const std::vector<mapzero::mapper::Placement> &placements)
{
    using namespace mapzero;
    Span span("oracle.verify");
    if (ii <= 0)
        return "non-positive II";
    if (placements.size() != static_cast<std::size_t>(dfg.nodeCount()))
        return "placement count differs from node count";
    const cgra::Mrrg mrrg(arch, ii);
    const auto schedule =
        dfg::moduloSchedule(dfg, ii, arch.memoryIssueCapacity());
    if (!schedule)
        return "no modulo schedule at the reported II";
    mapper::MappingState state(dfg, mrrg, *schedule);
    if (!mapper::Router::replayMapping(state, placements))
        return "route replay failed";
    const mapper::ValidationResult validation =
        mapper::validateMapping(state);
    if (!validation.valid)
        return "validation: " + (validation.errors.empty()
                                     ? std::string("invalid")
                                     : validation.errors.front());
    const std::string diff = sim::compareWithReference(
        state, kSimIterations, sim::defaultProvider());
    if (!diff.empty())
        return "simulation: " + diff;
    return "";
}

bool
replayTiming(const mapzero::dfg::Dfg &dfg,
             const mapzero::cgra::Architecture &arch, std::int32_t ii,
             const std::vector<mapzero::mapper::Placement> &placements,
             const mapzero::rl::MapZeroNet &net, int reps,
             ReplaySamples &out)
{
    using namespace mapzero;
    using Clock = std::chrono::steady_clock;
    bool ok = true;
    for (int rep = 0; rep < reps; ++rep) {
        mapper::MapEnv env(dfg, arch, ii);
        rl::ObservationBuilder builder;
        while (!env.done()) {
            const rl::Observation &obs = builder.refresh(env);
            {
                Span span("nn.forward");
                nn::InferenceGuard guard;
                const Clock::time_point t0 = Clock::now();
                const rl::MapZeroNet::Output output = net.forward(obs);
                out.forwardUs.push_back(elapsedUs(t0));
                (void)output;
            }
            const dfg::NodeId node = env.currentNode();
            Span span("env.step");
            const Clock::time_point t0 = Clock::now();
            env.step(placements[static_cast<std::size_t>(node)].pe);
            out.stepUs.push_back(elapsedUs(t0));
        }
        ok = ok && env.success();
        while (env.placedCount() > 0) {
            Span span("env.undo");
            const Clock::time_point t0 = Clock::now();
            env.undo();
            out.undoUs.push_back(elapsedUs(t0));
        }
    }
    return ok;
}

} // namespace perfbench
