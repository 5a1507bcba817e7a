/**
 * @file
 * The benchmark's workloads and the helpers they share.
 *
 *  - cold_start: clear the agent cache, train the default-budget agent,
 *    compile conv2, once per Table-1 fabric (what a one-shot
 *    `mapzero_cli map` pays on every run).
 *  - hard_single / hard_portfolio: closed loop over the hard-kernel
 *    cases through CompileService::compile, single engine
 *    (restartsPerIi=1, jobs=1) or restart portfolio (4 and 4).
 *  - serve_zipf: open-loop Poisson arrivals, Zipf(1.0) over 13 kernels
 *    x 4 fabrics, into an in-process mapzerod with the persistent tier.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cgra/architecture.hpp"
#include "core/agent_cache.hpp"
#include "oracle.hpp"

namespace perfbench {

void runColdStart(const Options &options, Report &report);
void runHard(const Options &options, Report &report, bool portfolio);
void runServe(const Options &options, Report &report);

// ------------------------------------------------- shared by workloads

/** The pinned knobs every workload runs with. */
inline constexpr std::int32_t kPretrainEpisodes = 24;
inline constexpr std::uint64_t kCompileSeed = 1;
/** cold_start: set-up timing batches and set-ups per batch. */
inline constexpr int kSetupBatches = 9;
inline constexpr int kSetupBatchSize = 100;
/** cold_start: passes over the fabrics a run makes at least. */
inline constexpr int kMinColdPasses = 2;

/**
 * Pin the process-wide worker default (MAPZERO_NUM_THREADS and
 * setDefaultJobs) to 1, the CLI default, so self-play and any
 * unspecified job count are sequential and reproducible; and clear the
 * environment knobs that would change what is measured (a checkpoint
 * directory that skips training, router cross-checks, the RSS source).
 */
void pinEnvironment();

/** The default PretrainBudget, asserted to be the shipped one. */
mapzero::PretrainBudget pinnedBudget();

/** Fabric preset by its byName() name. */
mapzero::cgra::Architecture fabric(const std::string &name);

/** Per-fabric training result. */
struct TrainedAgent {
    std::string fabric;
    double seconds = 0.0;
    /** Hex weight fingerprint, from CompileService::requestKey. */
    std::string fingerprint;
};

/**
 * Train (through pretrainedNetwork) the agents of @p fabrics, at most
 * @p concurrency at a time, timing each. Checks that every fabric ran
 * the full episode budget (the wall-clock cap never binds).
 */
std::vector<TrainedAgent> trainAgents(const std::vector<std::string> &fabrics,
                                      std::size_t concurrency,
                                      Report &report);

/** Fill each agent's fingerprint and print it (outside timed spans). */
void recordFingerprints(std::vector<TrainedAgent> &agents, Report &report);

/** Report the trainer / self-play layer metrics of a training window. */
void reportTraining(Report &report, const CounterWindow &window,
                    const std::vector<TrainedAgent> &agents);

/**
 * Enable and empty the program's journal for a timed window (traced
 * runs only: the recorder is not free).
 */
void startJournal();

/** Totals of the compile.* journal records of a window. */
struct JournalSummary {
    std::int64_t compiles = 0;
    /** Sum over compiles of result seconds minus the chosen attempt's
     *  seconds of every round (the winner, else restart 0). */
    double loserWaitSeconds = 0.0;
    std::int64_t dropped = 0;
};
JournalSummary readCompileJournal();

/** Report the compile-path layer metrics of a timed window. */
void reportCompileLayers(Report &report, const CounterWindow &window,
                         const JournalSummary &journal,
                         std::int64_t searchOps);

/** One verified mapping, kept for replay timing. */
struct Verified {
    std::shared_ptr<const mapzero::rl::MapZeroNet> net;
    mapzero::dfg::Dfg dfg;
    mapzero::cgra::Architecture arch;
    std::int32_t ii = 0;
    std::vector<mapzero::mapper::Placement> placements;
};

/** Replay timing over @p cases (three passes each), reported. */
void timeReplays(Report &report, const std::vector<Verified> &cases);

/** Peak RSS of this process in MiB. */
double peakRssMb();

/** Wall seconds of @p f. */
template <typename F>
double
timed(F &&f)
{
    const double t0 = now();
    f();
    return now() - t0;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
