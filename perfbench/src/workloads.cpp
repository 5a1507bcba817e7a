#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include <sched.h>

#include "common/journal.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/procstat.hpp"
#include "common/trace.hpp"
#include "core/compiler.hpp"
#include "core/service.hpp"
#include "dfg/kernels.hpp"
#include "rl/evaluator.hpp"

namespace perfbench {

using namespace mapzero;

// ------------------------------------------------------------- helpers

void
pinEnvironment()
{
    ::setenv("MAPZERO_NUM_THREADS", "1", 1);
    setDefaultJobs(1);
    for (const char *knob : {"MAPZERO_AGENT_CACHE_DIR",
                             "MAPZERO_ROUTER_CROSSCHECK",
                             "MAPZERO_PROCSTAT_FORCE_FALLBACK"})
        ::unsetenv(knob);
}

PretrainBudget
pinnedBudget()
{
    const PretrainBudget budget;
    if (budget.episodes != kPretrainEpisodes)
        throw std::runtime_error(
            "default PretrainBudget changed: the benchmark pins " +
            std::to_string(kPretrainEpisodes) + " episodes");
    return budget;
}

cgra::Architecture
fabric(const std::string &name)
{
    std::optional<cgra::Architecture> arch =
        cgra::Architecture::byName(name);
    if (!arch)
        throw std::runtime_error("unknown fabric " + name);
    return *arch;
}

namespace {

/** Hex of the model fingerprint the service folds into request keys
 *  (the key's trailing 8 bytes for MapZero methods). */
std::string
modelFingerprint(CompileService &service, const cgra::Architecture &arch)
{
    const dfg::Dfg probe = dfg::buildKernel("conv2");
    const std::string key =
        service.requestKey(probe, arch, Method::MapZero, CompileOptions{});
    std::string hex;
    char buffer[4];
    for (std::size_t i = key.size() - 8; i < key.size(); ++i) {
        std::snprintf(buffer, sizeof buffer, "%02x",
                      static_cast<unsigned char>(key[i]));
        hex += buffer;
    }
    return hex;
}

} // namespace

std::vector<TrainedAgent>
trainAgents(const std::vector<std::string> &fabrics,
            std::size_t concurrency, Report &report)
{
    const PretrainBudget budget = pinnedBudget();
    const std::int64_t episodes_before =
        metrics().counter("trainer.episodes").value();
    std::vector<TrainedAgent> agents(fabrics.size());
    std::vector<cgra::Architecture> archs;
    for (const std::string &name : fabrics)
        archs.push_back(fabric(name));

    std::size_t next = 0;
    std::mutex mutex;
    const auto worker = [&] {
        for (;;) {
            std::size_t index = 0;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (next >= fabrics.size())
                    return;
                index = next++;
            }
            Span span("agent_cache.pretrain");
            agents[index].fabric = fabrics[index];
            agents[index].seconds = timed(
                [&] { (void)pretrainedNetwork(archs[index], budget); });
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 1; t < std::min(concurrency, fabrics.size()); ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread &thread : threads)
        thread.join();

    const std::int64_t episodes =
        metrics().counter("trainer.episodes").value() - episodes_before;
    const std::int64_t expected =
        static_cast<std::int64_t>(fabrics.size()) * budget.episodes;
    if (episodes != expected)
        report.mismatch("trainer ran " + std::to_string(episodes) +
                        " episodes, budget is " + std::to_string(expected) +
                        " (wall-clock cap bound)");

    return agents;
}

void
recordFingerprints(std::vector<TrainedAgent> &agents, Report &report)
{
    CompileService service;
    for (TrainedAgent &agent : agents) {
        agent.fingerprint = modelFingerprint(service, fabric(agent.fabric));
        std::printf("agent %-10s pretrain %.3f s fingerprint %s\n",
                    agent.fabric.c_str(), agent.seconds,
                    agent.fingerprint.c_str());
        report.info("agent_cache.pretrain_s." + agent.fabric, agent.seconds,
                    "s");
    }
}

void
reportTraining(Report &report, const CounterWindow &window,
               const std::vector<TrainedAgent> &agents)
{
    std::vector<double> seconds;
    double total = 0.0;
    for (const TrainedAgent &agent : agents) {
        seconds.push_back(agent.seconds);
        total += agent.seconds;
    }
    const auto episodes =
        static_cast<double>(window.counter("trainer.episodes"));
    report.layer("agent_cache.pretrain_s", median(seconds), "s");
    report.layer("trainer.episodes", episodes, "count");
    report.layer("trainer.episodes_per_s",
                 total > 0.0 ? episodes / total : 0.0, "1/s");
    report.layer("mcts.simulations",
                 static_cast<double>(window.counter("mcts.simulations")),
                 "count");
    report.layer("mcts.net_evals",
                 static_cast<double>(window.counter("mcts.net_evals")),
                 "count");
    report.layer("mcts.batch_fill_mean", window.histMean("mcts.batch_fill"),
                 "count");
}

JournalSummary
readCompileJournal()
{
    JournalSummary summary;
    summary.dropped = journal().dropped();
    // Attempts of the compile in progress, per thread: (ii, restart,
    // success, seconds). Each compile's records come from the thread
    // that ran its sweep, closed by its compile.result record.
    struct Attempt {
        std::int64_t ii;
        std::int64_t restart;
        bool success;
        double seconds;
    };
    std::map<std::int64_t, std::vector<Attempt>> open;
    for (const std::string &line : journal().lines()) {
        const JsonValue record = JsonValue::parse(line);
        const std::string type = record.stringOr("type", "");
        const auto tid = static_cast<std::int64_t>(
            record.numberOr("tid", 0));
        if (type == "compile.attempt") {
            open[tid].push_back(Attempt{
                static_cast<std::int64_t>(record.numberOr("ii", 0)),
                static_cast<std::int64_t>(record.numberOr("restart", 0)),
                record.stringOr("outcome", "") == "success",
                record.numberOr("seconds", 0.0)});
        } else if (type == "compile.result") {
            // Per round (II): the winner is the lowest-index success,
            // else restart 0 (what a single engine would have run).
            std::map<std::int64_t, std::pair<std::int64_t, double>> chosen;
            for (const Attempt &a : open[tid]) {
                auto [it, inserted] = chosen.try_emplace(
                    a.ii, std::make_pair(std::int64_t{-1}, 0.0));
                const bool better = a.success &&
                    (it->second.first < 0 || a.restart < it->second.first);
                if (better)
                    it->second = {a.restart, a.seconds};
                else if (it->second.first < 0 && a.restart == 0 &&
                         !a.success)
                    it->second.second = a.seconds;
            }
            double useful = 0.0;
            for (const auto &[ii, pick] : chosen)
                useful += pick.second;
            summary.loserWaitSeconds += std::max(
                0.0, record.numberOr("seconds", 0.0) - useful);
            ++summary.compiles;
            open[tid].clear();
        }
    }
    return summary;
}

void
reportCompileLayers(Report &report, const CounterWindow &window,
                    const JournalSummary &journal, std::int64_t searchOps)
{
    const auto count = [&](const char *name) {
        return static_cast<double>(window.counter(name));
    };
    const double committed = count("router.routes_committed");
    const double failures = count("router.route_failures");
    report.layer("agent.search_ops", static_cast<double>(searchOps),
                 "count");
    report.layer("router.conflicts", count("router.conflicts"), "count");
    report.layer("router.routes_committed", committed, "count");
    report.layer("router.route_failures", failures, "count");
    report.layer("router.route_success_ratio",
                 shareOf(committed, failures), "ratio");
    report.info("router.route_success_ratio.base", committed + failures,
                "count");
    report.layer("compiler.attempt_s",
                 window.histMean("compiler.attempt_seconds"), "s");
    report.layer("compiler.ii_attempts", count("compiler.ii_attempts"),
                 "count");
    report.layer("compiler.timeouts", count("compiler.timeouts"), "count");
    const double eval_hits = count("eval_cache.hits");
    const double eval_misses = count("eval_cache.misses");
    report.layer("eval_cache.hit_ratio", shareOf(eval_hits, eval_misses),
                 "ratio");
    report.info("eval_cache.hit_ratio.base", eval_hits + eval_misses,
                "count");
    const double tt_hits = count("cache.tt_hits");
    const double tt_misses = count("cache.tt_misses");
    report.layer("cache.tt_hit_ratio", shareOf(tt_hits, tt_misses),
                 "ratio");
    report.info("cache.tt_hit_ratio.base", tt_hits + tt_misses, "count");
    report.layer("eval_batcher.batch_size_mean",
                 window.histMean("eval_batcher.batch_size"), "count");
    report.layer("portfolio.loser_wait_s",
                 journal.compiles > 0
                     ? journal.loserWaitSeconds /
                           static_cast<double>(journal.compiles)
                     : 0.0,
                 "s");
    report.info("portfolio.loser_wait_total_s", journal.loserWaitSeconds,
                "s");
    report.info("journal.dropped", static_cast<double>(journal.dropped),
                "count");
    const double disk_hits = count("cache.disk_hits");
    const double disk_misses = count("cache.disk_misses");
    report.layer("cache.disk_hit_ratio", shareOf(disk_hits, disk_misses),
                 "ratio");
    report.info("cache.disk_hit_ratio.base", disk_hits + disk_misses,
                "count");
    report.layer("cache.disk_writes", count("cache.disk_writes"), "count");
    report.layer("cache.disk_errors", count("cache.disk_errors"), "count");
}

void
timeReplays(Report &report, const std::vector<Verified> &cases)
{
    ReplaySamples samples;
    for (const Verified &v : cases) {
        if (!replayTiming(v.dfg, v.arch, v.ii, v.placements, *v.net, 3,
                          samples))
            report.mismatch("MapEnv replay of a verified " +
                            v.dfg.name() + " mapping did not succeed");
    }
    report.layer("env.step_us", median(samples.stepUs), "us");
    report.layer("env.undo_us", median(samples.undoUs), "us");
    report.layer("nn.forward_us", median(samples.forwardUs), "us");
    report.info("env.step.samples",
                static_cast<double>(samples.stepUs.size()), "count");
    report.info("nn.forward.samples",
                static_cast<double>(samples.forwardUs.size()), "count");
}

double
peakRssMb()
{
    return static_cast<double>(sampleProcStat().peakRssBytes) /
           (1024.0 * 1024.0);
}

void
startJournal()
{
    // The flight recorder costs the compile path real time, so only
    // traced runs (which report per-layer numbers) switch it on.
    if (!Tracer::get().enabled())
        return;
    journal().setEnabled(true);
    journal().setCapacity(1 << 18);
    journal().clear();
}

namespace {

/**
 * CompileService::compile of a MapZero request under a benchmark span.
 * Traced runs also pass a TraceContext and import the program's own
 * timeline (compile / model / attempt stages) beneath the span.
 */
CompileResult
tracedCompile(CompileService &service, const dfg::Dfg &dfg,
              const cgra::Architecture &arch, const CompileOptions &options,
              std::int64_t request)
{
    Span span("service.compile", request);
    if (!Tracer::get().enabled())
        return service.compile(dfg, arch, Method::MapZero, options);
    const std::int64_t epoch = Tracer::nowUs();
    TraceContext trace("perfbench-" + std::to_string(request));
    CompileResult result = service.compile(dfg, arch, Method::MapZero,
                                           options, nullptr, &trace);
    std::vector<ProgramStage> stages;
    for (const TraceStage &stage : trace.stages())
        stages.push_back(
            {stage.name, stage.startUs, stage.durationUs, stage.depth});
    addProgramStages(std::move(stages), epoch, span.id(), request);
    return result;
}

/** Verify @p result and count it; returns true when it checks out. */
bool
checkResult(Report &report, const std::string &label,
            const dfg::Dfg &dfg, const cgra::Architecture &arch,
            const CompileResult &result)
{
    if (!result.success)
        return false;
    if (result.mii != Compiler::minimumIi(dfg, arch)) {
        report.mismatch(label + ": reported MII differs from the bound");
        return false;
    }
    const std::string why =
        verifyMapping(dfg, arch, result.ii, result.placements);
    if (!why.empty()) {
        report.mismatch(label + ": " + why);
        return false;
    }
    return true;
}

/**
 * Round-robin placement of a single-threaded closed loop over the CPUs
 * the process may use. On a shared host the vCPUs run the same
 * single-threaded compile at speeds up to 1.5x apart at any one moment,
 * and a thread the scheduler leaves on one vCPU carries that vCPU's
 * speed through a whole run; moving each call to the next CPU samples
 * all of them. Threads started while pinned inherit the CPU, so this is
 * only for single-threaded work. The destructor restores the affinity.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
        }
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            (void)sched_setaffinity(0, sizeof original_, &original_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread to the next CPU in turn. */
    void next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[cursor_++ % cpus_.size()], &one);
        (void)sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t cursor_ = 0;
};

} // namespace

// ----------------------------------------------------------- cold_start

void
runColdStart(const Options &options, Report &report)
{
    const std::vector<std::string> fabrics = {"hrea", "morphosys", "adres",
                                              "hycube"};
    // Set-up: what a `map conv2` run builds before training - the
    // kernel, the fabrics and their MII bound, a compile service. It
    // takes under a millisecond, so it is timed in batches: the median
    // over batches of the mean per set-up.
    std::vector<double> setup;
    for (int batch = 0; batch < kSetupBatches; ++batch) {
        setup.push_back(timed([&] {
            for (int rep = 0; rep < kSetupBatchSize; ++rep) {
                const dfg::Dfg dfg = dfg::buildKernel("conv2");
                for (const std::string &name : fabrics)
                    (void)Compiler::minimumIi(dfg, fabric(name));
                const CompileService service;
            }
        }) / kSetupBatchSize);
    }
    report.endToEnd("setup_s", median(setup), "s");

    std::vector<std::string> order = fabrics;
    std::mt19937_64 rng(options.seed);
    std::shuffle(order.begin(), order.end(), rng);

    const dfg::Dfg conv2 = dfg::buildKernel("conv2");
    startJournal();
    CounterWindow window;
    const std::int64_t window_start = Tracer::nowUs();
    std::map<std::string, std::vector<double>> cold;
    std::vector<TrainedAgent> agents;
    std::vector<std::pair<std::string, CompileResult>> results;
    std::vector<std::shared_ptr<const rl::MapZeroNet>> nets;
    // Whole passes over the fabrics while the window lasts, and at
    // least two, so every fabric has two samples. Training
    // and compiling run on one thread (MAPZERO_NUM_THREADS=1), each cold
    // map on the next CPU.
    const double t0 = now();
    int passes = 0;
    {
        CpuRotation cpus;
        do {
            for (const std::string &name : order) {
                const cgra::Architecture arch = fabric(name);
                cpus.next();
                Span span("cold_map");
                clearAgentCache();
                const double start = now();
                const std::vector<TrainedAgent> trained =
                    trainAgents({name}, 1, report);
                CompileService service;
                CompileOptions compile;
                compile.jobs = 1;
                compile.restartsPerIi = 1;
                compile.seed = kCompileSeed;
                const CompileResult result = tracedCompile(
                    service, conv2, arch, compile,
                    static_cast<std::int64_t>(results.size()));
                cold[name].push_back(now() - start);
                std::vector<TrainedAgent> recorded = trained;
                recordFingerprints(recorded, report);
                agents.insert(agents.end(), recorded.begin(), recorded.end());
                nets.push_back(pretrainedNetwork(arch, pinnedBudget()));
                results.emplace_back(name, std::move(result));
            }
            ++passes;
        } while (passes < kMinColdPasses || now() - t0 < options.seconds);
    }
    const std::int64_t window_end = Tracer::nowUs();
    window.close();
    const JournalSummary journal_summary = readCompileJournal();

    // Oracle, outside the window.
    std::vector<Verified> verified;
    std::int64_t checked = 0;
    std::map<std::string, std::pair<int, int>> mii_hits;
    std::int64_t search_ops = 0;
    for (std::size_t r = 0; r < results.size(); ++r) {
        const auto &[name, result] = results[r];
        const cgra::Architecture arch = fabric(name);
        const bool ok =
            checkResult(report, "conv2-" + name, conv2, arch, result);
        report.attempt(!ok);
        checked += result.success ? 1 : 0;
        mii_hits[name].first += ok && result.ii == result.mii ? 1 : 0;
        mii_hits[name].second += 1;
        search_ops += result.searchOps;
        if (ok && verified.size() < fabrics.size())
            verified.push_back(
                {nets[r], conv2, arch, result.ii, result.placements});
    }

    std::vector<double> per_fabric;
    std::vector<double> mii_share;
    std::vector<double> latencies_ms;
    double cold_map_s = 0.0;
    for (const std::string &name : fabrics) {
        // The fastest pass, as in runHard.
        const double m = minimum(cold[name]);
        per_fabric.push_back(m);
        cold_map_s += m;
        report.info("cold_map_s." + name, m, "s");
        mii_share.push_back(static_cast<double>(mii_hits[name].first) /
                            mii_hits[name].second);
        for (const double s : cold[name])
            latencies_ms.push_back(s * 1e3);
    }
    report.info("cold_map_s", cold_map_s, "s");
    report.info("latency_p50_ms", median(latencies_ms), "ms");
    report.info("latency_p95_ms", quantile(latencies_ms, 0.95), "ms");
    report.info("latency.samples", static_cast<double>(latencies_ms.size()),
                "count");
    report.endToEnd("compile_geomean_s", geomean(per_fabric), "s");
    report.endToEnd("mii_share", mean(mii_share), "share");
    report.endToEnd("peak_rss_mb", peakRssMb(), "MB");

    reportTraining(report, window, agents);
    reportCompileLayers(report, window, journal_summary, search_ops);
    report.layer("svc.busy_share", 0.0, "ratio");
    timeReplays(report, verified);
    report.layer("verify.checked", static_cast<double>(checked), "count");
    report.info("window_s",
                static_cast<double>(window_end - window_start) / 1e6, "s");
    report.info("window_start_us", static_cast<double>(window_start), "us");
    report.info("window_end_us", static_cast<double>(window_end), "us");
}

// ---------------------------------------------------------------- hard

namespace {

struct HardCase {
    const char *kernel;
    const char *fabric;
    /** Runs into the compile deadline (a quality row, not a speed row). */
    bool deadlineBound;
};

/**
 * Each Fig. 8 pair on the four Table-1 fabrics, plus Fig. 13
 * stencil_u on the 8x8 fabric, whose default compile does >= 1,000
 * search ops and finishes under the limit; plus arf/HyCube, the
 * deadline-bound pair that misses MII.
 */
const HardCase kHardCases[] = {
    {"arf", "hrea", false},         {"cap", "morphosys", false},
    {"mac2", "morphosys", false},   {"mults1", "morphosys", false},
    {"mulul", "adres", false},      {"stencil_u", "baseline8", false},
    {"arf", "hycube", true},
};

/** Per-compile time limit: the CLI's default. */
constexpr double kHardTimeLimit = 10.0;

struct HardSample {
    std::size_t index;
    double seconds;
    CompileResult result;
};

} // namespace

void
runHard(const Options &options, Report &report, bool portfolio)
{
    const std::size_t n = std::size(kHardCases);
    std::vector<dfg::Dfg> dfgs;
    std::vector<cgra::Architecture> archs;
    std::vector<std::string> labels;
    for (const HardCase &c : kHardCases) {
        dfgs.push_back(dfg::buildKernel(c.kernel));
        archs.push_back(fabric(c.fabric));
        labels.push_back(std::string(c.kernel) + "-" + c.fabric);
    }

    // Set-up: agents for every fabric of the case set, four at a time,
    // the two slowest to train first, so the set-up wall is one
    // training rather than two in a row.
    const std::vector<std::string> fabrics = {"morphosys", "baseline8",
                                              "hrea", "adres", "hycube"};
    clearAgentCache();
    CounterWindow train_window;
    std::vector<TrainedAgent> agents;
    const double setup_s = timed([&] {
        Span span("setup");
        agents = trainAgents(fabrics, 4, report);
    });
    train_window.close();
    report.endToEnd("setup_s", setup_s, "s");
    recordFingerprints(agents, report);

    CompileService service;
    CompileOptions compile;
    compile.timeLimitSeconds = kHardTimeLimit;
    compile.seed = kCompileSeed;
    compile.jobs = portfolio ? 4 : 1;
    compile.restartsPerIi = portfolio ? 4 : 1;

    std::mt19937_64 rng(options.seed);
    startJournal();
    CounterWindow window;
    const std::int64_t window_start = Tracer::nowUs();
    std::vector<HardSample> samples;
    // Round 0 runs every case; later rounds repeat the cases that finish
    // before the deadline until they have had the whole window. The
    // deadline-bound case's fixed wait does not count against it, so
    // the timed cases always sample --seconds of compiling. Order is
    // seeded per round. The single engine is one thread: each compile
    // runs on the next CPU. The portfolio's pool spreads over them
    // itself (and its threads would inherit a pin).
    std::optional<CpuRotation> cpus;
    if (!portfolio)
        cpus.emplace();
    double fast_s = 0.0;
    for (int round = 0; round == 0 || fast_s < options.seconds; ++round) {
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < n; ++i) {
            if (round == 0 || !kHardCases[i].deadlineBound)
                order.push_back(i);
        }
        std::shuffle(order.begin(), order.end(), rng);
        for (const std::size_t i : order) {
            // A fresh evaluation cache per compile, as in a `map` run:
            // repeats must not replay the previous compile's evaluations.
            CompileOptions per_call = compile;
            per_call.evalCacheInstance = std::make_shared<rl::EvalCache>();
            HardSample sample{i, 0.0, {}};
            if (cpus)
                cpus->next();
            sample.seconds = timed([&] {
                sample.result = tracedCompile(
                    service, dfgs[i], archs[i], per_call,
                    static_cast<std::int64_t>(samples.size()));
            });
            if (!kHardCases[i].deadlineBound)
                fast_s += sample.seconds;
            samples.push_back(std::move(sample));
        }
    }
    const std::int64_t window_end = Tracer::nowUs();
    window.close();
    cpus.reset();
    const JournalSummary journal_summary = readCompileJournal();

    // Oracle and per-case rows, outside the window.
    std::vector<std::vector<const HardSample *>> by_case(n);
    for (const HardSample &s : samples)
        by_case[s.index].push_back(&s);
    std::vector<Verified> verified;
    std::vector<double> case_fastest;
    std::vector<double> latencies_ms;
    std::vector<double> case_mii_share;
    std::int64_t checked = 0;
    std::int64_t exact_ops = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> seconds;
        std::int64_t at_mii = 0;
        const CompileResult &first = by_case[i].front()->result;
        for (const HardSample *s : by_case[i]) {
            const bool ok =
                checkResult(report, labels[i], dfgs[i], archs[i], s->result);
            report.attempt(!ok);
            checked += s->result.success ? 1 : 0;
            at_mii += ok && s->result.ii == s->result.mii ? 1 : 0;
            seconds.push_back(s->seconds);
            latencies_ms.push_back(s->seconds * 1e3);
            // Searches that finish before the deadline are
            // deterministic: every repeat must do the same work.
            if (!kHardCases[i].deadlineBound &&
                (s->result.searchOps != first.searchOps ||
                 s->result.ii != first.ii ||
                 s->result.placements.size() != first.placements.size()))
                report.mismatch(labels[i] +
                                ": repeat compile diverged (search_ops " +
                                std::to_string(s->result.searchOps) +
                                " vs " + std::to_string(first.searchOps) +
                                ")");
        }
        case_mii_share.push_back(static_cast<double>(at_mii) /
                                 static_cast<double>(seconds.size()));
        if (!kHardCases[i].deadlineBound)
            exact_ops += first.searchOps;
        if (first.success)
            verified.push_back({pretrainedNetwork(archs[i], pinnedBudget()),
                                dfgs[i], archs[i], first.ii,
                                first.placements});
        // The fastest repeat: every repeat does the same work, and on a
        // shared host a compile runs at either of two speeds about 1.5x
        // apart, switching every few seconds, so a per-case median or
        // mean moves with the mix of the two from run to run.
        const double m = minimum(seconds);
        case_fastest.push_back(m);
        report.info("compile_s." + labels[i], m, "s");
        // Exact rows repeat run to run (checked across runs by run.py);
        // a deadline-bound search stops wherever the clock cuts it.
        report.info((kHardCases[i].deadlineBound ? "search_ops_deadline."
                                                 : "search_ops.") +
                        labels[i],
                    static_cast<double>(first.searchOps), "count");
        report.info("ii." + labels[i], first.ii, "count");
        report.info("mii." + labels[i], first.mii, "count");
        report.info("samples." + labels[i],
                    static_cast<double>(seconds.size()), "count");
    }
    report.info("latency_p50_ms", median(latencies_ms), "ms");
    report.info("latency_p95_ms", quantile(latencies_ms, 0.95), "ms");
    report.info("latency.samples", static_cast<double>(latencies_ms.size()),
                "count");
    report.endToEnd("compile_geomean_s", geomean(case_fastest), "s");
    // Each case weighs the same, however many rounds the window fits.
    report.endToEnd("mii_share", mean(case_mii_share), "share");
    report.endToEnd("peak_rss_mb", peakRssMb(), "MB");

    reportTraining(report, train_window, agents);
    reportCompileLayers(report, window, journal_summary, exact_ops);
    report.layer("svc.busy_share", 0.0, "ratio");
    timeReplays(report, verified);
    report.layer("verify.checked", static_cast<double>(checked), "count");
    report.info("window_s",
                static_cast<double>(window_end - window_start) / 1e6, "s");
    report.info("window_start_us", static_cast<double>(window_start), "us");
    report.info("window_end_us", static_cast<double>(window_end), "us");
}

} // namespace perfbench
