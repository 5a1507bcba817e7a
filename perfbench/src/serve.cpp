/**
 * @file
 * serve_zipf: open-loop load on an in-process mapzerod over loopback.
 *
 * One generator process, two threads: the submit thread sends each
 * request at its Poisson due time, the completion thread polls FETCH
 * for the outstanding ones. Latency runs from the due time to the
 * FETCH reply, so a stalled generator or daemon is charged to every
 * request it delays. The daemon runs two workers, so generator threads
 * plus workers stay within four cores.
 *
 * The timed window opens with closed-loop cold passes - every
 * (kernel, fabric) pair submitted once per pass, in seeded order, one
 * client per worker, each pass on a fresh daemon and persistent-tier
 * directory, so every pair compiles and is written to disk whatever the
 * seed - followed by the open-loop warm rate ladder of Zipf(1.0) draws
 * on the last daemon, which read the stored results back.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "core/compiler.hpp"
#include "dfg/dot.hpp"
#include "dfg/kernels.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mapzero;

namespace {

constexpr double kBaseRate = 20.0;
/** Rate ladder, as multiples of the base rate. */
constexpr double kLadder[] = {1.0, 4.0, 16.0, 32.0};
/** Minimum requests per step: >= 10 samples beyond p95. */
constexpr std::size_t kMinStepRequests = 200;
/**
 * Latency limit on p95 at each ladder step. Warm requests are served
 * from the disk tier in a few milliseconds; 50 ms leaves room for
 * queueing and for host scheduling stalls of tens of milliseconds.
 */
constexpr double kSloMs = 50.0;
constexpr double kTimeLimit = 2.0;
constexpr std::int32_t kWorkers = 2;
/** Cold passes; each pair's compile time is the fastest of them. */
constexpr int kColdPasses = 3;
/** Per-request give-up time (a lost job fails the run, not hangs it). */
constexpr double kRequestTimeout = 120.0;
/** Latency charged to a failed or refused request (misses any limit). */
constexpr double kFailedMs = 1e9;
/** Fixed popularity order of the pairs (part of the workload). */
constexpr std::uint64_t kPopularitySeed = 0x5eedf00dULL;

const char *const kFabrics[] = {"hrea", "morphosys", "adres", "hycube"};

struct Pair {
    std::string kernel;
    std::string fabric;
    svc::SubmitRequest request;
    dfg::Dfg dfg;
    cgra::Architecture arch;
};

struct Request {
    std::size_t pair = 0;
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
    double submitRtt = 0.0;
    double fetchRtt = 0.0;
    std::uint64_t id = 0;
    std::int64_t spanId = -1;
    bool admitted = false;
    bool busy = false;
    bool completed = false;
    std::string blob;
    /** From the TRACE timeline (depth-0 stages, ms). */
    double queueWaitMs = 0.0;
    double runMs = 0.0;
    double diskCacheMs = -1.0;
    double compileMs = -1.0;
    double persistMs = -1.0;
};

struct Step {
    double rate = 0.0;
    std::vector<Request> requests;
    double maxLateness = 0.0;
};

std::vector<Pair>
buildPairs()
{
    std::vector<Pair> pairs;
    for (const std::string &kernel : dfg::coreKernelNames()) {
        const std::string dot = dfg::toDot(dfg::buildKernel(kernel));
        for (const char *name : kFabrics) {
            svc::SubmitRequest request;
            request.dfgDot = dot;
            request.archName = name;
            request.method = static_cast<std::uint8_t>(Method::MapZero);
            request.timeLimitSeconds = kTimeLimit;
            request.seed = kCompileSeed;
            request.restartsPerIi = 1;
            request.jobs = 1;
            request.evalCache = true;
            pairs.push_back(Pair{kernel, name, std::move(request),
                                 dfg::fromDot(dot), fabric(name)});
        }
    }
    return pairs;
}

/** Warm step: @p count Poisson arrivals at @p rate, Zipf(1.0) pairs. */
std::vector<Request>
zipfSchedule(std::size_t pairs, std::size_t count, double rate,
             std::mt19937_64 &rng, double start)
{
    std::vector<std::size_t> popularity(pairs);
    for (std::size_t i = 0; i < pairs; ++i)
        popularity[i] = i;
    std::mt19937_64 fixed(kPopularitySeed);
    std::shuffle(popularity.begin(), popularity.end(), fixed);
    std::vector<double> weights;
    for (std::size_t rank = 1; rank <= pairs; ++rank)
        weights.push_back(1.0 / static_cast<double>(rank));
    std::discrete_distribution<std::size_t> zipf(weights.begin(),
                                                 weights.end());
    std::exponential_distribution<double> gap(rate);

    std::vector<Request> requests(count);
    double due = start;
    for (Request &r : requests) {
        due += gap(rng);
        r.pair = popularity[zipf(rng)];
        r.due = due;
    }
    return requests;
}

/** Cold phase: every pair once, in seeded order. */
std::vector<Request>
coldSchedule(std::size_t pairs, std::mt19937_64 &rng)
{
    std::vector<Request> requests(pairs);
    for (std::size_t i = 0; i < pairs; ++i)
        requests[i].pair = i;
    std::shuffle(requests.begin(), requests.end(), rng);
    return requests;
}

/** Record a span from two now() readings (seconds). */
void
recordSpan(const char *name, double start, double end, std::int64_t request,
           std::int64_t parent, std::int64_t id = -1)
{
    Tracer::get().record(name, static_cast<std::int64_t>(start * 1e6),
                         static_cast<std::int64_t>(end * 1e6), parent,
                         request, id);
}

/** Drive @p step's schedule into the daemon on @p port. */
void
drive(int port, const std::vector<Pair> &pairs, Step &step)
{
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<std::size_t> admitted;
    bool submitting = true;

    std::thread submitter([&] {
        svc::Client client(port);
        for (std::size_t i = 0; i < step.requests.size(); ++i) {
            Request &r = step.requests[i];
            const double idle_from = now();
            while (now() < r.due) {
                const double left = r.due - now();
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    std::min(left, 0.002)));
            }
            recordSpan("gen.idle", idle_from, now(), -1, -1);
            if (Tracer::get().enabled())
                r.spanId = Tracer::get().nextId();
            r.sent = now();
            step.maxLateness = std::max(step.maxLateness, r.sent - r.due);
            std::uint64_t id = 0;
            std::uint32_t depth = 0;
            const svc::Status status =
                client.submit(pairs[r.pair].request, id, depth);
            r.submitRtt = now() - r.sent;
            recordSpan("svc.submit", r.sent, r.sent + r.submitRtt,
                       static_cast<std::int64_t>(i), r.spanId);
            if (status == svc::Status::Ok) {
                r.id = id;
                r.admitted = true;
                std::lock_guard<std::mutex> lock(mutex);
                admitted.push_back(i);
                ready.notify_one();
            } else {
                r.busy = status == svc::Status::Busy;
                r.done = now();
            }
        }
        std::lock_guard<std::mutex> lock(mutex);
        submitting = false;
        ready.notify_one();
    });

    std::thread completer([&] {
        svc::Client client(port);
        // Poll each job after 5% of its age (0.1 ms to 20 ms): fine
        // resolution for millisecond hits, little load from jobs that
        // wait on long compiles.
        struct Poll {
            std::size_t index;
            double next;
        };
        std::vector<Poll> outstanding;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                if (outstanding.empty())
                    ready.wait(lock, [&] {
                        return !admitted.empty() || !submitting;
                    });
                while (!admitted.empty()) {
                    outstanding.push_back({admitted.front(), now()});
                    admitted.pop_front();
                }
                if (outstanding.empty() && !submitting)
                    break;
            }
            double soonest = now() + 0.002;
            for (std::size_t k = 0; k < outstanding.size();) {
                Poll &poll = outstanding[k];
                Request &r = step.requests[poll.index];
                const double t = now();
                if (t < poll.next) {
                    soonest = std::min(soonest, poll.next);
                    ++k;
                    continue;
                }
                svc::JobResult result;
                const svc::Status status = client.fetch(r.id, result);
                const double after = now();
                if (status == svc::Status::NotReady &&
                    after - r.due < kRequestTimeout) {
                    poll.next =
                        after + std::clamp(0.05 * (after - r.due), 1e-4,
                                           0.02);
                    soonest = std::min(soonest, poll.next);
                    ++k;
                    continue;
                }
                r.done = after;
                if (status == svc::Status::Ok &&
                    result.state == svc::JobState::Done) {
                    r.completed = true;
                    r.fetchRtt = after - t;
                    r.blob = std::move(result.blob);
                    recordSpan("svc.fetch", t, after,
                               static_cast<std::int64_t>(poll.index),
                               r.spanId);
                }
                recordSpan("svc.request", r.due, r.done,
                           static_cast<std::int64_t>(poll.index), -1,
                           r.spanId);
                outstanding[k] = outstanding.back();
                outstanding.pop_back();
            }
            // Sleep until the next poll is due or a new job is admitted.
            const double wait = soonest - now();
            if (wait > 0.0) {
                std::unique_lock<std::mutex> lock(mutex);
                ready.wait_for(lock, std::chrono::duration<double>(wait),
                               [&] { return !admitted.empty(); });
            }
        }
    });
    submitter.join();
    completer.join();
}

/**
 * Closed loop: @p clients threads, each submitting its next request of
 * @p step as soon as its previous one is fetched (one per worker, so
 * nothing queues and every compile runs uncontended by the generator).
 */
void
driveClosed(int port, const std::vector<Pair> &pairs, Step &step,
            int clients)
{
    std::mutex mutex;
    std::size_t next = 0;
    const auto client_loop = [&] {
        svc::Client client(port);
        for (;;) {
            std::size_t i = 0;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (next >= step.requests.size())
                    return;
                i = next++;
            }
            Request &r = step.requests[i];
            Span span("svc.request", static_cast<std::int64_t>(i));
            r.spanId = span.id();
            r.due = r.sent = now();
            std::uint32_t depth = 0;
            if (client.submit(pairs[r.pair].request, r.id, depth) !=
                svc::Status::Ok) {
                r.done = now();
                continue;
            }
            r.admitted = true;
            r.submitRtt = now() - r.sent;
            for (;;) {
                svc::JobResult result;
                const svc::Status status = client.fetch(r.id, result);
                if (status == svc::Status::NotReady &&
                    now() - r.due < kRequestTimeout) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(std::clamp(
                            0.05 * (now() - r.due), 1e-4, 0.02)));
                    continue;
                }
                r.done = now();
                r.completed = status == svc::Status::Ok &&
                              result.state == svc::JobState::Done;
                r.blob = std::move(result.blob);
                break;
            }
        }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c)
        threads.emplace_back(client_loop);
    client_loop();
    for (std::thread &thread : threads)
        thread.join();
}

/** Fill the TRACE-derived stage times of every completed request. */
void
readTimelines(int port, Step &step)
{
    svc::Client client(port);
    for (Request &r : step.requests) {
        if (!r.completed)
            continue;
        svc::JobTrace trace;
        if (client.trace(r.id, trace) != svc::Status::Ok)
            continue;
        const JsonValue timeline = JsonValue::parse(trace.timelineJson);
        const JsonValue &stages = timeline.at("stages");
        std::vector<ProgramStage> program;
        r.runMs = 0.0;
        for (std::size_t s = 0; s < stages.size(); ++s) {
            const JsonValue &stage = stages.at(s);
            const std::string name = stage.stringOr("name", "");
            const auto depth = static_cast<int>(stage.numberOr("depth", 0));
            program.push_back(
                {name, static_cast<std::int64_t>(stage.numberOr("start_us", 0)),
                 static_cast<std::int64_t>(stage.numberOr("dur_us", 0)),
                 depth});
            if (depth != 0)
                continue;
            const double ms = stage.numberOr("dur_us", 0.0) / 1e3;
            if (name == "queue_wait") {
                r.queueWaitMs += ms;
                continue;
            }
            r.runMs += ms;
            if (name == "disk_cache")
                r.diskCacheMs = std::max(r.diskCacheMs, 0.0) + ms;
            else if (name == "compile")
                r.compileMs = std::max(r.compileMs, 0.0) + ms;
            else if (name == "persist")
                r.persistMs = std::max(r.persistMs, 0.0) + ms;
        }
        // The server's epoch is its SUBMIT handling, about half a
        // submit round trip after the request left.
        addProgramStages(
            std::move(program),
            static_cast<std::int64_t>((r.sent + 0.5 * r.submitRtt) * 1e6),
            r.spanId, static_cast<std::int64_t>(&r - step.requests.data()));
    }
}

/** Parsed FETCH blob. */
struct Blob {
    bool success = false;
    bool valid = false;
    std::int32_t ii = 0;
    std::int32_t mii = 0;
    std::int64_t searchOps = 0;
    std::vector<mapper::Placement> placements;
};

Blob
parseBlob(const std::string &text)
{
    const JsonValue json = JsonValue::parse(text);
    Blob blob;
    blob.success = json.has("success") && json.at("success").asBool();
    blob.valid = json.has("valid") && json.at("valid").asBool();
    blob.ii = static_cast<std::int32_t>(json.numberOr("ii", 0));
    blob.mii = static_cast<std::int32_t>(json.numberOr("mii", 0));
    blob.searchOps = static_cast<std::int64_t>(json.numberOr("search_ops", 0));
    if (json.has("placements")) {
        const JsonValue &list = json.at("placements");
        blob.placements.resize(list.size());
        for (std::size_t i = 0; i < list.size(); ++i) {
            const JsonValue &p = list.at(i);
            const auto node = static_cast<std::size_t>(p.numberOr("node", 0));
            if (node >= blob.placements.size())
                continue;
            blob.placements[node].pe =
                static_cast<std::int32_t>(p.numberOr("pe", -1));
            blob.placements[node].time =
                static_cast<std::int32_t>(p.numberOr("time", -1));
        }
    }
    return blob;
}

/** What the cold passes left: blobs and verdicts of the latest pass,
 *  compile times of every pass. */
struct ColdResults {
    std::map<std::size_t, std::string> blob;
    std::map<std::size_t, bool> ok;
    /** Compile-stage seconds of each pair, one entry per pass. */
    std::map<std::size_t, std::vector<double>> compileS;
    std::int64_t checked = 0;
    /** Search ops of the first pass. */
    std::int64_t searchOps = 0;
};

/**
 * Verify every blob of one cold pass (one request per pair) into
 * @p results. Returns per-request verdicts.
 */
std::vector<bool>
checkCold(const std::vector<Pair> &pairs, const Step &cold, Report &report,
          std::vector<Verified> &replays, ColdResults &results)
{
    std::vector<bool> verdicts;
    for (const Request &r : cold.requests) {
        const Pair &pair = pairs[r.pair];
        const std::string label = pair.kernel + "-" + pair.fabric;
        bool ok = false;
        if (!r.completed) {
            // Lost or refused: a failure, counted by the caller.
        } else if (r.compileMs < 0.0) {
            report.mismatch(label + ": cold request hit an empty disk tier");
        } else {
            std::vector<double> &seconds = results.compileS[r.pair];
            const bool first_pass = seconds.empty();
            seconds.push_back(r.compileMs / 1e3);
            const Blob blob = parseBlob(r.blob);
            if (first_pass)
                results.searchOps += blob.searchOps;
            if (!blob.success) {
                // A compile that found no mapping is a failure, not a
                // wrong answer.
            } else if (!blob.valid) {
                report.mismatch(label + ": server marked mapping invalid");
            } else if (blob.mii != Compiler::minimumIi(pair.dfg, pair.arch)) {
                report.mismatch(label + ": reported MII differs");
            } else if (const std::string why = verifyMapping(
                           pair.dfg, pair.arch, blob.ii, blob.placements);
                       !why.empty()) {
                report.mismatch(label + ": " + why);
            } else {
                ok = true;
                ++results.checked;
                if (first_pass)
                    replays.push_back(
                        {pretrainedNetwork(pair.arch, pinnedBudget()),
                         pair.dfg, pair.arch, blob.ii, blob.placements});
            }
        }
        results.blob[r.pair] = r.blob;
        results.ok[r.pair] = ok;
        verdicts.push_back(ok);
    }
    return verdicts;
}

/**
 * Check a warm step: every request must be a disk hit whose blob is
 * byte-identical to its pair's cold blob. Returns per-request verdicts.
 */
std::vector<bool>
checkWarm(const std::vector<Pair> &pairs, const Step &step,
          const ColdResults &cold, Report &report)
{
    std::vector<bool> ok(step.requests.size(), false);
    for (std::size_t i = 0; i < step.requests.size(); ++i) {
        const Request &r = step.requests[i];
        if (!r.completed)
            continue;
        const Pair &pair = pairs[r.pair];
        const std::string label = pair.kernel + "-" + pair.fabric;
        if (r.compileMs >= 0.0) {
            report.mismatch(label + ": warm request missed the disk tier");
            continue;
        }
        if (r.blob != cold.blob.at(r.pair)) {
            report.mismatch(label +
                            ": disk-hit blob differs from the cold blob");
            continue;
        }
        ok[i] = cold.ok.at(r.pair);
    }
    return ok;
}

double
percentileWithFailures(const Step &step, const std::vector<bool> &ok,
                       double q)
{
    std::vector<double> ms;
    for (std::size_t i = 0; i < step.requests.size(); ++i) {
        const Request &r = step.requests[i];
        // A failed or refused request misses every latency limit.
        ms.push_back(ok[i] ? (r.done - r.due) * 1e3 : kFailedMs);
    }
    return quantile(ms, q);
}

} // namespace

void
runServe(const Options &options, Report &report)
{
    const std::vector<Pair> pairs = buildPairs();

    // Set-up: agents for the four fabrics, then the daemon.
    clearAgentCache();
    CounterWindow train_window;
    std::vector<TrainedAgent> agents;
    const double train_s = timed([&] {
        Span span("setup");
        agents = trainAgents({std::begin(kFabrics), std::end(kFabrics)}, 4,
                             report);
    });
    train_window.close();
    // One daemon per cold pass, each on a fresh persistent-tier
    // directory (and so a fresh eval cache); the last one also serves
    // the warm steps. Trained agents stay in the process.
    const auto cache_dir = [&](int pass) {
        return std::filesystem::path(options.workDir) /
               ("serve-cache-" + std::to_string(pass));
    };
    const auto start_daemon = [&](int pass) {
        std::filesystem::remove_all(cache_dir(pass));
        std::filesystem::create_directories(cache_dir(pass));
        svc::DaemonOptions daemon_options;
        daemon_options.workers = kWorkers;
        daemon_options.retainTerminal = 1 << 20;
        daemon_options.service.persistDir = cache_dir(pass).string();
        auto daemon = std::make_unique<svc::Daemon>();
        Span span("svc.daemon_start");
        if (!daemon->start(daemon_options))
            throw std::runtime_error("daemon failed to start");
        return daemon;
    };
    std::unique_ptr<svc::Daemon> daemon;
    const double start_s = timed([&] { daemon = start_daemon(0); });
    report.endToEnd("setup_s", train_s + start_s, "s");
    recordFingerprints(agents, report);

    std::mt19937_64 rng(options.seed);
    startJournal();
    CounterWindow window;
    const std::int64_t window_start = Tracer::nowUs();

    // Cold phase: every pair compiles and is written to disk, once per
    // pass; each pair's compile time is its fastest pass.
    std::vector<Step> colds(kColdPasses);
    for (int pass = 0; pass < kColdPasses; ++pass) {
        if (pass > 0) {
            Span span("svc.readback");
            readTimelines(daemon->port(), colds[pass - 1]);
            daemon->stop();
            daemon = start_daemon(pass);
        }
        colds[pass].requests = coldSchedule(pairs.size(), rng);
        driveClosed(daemon->port(), pairs, colds[pass], kWorkers);
    }

    // Warm rate ladder, base rate first, read back from the disk tier.
    std::vector<Step> steps;
    for (std::size_t s = 0; s < std::size(kLadder); ++s) {
        Step step;
        step.rate = kBaseRate * kLadder[s];
        const std::size_t count =
            s == 0 ? std::max(kMinStepRequests,
                              static_cast<std::size_t>(std::ceil(
                                  step.rate * options.seconds)))
                   : kMinStepRequests;
        step.requests =
            zipfSchedule(pairs.size(), count, step.rate, rng, now() + 0.01);
        drive(daemon->port(), pairs, step);
        steps.push_back(std::move(step));
    }
    const std::int64_t window_end = Tracer::nowUs();
    window.close();
    {
        Span span("svc.readback");
        readTimelines(daemon->port(), colds.back());
        for (Step &step : steps)
            readTimelines(daemon->port(), step);
        daemon->stop();
    }
    for (int pass = 0; pass < kColdPasses; ++pass)
        std::filesystem::remove_all(cache_dir(pass));
    const JournalSummary journal_summary = readCompileJournal();

    std::vector<Verified> replays;
    ColdResults cold_results;
    std::vector<std::vector<bool>> cold_verdicts;
    std::int64_t rejected = 0;
    std::int64_t sent = 0;
    for (const Step &cold : colds) {
        cold_verdicts.push_back(
            checkCold(pairs, cold, report, replays, cold_results));
        sent += static_cast<std::int64_t>(cold.requests.size());
    }
    std::vector<std::vector<bool>> verdicts;
    for (const Step &step : steps) {
        verdicts.push_back(checkWarm(pairs, step, cold_results, report));
        for (const Request &r : step.requests) {
            rejected += r.busy ? 1 : 0;
            ++sent;
        }
    }

    // Cold passes and base-rate step: the run's verdict.
    for (const std::vector<bool> &pass : cold_verdicts)
        for (const bool ok : pass)
            report.attempt(!ok);
    const Step &base = steps.front();
    const std::vector<bool> &base_ok = verdicts.front();
    // Per pair: (requests at MII, requests), over the cold passes and
    // the base step; a failed request counts as a miss.
    std::map<std::size_t, std::pair<int, int>> mii_hits;
    const auto count_mii = [&](const Request &r, bool ok) {
        auto &[hits, total] = mii_hits[r.pair];
        ++total;
        if (ok) {
            const Blob blob = parseBlob(r.blob);
            hits += blob.ii == blob.mii ? 1 : 0;
        }
    };
    for (std::size_t pass = 0; pass < colds.size(); ++pass)
        for (std::size_t i = 0; i < colds[pass].requests.size(); ++i)
            count_mii(colds[pass].requests[i], cold_verdicts[pass][i]);
    std::int64_t within_slo = 0;
    for (std::size_t i = 0; i < base.requests.size(); ++i) {
        const Request &r = base.requests[i];
        report.attempt(!base_ok[i]);
        count_mii(r, base_ok[i]);
        if (base_ok[i])
            within_slo += (r.done - r.due) * 1e3 <= kSloMs ? 1 : 0;
    }
    std::vector<double> mii_share;
    for (const auto &[pair, counts] : mii_hits)
        mii_share.push_back(static_cast<double>(counts.first) /
                            counts.second);
    const auto base_count = static_cast<double>(base.requests.size());
    report.info("latency_p50_ms",
                percentileWithFailures(base, base_ok, 0.5), "ms");
    report.info("latency_p95_ms",
                percentileWithFailures(base, base_ok, 0.95), "ms");
    std::vector<double> pair_compile_s;
    for (const auto &[pair, seconds] : cold_results.compileS)
        pair_compile_s.push_back(minimum(seconds));
    report.endToEnd("compile_geomean_s", geomean(pair_compile_s), "s");
    // Each pair weighs the same, whichever pairs the Zipf draws favour.
    report.endToEnd("mii_share", mean(mii_share), "share");
    report.endToEnd("peak_rss_mb", peakRssMb(), "MB");
    report.info("slo_share", static_cast<double>(within_slo) / base_count,
                "share");
    report.info("slo_limit_ms", kSloMs, "ms");
    report.info("latency.samples", base_count, "count");

    // Rate ladder.
    double max_rps = 0.0;
    for (std::size_t s = 0; s < steps.size(); ++s) {
        const Step &step = steps[s];
        std::int64_t busy = 0;
        double last_due = 0.0;
        double last_done = 0.0;
        for (const Request &r : step.requests) {
            busy += r.busy ? 1 : 0;
            last_due = std::max(last_due, r.due);
            last_done = std::max(last_done, r.done);
        }
        const double p95 = percentileWithFailures(step, verdicts[s], 0.95);
        const double drain_s = last_done - last_due;
        const std::string prefix =
            "ladder." + std::to_string(static_cast<int>(step.rate)) + "rps.";
        report.info(prefix + "p50_ms",
                    percentileWithFailures(step, verdicts[s], 0.5), "ms");
        report.info(prefix + "p95_ms", p95, "ms");
        report.info(prefix + "busy", static_cast<double>(busy), "count");
        report.info(prefix + "requests",
                    static_cast<double>(step.requests.size()), "count");
        report.info(prefix + "drain_s", drain_s, "s");
        report.info(prefix + "max_lateness_ms", step.maxLateness * 1e3,
                    "ms");
        // No growing backlog: the queue empties within the latency
        // limit once arrivals stop.
        if (p95 <= kSloMs && busy == 0 && drain_s * 1e3 <= kSloMs)
            max_rps = std::max(max_rps, step.rate);
    }
    report.info("max_rps_at_slo", max_rps, "1/s");
    report.info("generator.max_lateness_ms", base.maxLateness * 1e3, "ms");

    // Service-layer detail: queueing and RPCs at the base rate, miss
    // and persist stages from the cold passes.
    std::vector<double> queue_ms, hit_ms, miss_ms, submit_ms, fetch_ms;
    std::vector<double> disk_ms, compile_ms, persist_ms;
    std::vector<const Step *> served = {&base};
    for (const Step &cold : colds)
        served.push_back(&cold);
    for (const Step *step : served) {
        for (const Request &r : step->requests) {
            if (!r.completed)
                continue;
            if (r.compileMs >= 0.0) {
                miss_ms.push_back(r.runMs);
                compile_ms.push_back(r.compileMs);
            } else {
                hit_ms.push_back(r.runMs);
            }
            if (r.diskCacheMs >= 0.0)
                disk_ms.push_back(r.diskCacheMs);
            if (r.persistMs >= 0.0)
                persist_ms.push_back(r.persistMs);
            if (step == &base) {
                submit_ms.push_back(r.submitRtt * 1e3);
                fetch_ms.push_back(r.fetchRtt * 1e3);
                queue_ms.push_back(r.queueWaitMs);
            }
        }
    }
    report.info("svc.queue_wait_p50_ms", median(queue_ms), "ms");
    report.info("svc.queue_wait_p95_ms", quantile(queue_ms, 0.95), "ms");
    report.info("svc.run_hit_ms", median(hit_ms), "ms");
    report.info("svc.run_miss_ms", median(miss_ms), "ms");
    report.info("svc.submit_rtt_ms", median(submit_ms), "ms");
    report.info("svc.fetch_rtt_ms", median(fetch_ms), "ms");
    report.info("trace.disk_cache_ms", median(disk_ms), "ms");
    report.info("trace.compile_ms", median(compile_ms), "ms");
    report.info("trace.persist_ms", median(persist_ms), "ms");

    reportTraining(report, train_window, agents);
    reportCompileLayers(report, window, journal_summary,
                        cold_results.searchOps);
    report.layer("svc.busy_share",
                 sent > 0 ? static_cast<double>(rejected) /
                                static_cast<double>(sent)
                          : 0.0,
                 "ratio");
    timeReplays(report, replays);
    report.layer("verify.checked",
                 static_cast<double>(cold_results.checked), "count");
    report.info("window_s",
                static_cast<double>(window_end - window_start) / 1e6, "s");
    report.info("window_start_us", static_cast<double>(window_start), "us");
    report.info("window_end_us", static_cast<double>(window_end), "us");
}

} // namespace perfbench
