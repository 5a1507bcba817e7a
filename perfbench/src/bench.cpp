#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/metrics.hpp"

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

/** Counters and histograms every workload reads deltas of. */
const char *const kCounters[] = {
    "trainer.episodes",       "mcts.simulations",
    "mcts.net_evals",         "router.conflicts",
    "router.routes_committed", "router.route_failures",
    "compiler.ii_attempts",   "compiler.timeouts",
    "eval_cache.hits",        "eval_cache.misses",
    "cache.tt_hits",          "cache.tt_misses",
    "cache.disk_hits",        "cache.disk_misses",
    "cache.disk_writes",      "cache.disk_errors",
};
const char *const kHistograms[] = {
    "mcts.batch_fill",
    "compiler.attempt_seconds",
    "eval_batcher.batch_size",
};

thread_local std::int64_t t_currentSpan = -1;

std::uint32_t
threadLane()
{
    static std::mutex mutex;
    static std::uint32_t next = 0;
    thread_local std::uint32_t lane = [] {
        std::lock_guard<std::mutex> lock(mutex);
        return next++;
    }();
    return lane;
}

/** Total length of the union of [start, end) intervals. */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cursor = INT64_MIN;
    for (const auto &[start, end] : intervals) {
        const std::int64_t from = std::max(start, cursor);
        if (end > from)
            total += end - from;
        cursor = std::max(cursor, end);
    }
    return total;
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kProcessStart)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(std::max(v, 1e-12));
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
minimum(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

double
shareOf(double num, double other)
{
    return num + other > 0.0 ? num / (num + other) : 0.0;
}

// --------------------------------------------------------------- Report

void
Report::set(Kind kind, const std::string &name, double value,
            const std::string &unit)
{
    entries_[name] = Entry{kind, value, unit};
}

double
Report::value(const std::string &name) const
{
    const auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.value;
}

void
Report::mismatch(const std::string &what)
{
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
    mismatches_.push_back(what);
}

void
Report::attempt(bool failed)
{
    ++attempted_;
    if (failed)
        ++failed_;
}

void
Report::print() const
{
    static const char *const kKindName[] = {"e2e", "layer", "info"};
    for (const auto &[name, entry] : entries_) {
        std::printf("%-6s %-44s %24.17g %s\n",
                    kKindName[static_cast<int>(entry.kind)], name.c_str(),
                    entry.value, entry.unit.c_str());
    }
    std::printf("attempted %lld failed %lld correct %s\n",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_),
                correct() ? "true" : "false");
    std::fflush(stdout);
}

// ---------------------------------------------------------------- spans

Tracer &
Tracer::get()
{
    static Tracer instance;
    return instance;
}

std::int64_t
Tracer::nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - kProcessStart)
        .count();
}

std::int64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::add(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
Tracer::record(std::string name, std::int64_t startUs, std::int64_t endUs,
               std::int64_t parent, std::int64_t request, std::int64_t id)
{
    if (!enabled_)
        return;
    SpanRecord span;
    span.name = std::move(name);
    span.startUs = startUs;
    span.endUs = endUs;
    span.id = id >= 0 ? id : nextId();
    span.parent = parent;
    span.request = request;
    span.tid = threadLane();
    add(std::move(span));
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const SpanRecord &s : spans()) {
        out << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
            << ", \"ts\": " << s.startUs
            << ", \"dur\": " << (s.endUs - s.startUs)
            << ", \"args\": {\"id\": " << s.id
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}}";
        first = false;
    }
    out << "\n]}\n";
}

double
Tracer::printSummary(std::int64_t windowStartUs,
                     std::int64_t windowEndUs) const
{
    const std::vector<SpanRecord> all = spans();
    std::map<std::int64_t, std::vector<std::pair<std::int64_t,
                                                 std::int64_t>>> children;
    for (const SpanRecord &s : all) {
        if (s.parent >= 0)
            children[s.parent].emplace_back(s.startUs, s.endUs);
    }
    struct Layer {
        std::int64_t count = 0;
        std::int64_t totalUs = 0;
        std::int64_t selfUs = 0;
    };
    std::map<std::string, Layer> layers;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const SpanRecord &s : all) {
        Layer &layer = layers[s.name];
        const std::int64_t duration = s.endUs - s.startUs;
        const auto it = children.find(s.id);
        const std::int64_t child_us =
            it == children.end() ? 0 : unionLength(it->second);
        ++layer.count;
        layer.totalUs += duration;
        layer.selfUs += std::max<std::int64_t>(0, duration - child_us);
        const std::int64_t from = std::max(s.startUs, windowStartUs);
        const std::int64_t to = std::min(s.endUs, windowEndUs);
        if (to > from)
            covered.emplace_back(from, to);
    }
    std::printf("trace: %zu spans\n", all.size());
    std::printf("trace: %-28s %8s %12s %12s\n", "layer", "spans",
                "total_ms", "self_ms");
    for (const auto &[name, layer] : layers) {
        std::printf("trace: %-28s %8lld %12.3f %12.3f\n", name.c_str(),
                    static_cast<long long>(layer.count),
                    static_cast<double>(layer.totalUs) / 1e3,
                    static_cast<double>(layer.selfUs) / 1e3);
    }
    const std::int64_t wall = windowEndUs - windowStartUs;
    const double coverage =
        wall > 0 ? static_cast<double>(unionLength(covered)) /
                       static_cast<double>(wall)
                 : 0.0;
    std::printf("trace: timed wall %.3f ms, span coverage %.4f\n",
                static_cast<double>(wall) / 1e3, coverage);
    return coverage;
}

Span::Span(const char *name, std::int64_t request)
{
    Tracer &tracer = Tracer::get();
    if (!tracer.enabled())
        return;
    active_ = true;
    record_.name = name;
    record_.id = tracer.nextId();
    record_.parent = t_currentSpan;
    record_.request = request;
    record_.tid = threadLane();
    savedParent_ = t_currentSpan;
    t_currentSpan = record_.id;
    record_.startUs = Tracer::nowUs();
}

Span::~Span()
{
    if (!active_)
        return;
    record_.endUs = Tracer::nowUs();
    t_currentSpan = savedParent_;
    Tracer::get().add(std::move(record_));
}

void
addProgramStages(std::vector<ProgramStage> stages, std::int64_t epochUs,
                 std::int64_t parent, std::int64_t request)
{
    Tracer &tracer = Tracer::get();
    if (!tracer.enabled())
        return;
    // Timelines list stages as they close (children first); open them
    // in start order so each stage finds its enclosing one.
    std::sort(stages.begin(), stages.end(),
              [](const ProgramStage &a, const ProgramStage &b) {
                  return a.startUs != b.startUs ? a.startUs < b.startUs
                                                : a.depth < b.depth;
              });
    std::vector<std::int64_t> open;
    for (const ProgramStage &stage : stages) {
        const auto depth = static_cast<std::size_t>(std::max(0, stage.depth));
        open.resize(depth + 1, parent);
        const std::int64_t id = tracer.nextId();
        const std::int64_t start = epochUs + stage.startUs;
        tracer.record("program." + stage.name, start,
                      start + stage.durationUs,
                      depth == 0 ? parent : open[depth - 1], request, id);
        open[depth] = id;
    }
}

// ------------------------------------------------------------- counters

CounterWindow::CounterWindow() : start_(take()) {}

CounterWindow::Snapshot
CounterWindow::take()
{
    using mapzero::metrics;
    Snapshot snapshot;
    for (const char *name : kCounters)
        snapshot.counters[name] = metrics().counter(name).value();
    for (const char *name : kHistograms) {
        const mapzero::Histogram &h = metrics().histogram(name);
        snapshot.histograms[name] = {h.count(), h.sum()};
    }
    return snapshot;
}

void
CounterWindow::close()
{
    end_ = take();
}

const CounterWindow::Snapshot &
CounterWindow::end() const
{
    if (!end_)
        throw std::logic_error("counter window read before close()");
    return *end_;
}

std::int64_t
CounterWindow::counter(const std::string &name) const
{
    const auto it = start_.counters.find(name);
    if (it == start_.counters.end())
        throw std::logic_error("counter not tracked: " + name);
    return end().counters.at(name) - it->second;
}

std::int64_t
CounterWindow::histCount(const std::string &name) const
{
    const auto it = start_.histograms.find(name);
    if (it == start_.histograms.end())
        throw std::logic_error("histogram not tracked: " + name);
    return end().histograms.at(name).first - it->second.first;
}

double
CounterWindow::histMean(const std::string &name) const
{
    const std::int64_t count = histCount(name);
    if (count <= 0)
        return 0.0;
    const double sum = end().histograms.at(name).second -
                       start_.histograms.at(name).second;
    return sum / static_cast<double>(count);
}

} // namespace perfbench
