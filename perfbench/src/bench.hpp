/**
 * @file
 * Shared infrastructure of the end-to-end benchmark program: command
 * line, statistics, the metric report, benchmark-side span tracing and
 * program-counter deltas.
 *
 * Everything here observes the program from outside: spans wrap calls
 * into the public API, counters are read from the program's own
 * metrics registry, and nothing is added inside the library.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Parsed command line. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace output path (traced runs only). */
    std::string traceOut;
    /** Scratch directory for persistent caches (fresh per run). */
    std::string workDir;
};

/** Monotonic seconds since process start. */
double now();

/** @name Statistics
 *  All take their sample by value; empty input yields 0. */
/// @{
double median(std::vector<double> values);
/** Nearest-rank quantile, @p q in [0, 1]. */
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double> &values);
double mean(const std::vector<double> &values);
double minimum(const std::vector<double> &values);
/// @}

/**
 * Named metrics of one run. Every workload reports each end-to-end and
 * per-layer metric BENCHMARK.json lists (run.py builds the result JSON
 * from those rows and fails on a missing one); info rows are printed
 * for people only (per-case rows, ratio bases, workload detail).
 */
class Report
{
  public:
    enum class Kind { EndToEnd, Layer, Info };

    void set(Kind kind, const std::string &name, double value,
             const std::string &unit);
    void endToEnd(const std::string &name, double value,
                  const std::string &unit)
    {
        set(Kind::EndToEnd, name, value, unit);
    }
    void layer(const std::string &name, double value,
               const std::string &unit)
    {
        set(Kind::Layer, name, value, unit);
    }
    void info(const std::string &name, double value,
              const std::string &unit)
    {
        set(Kind::Info, name, value, unit);
    }

    /** Record a failed correctness check (the run is not correct). */
    void mismatch(const std::string &what);

    /** One user-visible operation; @p failed counts toward failed. */
    void attempt(bool failed);

    bool correct() const { return mismatches_.empty(); }
    std::size_t mismatches() const { return mismatches_.size(); }
    /** Value of a reported metric (0 when absent). */
    double value(const std::string &name) const;
    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }

    /**
     * Print every metric as a "kind name value unit" line (kind e2e,
     * layer or info; the value with all its digits), then the line
     * "attempted N failed N correct true|false".
     */
    void print() const;

  private:
    struct Entry {
        Kind kind;
        double value;
        std::string unit;
    };
    std::map<std::string, Entry> entries_;
    std::vector<std::string> mismatches_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

// ---------------------------------------------------------------- spans

/** One recorded benchmark-side span. */
struct SpanRecord {
    std::string name;
    std::int64_t startUs = 0;
    std::int64_t endUs = 0;
    std::int64_t id = 0;
    /** Enclosing span on the same thread (-1 = none). */
    std::int64_t parent = -1;
    /** Request the span belongs to (-1 = none). */
    std::int64_t request = -1;
    std::uint32_t tid = 0;
};

/**
 * In-memory span store. Disabled (the default) it records nothing and
 * a Span costs one relaxed branch; enabled, spans are appended under a
 * mutex and written out once, at the end of the run.
 */
class Tracer
{
  public:
    static Tracer &get();

    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    std::int64_t nextId();
    std::vector<SpanRecord> spans() const;

    /**
     * Record a finished span on the calling thread's lane (@p id < 0
     * draws a fresh id). No-op when disabled.
     */
    void record(std::string name, std::int64_t startUs, std::int64_t endUs,
                std::int64_t parent, std::int64_t request,
                std::int64_t id = -1);

    /** Microseconds since process start. */
    static std::int64_t nowUs();

    /** Write the spans as Chrome trace-event JSON. */
    void writeChrome(const std::string &path) const;

    /**
     * Print per-layer self time (span duration minus the part its
     * children on the same thread cover) and the share of the timed
     * window [@p windowStartUs, @p windowEndUs) that spans cover.
     * Returns that coverage.
     */
    double printSummary(std::int64_t windowStartUs,
                        std::int64_t windowEndUs) const;

  private:
    friend class Span;
    void add(SpanRecord span);

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::int64_t nextId_ = 0;
};

/** RAII span around one call into a layer (inert when tracing is off). */
class Span
{
  public:
    explicit Span(const char *name, std::int64_t request = -1);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (-1 when tracing is off). */
    std::int64_t id() const { return active_ ? record_.id : -1; }

  private:
    bool active_ = false;
    SpanRecord record_;
    std::int64_t savedParent_ = -1;
};

/** One stage of a program-side request timeline (common/trace.hpp). */
struct ProgramStage {
    std::string name;
    std::int64_t startUs = 0;
    std::int64_t durationUs = 0;
    int depth = 0;
};

/**
 * Import a program timeline into the span store: each stage becomes a
 * "program.<name>" span at @p epochUs + its offset, nested by depth
 * under @p parent. No-op when tracing is off.
 */
void addProgramStages(std::vector<ProgramStage> stages,
                      std::int64_t epochUs, std::int64_t parent,
                      std::int64_t request);

// ------------------------------------------------------------- counters

/**
 * Deltas of the program's own counters and histograms over a window:
 * construct at the window start, close() at its end (before the
 * oracle, whose routing replays bump the router counters), read after.
 */
class CounterWindow
{
  public:
    CounterWindow();
    /** End the window; reads before this throw. */
    void close();
    /** Counter increase over the window. */
    std::int64_t counter(const std::string &name) const;
    /** Histogram sample-count increase over the window. */
    std::int64_t histCount(const std::string &name) const;
    /** Mean of the histogram samples recorded in the window. */
    double histMean(const std::string &name) const;

  private:
    struct Snapshot {
        std::map<std::string, std::int64_t> counters;
        /** Per histogram: (sample count, sample sum). */
        std::map<std::string, std::pair<std::int64_t, double>> histograms;
    };
    static Snapshot take();
    const Snapshot &end() const;

    Snapshot start_;
    std::optional<Snapshot> end_;
};

/** Ratio num / (num + other), 0 when both are 0. */
double shareOf(double num, double other);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
