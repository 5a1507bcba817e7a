/**
 * @file
 * End-to-end benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--work-dir DIR]
 *
 * Runs one workload (cold_start, hard_single, hard_portfolio,
 * serve_zipf), checks every output with the oracle and prints each
 * metric as "kind name value unit", then the attempted / failed /
 * correct line; run.py turns these into the result JSON. A traced run
 * also records benchmark-side spans, prints per-layer self time and the
 * coverage of the timed window, and writes a Chrome trace.
 * Exit status 0 on a completed run (correct or not), 2 on a usage or
 * internal error, which prints no verdict line.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/log.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload cold_start|hard_single|"
                 "hard_portfolio|serve_zipf --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--work-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options options;
    options.workDir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            options.trace = value == "1";
        else if (flag == "--trace-out")
            options.traceOut = value;
        else if (flag == "--work-dir")
            options.workDir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (options.workload.empty())
        usage("--workload is required");
    if (options.seconds <= 0.0)
        usage("--seconds must be positive");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    mapzero::setLogLevel(mapzero::LogLevel::Error);
    perfbench::pinEnvironment();
    if (options.trace)
        perfbench::Tracer::get().enable();

    perfbench::Report report;
    try {
        if (options.workload == "cold_start")
            perfbench::runColdStart(options, report);
        else if (options.workload == "hard_single")
            perfbench::runHard(options, report, false);
        else if (options.workload == "hard_portfolio")
            perfbench::runHard(options, report, true);
        else if (options.workload == "serve_zipf")
            perfbench::runServe(options, report);
        else
            usage(("unknown workload " + options.workload).c_str());
        report.layer("verify.mismatches",
                     static_cast<double>(report.mismatches()), "count");
        report.info("failed_share",
                    static_cast<double>(report.failed()) /
                        static_cast<double>(std::max<std::int64_t>(
                            1, report.attempted())),
                    "share");

        if (options.trace) {
            perfbench::Tracer &tracer = perfbench::Tracer::get();
            const double coverage = tracer.printSummary(
                static_cast<std::int64_t>(report.value("window_start_us")),
                static_cast<std::int64_t>(report.value("window_end_us")));
            report.info("trace.coverage", coverage, "share");
            if (!options.traceOut.empty()) {
                tracer.writeChrome(options.traceOut);
                std::printf("trace: wrote %s\n", options.traceOut.c_str());
            }
        }
        report.print();
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: error: %s\n", error.what());
        return 2;
    }
    return 0;
}
