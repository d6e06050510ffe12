/**
 * @file
 * Shared argv handling for the plain-main benches.
 *
 * Every non-google-benchmark harness takes a handful of positional
 * numbers plus the same optional flags; this header centralizes the
 * parsing (it used to be copy-pasted per bench) and plugs the telemetry
 * exporters in behind `--metrics-out`:
 *
 *     bench_foo [positional...] [--threads=N] [--seed=N]
 *               [--repeat=N]
 *               [--metrics-out=FILE] [--metrics-format=json|prom]
 *
 * When `--metrics-format` is omitted it is inferred from the output
 * path: a `.prom` extension selects the Prometheus text format,
 * anything else JSON. Call `exportMetricsIfRequested` once at the end
 * of main to write the global registry's snapshot.
 *
 * Timed sections should run through `medianRunMillis` so `--repeat=N`
 * reports the median of N runs instead of one cold-cache shot.
 */

#ifndef AUTOFSM_BENCH_COMMON_HH
#define AUTOFSM_BENCH_COMMON_HH

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.hh"
#include "obs/metrics.hh"

namespace autofsm::bench
{

struct BenchOptions
{
    /** Bare numeric arguments, in order (meaning is per-bench). */
    std::vector<long> positional;
    /** The same arguments, unparsed (for string positionals). */
    std::vector<std::string> positionalRaw;
    /** --threads=N; 0 means "use the harness default". */
    unsigned threads = 0;
    bool threadsSet = false;
    /** --seed=N. */
    uint64_t seed = 0;
    bool seedSet = false;
    /**
     * --repeat=N: timed sections run N times and report the median
     * (see medianRunMillis); 1 keeps the historical single-shot timing.
     */
    size_t repeat = 1;
    bool repeatSet = false;
    /** --metrics-out=FILE; empty means no export. */
    std::string metricsOut;
    /** "json" or "prom" (set explicitly or inferred from metricsOut). */
    std::string metricsFormat = "json";
    bool metricsFormatSet = false;
    /**
     * --request-file=FILE: a JSON array of DesignRequests (the
     * flow/api.hh schema shared with the serve daemon) for benches that
     * support request replay; empty means the bench's synthetic load.
     */
    std::string requestFile;
    /**
     * --trace-out=FILE: benches that support it enable the global
     * tracer and write the recorded spans as Chrome trace-event JSON
     * (obs::renderTraceEvents); empty means no trace export.
     */
    std::string traceOut;

    /** positional[i] as long, or @p fallback when absent. */
    long
    positionalOr(size_t i, long fallback) const
    {
        return i < positional.size() ? positional[i] : fallback;
    }

    /** positionalRaw[i], or @p fallback when absent. */
    std::string
    positionalOr(size_t i, const char *fallback) const
    {
        return i < positionalRaw.size() ? positionalRaw[i]
                                        : std::string(fallback);
    }
};

inline bool
consumeFlag(std::string_view arg, std::string_view prefix,
            std::string_view &value)
{
    if (arg.substr(0, prefix.size()) != prefix)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

/**
 * Parse argv. On `-h`/`--help` or a malformed flag, prints @p usage
 * (plus the shared flag help) and exits — benches have no cleanup that
 * would make error-return plumbing worth the duplication.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv, const char *usage)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        std::string_view value;
        if (arg == "-h" || arg == "--help") {
            std::cout << "usage: " << argv[0] << " " << usage << "\n"
                      << "  [--threads=N] [--seed=N] [--repeat=N]\n"
                         "  [--metrics-out=FILE] "
                         "[--metrics-format=json|prom]\n"
                         "  [--request-file=FILE] [--trace-out=FILE]\n";
            std::exit(0);
        } else if (consumeFlag(arg, "--threads=", value)) {
            options.threads = static_cast<unsigned>(
                std::strtoul(std::string(value).c_str(), nullptr, 10));
            options.threadsSet = true;
        } else if (consumeFlag(arg, "--seed=", value)) {
            options.seed = std::strtoull(std::string(value).c_str(),
                                         nullptr, 10);
            options.seedSet = true;
        } else if (consumeFlag(arg, "--repeat=", value)) {
            options.repeat = std::strtoull(std::string(value).c_str(),
                                           nullptr, 10);
            options.repeatSet = true;
            if (options.repeat == 0) {
                std::cerr << argv[0] << ": --repeat must be >= 1\n";
                std::exit(2);
            }
        } else if (consumeFlag(arg, "--metrics-out=", value)) {
            options.metricsOut = std::string(value);
        } else if (consumeFlag(arg, "--metrics-format=", value)) {
            options.metricsFormat = std::string(value);
            options.metricsFormatSet = true;
        } else if (consumeFlag(arg, "--request-file=", value)) {
            options.requestFile = std::string(value);
        } else if (consumeFlag(arg, "--trace-out=", value)) {
            options.traceOut = std::string(value);
        } else if (!arg.empty() && arg[0] == '-' &&
                   !(arg.size() > 1 &&
                     (std::isdigit(static_cast<unsigned char>(arg[1])) !=
                      0))) {
            std::cerr << argv[0] << ": unknown flag '" << arg << "'\n"
                      << "usage: " << argv[0] << " " << usage << "\n";
            std::exit(2);
        } else {
            options.positional.push_back(
                std::strtol(std::string(arg).c_str(), nullptr, 10));
            options.positionalRaw.emplace_back(arg);
        }
    }

    if (options.metricsFormat != "json" && options.metricsFormat != "prom") {
        std::cerr << argv[0] << ": --metrics-format must be json or prom\n";
        std::exit(2);
    }
    if (!options.metricsFormatSet && !options.metricsOut.empty() &&
        options.metricsOut.size() >= 5 &&
        options.metricsOut.compare(options.metricsOut.size() - 5, 5,
                                   ".prom") == 0) {
        options.metricsFormat = "prom";
    }
    return options;
}

/**
 * Time @p fn options.repeat times and return the median wall time in
 * milliseconds (upper median for even counts). With the default
 * --repeat=1 this is exactly the old single-shot measurement; higher
 * repeats squeeze out cold-cache and scheduler noise without changing
 * what is timed. @p fn runs repeat times regardless, so it must be
 * idempotent over the bench's state (replays over read-only traces
 * are; anything accumulating tallies externally is not).
 */
template <typename Fn>
inline double
medianRunMillis(const BenchOptions &options, Fn &&fn)
{
    std::vector<double> millis(options.repeat ? options.repeat : 1);
    for (double &sample : millis) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        sample = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    }
    std::sort(millis.begin(), millis.end());
    return millis[millis.size() / 2];
}

/**
 * Write the global registry's snapshot to options.metricsOut (no-op
 * when the flag was not given). Returns false and warns on I/O failure
 * so benches can surface it without aborting their report.
 */
inline bool
exportMetricsIfRequested(const BenchOptions &options)
{
    if (options.metricsOut.empty())
        return true;
    std::ofstream out(options.metricsOut);
    if (!out) {
        std::cerr << "warning: cannot open " << options.metricsOut
                  << " for metrics export\n";
        return false;
    }
    if (options.metricsFormat == "prom")
        obs::renderPrometheus(out); // the shared daemon/bench scrape path
    else
        obs::renderMetricsJson(out, obs::globalMetrics().snapshot());
    out.flush();
    if (!out) {
        std::cerr << "warning: short write to " << options.metricsOut
                  << "\n";
        return false;
    }
    std::cerr << "metrics (" << options.metricsFormat << ") -> "
              << options.metricsOut << "\n";
    return true;
}

} // namespace autofsm::bench

#endif // AUTOFSM_BENCH_COMMON_HH
