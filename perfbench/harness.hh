/**
 * @file
 * Shared pieces of the end-to-end benchmark harness: options, the result
 * record every workload fills, figure-text digests checked against the
 * committed goldens, CPU placement and sample statistics.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/span.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Command-line knobs of one harness invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured phase. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Tiny input sizes (the self-test); goldens are kept per size. */
    bool tiny = false;
    /** Golden digest table (goldens.txt). */
    std::string goldensPath;
    /** Working directory for trace exports and the serve store. */
    std::string outDir = ".";
    /**
     * Monotonic-clock time (seconds) at which the caller spawned this
     * process; setup time is measured from it. Negative: from main().
     */
    double spawnTime = -1.0;
    /** Stop right after set-up and report only setup_s. */
    bool setupOnly = false;
    /** Print this size's figure digests instead of checking them. */
    bool recordGoldens = false;

    const char *sizeName() const { return tiny ? "tiny" : "full"; }
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, Metric>> metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics.emplace_back(name, Metric{value, unit});
    }

    /** Count one operation; a failed one also clears `correct`. */
    void
    count(bool ok)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            correct = false;
        }
    }
};

/** Milliseconds elapsed since @p start. */
inline double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Seconds from the process spawn (or main()) to now. */
double setupSeconds(const Options &options);

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/** 64-bit FNV-1a digest of @p text as 16 hex digits. */
std::string digest(std::string_view text);

/** One rendered figure, keyed as in goldens.txt ("figure5/compress"). */
struct FigureText
{
    std::string key;
    std::string text;
};

/**
 * The committed figure digests of one input size. A figure fails when
 * its digest differs or has no golden at all.
 */
class Goldens
{
  public:
    Goldens() = default;
    /** Load the entries of @p size from @p path; throws when unreadable. */
    Goldens(const std::string &path, const std::string &size);

    bool matches(const FigureText &figure) const;

    /** True when every figure matches. */
    bool matchesAll(const std::vector<FigureText> &figures) const;

  private:
    std::map<std::string, std::string> digests_;
};

/**
 * Move the calling thread onto the next allowed CPU in turn, then widen
 * its affinity back to every allowed CPU. The thread keeps running where
 * it was placed and threads it spawns may use every CPU, so successive
 * figure calls start on successive cores and a pass does not depend on
 * the one core the scheduler happened to pick for the process.
 */
void placeOnNextCpu();

/** Linear-interpolated quantile (q in [0,1]) of @p samples; 0 if empty. */
double quantile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/** Write @p spans as Chrome trace events to @p path (best effort). */
void writeTraceEvents(const std::string &path,
                      const std::vector<autofsm::obs::SpanRecord> &spans);

/** One cold Figure 5 pass: mean custom-diff miss rate at 12 entries, %. */
double fig5CustomDiffMissPct(const Options &options);

/** One cold Figure 2 pass: mean best FSM coverage at >= 80% accuracy, %. */
double fig2FsmCov80Pct(const Options &options);

Result runFig5Branch(const Options &options, const Goldens &goldens);
Result runFig2Value(const Options &options, const Goldens &goldens);
Result runServeMixed(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
