/**
 * @file
 * Driver for the Figure 2 experiment: value-prediction confidence,
 * accuracy vs coverage, SUD counter sweep against cross-trained custom
 * FSM curves for history lengths 2-10.
 */

#ifndef AUTOFSM_SIM_FIGURE2_HH
#define AUTOFSM_SIM_FIGURE2_HH

#include <string>
#include <vector>

#include "vpred/conf_sim.hh"

namespace autofsm
{

/** One accuracy/coverage point. */
struct ParetoPoint
{
    double accuracy = 0.0;
    double coverage = 0.0;
    std::string label;
};

/** One labelled series of points (e.g. "custom w/ hist=4"). */
struct ParetoSeries
{
    std::string label;
    std::vector<ParetoPoint> points;
};

/** Figure 2 panel for one benchmark. */
struct Fig2Benchmark
{
    std::string name;
    /** Scatter of saturating up/down counter configurations. */
    std::vector<ParetoPoint> sudPoints;
    /** One curve per FSM history length, swept over the threshold. */
    std::vector<ParetoSeries> fsmCurves;
};

/** Experiment knobs. */
struct Fig2Options
{
    /** Dynamic loads simulated per benchmark run. */
    size_t loadsPerBenchmark = 200000;
    /** FSM history lengths (the paper plots 2, 4, 6, 8, 10). */
    std::vector<int> histories = {2, 4, 6, 8, 10};
    /** Predict-1 thresholds swept to trace each FSM curve. */
    std::vector<double> thresholds = {0.50, 0.60, 0.70, 0.80,
                                      0.90, 0.95, 0.98};
    /** SUD sweep: paper's max values, decrements and thresholds. */
    std::vector<int> sudMax = {5, 10, 20, 40};
    /** Decrements; -1 encodes "full" (reset). */
    std::vector<int> sudDecrement = {1, 2, 5, 10, -1};
    std::vector<double> sudThresholdFrac = {0.5, 0.8, 0.9};
    StrideConfig stride;
};

/**
 * Run the Figure 2 experiment for @p benchmark (one of
 * valueBenchmarkNames()). FSM estimators are cross-trained: the Markov
 * models aggregate every *other* benchmark's per-entry correctness
 * streams, never the reported benchmark's own (see
 * leaveOneOutConfidenceModels).
 */
Fig2Benchmark runFigure2(const std::string &benchmark,
                         const Fig2Options &options = {});

/**
 * Section 6.3's leave-one-out training set for @p benchmark: for each
 * order in @p orders, the MarkovModel::merge of the per-entry
 * correctness models (collectConfidenceModels) of every *other* value
 * benchmark's two-delta stride stream of @p loadsPerBenchmark loads
 * under @p stride. The counts are those of collecting the four streams
 * into one model.
 *
 * Each benchmark's models are collected once per process and memoized,
 * keyed by benchmark, loads, every StrideConfig field and order: a
 * five-benchmark suite builds five streams for training, not twenty.
 * Only models are kept, never traces or streams. The memo is
 * thread-safe (concurrent callers of one key wait on one build), never
 * caches a failure, and is emptied by clearBranchTraceCache()
 * (workloads/trace_cache.hh) so cleared passes start cold.
 *
 * @param own @p benchmark's own stream under the same loads and
 *        stride, or null. When given, @p benchmark's memo entries are
 *        filled from it, so a later call for another benchmark does not
 *        build that stream again.
 * @throws std::invalid_argument for a name outside
 *         valueBenchmarkNames(), an order outside [1, 24] or a stride
 *         geometry the predictor rejects.
 */
std::vector<MarkovModel>
leaveOneOutConfidenceModels(const std::string &benchmark,
                            size_t loadsPerBenchmark,
                            const StrideConfig &stride,
                            const std::vector<int> &orders,
                            const CorrectnessStream *own = nullptr);

/** Run all five benchmarks. */
std::vector<Fig2Benchmark> runFigure2All(const Fig2Options &options = {});

} // namespace autofsm

#endif // AUTOFSM_SIM_FIGURE2_HH
