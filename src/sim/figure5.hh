/**
 * @file
 * Driver for the Figure 5 experiment: misprediction rate vs estimated
 * area for the XScale baseline, gshare, the local/global chooser and
 * the customized architecture (custom-same and custom-diff curves).
 */

#ifndef AUTOFSM_SIM_FIGURE5_HH
#define AUTOFSM_SIM_FIGURE5_HH

#include <string>
#include <vector>

#include "bpred/trainer.hh"
#include "trace/packed_trace.hh"

namespace autofsm
{

/** One (area, misprediction-rate) point. */
struct AreaMissPoint
{
    double area = 0.0;
    double missRate = 0.0;
    std::string label;
};

/** One labelled predictor family curve. */
struct AreaMissSeries
{
    std::string label;
    std::vector<AreaMissPoint> points;
};

/** Figure 5 panel for one benchmark. */
struct Fig5Benchmark
{
    std::string name;
    AreaMissPoint xscale;
    AreaMissSeries gshare;
    AreaMissSeries lgc;
    AreaMissSeries customSame;
    AreaMissSeries customDiff;
    /** The trained branches backing the custom curves; Fig5Report
     *  renders their states and stage timings. */
    std::vector<TrainedBranch> trained;
};

/** Experiment knobs. */
struct Fig5Options
{
    /** Dynamic branches simulated per run. */
    size_t branchesPerRun = 400000;
    /** gshare table sizes (log2 counters). */
    std::vector<int> gshareLog2 = {8, 10, 12, 14, 16};
    /** LGC sizes (log2 entries per structure). */
    std::vector<int> lgcLog2 = {8, 10, 12, 13};
    /** Custom-curve training knobs (history 9, as in the paper). */
    CustomTrainingOptions training;
    /**
     * Worker threads runFigure5All uses to fan benchmarks out
     * (0 = one per hardware core). Per-benchmark results are independent
     * and collected in name order, so output is thread-count invariant.
     */
    unsigned threads = 0;
    /**
     * Worker threads for the intra-benchmark sweep (independent sweep
     * points and custom-machine replays; 0 = one per hardware core).
     * Results are bit-identical for any value. runFigure5All pins this
     * to 1 so benchmark- and sweep-level parallelism don't multiply.
     */
    unsigned sweepThreads = 0;
    /**
     * Trace shards for the custom-machine replays (the bit-sliced
     * engine's sharded evaluation; 0 = auto from sweepThreads,
     * 1 = unsharded). Tallies are bit-identical for any value.
     */
    size_t replayShards = 0;
};

/**
 * Run the Figure 5 experiment for one benchmark of
 * branchBenchmarkNames(). Custom FSMs are trained on the Train input;
 * custom-diff evaluates them on the Test input, custom-same on the
 * Train input itself.
 */
Fig5Benchmark runFigure5(const std::string &benchmark,
                         const Fig5Options &options = {});

/**
 * Evaluation half of runFigure5 (everything but trace acquisition and
 * FSM training): replay the sweep and the custom curves for already-
 * trained machines over the given traces via the sweep engine
 * (sim/sweep.hh). Exposed so benches can time the sweep in isolation;
 * `result.trained` is copied from @p trained.
 *
 * When @p train_profile carries a valid baseline profile of @p train
 * (from trainCustomPredictors over the same trace and BTB config), the
 * custom-same curve reuses the training pass's tallies and branch
 * positions instead of re-simulating the baseline BTB; the output is
 * bit-identical either way.
 */
Fig5Benchmark evaluateFigure5(const std::string &benchmark,
                              const PackedTrace &train,
                              const PackedTrace &test,
                              const std::vector<TrainedBranch> &trained,
                              const Fig5Options &options = {},
                              const BaselineBtbProfile *train_profile =
                                  nullptr);

/** Run all six benchmarks. */
std::vector<Fig5Benchmark> runFigure5All(const Fig5Options &options = {});

} // namespace autofsm

#endif // AUTOFSM_SIM_FIGURE5_HH
