#include "sim/figure5.hh"

#include <algorithm>
#include <memory>

#include "bpred/custom.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "sim/sweep.hh"
#include "support/thread_pool.hh"
#include "synth/area.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{

namespace
{

/**
 * Evaluate one sweep point: replay @p trace through @p predictor's
 * fused step, publish the run and time it as one sweep point.
 */
template <class P>
AreaMissPoint
sweepPoint(P &predictor, const PackedTrace &trace)
{
    SweepPointTimer timer;
    const BpredSimResult run = sweepKernelRaw(predictor, trace);
    publishBpredRun(predictor.name(), run);
    return {predictor.area(), run.missRate(), predictor.name()};
}

/**
 * Assemble a custom curve from one transposed replay's counts. Custom
 * entries are independent of the BTB and of each other (they only read
 * the global outcome stream), so per-machine replays yield every
 * k-entry configuration: the k-entry design's mispredictions are the
 * baseline's, minus the savings of the first k machines.
 */
AreaMissSeries
customSeries(const std::vector<TrainedBranch> &trained,
             const CustomReplayCounts &counts, size_t trace_size,
             const std::string &label, const AreaCosts &costs)
{
    const double total = static_cast<double>(trace_size ? trace_size : 1);
    const CustomEntryConfig entry_config;

    AreaMissSeries series;
    series.label = label;
    double area = counts.btbArea;
    uint64_t misses = counts.btbMissesTotal;
    for (size_t k = 0; k < trained.size(); ++k) {
        // Adding machine k replaces the BTB's prediction for its branch.
        misses -= counts.btbMisses[k];
        misses += counts.fsmMisses[k];
        // trained[k].fsmArea holds the training-time synthesis estimate
        // (default AreaCosts, which is what this experiment uses too).
        area += entry_config.tagBits * costs.camBit +
            entry_config.targetBits * costs.sramBit +
            trained[k].fsmArea.area;
        series.points.push_back(
            {area, static_cast<double>(misses) / total,
             std::to_string(k + 1) + " fsm"});
    }
    return series;
}

} // anonymous namespace

Fig5Benchmark
evaluateFigure5(const std::string &benchmark, const PackedTrace &train,
                const PackedTrace &test,
                const std::vector<TrainedBranch> &trained,
                const Fig5Options &options,
                const BaselineBtbProfile *train_profile)
{
    const AreaCosts costs;
    Fig5Benchmark result;
    result.name = benchmark;
    result.trained = trained;

    const size_t num_gshare = options.gshareLog2.size();
    const size_t num_lgc = options.lgcLog2.size();
    result.gshare.label = "gshare";
    result.gshare.points.resize(num_gshare);
    result.lgc.label = "lgc";
    result.lgc.points.resize(num_lgc);

    auto gshare_config = [&](size_t i) {
        GshareConfig config;
        config.log2Entries = options.gshareLog2[i];
        config.historyBits = std::min(options.gshareLog2[i], 16);
        return config;
    };
    auto lgc_config = [&](size_t i) {
        LgcConfig config;
        config.log2Entries = options.lgcLog2[i];
        return config;
    };

    const unsigned sweep_threads = options.sweepThreads
        ? options.sweepThreads
        : ThreadPool::defaultThreadCount();

    std::vector<CustomSweepMachine> machines;
    machines.reserve(trained.size());
    for (const auto &branch : trained)
        machines.push_back({branch.pc, &branch.design.fsm});

    // The custom-diff baseline and the XScale sweep point are the same
    // BTB config chained over the same test trace, so one replay serves
    // both: the point is read off the counts, and the run/BTB telemetry
    // the dedicated point simulation would have published is exported
    // from the same tallies.
    const CustomReplayCounts diff_counts =
        replayCustomMachines(machines, test,
                             options.training.baseline, costs,
                             sweep_threads, options.replayShards);
    {
        BpredSimResult r;
        r.branches = test.size();
        r.mispredicts = diff_counts.btbMissesTotal;
        publishBpredRun(diff_counts.btbName, r);
        publishBtbMetrics(diff_counts.btbName, diff_counts.btbLookups,
                          diff_counts.btbHits);
        result.xscale = {diff_counts.btbArea, r.missRate(),
                         diff_counts.btbName};
    }

    // One shared-pool task per gshare and LGC sweep point. The points
    // share nothing but the read-only test trace and each writes its
    // own slot, so serial (sweep_threads == 1) and parallel runs give
    // bit-identical curves.
    parallelFor(
        num_gshare + num_lgc,
        [&](size_t i) {
            if (i < num_gshare) {
                Gshare predictor(gshare_config(i), costs);
                result.gshare.points[i] = sweepPoint(predictor, test);
            } else {
                LocalGlobalChooser predictor(lgc_config(i - num_gshare),
                                             costs);
                result.lgc.points[i - num_gshare] =
                    sweepPoint(predictor, test);
            }
        },
        sweep_threads);

    // Custom curves: machines were trained on the Train input only. The
    // training pass already simulated the baseline over the train trace
    // and recorded each branch's positions, so when the caller hands
    // that profile over, the custom-same replay skips its BTB pass.
    CustomReplayCounts same_counts;
    if (train_profile && train_profile->valid) {
        CustomBaselineProfile baseline;
        baseline.btbMissesTotal = train_profile->mispredicts;
        baseline.btbLookups = train_profile->lookups;
        baseline.btbHits = train_profile->hits;
        baseline.btbArea = train_profile->area;
        baseline.btbName = train_profile->name;
        baseline.btbMisses.reserve(trained.size());
        baseline.positions.reserve(trained.size());
        for (const auto &branch : trained) {
            baseline.btbMisses.push_back(branch.baselineMisses);
            baseline.positions.push_back(&branch.trainPositions);
        }
        same_counts = replayCustomMachines(machines, train,
                                           baseline, sweep_threads,
                                           options.replayShards);
    } else {
        same_counts = replayCustomMachines(machines, train,
                                           options.training.baseline,
                                           costs, sweep_threads,
                                           options.replayShards);
    }
    result.customSame = customSeries(trained, same_counts,
                                     train.size(), "custom-same",
                                     costs);
    result.customDiff = customSeries(trained, diff_counts,
                                     test.size(), "custom-diff",
                                     costs);
    return result;
}

Fig5Benchmark
runFigure5(const std::string &benchmark, const Fig5Options &options)
{
    const std::shared_ptr<const PackedTrace> train = cachedBranchTrace(
        benchmark, WorkloadInput::Train, options.branchesPerRun);
    const std::shared_ptr<const PackedTrace> test = cachedBranchTrace(
        benchmark, WorkloadInput::Test, options.branchesPerRun);

    BaselineBtbProfile profile;
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(*train, options.training, &profile);
    return evaluateFigure5(benchmark, *train, *test, trained, options,
                           &profile);
}

std::vector<Fig5Benchmark>
runFigure5All(const Fig5Options &options)
{
    const std::vector<std::string> names = branchBenchmarkNames();
    std::vector<Fig5Benchmark> all(names.size());
    // One benchmark per task; the per-branch design fan-out and the
    // sweep inside each benchmark stay serial to avoid nested
    // oversubscription.
    Fig5Options per_benchmark = options;
    per_benchmark.training.threads = 1;
    per_benchmark.sweepThreads = 1;
    parallelFor(
        names.size(),
        [&](size_t i) { all[i] = runFigure5(names[i], per_benchmark); },
        options.threads);
    return all;
}

} // namespace autofsm
