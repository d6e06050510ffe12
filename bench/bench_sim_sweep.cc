/**
 * @file
 * Benchmarks the single-pass sweep engine (sim/sweep.hh) against the
 * seed's evaluation shape for Figure 5: per-point virtual
 * simulateBranchPredictor sweeps and the all-machines-per-record
 * custom curve, traces rebuilt per run as the seed did. Both paths use
 * the same packed predictor classes; the serial side reaches them
 * through virtual predict/update, record by record, so the speedup
 * measures the engine's loop structure (fused steps, one pool task per
 * sweep point, transposed replay), not a change of predictor or trace
 * layout.
 * Both paths share one untimed training pass; the engine path draws
 * its traces from the process-wide cache. Results must be
 * bit-identical or the bench aborts.
 *
 * Usage: bench_sim_sweep [branches_per_run] [json_out]
 *   branches_per_run  dynamic branches per trace (default 400000)
 *   json_out          wall-clock report path (default BENCH_sim.json)
 * --repeat=N times each path N times and reports the median run.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/custom.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/simulate.hh"
#include "bpred/trainer.hh"
#include "fsmgen/predictor_fsm.hh"
#include "sim/figure5.hh"
#include "support/json.hh"
#include "synth/area.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

/** The seed's customCurve: every machine stepped on every record. */
AreaMissSeries
seedCustomCurve(const std::vector<TrainedBranch> &trained,
                const PackedTrace &trace, const BtbConfig &btb_config,
                const std::string &label, const AreaCosts &costs)
{
    XScaleBtb btb(btb_config, costs);
    std::vector<PredictorFsm> machines;
    std::unordered_map<uint64_t, size_t> machine_of;
    machines.reserve(trained.size());
    for (size_t i = 0; i < trained.size(); ++i) {
        machines.emplace_back(trained[i].design.fsm);
        machine_of.emplace(trained[i].pc, i);
    }

    uint64_t btb_misses_total = 0;
    std::vector<uint64_t> btb_misses(trained.size(), 0);
    std::vector<uint64_t> fsm_misses(trained.size(), 0);

    for (const auto &record : trace) {
        const bool btb_wrong = btb.predict(record.pc) != record.taken;
        btb_misses_total += btb_wrong;

        const auto it = machine_of.find(record.pc);
        if (it != machine_of.end()) {
            btb_misses[it->second] += btb_wrong;
            const bool fsm_pred = machines[it->second].predict() != 0;
            fsm_misses[it->second] += fsm_pred != record.taken;
        }

        btb.update(record.pc, record.taken);
        for (auto &machine : machines)
            machine.update(record.taken ? 1 : 0);
    }
    publishBtbMetrics(btb.name(), btb.lookups(), btb.hits());

    const double total =
        static_cast<double>(trace.size() ? trace.size() : 1);
    const CustomEntryConfig entry_config;

    AreaMissSeries series;
    series.label = label;
    double area = btb.area();
    uint64_t misses = btb_misses_total;
    for (size_t k = 0; k < trained.size(); ++k) {
        misses -= btb_misses[k];
        misses += fsm_misses[k];
        area += entry_config.tagBits * costs.camBit +
            entry_config.targetBits * costs.sramBit +
            estimateFsmArea(trained[k].design.fsm, costs).area;
        series.points.push_back(
            {area, static_cast<double>(misses) / total,
             std::to_string(k + 1) + " fsm"});
    }
    return series;
}

/** The seed's evaluation: traces rebuilt, one virtual run per point. */
Fig5Benchmark
seedEvaluate(const std::string &benchmark,
             const std::vector<TrainedBranch> &trained,
             const Fig5Options &options)
{
    const AreaCosts costs;
    Fig5Benchmark result;
    result.name = benchmark;
    result.trained = trained;

    const PackedTrace train = makeBranchTrace(
        benchmark, WorkloadInput::Train, options.branchesPerRun);
    const PackedTrace test = makeBranchTrace(
        benchmark, WorkloadInput::Test, options.branchesPerRun);

    {
        XScaleBtb btb(options.training.baseline, costs);
        const BpredSimResult r = simulateBranchPredictor(btb, test);
        publishBtbMetrics(btb.name(), btb.lookups(), btb.hits());
        result.xscale = {btb.area(), r.missRate(), btb.name()};
    }

    result.gshare.label = "gshare";
    for (int log2 : options.gshareLog2) {
        GshareConfig config;
        config.log2Entries = log2;
        config.historyBits = std::min(log2, 16);
        Gshare predictor(config, costs);
        const BpredSimResult r = simulateBranchPredictor(predictor, test);
        result.gshare.points.push_back(
            {predictor.area(), r.missRate(), predictor.name()});
    }

    result.lgc.label = "lgc";
    for (int log2 : options.lgcLog2) {
        LgcConfig config;
        config.log2Entries = log2;
        LocalGlobalChooser predictor(config, costs);
        const BpredSimResult r = simulateBranchPredictor(predictor, test);
        result.lgc.points.push_back(
            {predictor.area(), r.missRate(), predictor.name()});
    }

    result.customSame = seedCustomCurve(trained, train,
                                        options.training.baseline,
                                        "custom-same", costs);
    result.customDiff = seedCustomCurve(trained, test,
                                        options.training.baseline,
                                        "custom-diff", costs);
    return result;
}

bool
pointsIdentical(const AreaMissPoint &a, const AreaMissPoint &b)
{
    return a.area == b.area && a.missRate == b.missRate &&
        a.label == b.label;
}

bool
seriesIdentical(const AreaMissSeries &a, const AreaMissSeries &b)
{
    return a.label == b.label && a.points.size() == b.points.size() &&
        std::equal(a.points.begin(), a.points.end(), b.points.begin(),
                   pointsIdentical);
}

bool
resultsIdentical(const Fig5Benchmark &a, const Fig5Benchmark &b)
{
    return pointsIdentical(a.xscale, b.xscale) &&
        seriesIdentical(a.gshare, b.gshare) &&
        seriesIdentical(a.lgc, b.lgc) &&
        seriesIdentical(a.customSame, b.customSame) &&
        seriesIdentical(a.customDiff, b.customDiff);
}

struct BenchmarkTiming
{
    std::string name;
    double serialMs = 0.0;
    double sweepMs = 0.0;

    double
    speedup() const
    {
        return sweepMs > 0.0 ? serialMs / sweepMs : 0.0;
    }
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(
        argc, argv, "[branches_per_run] [json_out]");
    Fig5Options options;
    options.branchesPerRun = static_cast<size_t>(
        args.positionalOr(0, static_cast<long>(options.branchesPerRun)));
    const std::string json_out = args.positionalOr(1, "BENCH_sim.json");
    if (args.threadsSet)
        options.sweepThreads = args.threads;

    std::cout << "Sweep-engine benchmark: seed serial path vs "
                 "sim/sweep.hh\nbranches per run: "
              << options.branchesPerRun << "\n\n";
    std::cout << std::setw(10) << "bench" << std::setw(14) << "serial_ms"
              << std::setw(14) << "sweep_ms" << std::setw(10) << "speedup"
              << "\n";

    std::vector<BenchmarkTiming> timings;
    for (const std::string &name : branchBenchmarkNames()) {
        // Train once, untimed: both paths replay the same machines, and
        // this warms the trace cache exactly as a prior design-flow
        // stage would have.
        const auto train = cachedBranchTrace(name, WorkloadInput::Train,
                                             options.branchesPerRun);
        cachedBranchTrace(name, WorkloadInput::Test, options.branchesPerRun);
        Fig5Options train_options = options;
        train_options.training.threads = 1;
        BaselineBtbProfile profile;
        const std::vector<TrainedBranch> trained =
            trainCustomPredictors(*train, train_options.training,
                                  &profile);

        BenchmarkTiming timing;
        timing.name = name;

        // Both paths are pure functions of the traces and the trained
        // machines, so --repeat=N re-runs them unchanged and the upper
        // median drops cold-cache noise.
        Fig5Benchmark serial;
        timing.serialMs = bench::medianRunMillis(args, [&] {
            serial = seedEvaluate(name, trained, options);
        });

        Fig5Benchmark sweep;
        timing.sweepMs = bench::medianRunMillis(args, [&] {
            const auto sweep_train = cachedBranchTrace(
                name, WorkloadInput::Train, options.branchesPerRun);
            const auto sweep_test = cachedBranchTrace(
                name, WorkloadInput::Test, options.branchesPerRun);
            sweep = evaluateFigure5(name, *sweep_train, *sweep_test,
                                    trained, options, &profile);
        });

        if (!resultsIdentical(serial, sweep)) {
            std::cerr << "FATAL: sweep-engine results diverge from the "
                         "serial path on '"
                      << name << "'\n";
            return 1;
        }

        std::cout << std::setw(10) << name << std::fixed
                  << std::setprecision(2) << std::setw(14)
                  << timing.serialMs << std::setw(14) << timing.sweepMs
                  << std::setw(10) << timing.speedup() << "\n";
        std::cout.flush();
        timings.push_back(timing);
    }

    double serial_total = 0.0, sweep_total = 0.0;
    for (const auto &timing : timings) {
        serial_total += timing.serialMs;
        sweep_total += timing.sweepMs;
    }
    const double overall =
        sweep_total > 0.0 ? serial_total / sweep_total : 0.0;
    const BranchTraceCacheStats cache = branchTraceCacheStats();

    std::cout << "\noverall: serial " << std::fixed
              << std::setprecision(2) << serial_total << " ms, sweep "
              << sweep_total << " ms, speedup " << overall << "x\n";
    std::cout << "trace cache: " << cache.hits << " hits, "
              << cache.misses << " misses, " << cache.entries
              << " entries\n";

    std::ofstream out(json_out);
    if (!out) {
        std::cerr << "cannot write " << json_out << "\n";
        return 1;
    }
    JsonWriter json(out);
    json.beginObject();
    json.key("bench").value("sim_sweep");
    json.key("branches_per_run")
        .value(static_cast<uint64_t>(options.branchesPerRun));
    json.key("benchmarks").beginArray();
    for (const auto &timing : timings) {
        json.beginObject();
        json.key("name").value(timing.name);
        json.key("serial_ms").value(timing.serialMs);
        json.key("sweep_ms").value(timing.sweepMs);
        json.key("speedup").value(timing.speedup());
        json.endObject();
    }
    json.endArray();
    json.key("serial_ms_total").value(serial_total);
    json.key("sweep_ms_total").value(sweep_total);
    json.key("speedup").value(overall);
    json.key("trace_cache_hits").value(cache.hits);
    json.key("trace_cache_misses").value(cache.misses);
    json.endObject();
    out << "\n";
    std::cout << "wrote " << json_out << "\n";

    bench::exportMetricsIfRequested(args);
    return 0;
}
