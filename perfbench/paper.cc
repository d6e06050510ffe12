/**
 * @file
 * The paper workloads: cold Figure 5 + Figure 4 passes (fig5-branch) and
 * cold Figure 2 passes (fig2-value).
 *
 * Untraced runs call the sim/figure*.hh figure functions. Traced runs
 * replay their public calls in the same order, one span per call into a
 * layer, and must render byte-identical figure text; each traced pass is
 * paired with an untraced one so the tracing overhead is measured in the
 * same process.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "bpred/trainer.hh"
#include "flow/batch.hh"
#include "flow/design_memo.hh"
#include "harness.hh"
#include "sim/figure2.hh"
#include "sim/figure4.hh"
#include "sim/figure5.hh"
#include "sim/packed_trace.hh"
#include "sim/report.hh"
#include "support/rng.hh"
#include "vpred/conf_sim.hh"
#include "workloads/trace_cache.hh"
#include "workloads/value_workloads.hh"

namespace perfbench
{

using namespace autofsm;

namespace
{

size_t
branchesPerRun(const Options &options)
{
    return options.tiny ? 20000 : 400000;
}

size_t
loadsPerBenchmark(const Options &options)
{
    return options.tiny ? 10000 : 200000;
}

/**
 * Per-layer time of one traced pass: each call into a layer runs inside
 * an obs span named after the layer, and the span's measured duration is
 * summed under that name.
 */
class LayerClock
{
  public:
    explicit LayerClock(autofsm::obs::Tracer *tracer) : tracer_(tracer) {}

    template <typename Fn>
    decltype(auto)
    run(const char *layer, Fn &&fn)
    {
        autofsm::obs::SpanScope span(tracer_, layer);
        if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
            fn();
            millis_[layer] += span.finishMillis();
        } else {
            auto result = fn();
            millis_[layer] += span.finishMillis();
            return result;
        }
    }

    /** Summed span time of @p layer (0 when it never ran). */
    double
    millis(const std::string &layer) const
    {
        const auto it = millis_.find(layer);
        return it == millis_.end() ? 0.0 : it->second;
    }

    /** Summed span time of every layer. */
    double
    totalMillis() const
    {
        double total = 0.0;
        for (const auto &[layer, millis] : millis_)
            total += millis;
        return total;
    }

  private:
    autofsm::obs::Tracer *tracer_;
    std::map<std::string, double> millis_;
};

/** Every pass is cold: users pay trace, packing and design on each run. */
void
resetCaches()
{
    clearBranchTraceCache();
    clearPackedTraceCache();
    clearDesignMemo();
}

/** One pass: its wall clock, per-figure-call latencies and figures. */
struct Pass
{
    double wallMillis = 0.0;
    std::vector<double> callMillis;
    std::vector<FigureText> figures;
    /** The workload's quality statistic over this pass. */
    double quality = 0.0;
};

/** Counts the traced replicas gather next to the layer clock. */
struct LayerCounts
{
    uint64_t machines = 0;
    uint64_t batchItems = 0;
    uint64_t batchDedup = 0;
    double subsetMillis = 0.0;
    uint64_t simRecords = 0;
    uint64_t vpredLoads = 0;
    uint64_t traceLookups = 0;
    uint64_t traceHits = 0;
    uint64_t memoLookups = 0;
    uint64_t memoHits = 0;

    void
    addFlow(const FlowResult &flow)
    {
        ++machines;
        if (const StageRecord *subset = flow.trace.find(FlowStage::Subset))
            subsetMillis += subset->millis;
    }

    void
    addBatch(const BatchDesigner &designer,
             const std::vector<BatchItemResult> &items)
    {
        batchItems += designer.stats().items;
        batchDedup += designer.stats().cacheHits;
        for (const BatchItemResult &item : items) {
            if (!item.ok)
                throw std::runtime_error("design failed: " + item.error);
            addFlow(item.flow);
        }
    }

    /** Read the trace cache and design memo tallies (reset per pass). */
    void
    readCacheStats()
    {
        const BranchTraceCacheStats traces = branchTraceCacheStats();
        traceLookups = traces.hits + traces.misses;
        traceHits = traces.hits;
        const DesignMemoStats memo = designMemoStats();
        memoLookups = memo.hits + memo.misses;
        memoHits = memo.hits;
    }
};

double
ratio(uint64_t part, uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

// --- Figure 5 + Figure 4 ----------------------------------------------------

double
customDiffMissPct(const std::vector<Fig5Benchmark> &all)
{
    double sum = 0.0;
    for (const Fig5Benchmark &benchmark : all) {
        const auto &points = benchmark.customDiff.points;
        if (!points.empty())
            sum += points[std::min<size_t>(11, points.size() - 1)].missRate;
    }
    return all.empty() ? 0.0 : 100.0 * sum / static_cast<double>(all.size());
}

Pass
finishFig5Pass(Pass pass, std::vector<Fig5Benchmark> fig5, Fig4Result fig4)
{
    pass.quality = customDiffMissPct(fig5);
    for (Fig5Benchmark &benchmark : fig5) {
        const std::string key = "figure5/" + benchmark.name;
        pass.figures.push_back({key, Fig5Report(std::move(benchmark)).toText()});
    }
    pass.figures.push_back({"figure4", Fig4Report(std::move(fig4)).toText()});
    return pass;
}

Pass
fig5Pass(const Options &options)
{
    resetCaches();
    Fig5Options fig5_options;
    fig5_options.branchesPerRun = branchesPerRun(options);
    Fig4Options fig4_options;
    fig4_options.branchesPerRun = branchesPerRun(options);

    Pass pass;
    std::vector<Fig5Benchmark> fig5;
    const auto start = Clock::now();
    for (const std::string &name : branchBenchmarkNames()) {
        placeOnNextCpu();
        const auto call = Clock::now();
        fig5.push_back(runFigure5(name, fig5_options));
        pass.callMillis.push_back(millisSince(call));
    }
    placeOnNextCpu();
    const auto call = Clock::now();
    Fig4Result fig4 = runFigure4(fig4_options);
    pass.callMillis.push_back(millisSince(call));
    pass.wallMillis = millisSince(start);
    return finishFig5Pass(std::move(pass), std::move(fig5), std::move(fig4));
}

/** runFigure5's calls (trainCustomPredictors unrolled), one span each. */
Fig5Benchmark
tracedFigure5(const std::string &name, const Fig5Options &options,
              LayerClock &clock, LayerCounts &counts)
{
    const auto train = clock.run("workloads.trace", [&] {
        return cachedBranchTrace(name, WorkloadInput::Train,
                                 options.branchesPerRun);
    });
    const auto test = clock.run("workloads.trace", [&] {
        return cachedBranchTrace(name, WorkloadInput::Test,
                                 options.branchesPerRun);
    });

    BaselineBtbProfile profile;
    std::vector<BranchModel> candidates = clock.run("bpred.profile", [&] {
        return collectBranchModels(*train, options.training, &profile);
    });

    FsmDesignOptions design;
    design.order = options.training.historyLength;
    design.patterns = options.training.patterns;
    design.minimizer = options.training.minimizer;
    std::vector<MarkovModel> models;
    models.reserve(candidates.size());
    for (const BranchModel &candidate : candidates)
        models.push_back(candidate.model);
    BatchOptions batch_options;
    batch_options.threads = options.training.threads;
    BatchDesigner designer(design, batch_options);
    std::vector<BatchItemResult> designed =
        clock.run("flow.design", [&] { return designer.designAll(models); });
    counts.addBatch(designer, designed);

    const std::vector<AreaEstimate> areas = clock.run("synth.area", [&] {
        std::vector<AreaEstimate> out;
        for (const BatchItemResult &item : designed)
            out.push_back(estimateFsmArea(item.flow.design.fsm));
        return out;
    });

    std::vector<TrainedBranch> trained;
    trained.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        TrainedBranch branch;
        branch.pc = candidates[i].pc;
        branch.baselineMisses = candidates[i].baselineMisses;
        branch.design = std::move(designed[i].flow.design);
        branch.trace = std::move(designed[i].flow.trace);
        branch.fsmArea = areas[i];
        branch.trainPositions = std::move(candidates[i].positions);
        trained.push_back(std::move(branch));
    }

    const auto packed_train =
        clock.run("sim.pack", [&] { return cachedPackedTrace(train); });
    const auto packed_test =
        clock.run("sim.pack", [&] { return cachedPackedTrace(test); });
    counts.simRecords += packed_train->size() + packed_test->size();
    return clock.run("sim.evaluate", [&] {
        return evaluateFigure5(name, *packed_train, *packed_test, trained,
                               options, &profile);
    });
}

/**
 * runFigure4's calls, one span each. runFigure4 fans the six benchmarks
 * out across cores; the replica runs them in order on this thread so
 * the spans tile the pass (the output is thread-count invariant).
 */
Fig4Result
tracedFigure4(const Fig4Options &options, LayerClock &clock,
              LayerCounts &counts)
{
    const std::vector<std::string> names = branchBenchmarkNames();
    std::vector<std::vector<AreaEstimate>> sampled(names.size());
    for (size_t b = 0; b < names.size(); ++b) {
        Rng rng(options.seed +
                0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(b + 1));
        const auto trace = clock.run("workloads.trace", [&] {
            return cachedBranchTrace(names[b], WorkloadInput::Train,
                                     options.branchesPerRun);
        });
        CustomTrainingOptions training;
        training.historyLength = options.historyLength;
        training.maxCustomBranches = options.fsmsPerBenchmark;
        training.threads = 1;
        const std::vector<BranchModel> candidates =
            clock.run("bpred.profile", [&] {
                return collectBranchModels(*trace, training);
            });

        FsmDesignOptions design;
        design.order = training.historyLength;
        design.patterns = training.patterns;
        design.minimizer = training.minimizer;
        std::vector<MarkovModel> models;
        for (const BranchModel &candidate : candidates)
            models.push_back(candidate.model);
        BatchOptions batch_options;
        batch_options.threads = training.threads;
        BatchDesigner designer(design, batch_options);
        const std::vector<BatchItemResult> designed = clock.run(
            "flow.design", [&] { return designer.designAll(models); });
        counts.addBatch(designer, designed);

        const std::vector<AreaEstimate> areas = clock.run("synth.area", [&] {
            std::vector<AreaEstimate> out;
            for (const BatchItemResult &item : designed)
                out.push_back(estimateFsmArea(item.flow.design.fsm));
            return out;
        });
        for (const AreaEstimate &area : areas) {
            if (rng.uniform() < options.sampleFraction)
                sampled[b].push_back(area);
        }
    }

    Fig4Result result;
    for (const auto &per_benchmark : sampled)
        result.samples.insert(result.samples.end(), per_benchmark.begin(),
                              per_benchmark.end());
    result.fit =
        clock.run("synth.area", [&] { return fitAreaLine(result.samples); });
    return result;
}

// --- Figure 2 ---------------------------------------------------------------

double
fsmCov80Pct(const std::vector<Fig2Benchmark> &all)
{
    double sum = 0.0;
    for (const Fig2Benchmark &benchmark : all) {
        double best = 0.0;
        for (const ParetoSeries &curve : benchmark.fsmCurves) {
            for (const ParetoPoint &point : curve.points) {
                if (point.accuracy >= 0.80)
                    best = std::max(best, point.coverage);
            }
        }
        sum += best;
    }
    return all.empty() ? 0.0 : 100.0 * sum / static_cast<double>(all.size());
}

Pass
finishFig2Pass(Pass pass, std::vector<Fig2Benchmark> fig2)
{
    pass.quality = fsmCov80Pct(fig2);
    for (Fig2Benchmark &benchmark : fig2) {
        const std::string key = "figure2/" + benchmark.name;
        pass.figures.push_back({key, Fig2Report(std::move(benchmark)).toText()});
    }
    return pass;
}

Pass
fig2Pass(const Options &options)
{
    resetCaches();
    Fig2Options fig2_options;
    fig2_options.loadsPerBenchmark = loadsPerBenchmark(options);

    Pass pass;
    std::vector<Fig2Benchmark> fig2;
    const auto start = Clock::now();
    for (const std::string &name : valueBenchmarkNames()) {
        placeOnNextCpu();
        const auto call = Clock::now();
        fig2.push_back(runFigure2(name, fig2_options));
        pass.callMillis.push_back(millisSince(call));
    }
    pass.wallMillis = millisSince(start);
    return finishFig2Pass(std::move(pass), std::move(fig2));
}

/** The threshold label runFigure2 gives each FSM curve point. */
std::string
formatPct(double frac)
{
    std::ostringstream out;
    out.precision(1);
    out << std::fixed << frac * 100.0 << "%";
    return out.str();
}

/** runFigure2's calls (designFsm as runDesignRequest), one span each. */
Fig2Benchmark
tracedFigure2(const std::string &name, const Fig2Options &options,
              LayerClock &clock, LayerCounts &counts)
{
    Fig2Benchmark result;
    result.name = name;
    const size_t entries = static_cast<size_t>(options.stride.entries);

    const ValueTrace own = clock.run("workloads.trace", [&] {
        return makeValueTrace(name, options.loadsPerBenchmark);
    });

    for (int max : options.sudMax) {
        for (int dec : options.sudDecrement) {
            for (double frac : options.sudThresholdFrac) {
                SudConfig config;
                config.max = max;
                config.increment = 1;
                config.decrement = dec < 0 ? max + 1 : dec;
                config.threshold =
                    std::max(1, static_cast<int>(frac * max + 0.5));
                SudConfidence estimator(entries, config);
                const ConfidenceResult r = clock.run("vpred.sud_sim", [&] {
                    return simulateConfidence(own, options.stride, estimator);
                });
                counts.vpredLoads += own.size();
                result.sudPoints.push_back(
                    {r.accuracy(), r.coverage(), estimator.name()});
            }
        }
    }

    std::vector<MarkovModel> models;
    models.reserve(options.histories.size());
    for (int order : options.histories)
        models.emplace_back(order);
    for (const std::string &other : valueBenchmarkNames()) {
        if (other == name)
            continue;
        const ValueTrace trace = clock.run("workloads.trace", [&] {
            return makeValueTrace(other, options.loadsPerBenchmark);
        });
        std::vector<MarkovModel *> pointers;
        for (MarkovModel &model : models)
            pointers.push_back(&model);
        clock.run("vpred.collect", [&] {
            collectConfidenceModels(trace, options.stride, pointers);
        });
        counts.vpredLoads += trace.size();
    }

    for (size_t i = 0; i < models.size(); ++i) {
        ParetoSeries series;
        series.label =
            "custom w/ hist=" + std::to_string(options.histories[i]);
        for (double threshold : options.thresholds) {
            const FlowResult designed = clock.run("flow.design", [&] {
                DesignRequest request;
                request.model = models[i];
                request.options.order = options.histories[i];
                request.options.patterns.threshold = threshold;
                request.options.patterns.dontCareMass = 0.01;
                return runDesignRequest(request);
            });
            counts.addFlow(designed);
            FsmConfidence estimator(entries, designed.design.fsm,
                                    series.label + " thr=" +
                                        formatPct(threshold));
            const ConfidenceResult r = clock.run("vpred.fsm_sim", [&] {
                return simulateConfidence(own, options.stride, estimator);
            });
            counts.vpredLoads += own.size();
            series.points.push_back({r.accuracy(), r.coverage(),
                                     "thr=" + formatPct(threshold)});
        }
        result.fsmCurves.push_back(std::move(series));
    }
    return result;
}

// --- shared workload runner ---------------------------------------------------

/** A traced pass: the figures plus its layer clock and counts. */
struct TracedPass
{
    Pass pass;
    LayerClock clock{&obs::globalTracer()};
    LayerCounts counts;
    std::vector<obs::SpanRecord> spans;
};

using TracedReplica = std::function<Pass(const Options &, LayerClock &,
                                         LayerCounts &)>;

TracedPass
runTracedPass(const Options &options, const std::string &workload,
              const TracedReplica &replica)
{
    obs::Tracer &tracer = obs::globalTracer();
    resetCaches();
    tracer.clear();
    tracer.enable(true);
    TracedPass traced;
    const auto start = Clock::now();
    {
        obs::SpanScope root(&tracer, "pass." + workload);
        traced.pass = replica(options, traced.clock, traced.counts);
    }
    traced.pass.wallMillis = millisSince(start);
    tracer.enable(false);
    traced.counts.readCacheStats();
    traced.spans = tracer.snapshot();
    tracer.clear();
    return traced;
}

Pass
fig5Replica(const Options &options, LayerClock &clock, LayerCounts &counts)
{
    Fig5Options fig5_options;
    fig5_options.branchesPerRun = branchesPerRun(options);
    Fig4Options fig4_options;
    fig4_options.branchesPerRun = branchesPerRun(options);
    Pass pass;
    std::vector<Fig5Benchmark> fig5;
    for (const std::string &name : branchBenchmarkNames()) {
        placeOnNextCpu();
        fig5.push_back(tracedFigure5(name, fig5_options, clock, counts));
    }
    placeOnNextCpu();
    Fig4Result fig4 = tracedFigure4(fig4_options, clock, counts);
    return finishFig5Pass(std::move(pass), std::move(fig5), std::move(fig4));
}

Pass
fig2Replica(const Options &options, LayerClock &clock, LayerCounts &counts)
{
    Fig2Options fig2_options;
    fig2_options.loadsPerBenchmark = loadsPerBenchmark(options);
    Pass pass;
    std::vector<Fig2Benchmark> fig2;
    for (const std::string &name : valueBenchmarkNames()) {
        placeOnNextCpu();
        fig2.push_back(tracedFigure2(name, fig2_options, clock, counts));
    }
    return finishFig2Pass(std::move(pass), std::move(fig2));
}

/** Same figures, same bytes, in the same order. */
bool
sameFigures(const std::vector<FigureText> &a, const std::vector<FigureText> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].key != b[i].key || a[i].text != b[i].text)
            return false;
    }
    return true;
}

struct PaperWorkload
{
    std::string name;
    std::function<Pass(const Options &)> pass;
    TracedReplica replica;
    /** Name of the quality metric this workload's passes produce. */
    std::string qualityMetric;
    /** Measures the other quality metric (one extra untimed pass). */
    std::string otherQualityMetric;
    std::function<double(const Options &)> otherQuality;
};

void
printGoldens(const Options &options, const Pass &pass)
{
    for (const FigureText &figure : pass.figures) {
        std::cout << options.sizeName() << " " << figure.key << " "
                  << digest(figure.text) << "\n";
    }
}

Result
runUntraced(const Options &options, const Goldens &goldens,
            const PaperWorkload &workload)
{
    Result result;
    result.set("setup_s", setupSeconds(options), "s");
    if (options.setupOnly)
        return result;

    // At least three passes, so the median is never a single sample.
    std::vector<Pass> passes;
    const auto start = Clock::now();
    while (passes.size() < 3 || millisSince(start) < options.seconds * 1e3)
        passes.push_back(workload.pass(options));
    const double peak_rss = peakRssMb();

    std::vector<double> walls;
    std::vector<double> calls;
    double busy_ms = 0.0;
    for (const Pass &pass : passes) {
        result.count(goldens.matchesAll(pass.figures));
        walls.push_back(pass.wallMillis);
        busy_ms += pass.wallMillis;
        calls.insert(calls.end(), pass.callMillis.begin(),
                     pass.callMillis.end());
    }
    const double p50 = quantile(calls, 0.50);
    const double p99 = quantile(calls, 0.99);
    const size_t above_p99 = static_cast<size_t>(
        std::count_if(calls.begin(), calls.end(),
                      [&](double ms) { return ms > p99; }));
    std::cout << workload.name << ": " << passes.size()
              << " passes, wall quartiles " << quantile(walls, 0.25) << " / "
              << quantile(walls, 0.5) << " / " << quantile(walls, 0.75)
              << " ms; " << calls.size()
              << " figure calls, latency p50 " << p50
              << " ms, p99 " << p99 << " ms (" << above_p99
              << " samples above p99)\n";

    result.set("peak_rss_mb", peak_rss, "MB");
    result.set("pass_s", median(walls) / 1e3, "s");
    result.set("req_per_s",
               static_cast<double>(calls.size()) / (busy_ms / 1e3), "1/s");
    result.set("latency_p50_ms", p50, "ms");
    result.set("latency_p99_ms", p99, "ms");
    result.set(workload.qualityMetric, passes.front().quality, "%");
    result.set(workload.otherQualityMetric, workload.otherQuality(options),
               "%");
    return result;
}

Result
runTraced(const Options &options, const Goldens &goldens,
          const PaperWorkload &workload)
{
    Result result;
    std::vector<double> untraced_walls;
    std::vector<TracedPass> traced;
    const auto start = Clock::now();
    // Alternate untraced passes with traced replica passes so both
    // see the same machine state; each pair must agree byte for byte.
    while (traced.empty() || millisSince(start) < options.seconds * 1e3) {
        const Pass plain = workload.pass(options);
        TracedPass pass = runTracedPass(options, workload.name,
                                        workload.replica);
        const bool identical = sameFigures(plain.figures, pass.pass.figures);
        if (!identical)
            std::cout << workload.name
                      << ": traced figure text differs from the untraced pass\n";
        result.count(goldens.matchesAll(plain.figures));
        result.count(identical && goldens.matchesAll(pass.pass.figures));
        untraced_walls.push_back(plain.wallMillis);
        traced.push_back(std::move(pass));
    }
    writeTraceEvents(options.outDir + "/trace-" + workload.name + ".json",
                     traced.back().spans);

    auto layer_median = [&](const std::string &layer) {
        std::vector<double> samples;
        for (const TracedPass &pass : traced)
            samples.push_back(pass.clock.millis(layer));
        return median(samples);
    };
    std::vector<double> traced_walls;
    std::vector<double> unattributed;
    for (const TracedPass &pass : traced) {
        traced_walls.push_back(pass.pass.wallMillis);
        unattributed.push_back(pass.pass.wallMillis -
                               pass.clock.totalMillis());
    }
    const LayerCounts &counts = traced.back().counts;
    const double sim_ms = layer_median("sim.evaluate");
    const double vpred_ms = layer_median("vpred.sud_sim") +
        layer_median("vpred.fsm_sim") + layer_median("vpred.collect");

    result.set("workloads.trace_ms", layer_median("workloads.trace"), "ms");
    result.set("workloads.trace_cache_hit_ratio",
               ratio(counts.traceHits, counts.traceLookups), "ratio");
    result.set("workloads.trace_cache_lookups",
               static_cast<double>(counts.traceLookups), "count");
    result.set("bpred.profile_ms", layer_median("bpred.profile"), "ms");
    result.set("flow.design_ms", layer_median("flow.design"), "ms");
    result.set("flow.machines", static_cast<double>(counts.machines),
               "count");
    result.set("flow.subset_ms", counts.subsetMillis, "ms");
    result.set("flow.memo_hit_ratio",
               ratio(counts.memoHits, counts.memoLookups), "ratio");
    result.set("flow.memo_lookups", static_cast<double>(counts.memoLookups),
               "count");
    result.set("flow.batch_dedup",
               ratio(counts.batchDedup, counts.batchItems), "ratio");
    result.set("flow.batch_items", static_cast<double>(counts.batchItems),
               "count");
    result.set("synth.area_ms", layer_median("synth.area"), "ms");
    result.set("sim.pack_ms", layer_median("sim.pack"), "ms");
    result.set("sim.evaluate_ms", sim_ms, "ms");
    result.set("sim.records_per_s",
               sim_ms > 0.0 ? counts.simRecords / (sim_ms / 1e3) : 0.0,
               "1/s");
    result.set("vpred.sud_sim_ms", layer_median("vpred.sud_sim"), "ms");
    result.set("vpred.fsm_sim_ms", layer_median("vpred.fsm_sim"), "ms");
    result.set("vpred.collect_ms", layer_median("vpred.collect"), "ms");
    result.set("vpred.loads_per_s",
               vpred_ms > 0.0 ? counts.vpredLoads / (vpred_ms / 1e3) : 0.0,
               "1/s");
    for (const char *serve_layer :
         {"serve.design_ms", "serve.outside_design_ms", "serve.queue_ms",
          "serve.service_ms"})
        result.set(serve_layer, 0.0, "ms");
    result.set("serve.requests", 0.0, "count");
    for (const char *store_count : {"store.writes", "store.write_failures"})
        result.set(store_count, 0.0, "count");
    result.set("store.bytes", 0.0, "bytes");
    result.set("unattributed_ms", median(unattributed), "ms");
    result.set("trace_overhead_frac",
               median(traced_walls) / median(untraced_walls) - 1.0,
               "ratio");
    result.set("failed_frac", ratio(result.failed, result.attempted),
               "ratio");
    result.set("degraded_frac", 0.0, "ratio");
    return result;
}

Result
runPaperWorkload(const Options &options, const Goldens &goldens,
                 const PaperWorkload &workload)
{
    if (options.recordGoldens) {
        printGoldens(options, workload.pass(options));
        return {};
    }
    return options.trace ? runTraced(options, goldens, workload)
                         : runUntraced(options, goldens, workload);
}

} // anonymous namespace

double
fig5CustomDiffMissPct(const Options &options)
{
    return fig5Pass(options).quality;
}

double
fig2FsmCov80Pct(const Options &options)
{
    return fig2Pass(options).quality;
}

Result
runFig5Branch(const Options &options, const Goldens &goldens)
{
    return runPaperWorkload(options, goldens,
                            {"fig5-branch", fig5Pass, fig5Replica,
                             "fig5_custom_diff_miss_pct",
                             "fig2_fsm_cov80_pct", fig2FsmCov80Pct});
}

Result
runFig2Value(const Options &options, const Goldens &goldens)
{
    return runPaperWorkload(options, goldens,
                            {"fig2-value", fig2Pass, fig2Replica,
                             "fig2_fsm_cov80_pct",
                             "fig5_custom_diff_miss_pct",
                             fig5CustomDiffMissPct});
}

} // namespace perfbench
