#include "sim/figure2.hh"

#include <algorithm>
#include <sstream>

#include "flow/api.hh"
#include "workloads/value_workloads.hh"

namespace autofsm
{

namespace
{

std::string
formatPct(double frac)
{
    std::ostringstream out;
    out.precision(1);
    out << std::fixed << frac * 100.0 << "%";
    return out.str();
}

std::string
curveLabel(int history)
{
    return "custom w/ hist=" + std::to_string(history);
}

} // anonymous namespace

Fig2Benchmark
runFigure2(const std::string &benchmark, const Fig2Options &options)
{
    Fig2Benchmark result;
    result.name = benchmark;

    // The predictor never sees the estimator: run it once per trace and
    // replay every estimator over the recorded correctness stream.
    const CorrectnessStream own = buildCorrectnessStream(
        makeValueTrace(benchmark, options.loadsPerBenchmark),
        options.stride);

    // --- SUD counter scatter -------------------------------------------
    std::vector<SudConfig> configs;
    for (int max : options.sudMax) {
        for (int dec : options.sudDecrement) {
            for (double frac : options.sudThresholdFrac) {
                SudConfig config;
                config.max = max;
                config.increment = 1;
                config.decrement = dec < 0 ? max + 1 : dec;
                config.threshold =
                    std::max(1, static_cast<int>(frac * max + 0.5));
                configs.push_back(config);
            }
        }
    }
    const std::vector<ConfidenceResult> sud =
        replaySudConfidence(own, configs);
    for (size_t i = 0; i < configs.size(); ++i) {
        result.sudPoints.push_back({sud[i].accuracy(), sud[i].coverage(),
                                    SudConfidence::label(configs[i])});
    }

    // --- Cross-trained FSM curves --------------------------------------
    // Aggregate per-entry correctness Markov models over every other
    // benchmark (Section 6.3's leave-one-out methodology).
    std::vector<MarkovModel> models;
    models.reserve(options.histories.size());
    for (int order : options.histories)
        models.emplace_back(order);
    std::vector<MarkovModel *> pointers;
    for (auto &model : models)
        pointers.push_back(&model);

    for (const std::string &other : valueBenchmarkNames()) {
        if (other == benchmark)
            continue;
        collectConfidenceModels(
            buildCorrectnessStream(
                makeValueTrace(other, options.loadsPerBenchmark),
                options.stride),
            pointers);
    }

    // Design every machine first, then replay them all over one stream.
    std::vector<FlowResult> designs;
    designs.reserve(models.size() * options.thresholds.size());
    std::vector<FsmEstimator> estimators;
    for (size_t i = 0; i < models.size(); ++i) {
        for (double threshold : options.thresholds) {
            DesignRequest request;
            request.model = models[i];
            request.options.order = options.histories[i];
            request.options.patterns.threshold = threshold;
            request.options.patterns.dontCareMass = 0.01;
            designs.push_back(runDesignRequest(request));
            estimators.push_back(
                {&designs.back().design.fsm,
                 curveLabel(options.histories[i]) + " thr=" +
                     formatPct(threshold)});
        }
    }
    const std::vector<ConfidenceResult> fsm =
        replayFsmConfidence(own, estimators);

    size_t next = 0;
    for (int order : options.histories) {
        ParetoSeries series;
        series.label = curveLabel(order);
        for (double threshold : options.thresholds) {
            const ConfidenceResult &r = fsm[next++];
            series.points.push_back({r.accuracy(), r.coverage(),
                                     "thr=" + formatPct(threshold)});
        }
        result.fsmCurves.push_back(std::move(series));
    }
    return result;
}

std::vector<Fig2Benchmark>
runFigure2All(const Fig2Options &options)
{
    std::vector<Fig2Benchmark> all;
    for (const std::string &name : valueBenchmarkNames())
        all.push_back(runFigure2(name, options));
    return all;
}

} // namespace autofsm
