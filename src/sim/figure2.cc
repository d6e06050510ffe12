#include "sim/figure2.hh"

#include <algorithm>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "flow/api.hh"
#include "workloads/trace_cache.hh"
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

/**
 * Process-wide memo of each value benchmark's per-order correctness
 * models, keyed by (benchmark, loads, entries, tagBits, order).
 */
struct ConfidenceModelMemo
{
    using Key = std::tuple<std::string, size_t, int, int, int>;

    struct Entry
    {
        /** Futures, not values: a key's first caller installs the
         *  future, builds outside the lock and fulfills it; concurrent
         *  callers of the same key wait instead of rebuilding. */
        std::shared_future<MarkovModel> future;
        /** The installing call, so a failed build erases only its own
         *  entry and not one installed after a clear. */
        uint64_t owner = 0;
    };

    std::mutex mutex;
    /** workloadTraceGeneration() the entries were filled under. */
    uint64_t generation = 0;
    uint64_t calls = 0;
    std::map<Key, Entry> entries;
};

ConfidenceModelMemo &
modelMemo()
{
    static ConfidenceModelMemo instance;
    return instance;
}

/**
 * @p benchmark's models of @p orders, in order, from the memo. Every
 * missing order is collected in one walk of @p own, or of a stream
 * built here and dropped on return when @p own is null.
 */
std::vector<std::shared_future<MarkovModel>>
memoizedModels(const std::string &benchmark, size_t loads,
               const StrideConfig &stride, const std::vector<int> &orders,
               const CorrectnessStream *own)
{
    ConfidenceModelMemo &memo = modelMemo();
    std::vector<std::shared_future<MarkovModel>> futures(orders.size());
    std::vector<ConfidenceModelMemo::Key> missing;
    std::vector<std::promise<MarkovModel>> promises;
    uint64_t call = 0;
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        const uint64_t generation = workloadTraceGeneration();
        if (generation != memo.generation) {
            memo.entries.clear();
            memo.generation = generation;
        }
        call = ++memo.calls;
        for (size_t i = 0; i < orders.size(); ++i) {
            ConfidenceModelMemo::Key key{benchmark, loads, stride.entries,
                                         stride.tagBits, orders[i]};
            const auto it = memo.entries.find(key);
            if (it != memo.entries.end()) {
                futures[i] = it->second.future;
                continue;
            }
            promises.emplace_back();
            futures[i] = promises.back().get_future().share();
            memo.entries.emplace(key,
                                 ConfidenceModelMemo::Entry{futures[i], call});
            missing.push_back(std::move(key));
        }
    }
    if (missing.empty())
        return futures;

    std::vector<MarkovModel> models;
    try {
        models.reserve(missing.size());
        for (const ConfidenceModelMemo::Key &key : missing)
            models.emplace_back(std::get<4>(key));
        std::vector<MarkovModel *> pointers;
        for (MarkovModel &model : models)
            pointers.push_back(&model);
        if (own) {
            collectConfidenceModels(*own, pointers);
        } else {
            collectConfidenceModels(
                buildCorrectnessStream(makeValueTrace(benchmark, loads),
                                       stride),
                pointers);
        }
    } catch (...) {
        // Don't cache the failure: erase before fulfilling, as the
        // trace cache does, so no caller latches the failed future.
        {
            std::lock_guard<std::mutex> lock(memo.mutex);
            for (const ConfidenceModelMemo::Key &key : missing) {
                const auto it = memo.entries.find(key);
                if (it != memo.entries.end() && it->second.owner == call)
                    memo.entries.erase(it);
            }
        }
        for (std::promise<MarkovModel> &promise : promises)
            promise.set_exception(std::current_exception());
        return futures;
    }
    for (size_t k = 0; k < promises.size(); ++k)
        promises[k].set_value(std::move(models[k]));
    return futures;
}

} // anonymous namespace

std::vector<MarkovModel>
leaveOneOutConfidenceModels(const std::string &benchmark,
                            size_t loadsPerBenchmark,
                            const StrideConfig &stride,
                            const std::vector<int> &orders,
                            const CorrectnessStream *own)
{
    const std::vector<std::string> &names = valueBenchmarkNames();
    if (std::find(names.begin(), names.end(), benchmark) == names.end())
        throw std::invalid_argument("unknown value benchmark: " + benchmark);
    // Constructing the results first rejects a bad order before the
    // memo sees it.
    std::vector<MarkovModel> merged;
    merged.reserve(orders.size());
    for (int order : orders)
        merged.emplace_back(order);
    if (orders.empty())
        return merged;

    if (own)
        memoizedModels(benchmark, loadsPerBenchmark, stride, orders, own);
    // Build (or join) every other benchmark's models before waiting on
    // any: a caller never blocks while it holds an unfinished entry.
    std::vector<std::vector<std::shared_future<MarkovModel>>> others;
    for (const std::string &other : names) {
        if (other != benchmark) {
            others.push_back(memoizedModels(other, loadsPerBenchmark,
                                            stride, orders, nullptr));
        }
    }
    for (const auto &models : others) {
        for (size_t i = 0; i < orders.size(); ++i)
            merged[i].merge(models[i].get());
    }
    return merged;
}

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
    // Section 6.3's leave-one-out methodology; the own stream fills this
    // benchmark's memo entry for the other benchmarks' calls.
    const std::vector<MarkovModel> models = leaveOneOutConfidenceModels(
        benchmark, options.loadsPerBenchmark, options.stride,
        options.histories, &own);

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
