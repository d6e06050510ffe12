#include "sim/figure4.hh"

#include <memory>

#include "bpred/trainer.hh"
#include "obs/metrics.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{

Fig4Result
runFigure4(const Fig4Options &options)
{
    const std::vector<std::string> names = branchBenchmarkNames();

    // Fan the benchmarks out across cores. Each benchmark draws its
    // sampling decisions from its own seed-derived RNG stream, so the
    // sampled set does not depend on scheduling order.
    std::vector<std::vector<AreaEstimate>> sampled(names.size());
    parallelFor(
        names.size(),
        [&](size_t b) {
            Rng rng(options.seed +
                    0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(b + 1));
            const std::shared_ptr<const PackedTrace> trace =
                cachedBranchTrace(names[b], WorkloadInput::Train,
                                  options.branchesPerRun);
            CustomTrainingOptions training;
            training.historyLength = options.historyLength;
            training.maxCustomBranches = options.fsmsPerBenchmark;
            // The per-branch designs inside one benchmark run serially;
            // parallelism lives at the benchmark level here.
            training.threads = 1;
            const auto trained = trainCustomPredictors(*trace, training);
            for (const auto &branch : trained) {
                // Strict <: uniform() is in [0, 1), so a fraction of 0.0
                // must admit nothing (<= let a 0.0 draw through) and a
                // fraction of 1.0 still admits everything.
                if (rng.uniform() < options.sampleFraction)
                    sampled[b].push_back(branch.fsmArea);
            }
        },
        options.threads);

    Fig4Result result;
    for (const auto &per_benchmark : sampled)
        result.samples.insert(result.samples.end(), per_benchmark.begin(),
                              per_benchmark.end());
    result.fit = fitAreaLine(result.samples);

    obs::MetricsRegistry &registry = obs::globalMetrics();
    if (registry.enabled()) {
        registry
            .counter("autofsm_fig4_samples_total",
                     "FSM area samples feeding the Figure-4 fit.")
            .inc(result.samples.size());
        registry
            .gauge("autofsm_fig4_fit_slope",
                   "Fitted area-per-state slope from the last Figure-4 run.")
            .set(result.fit.slope);
        registry
            .gauge("autofsm_fig4_fit_intercept",
                   "Fitted area intercept from the last Figure-4 run.")
            .set(result.fit.intercept);
    }
    return result;
}

} // namespace autofsm
