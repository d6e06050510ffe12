/**
 * @file
 * Extension experiment: confidence utility under the two recovery
 * models of Section 6.2.
 *
 * With squash recovery a value misprediction is expensive (the paper:
 * "a very accurate SUD counter was needed ... but this resulted in low
 * coverage"); with re-execution recovery the penalty is small and
 * coverage matters more. This bench scores every estimator by
 * utility = (confident & correct) * gain - (confident & wrong) * penalty
 * and reports the best SUD configuration against the best custom FSM
 * per policy - showing the designed estimators win under both regimes
 * by picking a different point on their own Pareto curve.
 *
 * Usage: bench_ext_recovery [loads_per_benchmark]
 */

#include <iomanip>
#include <iostream>

#include "flow/api.hh"
#include "sim/figure2.hh"
#include "vpred/conf_sim.hh"
#include "workloads/value_workloads.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

struct Policy
{
    const char *name;
    double gain;
    double penalty;
};

double
utility(const ConfidenceResult &r, const Policy &policy)
{
    return policy.gain * static_cast<double>(r.confidentCorrect) -
        policy.penalty *
        static_cast<double>(r.confident - r.confidentCorrect);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[loads_per_run]");
    const size_t loads =
        static_cast<size_t>(args.positionalOr(0, 150000));

    const StrideConfig stride;
    const Policy policies[] = {
        {"re-execution (penalty 1)", 1.0, 1.0},
        {"squash (penalty 10)", 1.0, 10.0},
    };

    std::cout << "Extension: confidence utility under squash vs "
                 "re-execution recovery (Section 6.2)\n\n";

    std::vector<SudConfig> configs;
    for (int max : {5, 10, 20, 40}) {
        for (int dec : {1, 2, 5, 10, max + 1}) {
            for (double frac : {0.5, 0.8, 0.9}) {
                configs.push_back(
                    {max, 1, dec,
                     std::max(1, static_cast<int>(frac * max + 0.5))});
            }
        }
    }
    const std::vector<double> thresholds = {0.5, 0.6, 0.7, 0.8,
                                            0.9, 0.95, 0.98};

    for (const std::string &name : valueBenchmarkNames()) {
        const CorrectnessStream own =
            buildCorrectnessStream(makeValueTrace(name, loads), stride);

        // Cross-trained model, history 8.
        const MarkovModel model =
            leaveOneOutConfidenceModels(name, loads, stride, {8}, &own)
                .front();

        // Simulate every estimator once; policies only rescore them.
        const std::vector<ConfidenceResult> sud =
            replaySudConfidence(own, configs);
        std::vector<FlowResult> designs;
        designs.reserve(thresholds.size());
        std::vector<FsmEstimator> estimators;
        for (double threshold : thresholds) {
            DesignRequest request;
            request.model = model;
            request.options.order = 8;
            request.options.patterns.threshold = threshold;
            designs.push_back(runDesignRequest(request));
            estimators.push_back({&designs.back().design.fsm});
        }
        const std::vector<ConfidenceResult> fsm =
            replayFsmConfidence(own, estimators);

        for (const Policy &policy : policies) {
            // Best SUD configuration for this policy.
            double best_sud = -1e18;
            std::string best_sud_name;
            for (size_t i = 0; i < configs.size(); ++i) {
                const double u = utility(sud[i], policy);
                if (u > best_sud) {
                    best_sud = u;
                    best_sud_name = SudConfidence::label(configs[i]);
                }
            }

            // Best FSM threshold for this policy.
            double best_fsm = -1e18;
            double best_fsm_thr = 0.0;
            for (size_t i = 0; i < thresholds.size(); ++i) {
                const double u = utility(fsm[i], policy);
                if (u > best_fsm) {
                    best_fsm = u;
                    best_fsm_thr = thresholds[i];
                }
            }

            const double per_load =
                static_cast<double>(loads ? loads : 1);
            std::cout << std::setw(8) << name << "  "
                      << std::setw(26) << policy.name << ": best sud "
                      << std::fixed << std::setprecision(3)
                      << best_sud / per_load << "/load ("
                      << best_sud_name << "), best fsm "
                      << best_fsm / per_load << "/load (thr "
                      << std::setprecision(2) << best_fsm_thr << ")\n";
        }
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
