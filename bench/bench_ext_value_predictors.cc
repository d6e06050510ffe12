/**
 * @file
 * Extension experiment: confidence FSMs across value predictor types
 * (Section 6.1 surveys last-value, stride and context predictors; the
 * paper evaluates confidence on the stride predictor only).
 *
 * For each benchmark and each predictor (last-value, two-delta stride,
 * order-2 FCM): raw hit rate, then the cross-trained FSM estimator's
 * accuracy/coverage at threshold 0.8 - showing the design flow is
 * predictor-agnostic: it learns whatever correctness structure the
 * underlying predictor produces.
 *
 * Usage: bench_ext_value_predictors [loads_per_benchmark]
 */

#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "vpred/conf_sim.hh"
#include "vpred/context_predictor.hh"
#include "vpred/hybrid_predictor.hh"
#include "vpred/last_value.hh"
#include "workloads/value_workloads.hh"

#include "bench_common.hh"

using namespace autofsm;

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[loads_per_run]");
    const size_t loads =
        static_cast<size_t>(args.positionalOr(0, 100000));

    using Factory = std::function<std::unique_ptr<ValuePredictor>()>;
    const std::pair<const char *, Factory> kinds[] = {
        {"last-value",
         [] { return std::make_unique<LastValuePredictor>(); }},
        {"two-delta",
         [] { return std::make_unique<TwoDeltaStridePredictor>(); }},
        {"fcm-o2", [] { return std::make_unique<FcmPredictor>(); }},
        {"hybrid", [] { return std::make_unique<HybridPredictor>(); }},
    };

    std::cout << "Extension: FSM confidence across value predictor "
                 "types (history 6, threshold 0.8, cross-trained)\n\n";
    std::cout << std::setw(8) << "bench" << std::setw(12) << "predictor"
              << std::setw(12) << "hit-rate" << std::setw(12)
              << "accuracy" << std::setw(12) << "coverage"
              << std::setw(10) << "states" << "\n";

    for (const std::string &name : valueBenchmarkNames()) {
        const ValueTrace own = makeValueTrace(name, loads);

        for (const auto &[kind_name, make] : kinds) {
            // Cross-train a model on the other benchmarks, through the
            // same predictor type.
            MarkovModel model(6);
            for (const std::string &other : valueBenchmarkNames()) {
                if (other == name)
                    continue;
                const ValueTrace trace = makeValueTrace(other, loads);
                auto trainer = make();
                collectConfidenceModels(trace, *trainer, {&model});
            }

            FsmDesignOptions design;
            design.order = 6;
            design.patterns.threshold = 0.8;
            const FsmDesignResult designed =
                DesignFlow(design).run(model).design;

            auto predictor = make();
            FsmConfidence estimator(predictor->entries(), designed.fsm);
            const ConfidenceResult r =
                simulateConfidence(own, *predictor, estimator);

            std::cout << std::setw(8) << name << std::setw(12)
                      << kind_name << std::fixed << std::setprecision(1)
                      << std::setw(11)
                      << 100.0 * static_cast<double>(r.correct) /
                          static_cast<double>(r.loads)
                      << "%" << std::setw(11) << r.accuracy() * 100.0
                      << "%" << std::setw(11) << r.coverage() * 100.0
                      << "%" << std::setw(10) << designed.statesFinal
                      << "\n";
        }
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
