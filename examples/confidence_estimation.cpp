/**
 * @file
 * General-purpose-processor scenario (Section 6): design a confidence
 * estimator FSM for a stride value predictor, cross-trained on a suite
 * of applications, and compare it against saturating up/down counters
 * on the held-out application.
 *
 * Usage: confidence_estimation [benchmark] [history_length]
 *   benchmark in {gcc, go, groff, li, perl}
 */

#include <iomanip>
#include <iostream>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "vpred/conf_sim.hh"
#include "workloads/value_workloads.hh"

using namespace autofsm;

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "gcc";
    const int history = argc > 2 ? atoi(argv[2]) : 8;
    const size_t loads = 150000;
    const StrideConfig stride; // 2K entries, as in the paper

    std::cout << "Designing value-prediction confidence for '" << benchmark
              << "' (history " << history << ", cross-trained)\n\n";

    // --- 1. Cross-train: aggregate every OTHER benchmark ---------------
    MarkovModel model(history);
    for (const std::string &other : valueBenchmarkNames()) {
        if (other == benchmark)
            continue;
        const ValueTrace trace = makeValueTrace(other, loads);
        collectConfidenceModels(trace, stride, {&model});
        std::cout << "  trained on " << other << " ("
                  << model.totalObservations() << " observations so far)\n";
    }

    // --- 2. Sweep the confidence threshold to trace the Pareto curve ---
    const ValueTrace own = makeValueTrace(benchmark, loads);

    std::cout << "\ncustom FSM curve (threshold -> accuracy / coverage / "
                 "states):\n"
              << std::fixed << std::setprecision(1);
    for (double threshold : {0.5, 0.7, 0.8, 0.9, 0.95}) {
        FsmDesignOptions design;
        design.order = history;
        design.patterns.threshold = threshold;
        const FsmDesignResult result = DesignFlow(design).run(model).design;

        FsmConfidence estimator(static_cast<size_t>(stride.entries),
                                result.fsm);
        const ConfidenceResult r =
            simulateConfidence(own, stride, estimator);
        std::cout << "  thr " << threshold * 100.0 << "%: accuracy "
                  << r.accuracy() * 100.0 << "%, coverage "
                  << r.coverage() * 100.0 << "%, " << result.statesFinal
                  << " states\n";
    }

    // --- 3. The SUD counters the paper compares against ----------------
    std::cout << "\nsaturating up/down counters:\n";
    for (const SudConfig &config :
         {SudConfig{10, 1, 1, 5}, SudConfig{10, 1, 10, 8},
          SudConfig{40, 1, 5, 36}, SudConfig::resetting(20, 16)}) {
        SudConfidence estimator(static_cast<size_t>(stride.entries),
                                config);
        const ConfidenceResult r =
            simulateConfidence(own, stride, estimator);
        std::cout << "  " << estimator.name() << ": accuracy "
                  << r.accuracy() * 100.0 << "%, coverage "
                  << r.coverage() * 100.0 << "%\n";
    }
    return 0;
}
