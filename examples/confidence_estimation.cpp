/**
 * @file
 * General-purpose-processor scenario (Section 6): design a confidence
 * estimator FSM for a stride value predictor, cross-trained on a suite
 * of applications, and compare it against saturating up/down counters
 * on the held-out application.
 *
 * Usage: confidence_estimation [benchmark] [history_length]
 *   benchmark in {gcc, go, groff, li, perl}, history_length in [1, 24]
 */

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <iterator>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "vpred/conf_sim.hh"
#include "workloads/value_workloads.hh"

using namespace autofsm;

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "gcc";
    const std::vector<std::string> &names = valueBenchmarkNames();
    char *end = nullptr;
    const long history = argc > 2 ? std::strtol(argv[2], &end, 10) : 8;
    if (std::find(names.begin(), names.end(), benchmark) == names.end() ||
        (argc > 2 && (end == argv[2] || *end != '\0')) || history < 1 ||
        history > 24) {
        std::cerr << "usage: confidence_estimation [benchmark] "
                     "[history_length]\n"
                  << "  benchmark in {gcc, go, groff, li, perl}, "
                     "history_length in [1, 24]\n";
        return 1;
    }
    const int order = static_cast<int>(history);
    const size_t loads = 150000;
    const StrideConfig stride; // 2K entries, as in the paper

    std::cout << "Designing value-prediction confidence for '" << benchmark
              << "' (history " << order << ", cross-trained)\n\n";

    // --- 1. Cross-train: aggregate every OTHER benchmark ---------------
    MarkovModel model(order);
    for (const std::string &other : names) {
        if (other == benchmark)
            continue;
        collectConfidenceModels(
            buildCorrectnessStream(makeValueTrace(other, loads), stride),
            {&model});
        std::cout << "  trained on " << other << " ("
                  << model.totalObservations() << " observations so far)\n";
    }

    // --- 2. Sweep the confidence threshold to trace the Pareto curve ---
    // The stride predictor runs once over the held-out trace; every
    // estimator below replays its correctness stream.
    const CorrectnessStream own =
        buildCorrectnessStream(makeValueTrace(benchmark, loads), stride);

    const double thresholds[] = {0.5, 0.7, 0.8, 0.9, 0.95};
    std::vector<FsmDesignResult> designs;
    designs.reserve(std::size(thresholds));
    std::vector<FsmEstimator> estimators;
    for (double threshold : thresholds) {
        FsmDesignOptions design;
        design.order = order;
        design.patterns.threshold = threshold;
        designs.push_back(DesignFlow(design).run(model).design);
        estimators.push_back({&designs.back().fsm});
    }
    const std::vector<ConfidenceResult> fsm =
        replayFsmConfidence(own, estimators);

    std::cout << "\ncustom FSM curve (threshold -> accuracy / coverage / "
                 "states):\n"
              << std::fixed << std::setprecision(1);
    for (size_t i = 0; i < designs.size(); ++i) {
        std::cout << "  thr " << thresholds[i] * 100.0 << "%: accuracy "
                  << fsm[i].accuracy() * 100.0 << "%, coverage "
                  << fsm[i].coverage() * 100.0 << "%, "
                  << designs[i].statesFinal << " states\n";
    }

    // --- 3. The SUD counters the paper compares against ----------------
    const std::vector<SudConfig> counters = {
        SudConfig{10, 1, 1, 5}, SudConfig{10, 1, 10, 8},
        SudConfig{40, 1, 5, 36}, SudConfig::resetting(20, 16)};
    const std::vector<ConfidenceResult> sud =
        replaySudConfidence(own, counters);
    std::cout << "\nsaturating up/down counters:\n";
    for (size_t i = 0; i < counters.size(); ++i) {
        std::cout << "  " << SudConfidence::label(counters[i])
                  << ": accuracy " << sud[i].accuracy() * 100.0
                  << "%, coverage " << sud[i].coverage() * 100.0 << "%\n";
    }
    return 0;
}
