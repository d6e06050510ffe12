/**
 * @file
 * Customized-processor scenario (Section 7): given an embedded
 * application (the synthetic gsm model), profile it with the XScale
 * baseline, automatically design per-branch FSM predictors for the
 * worst branches, graft them onto the BTB as custom entries, and
 * measure the misprediction-rate/area tradeoff on a different input.
 *
 * Usage: custom_branch_predictor [benchmark] [num_custom_entries]
 *   benchmark in {compress, ijpeg, vortex, gsm, g721, gs}
 */

#include <iomanip>
#include <iostream>

#include "bpred/custom.hh"
#include "bpred/simulate.hh"
#include "bpred/trainer.hh"
#include "synth/vhdl.hh"
#include "workloads/trace_cache.hh"

#include "../bench/bench_common.hh"

using namespace autofsm;

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(
        argc, argv, "[benchmark] [num_custom_entries]");
    const std::string benchmark = args.positionalOr(0, "gsm");
    const int num_custom = static_cast<int>(args.positionalOr(1, 4));

    std::cout << "Customizing a branch predictor for '" << benchmark
              << "'\n\n";

    // --- 1. Profile on the training input ------------------------------
    const std::shared_ptr<const PackedTrace> train =
        cachedBranchTrace(benchmark, WorkloadInput::Train, 200000);
    CustomTrainingOptions options;
    options.maxCustomBranches = num_custom;
    options.historyLength = 9; // the paper's setting
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(*train, options);

    std::cout << "worst branches by baseline mispredictions:\n";
    for (const auto &branch : trained) {
        std::cout << "  pc 0x" << std::hex << branch.pc << std::dec
                  << ": " << branch.baselineMisses << " misses -> FSM with "
                  << branch.design.statesFinal << " states, patterns "
                  << branch.design.cover.toString() << "\n";
    }

    // --- 2. Build the customized architecture --------------------------
    CustomBranchPredictor custom;
    for (const auto &branch : trained)
        custom.addCustomEntry(branch.pc, branch.design.fsm);

    // --- 3. Evaluate on a *different* input (custom-diff) --------------
    const std::shared_ptr<const PackedTrace> test =
        cachedBranchTrace(benchmark, WorkloadInput::Test, 200000);

    XScaleBtb baseline;
    const BpredSimResult base_r = simulateBranchPredictor(baseline, *test);
    const BpredSimResult custom_r = simulateBranchPredictor(custom, *test);

    std::cout << std::fixed << std::setprecision(2);
    std::cout << "\nXScale baseline: " << base_r.missRate() * 100.0
              << "% mispredictions, area " << std::setprecision(0)
              << baseline.area() << "\n";
    std::cout << std::setprecision(2);
    std::cout << "customized:      " << custom_r.missRate() * 100.0
              << "% mispredictions, area " << std::setprecision(0)
              << custom.area() << " (" << custom.numCustomEntries()
              << " custom entries)\n";

    // --- 4. Emit hardware for the single best machine ------------------
    if (!trained.empty()) {
        VhdlOptions vhdl;
        vhdl.entityName = "custom_branch_0";
        std::cout << "\nVHDL for the top branch's machine:\n"
                  << toVhdl(trained.front().design.fsm, vhdl);
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
