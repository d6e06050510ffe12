/**
 * @file
 * Extension experiment: branch confidence for pipeline gating
 * (Section 2.5, Manne et al.; metrics from Grunwald et al. [16]).
 *
 * A fetch-gating mechanism wants high PVN: when the estimator says
 * "low confidence", the branch should really be about to mispredict,
 * so stalling fetch saves wrong-path energy without hurting
 * performance. Compares resetting counters (the standard choice) with
 * cross-trained FSM estimators over the XScale predictor's correctness
 * stream, and estimates the wrong-path fetch energy saved at a fixed
 * performance-loss budget.
 *
 * Usage: bench_ext_gating [branches_per_run]
 */

#include <iomanip>
#include <iostream>

#include "bpred/branch_confidence.hh"
#include "bpred/btb.hh"
#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

void
printRow(const std::string &bench, const std::string &scheme,
         const ConfidenceMetrics &m)
{
    std::cout << std::setw(10) << bench << std::setw(18) << scheme
              << std::fixed << std::setprecision(1) << std::setw(9)
              << m.pvp() * 100.0 << "%" << std::setw(9)
              << m.pvn() * 100.0 << "%" << std::setw(9)
              << m.sensitivity() * 100.0 << "%" << std::setw(9)
              << m.specificity() * 100.0 << "%\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[branches_per_run]");
    const size_t branches =
        static_cast<size_t>(args.positionalOr(0, 200000));
    const int log2_entries = 10;

    std::cout << "Extension: branch confidence for pipeline gating "
                 "(Grunwald metrics over the XScale predictor)\n\n";
    std::cout << std::setw(10) << "bench" << std::setw(18) << "estimator"
              << std::setw(10) << "PVP" << std::setw(10) << "PVN"
              << std::setw(10) << "SENS" << std::setw(10) << "SPEC"
              << "\n";

    for (const std::string &name : branchBenchmarkNames()) {
        const auto test_trace =
            cachedBranchTrace(name, WorkloadInput::Test, branches);
        const PackedTrace &test = *test_trace;

        // Standard counter-based estimators.
        {
            XScaleBtb predictor;
            SudBranchConfidence estimator(log2_entries,
                                          SudConfig::resetting(8, 7));
            printRow(name, "resetting(8,7)",
                     measureBranchConfidence(predictor, estimator, test));
        }
        {
            XScaleBtb predictor;
            SudBranchConfidence estimator(log2_entries,
                                          SudConfig{15, 1, 2, 12});
            printRow(name, "sud(15,2,12)",
                     measureBranchConfidence(predictor, estimator, test));
        }

        // Cross-trained FSM estimator: model the XScale's correctness
        // stream on every OTHER benchmark (general-purpose setting).
        MarkovModel model(8);
        for (const std::string &other : branchBenchmarkNames()) {
            if (other == name)
                continue;
            const auto other_train_trace =
                cachedBranchTrace(other, WorkloadInput::Train, branches);
            const PackedTrace &other_train = *other_train_trace;
            XScaleBtb predictor;
            collectBranchConfidenceModel(predictor, other_train,
                                         log2_entries, model);
        }
        for (double threshold : {0.7, 0.9}) {
            FsmDesignOptions design;
            design.order = 8;
            design.patterns.threshold = threshold;
            const FsmDesignResult designed =
                DesignFlow(design).run(model).design;
            XScaleBtb predictor;
            FsmBranchConfidence estimator(log2_entries, designed.fsm);
            printRow(name,
                     "fsm thr=" + std::to_string(threshold).substr(0, 4),
                     measureBranchConfidence(predictor, estimator, test));
        }
        std::cout << "\n";
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
