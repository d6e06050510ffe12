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
#include <iterator>

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
         const ConfidenceResult &r)
{
    std::cout << std::setw(10) << bench << std::setw(18) << scheme
              << std::fixed << std::setprecision(1) << std::setw(9)
              << r.accuracy() * 100.0 << "%" << std::setw(9)
              << r.pvn() * 100.0 << "%" << std::setw(9)
              << r.coverage() * 100.0 << "%" << std::setw(9)
              << r.specificity() * 100.0 << "%\n";
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

    // Standard counter-based estimators.
    const std::vector<SudConfig> counters = {SudConfig::resetting(8, 7),
                                             SudConfig{15, 1, 2, 12}};
    const char *const counter_names[] = {"resetting(8,7)", "sud(15,2,12)"};
    const double thresholds[] = {0.7, 0.9};

    for (const std::string &name : branchBenchmarkNames()) {
        XScaleBtb predictor;
        const CorrectnessStream test = buildCorrectnessStream(
            *cachedBranchTrace(name, WorkloadInput::Test, branches),
            predictor, log2_entries);

        const std::vector<ConfidenceResult> sud =
            replaySudConfidence(test, counters);
        for (size_t i = 0; i < sud.size(); ++i)
            printRow(name, counter_names[i], sud[i]);

        // Cross-trained FSM estimator: model the XScale's correctness
        // stream on every OTHER benchmark (general-purpose setting).
        MarkovModel model(8);
        for (const std::string &other : branchBenchmarkNames()) {
            if (other == name)
                continue;
            XScaleBtb trainer;
            collectConfidenceModels(
                buildCorrectnessStream(
                    *cachedBranchTrace(other, WorkloadInput::Train,
                                       branches),
                    trainer, log2_entries),
                {&model});
        }
        std::vector<FsmDesignResult> designs;
        designs.reserve(std::size(thresholds));
        std::vector<FsmEstimator> estimators;
        for (double threshold : thresholds) {
            FsmDesignOptions design;
            design.order = 8;
            design.patterns.threshold = threshold;
            designs.push_back(DesignFlow(design).run(model).design);
            estimators.push_back(
                {&designs.back().fsm,
                 "fsm thr=" + std::to_string(threshold).substr(0, 4)});
        }
        const std::vector<ConfidenceResult> fsm =
            replayFsmConfidence(test, estimators);
        for (size_t i = 0; i < fsm.size(); ++i)
            printRow(name, estimators[i].label, fsm[i]);
        std::cout << "\n";
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
