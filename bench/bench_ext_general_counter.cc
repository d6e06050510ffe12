/**
 * @file
 * Extension experiment: general-purpose counter design (Section 1's
 * "perform well over a suite of applications" claim, applied to the
 * bimodal counter itself).
 *
 * Designs one prediction counter per history length from the aggregate
 * local-outcome behavior of all branch benchmarks EXCEPT the one under
 * test (leave-one-out), drops it into every BTB entry in place of the
 * 2-bit counter, and compares miss rates.
 *
 * Usage: bench_ext_general_counter [branches_per_run]
 */

#include <iomanip>
#include <iostream>

#include "bpred/counter_design.hh"
#include "bpred/fsm_bimodal.hh"
#include "bpred/simulate.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[branches_per_run]");
    const size_t branches =
        static_cast<size_t>(args.positionalOr(0, 200000));

    std::cout << "Extension: automatically designed general-purpose "
                 "counters vs the 2-bit counter\n"
              << "(cross-trained leave-one-out, bimodal BTB geometry)\n\n";
    std::cout << std::setw(10) << "bench" << std::setw(12) << "2-bit"
              << std::setw(12) << "fsm N=2" << std::setw(12) << "fsm N=3"
              << std::setw(12) << "fsm N=4" << std::setw(10) << "states"
              << "\n";

    for (const std::string &name : branchBenchmarkNames()) {
        const auto test_trace =
            cachedBranchTrace(name, WorkloadInput::Test, branches);
        const PackedTrace &test = *test_trace;

        XScaleBtb baseline;
        const double base =
            simulateBranchPredictor(baseline, test).missRate();

        std::cout << std::setw(10) << name << std::setw(11) << std::fixed
                  << std::setprecision(2) << base * 100.0 << "%";

        std::vector<PackedTrace> suite;
        for (const std::string &other : branchBenchmarkNames()) {
            if (other != name) {
                suite.push_back(*cachedBranchTrace(
                    other, WorkloadInput::Train, branches));
            }
        }

        int last_states = 0;
        for (int order : {2, 3, 4}) {
            FsmDesignOptions options;
            options.order = order;
            const FsmDesignResult counter =
                designGeneralCounter(suite, options);
            FsmBimodalBtb btb(counter.fsm);
            const double rate =
                simulateBranchPredictor(btb, test).missRate();
            std::cout << std::setw(11) << rate * 100.0 << "%";
            last_states = counter.statesFinal;
        }
        std::cout << std::setw(10) << last_states << "\n";
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
