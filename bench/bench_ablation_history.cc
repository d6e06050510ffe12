/**
 * @file
 * Ablation of the Markov order / history length (Section 4.2 claim:
 * accuracy saturates with history; N <= 10 suffices).
 *
 * For each branch benchmark, trains the worst branch's FSM at history
 * lengths 1-12 and reports state count and miss rate on the test input.
 */

#include <iomanip>
#include <iostream>

#include "bpred/trainer.hh"
#include "flow/design_flow.hh"
#include "fsmgen/predictor_fsm.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

double
fsmMissRate(const Dfa &fsm, uint64_t pc, const BranchTrace &trace)
{
    PredictorFsm machine(fsm);
    uint64_t executions = 0, misses = 0;
    for (const auto &record : trace) {
        if (record.pc == pc) {
            ++executions;
            misses += (machine.predict() != 0) != record.taken;
        }
        machine.update(record.taken ? 1 : 0);
    }
    return executions == 0
        ? 0.0
        : static_cast<double>(misses) / static_cast<double>(executions);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[branches_per_run]");
    const size_t branches =
        static_cast<size_t>(args.positionalOr(0, 200000));

    std::cout << "Ablation: history length vs accuracy "
                 "(Section 4.2: no need past N = 10)\n\n";
    std::cout << std::setw(10) << "bench" << std::setw(8) << "N"
              << std::setw(10) << "states" << std::setw(12) << "miss"
              << "\n";

    std::vector<int> orders;
    for (int order = 1; order <= 12; ++order)
        orders.push_back(order);

    for (const std::string &name : branchBenchmarkNames()) {
        const auto train_trace =
            cachedBranchTrace(name, WorkloadInput::Train, branches);
        const auto test_trace =
            cachedBranchTrace(name, WorkloadInput::Test, branches);
        const BranchTrace &train = *train_trace;
        const BranchTrace &test = *test_trace;

        // One profiling pass per benchmark: the worst branch's models at
        // every order come out of a single fold sweep instead of twelve
        // trainCustomPredictors runs (each re-simulating the baseline).
        CustomTrainingOptions options;
        options.maxCustomBranches = 1;
        const auto sweeps = collectBranchModelSweeps(train, orders, options);
        if (sweeps.empty())
            continue;
        const BranchModelSweep &worst = sweeps.front();

        for (int order : orders) {
            FsmDesignOptions design;
            design.order = order;
            design.patterns = options.patterns;
            design.minimizer = options.minimizer;
            const FsmDesignResult designed =
                DesignFlow(design).run(worst.profile.model(order)).design;
            const double miss = fsmMissRate(designed.fsm, worst.pc, test);
            std::cout << std::setw(10) << name << std::setw(8) << order
                      << std::setw(10) << designed.statesFinal
                      << std::setw(11) << std::fixed
                      << std::setprecision(2) << miss * 100.0 << "%\n";
        }
        std::cout << "\n";
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
