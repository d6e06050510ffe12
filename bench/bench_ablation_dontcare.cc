/**
 * @file
 * Ablation of the don't-care mass (Section 4.3 claim: placing the 1%
 * least-seen histories in the don't-care set roughly halves predictor
 * size with negligible accuracy impact).
 *
 * For each branch benchmark, trains the single worst branch's FSM at
 * several don't-care fractions and reports final state count and the
 * branch's measured misprediction rate on the test input.
 */

#include <iomanip>
#include <iostream>

#include "bpred/trainer.hh"
#include "fsmgen/predictor_fsm.hh"
#include "support/history.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

/** Miss rate of @p fsm on branch @p pc over @p trace (update-on-every-
 *  branch semantics). */
double
fsmMissRate(const Dfa &fsm, uint64_t pc, const PackedTrace &trace)
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

    const std::vector<double> masses = {0.0, 0.005, 0.01, 0.02, 0.05};

    std::cout << "Ablation: don't-care sets vs FSM size and accuracy\n"
              << "(Section 4.3: don't-cares shrink the predictor with "
                 "negligible accuracy cost)\n\n";
    std::cout << std::setw(10) << "bench" << std::setw(10) << "dc-mass"
              << std::setw(12) << "unseen-dc" << std::setw(10) << "states"
              << std::setw(12) << "miss" << "\n";

    for (const std::string &name : branchBenchmarkNames()) {
        const auto train_trace =
            cachedBranchTrace(name, WorkloadInput::Train, branches);
        const auto test_trace =
            cachedBranchTrace(name, WorkloadInput::Test, branches);
        const PackedTrace &train = *train_trace;
        const PackedTrace &test = *test_trace;

        auto report = [&](double mass, bool unseen_dc) {
            CustomTrainingOptions options;
            options.maxCustomBranches = 1;
            options.patterns.dontCareMass = mass;
            options.patterns.unseenAreDontCare = unseen_dc;
            const auto trained = trainCustomPredictors(train, options);
            if (trained.empty())
                return;
            const auto &branch = trained.front();
            const double miss =
                fsmMissRate(branch.design.fsm, branch.pc, test);
            std::cout << std::setw(10) << name << std::setw(9)
                      << std::fixed << std::setprecision(1)
                      << mass * 100.0 << "%" << std::setw(12)
                      << (unseen_dc ? "yes" : "no") << std::setw(10)
                      << branch.design.statesFinal << std::setw(11)
                      << std::setprecision(2) << miss * 100.0 << "%\n";
        };

        // Baseline: every unseen history forced into the OFF-set.
        report(0.0, false);
        for (double mass : masses)
            report(mass, true);
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
