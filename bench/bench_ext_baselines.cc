/**
 * @file
 * Extension experiment: additional baselines around the Figure 5 story.
 *
 * 1. PPM (Chen et al., the paper's Section 3.2) against the XScale
 *    baseline and the customized architecture, per benchmark.
 * 2. Loop termination prediction (the paper's reference [35]) on each
 *    benchmark's loop-exit branches, against the 2-bit counter and a
 *    per-branch custom FSM - quantifying the paper's remark that
 *    compress's remaining headroom belongs to loop prediction.
 *
 * Usage: bench_ext_baselines [branches_per_run]
 */

#include <iomanip>
#include <iostream>
#include <map>

#include "bpred/btb.hh"
#include "bpred/custom.hh"
#include "bpred/loop_predictor.hh"
#include "bpred/ppm.hh"
#include "bpred/simulate.hh"
#include "bpred/trainer.hh"
#include "sim/sweep.hh"
#include "support/sud_counter.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

/** Miss rate of a per-branch loop unit on every loop-like branch. */
void
loopSection(size_t branches)
{
    std::cout << "-- loop termination prediction on the worst "
                 "loop-shaped branch --\n";
    std::cout << std::setw(10) << "bench" << std::setw(16) << "branch"
              << std::setw(12) << "2bit" << std::setw(12) << "fsm"
              << std::setw(12) << "loop-unit" << "\n";

    for (const std::string &name : branchBenchmarkNames()) {
        const auto train_trace =
            cachedBranchTrace(name, WorkloadInput::Train, branches);
        const auto test_trace =
            cachedBranchTrace(name, WorkloadInput::Test, branches);
        const PackedTrace &train = *train_trace;
        const PackedTrace &test = *test_trace;

        // Find the most-taken-biased branch with occasional exits: the
        // loop shape (taken rate in [0.7, 0.99], enough executions).
        const BranchProfile profile = profileTrace(train);
        uint64_t loop_pc = 0;
        uint64_t best_runs = 0;
        for (const auto &[pc, entry] : profile) {
            const double rate = static_cast<double>(entry.taken) /
                static_cast<double>(entry.executions);
            if (rate >= 0.7 && rate <= 0.99 &&
                entry.executions > best_runs) {
                best_runs = entry.executions;
                loop_pc = pc;
            }
        }
        if (loop_pc == 0) {
            std::cout << std::setw(10) << name << std::setw(16)
                      << "(none)" << "\n";
            continue;
        }

        // Train a custom FSM for exactly that branch.
        CustomTrainingOptions options;
        options.maxCustomBranches = 64;
        const auto trained = trainCustomPredictors(train, options);
        const TrainedBranch *fsm_branch = nullptr;
        for (const auto &branch : trained) {
            if (branch.pc == loop_pc)
                fsm_branch = &branch;
        }

        // Evaluate the three schemes on the test input.
        SudCounter counter(SudConfig::twoBit(), 1);
        LoopTerminationUnit loop_unit;
        PredictorFsm fsm(fsm_branch ? fsm_branch->design.fsm
                                    : Dfa::constant(1));
        uint64_t executions = 0, counter_wrong = 0, fsm_wrong = 0,
                 loop_wrong = 0;
        for (const auto &record : test) {
            if (record.pc == loop_pc) {
                ++executions;
                counter_wrong += counter.predict() != record.taken;
                fsm_wrong += (fsm.predict() != 0) != record.taken;
                loop_wrong += loop_unit.predict() != record.taken;
                counter.update(record.taken);
                loop_unit.update(record.taken);
            }
            fsm.update(record.taken ? 1 : 0); // update-on-every-branch
        }

        auto pct = [executions](uint64_t wrong) {
            return 100.0 * static_cast<double>(wrong) /
                static_cast<double>(executions ? executions : 1);
        };
        std::cout << std::setw(10) << name << std::setw(16) << std::hex
                  << loop_pc << std::dec << std::fixed
                  << std::setprecision(2) << std::setw(11)
                  << pct(counter_wrong) << "%" << std::setw(11)
                  << pct(fsm_wrong) << "%" << std::setw(11)
                  << pct(loop_wrong) << "%\n";
    }
    std::cout << "\n";
}

void
ppmSection(size_t branches)
{
    std::cout << "-- PPM baseline vs XScale and custom --\n";
    std::cout << std::setw(10) << "bench" << std::setw(12) << "xscale"
              << std::setw(14) << "ppm(m8,2^10)" << std::setw(12)
              << "custom-8" << "\n";

    for (const std::string &name : branchBenchmarkNames()) {
        const auto train_trace =
            cachedBranchTrace(name, WorkloadInput::Train, branches);
        const auto test_trace =
            cachedBranchTrace(name, WorkloadInput::Test, branches);
        const PackedTrace &train = *train_trace;
        const PackedTrace &test = *test_trace;

        // The XScale column is a single-config BTB sweep point, run
        // through XScaleBtb's fused step.
        XScaleBtb btb{BtbConfig{}};
        const BpredSimResult btb_run = sweepKernelRaw(btb, test);
        publishBpredRun(btb.name(), btb_run);
        publishBtbMetrics(btb.name(), btb.lookups(), btb.hits());
        const double base = btb_run.missRate();

        PpmPredictor ppm;
        const double ppm_rate =
            simulateBranchPredictor(ppm, test).missRate();

        CustomTrainingOptions options;
        options.maxCustomBranches = 8;
        CustomBranchPredictor custom;
        for (const auto &branch : trainCustomPredictors(train, options))
            custom.addCustomEntry(branch.pc, branch.design.fsm);
        const double custom_rate =
            simulateBranchPredictor(custom, test).missRate();

        std::cout << std::setw(10) << name << std::fixed
                  << std::setprecision(2) << std::setw(11) << base * 100.0
                  << "%" << std::setw(13) << ppm_rate * 100.0 << "%"
                  << std::setw(11) << custom_rate * 100.0 << "%\n";
    }
    std::cout << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[branches_per_run]");
    const size_t branches =
        static_cast<size_t>(args.positionalOr(0, 200000));

    std::cout << "Extension baselines around Figure 5\n\n";
    ppmSection(branches);
    loopSection(branches);
    bench::exportMetricsIfRequested(args);
    return 0;
}
