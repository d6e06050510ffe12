/**
 * @file
 * Extension experiment: FSM-guided cache bypass (Section 2.4).
 *
 * For each synthetic memory workload: baseline miss rate (always
 * fill), 2-bit-counter bypass, and generated-FSM bypass trained on the
 * reuse streams of the OTHER workloads (cross-trained, like the
 * confidence experiments). A good bypass predictor keeps streaming
 * fills out of the cache and cuts the resident loads' conflict misses.
 *
 * Usage: bench_ext_cache_bypass [accesses_per_workload]
 */

#include <iomanip>
#include <iostream>

#include "cache/bypass.hh"
#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "workloads/memory_workloads.hh"

#include "bench_common.hh"

using namespace autofsm;

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[accesses_per_run]");
    const size_t accesses =
        static_cast<size_t>(args.positionalOr(0, 200000));

    CacheConfig cache; // 16 KiB: 128 sets x 4 ways x 32 B
    const int log2_entries = 8;

    std::cout << "Extension: cache bypass guided by designed FSMs "
                 "(16 KiB 4-way cache)\n\n";
    std::cout << std::setw(12) << "workload" << std::setw(12) << "no-bypass"
              << std::setw(12) << "2bit" << std::setw(12) << "fsm"
              << std::setw(12) << "bypassed" << "\n";

    for (const std::string &name : memoryWorkloadNames()) {
        const ValueTrace own = makeMemoryTrace(name, accesses);

        NeverBypass never;
        const BypassSimResult base = simulateBypass(own, cache, never);

        SudBypass sud(log2_entries, SudConfig::twoBit());
        const BypassSimResult counter = simulateBypass(own, cache, sud);

        // Cross-train the FSM on the other workloads' reuse streams,
        // profiled under the 2-bit baseline policy (the paper's
        // profile-under-the-baseline methodology).
        MarkovModel model(4);
        for (const std::string &other : memoryWorkloadNames()) {
            if (other == name)
                continue;
            SudBypass baseline(log2_entries, SudConfig::twoBit());
            collectReuseModel(makeMemoryTrace(other, accesses), cache,
                              log2_entries, model, baseline);
        }
        FsmDesignOptions design;
        design.order = 4;
        const FsmDesignResult designed = DesignFlow(design).run(model).design;
        FsmBypass fsm(log2_entries, designed.fsm);
        const BypassSimResult fsm_r = simulateBypass(own, cache, fsm);

        std::cout << std::setw(12) << name << std::fixed
                  << std::setprecision(2) << std::setw(11)
                  << base.missRate() * 100.0 << "%" << std::setw(11)
                  << counter.missRate() * 100.0 << "%" << std::setw(11)
                  << fsm_r.missRate() * 100.0 << "%" << std::setw(11)
                  << 100.0 * static_cast<double>(fsm_r.bypasses) /
                      static_cast<double>(fsm_r.accesses)
                  << "%\n";
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
