/**
 * @file
 * Benchmarks the multi-order profiling engine (fsmgen/profile.hh)
 * against a faithful replica of the seed's per-order training: one
 * baseline BTB pass plus one sparse-map trace walk *per order*, as
 * figure5's order sweep used to do. The engine path makes one baseline
 * pass and one counting walk at the maximum order, then folds the lower
 * orders out. Every per-order model must be bit-identical between the
 * two paths or the bench aborts.
 *
 * A second timed section designs every swept model into an FSM through
 * the shared design flow, reporting machines/sec and the design-memo
 * hit rate (flow/design_memo.hh): across branches and orders many
 * truth tables coincide, so the minimize->regex->DFA->reduce tail
 * is shared.
 *
 * Usage: bench_profile [branches_per_run] [json_out]
 *   branches_per_run  dynamic branches per trace (default 400000)
 *   json_out          wall-clock report path (default BENCH_profile.json)
 * --repeat=N times the two sweep sections N times and reports the
 * median run (the design section stays single-shot: its memo hit rate
 * is part of the report and re-running would warm it).
 */

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bpred/trainer.hh"
#include "flow/batch.hh"
#include "flow/design_memo.hh"
#include "fsmgen/designer.hh"
#include "fsmgen/profile.hh"
#include "support/history.hh"
#include "support/json.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/**
 * Faithful replica of the seed's order sweep: for every order, a fresh
 * baseline profiling pass ranks the branches, then a sparse-map walk
 * trains one MarkovModel per selected branch. Returns models indexed
 * [order][branch] with branches in ranked order.
 */
std::vector<std::vector<MarkovModel>>
seedOrderSweep(const PackedTrace &trace, const std::vector<int> &orders,
               const CustomTrainingOptions &options)
{
    std::vector<std::vector<MarkovModel>> per_order;
    per_order.reserve(orders.size());
    for (const int order : orders) {
        const auto ranked = profileBaselineMisses(trace, options.baseline);
        const size_t count = std::min(
            ranked.size(), static_cast<size_t>(options.maxCustomBranches));

        std::unordered_map<uint64_t, MarkovModel> models;
        for (size_t i = 0; i < count; ++i)
            models.emplace(ranked[i].first, MarkovModel(order));

        HistoryRegister global(order);
        for (const auto &record : trace) {
            const auto it = models.find(record.pc);
            if (it != models.end() && global.warm())
                it->second.observe(global.value(), record.taken ? 1 : 0);
            global.push(record.taken ? 1 : 0);
        }

        std::vector<MarkovModel> out;
        out.reserve(count);
        for (size_t i = 0; i < count; ++i)
            out.push_back(std::move(models.at(ranked[i].first)));
        per_order.push_back(std::move(out));
    }
    return per_order;
}

struct BenchmarkTiming
{
    std::string name;
    double perOrderMs = 0.0; ///< seed replica: one walk per order
    double sweepMs = 0.0;    ///< engine: one walk + folds
    /**
     * Engine stage: standalone counting pass. Zero when the caller
     * feeds observe() inline (the trainer does), in which case the
     * counting time is part of sweepMs.
     */
    double countMs = 0.0;
    double foldMs = 0.0;     ///< engine stage: order-ladder folds
    double replayMs = 0.0;   ///< engine stage: warm-up replay
    double designMs = 0.0;   ///< designing every swept model
    size_t machines = 0;     ///< machines designed

    double
    speedup() const
    {
        return sweepMs > 0.0 ? perOrderMs / sweepMs : 0.0;
    }

    double
    machinesPerSec() const
    {
        return designMs > 0.0
            ? static_cast<double>(machines) * 1000.0 / designMs
            : 0.0;
    }
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args =
        bench::parseBenchArgs(argc, argv, "[branches_per_run] [json_out]");
    const size_t branches =
        static_cast<size_t>(args.positionalOr(0, 400000));
    const std::string json_out = args.positionalOr(1, "BENCH_profile.json");

    std::vector<int> orders;
    for (int order = 2; order <= 10; ++order)
        orders.push_back(order);

    CustomTrainingOptions options;

    std::cout << "Profiling-engine benchmark: fold sweep vs per-order "
                 "training (orders 2-10, "
              << branches << " branches/run)\n\n";
    std::cout << std::setw(10) << "bench" << std::setw(12) << "perorder"
              << std::setw(10) << "sweep" << std::setw(9) << "speedup"
              << std::setw(10) << "design" << std::setw(12) << "mach/s"
              << "\n";

    const DesignMemoStats memo_before = designMemoStats();
    std::vector<BenchmarkTiming> timings;

    for (const std::string &name : branchBenchmarkNames()) {
        const auto train_trace =
            cachedBranchTrace(name, WorkloadInput::Train, branches);
        const PackedTrace &train = *train_trace;

        BenchmarkTiming timing;
        timing.name = name;

        // Seed replica: per-order baseline pass + sparse walk. Both
        // paths train from scratch each run, so --repeat=N re-runs
        // them unchanged and the upper median drops cold-cache noise.
        std::vector<std::vector<MarkovModel>> seed_models;
        timing.perOrderMs = bench::medianRunMillis(args, [&] {
            seed_models = seedOrderSweep(train, orders, options);
        });

        // Engine: one baseline pass, one counting walk, fold the rest.
        std::vector<BranchModelSweep> sweeps;
        timing.sweepMs = bench::medianRunMillis(args, [&] {
            sweeps = collectBranchModelSweeps(train, orders, options);
        });

        for (const BranchModelSweep &sweep : sweeps) {
            timing.countMs += sweep.profile.stats().countMillis;
            timing.foldMs += sweep.profile.stats().foldMillis;
            timing.replayMs += sweep.profile.stats().replayMillis;
        }

        // Fold-vs-direct bit-identity: every model, every order.
        for (size_t oi = 0; oi < orders.size(); ++oi) {
            if (seed_models[oi].size() != sweeps.size()) {
                std::cerr << "FATAL: " << name << " order " << orders[oi]
                          << ": branch count mismatch ("
                          << seed_models[oi].size() << " vs "
                          << sweeps.size() << ")\n";
                return 1;
            }
            for (size_t bi = 0; bi < sweeps.size(); ++bi) {
                if (!markovEqual(seed_models[oi][bi],
                                 sweeps[bi].profile.model(orders[oi]))) {
                    std::cerr << "FATAL: " << name << " order "
                              << orders[oi] << " branch " << bi
                              << ": fold-derived table differs from "
                                 "direct training\n";
                    return 1;
                }
            }
        }

        // Design throughput: every swept model through the shared flow.
        const auto design_start = Clock::now();
        for (const int order : orders) {
            FsmDesignOptions design;
            design.order = order;
            design.patterns = options.patterns;
            design.minimizer = options.minimizer;
            for (const BranchModelSweep &sweep : sweeps) {
                const FsmDesignResult designed =
                    DesignFlow(design).run(sweep.profile.model(order)).design;
                timing.machines += designed.fsm.numStates() > 0;
            }
        }
        timing.designMs = millisSince(design_start);

        std::cout << std::setw(10) << timing.name << std::setw(12)
                  << std::fixed << std::setprecision(1) << timing.perOrderMs
                  << std::setw(10) << timing.sweepMs << std::setw(8)
                  << std::setprecision(2) << timing.speedup() << "x"
                  << std::setw(10) << std::setprecision(1)
                  << timing.designMs << std::setw(12) << std::setprecision(0)
                  << timing.machinesPerSec() << "\n";
        timings.push_back(timing);
    }

    const DesignMemoStats memo_after = designMemoStats();
    const uint64_t memo_hits = memo_after.hits - memo_before.hits;
    const uint64_t memo_misses = memo_after.misses - memo_before.misses;

    double per_order_total = 0.0, sweep_total = 0.0, design_total = 0.0;
    size_t machines_total = 0;
    for (const auto &timing : timings) {
        per_order_total += timing.perOrderMs;
        sweep_total += timing.sweepMs;
        design_total += timing.designMs;
        machines_total += timing.machines;
    }
    const double overall =
        sweep_total > 0.0 ? per_order_total / sweep_total : 0.0;

    std::cout << "\ntotal: per-order " << std::setprecision(1)
              << per_order_total << " ms, sweep " << sweep_total
              << " ms, speedup " << std::setprecision(2) << overall
              << "x\ndesign: " << machines_total << " machines in "
              << std::setprecision(1) << design_total << " ms ("
              << std::setprecision(0)
              << (design_total > 0.0
                      ? static_cast<double>(machines_total) * 1000.0 /
                          design_total
                      : 0.0)
              << " machines/s), memo " << memo_hits << " hits / "
              << memo_misses << " misses\n";
    std::cout << "fold-derived tables bit-identical to direct training\n";

    std::ofstream out(json_out);
    if (!out) {
        std::cerr << "FATAL: cannot write " << json_out << "\n";
        return 1;
    }
    JsonWriter json(out);
    json.beginObject();
    json.key("bench").value("profile");
    json.key("branches_per_run").value(static_cast<uint64_t>(branches));
    json.key("order_min").value(static_cast<uint64_t>(orders.front()));
    json.key("order_max").value(static_cast<uint64_t>(orders.back()));
    json.key("benchmarks").beginArray();
    for (const auto &timing : timings) {
        json.beginObject();
        json.key("name").value(timing.name);
        json.key("per_order_ms").value(timing.perOrderMs);
        json.key("sweep_ms").value(timing.sweepMs);
        json.key("speedup").value(timing.speedup());
        json.key("count_ms").value(timing.countMs);
        json.key("fold_ms").value(timing.foldMs);
        json.key("replay_ms").value(timing.replayMs);
        json.key("design_ms").value(timing.designMs);
        json.key("machines").value(static_cast<uint64_t>(timing.machines));
        json.key("machines_per_sec").value(timing.machinesPerSec());
        json.endObject();
    }
    json.endArray();
    json.key("per_order_ms_total").value(per_order_total);
    json.key("sweep_ms_total").value(sweep_total);
    json.key("speedup").value(overall);
    json.key("design_ms_total").value(design_total);
    json.key("machines_total").value(static_cast<uint64_t>(machines_total));
    json.key("designmemo_hits").value(memo_hits);
    json.key("designmemo_misses").value(memo_misses);
    json.key("identical").value(true);
    json.endObject();
    out << "\n";

    bench::exportMetricsIfRequested(args);
    return 0;
}
