/**
 * @file
 * Benchmarks the nested-index sweep engine (sim/nested_sweep.hh)
 * against the PR-3 batch path (sweepKernelBatch) on the Figure-5 sweep
 * shape: gshare 2^{8,10,12,14,16} plus LGC 2^{8,10,12,13} on one test
 * trace. The timed comparison covers exactly those two families - one
 * batch pass per family versus one fused nested pass for everything.
 * The XScale BTB point is evaluated through the engine too and checked
 * for identity (lookups and hits included), but reported untimed: the
 * batch path never serviced BTB points, so timing it would compare
 * against nothing.
 *
 * Before timing, every point is checked bit-identical against the
 * per-config sweepKernelRaw oracle across shard counts {1, 2, 3, 7,
 * 16}, the engine's auto shard choice, and both SIMD settings; any
 * divergence aborts the bench. CI gates on `identical` and `speedup`
 * in the JSON report.
 *
 * Usage: bench_sweep_nested [benchmark] [branches_per_run] [json_out]
 *   benchmark         trace name (default "compress")
 *   branches_per_run  dynamic branches in the trace (default 400000)
 *   json_out          wall-clock report path (default BENCH_sweep.json)
 * --repeat=N times each section N times and reports the median;
 * --threads/--shards steer the nested engine.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "sim/nested_sweep.hh"
#include "sim/sweep.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"
#include "synth/area.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

/** One sweep point's oracle tallies from a per-config kernel run. */
struct OraclePoint
{
    std::string name;
    uint64_t mispredicts = 0;
    uint64_t lookups = 0; // BTB only
    uint64_t hits = 0;    // BTB only
};

NestedSweepRequest
figure5Request()
{
    NestedSweepRequest request;
    for (int log2 : {8, 10, 12, 14, 16}) {
        GshareConfig config;
        config.log2Entries = log2;
        config.historyBits = std::min(log2, 16);
        request.gshare.push_back(config);
    }
    for (int log2 : {8, 10, 12, 13}) {
        LgcConfig config;
        config.log2Entries = log2;
        request.lgc.push_back(config);
    }
    request.btb.push_back(BtbConfig{});
    return request;
}

/** Per-config kernel runs: the bit-identity reference for everything. */
std::vector<OraclePoint>
runOracle(const NestedSweepRequest &request, const PackedTrace &trace,
          const AreaCosts &costs)
{
    std::vector<OraclePoint> oracle;
    for (const auto &config : request.gshare) {
        Gshare predictor(config, costs);
        oracle.push_back({predictor.name(),
                          sweepKernelRaw(predictor, trace).mispredicts});
    }
    for (const auto &config : request.lgc) {
        LocalGlobalChooser predictor(config, costs);
        oracle.push_back({predictor.name(),
                          sweepKernelRaw(predictor, trace).mispredicts});
    }
    for (const auto &config : request.btb) {
        XScaleBtb predictor(config, costs);
        const uint64_t mispredicts =
            sweepKernelRaw(predictor, trace).mispredicts;
        oracle.push_back({predictor.name(), mispredicts,
                          predictor.lookups(), predictor.hits()});
    }
    return oracle;
}

bool
matchesOracle(const NestedSweepResult &result,
              const std::vector<OraclePoint> &oracle)
{
    size_t at = 0;
    for (const auto &point : result.gshare) {
        if (point.name != oracle[at].name ||
            point.result.mispredicts != oracle[at].mispredicts)
            return false;
        ++at;
    }
    for (const auto &point : result.lgc) {
        if (point.name != oracle[at].name ||
            point.result.mispredicts != oracle[at].mispredicts)
            return false;
        ++at;
    }
    for (const auto &point : result.btb) {
        if (point.name != oracle[at].name ||
            point.result.mispredicts != oracle[at].mispredicts ||
            point.lookups != oracle[at].lookups ||
            point.hits != oracle[at].hits)
            return false;
        ++at;
    }
    return at == oracle.size();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(
        argc, argv, "[benchmark] [branches_per_run] [json_out]");
    const std::string benchmark = args.positionalOr(0, "compress");
    const size_t branches =
        static_cast<size_t>(args.positionalOr(1, 400000));
    const std::string json_out = args.positionalOr(2, "BENCH_sweep.json");
    const unsigned threads = args.threadsSet
        ? args.threads
        : ThreadPool::defaultThreadCount();

    const AreaCosts costs;
    const NestedSweepRequest request = figure5Request();
    const auto trace =
        cachedBranchTrace(benchmark, WorkloadInput::Test, branches);

    std::cout << "Nested-index sweep benchmark: sweepKernelBatch vs "
                 "sim/nested_sweep.hh\nbenchmark: "
              << benchmark << ", branches: " << trace->size()
              << ", threads: " << threads << ", repeat: " << args.repeat
              << "\nsimd compiled: " << nestedSweepSimdCompiled()
              << ", available: " << nestedSweepSimdAvailable() << "\n\n";

    // Identity first, untimed: every point against the per-config
    // kernel oracle, across shard counts, the auto choice, and both
    // SIMD settings. The sweep sizes must not depend on the partition.
    const std::vector<OraclePoint> oracle =
        runOracle(request, *trace, costs);
    bool identical = true;
    for (size_t shards : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                          size_t{7}, size_t{16}}) {
        for (bool simd : {false, true}) {
            NestedSweepOptions options;
            options.threads = threads;
            options.shards = shards;
            options.allowSimd = simd;
            const NestedSweepResult result =
                nestedSweep(request, *trace, costs, options);
            if (!matchesOracle(result, oracle)) {
                std::cerr << "FATAL: nested sweep diverges from the "
                             "per-config kernels (shards="
                          << shards << ", simd=" << simd << ")\n";
                identical = false;
            }
        }
    }
    if (!identical)
        return 1;
    std::cout << "identity: all points bit-identical across shard "
                 "counts {auto,1,2,3,7,16} x simd {off,on}\n";

    // Timed comparison on the gshare + LGC families only.
    NestedSweepRequest timed_request = request;
    timed_request.btb.clear();

    const double baseline_ms = bench::medianRunMillis(args, [&] {
        std::vector<Gshare> gshare;
        gshare.reserve(timed_request.gshare.size());
        for (const auto &config : timed_request.gshare)
            gshare.emplace_back(config, costs);
        sweepKernelBatch(gshare, *trace);
        std::vector<LocalGlobalChooser> lgc;
        lgc.reserve(timed_request.lgc.size());
        for (const auto &config : timed_request.lgc)
            lgc.emplace_back(config, costs);
        sweepKernelBatch(lgc, *trace);
    });

    NestedSweepOptions timed_options;
    timed_options.threads = threads;
    timed_options.shards = args.shards;
    NestedSweepStats stats;
    const double nested_ms = bench::medianRunMillis(args, [&] {
        stats = nestedSweep(timed_request, *trace, costs, timed_options)
                    .stats;
    });
    const double speedup =
        nested_ms > 0.0 ? baseline_ms / nested_ms : 0.0;

    // The BTB point rides the same engine; report its cost alone so
    // the full-request number is explainable, but keep it out of the
    // gated comparison (the batch path has no BTB mode to race).
    NestedSweepRequest btb_request;
    btb_request.btb = request.btb;
    const double btb_ms = bench::medianRunMillis(args, [&] {
        nestedSweep(btb_request, *trace, costs, timed_options);
    });

    std::cout << std::fixed << std::setprecision(2);
    std::cout << "batch (gshare+lgc):  " << std::setw(10) << baseline_ms
              << " ms\n";
    std::cout << "nested (gshare+lgc): " << std::setw(10) << nested_ms
              << " ms  speedup " << speedup << "x\n";
    std::cout << "nested (btb only):   " << std::setw(10) << btb_ms
              << " ms  (informational)\n";
    std::cout << "engine: simd=" << stats.simd
              << " nested=" << stats.gshareNested
              << " gshare_shards=" << stats.gshareShards
              << " points_per_pass=" << stats.pointsPerPass << "\n";

    std::ofstream out(json_out);
    if (!out) {
        std::cerr << "cannot write " << json_out << "\n";
        return 1;
    }
    JsonWriter json(out);
    json.beginObject();
    json.key("bench").value("sweep_nested");
    json.key("benchmark").value(benchmark);
    json.key("branches").value(static_cast<uint64_t>(trace->size()));
    json.key("threads").value(static_cast<uint64_t>(threads));
    json.key("shards").value(static_cast<uint64_t>(stats.gshareShards));
    json.key("repeat").value(static_cast<uint64_t>(args.repeat));
    json.key("simd").value(stats.simd);
    json.key("gshare_nested").value(stats.gshareNested);
    json.key("points_per_pass")
        .value(static_cast<uint64_t>(stats.pointsPerPass));
    json.key("identical").value(identical);
    json.key("batch_ms").value(baseline_ms);
    json.key("nested_ms").value(nested_ms);
    json.key("btb_ms").value(btb_ms);
    json.key("speedup").value(speedup);
    json.endObject();
    out << "\n";
    std::cout << "wrote " << json_out << "\n";

    bench::exportMetricsIfRequested(args);
    return 0;
}
