/**
 * @file
 * Sweep-engine tests: the trace builder round-trips, the production
 * predictor classes match the plain reference predictors
 * (reference_predictors.hh) through both their virtual and fused
 * interfaces, the transposed custom replay matches per-record machine
 * stepping, parallel sweeps match serial ones, every Figure-5 sweep
 * point is timed, and the process-wide trace cache is safe
 * under concurrent access and honours its LRU cap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/simulate.hh"
#include "bpred/trainer.hh"
#include "fsmgen/predictor_fsm.hh"
#include "fsmgen/suffix_table.hh"
#include "obs/metrics.hh"
#include "sim/figure5.hh"
#include "sim/sweep.hh"
#include "support/rng.hh"
#include "trace/packed_trace.hh"
#include "workloads/trace_cache.hh"
#include "workloads/value_workloads.hh"

#include "reference_predictors.hh"

namespace autofsm
{
namespace
{

constexpr size_t kBranches = 20000;

// Every record pushed comes back through each accessor, at lengths
// around the outcome-word boundary, with the last word's trailing bits
// zero (the layout the store and the replay engines rely on).
TEST(PackedTraceTest, RoundTripsEveryRecord)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                     size_t{65}, size_t{1000}}) {
        Rng rng(n + 1);
        std::vector<BranchRecord> records(n);
        for (BranchRecord &record : records)
            record = {0x1000 + 4 * rng.below(37), rng.chance(0.5)};
        PackedTraceBuilder builder(n / 2); // pushes past the reservation
        for (const BranchRecord &record : records)
            builder.push(record.pc, record.taken);
        const PackedTrace trace = builder.finish();

        ASSERT_EQ(trace.size(), n);
        ASSERT_EQ(trace.takenWords().size(), (n + 63) / 64);
        if (n % 64 != 0) {
            EXPECT_EQ(trace.takenWords().back() >> (n % 64), 0u) << n;
        }
        size_t i = 0;
        for (const BranchRecord record : trace) {
            EXPECT_EQ(record.pc, records[i].pc) << n << " " << i;
            EXPECT_EQ(record.taken, records[i].taken) << n << " " << i;
            EXPECT_EQ(trace.pc(i), records[i].pc);
            EXPECT_EQ(trace.taken(i), records[i].taken);
            ++i;
        }
        EXPECT_EQ(i, n);
    }
}

/** The first @p length records of @p trace, rebuilt. */
PackedTrace
prefixOf(const PackedTrace &trace, size_t length)
{
    PackedTraceBuilder prefix(length);
    for (size_t i = 0; i < length; ++i)
        prefix.push(trace.pc(i), trace.taken(i));
    return prefix.finish();
}

/**
 * Drive one production predictor through both of its interfaces - the
 * virtual predict/update pair (simulateBranchPredictor) and the fused
 * step (sweepKernelRaw) - and require both to match the plain reference
 * implementation on every output the experiments read.
 */
template <class Production, class Reference, class Config>
void
expectMatchesReference(const Config &config, const PackedTrace &trace,
                       const std::string &context)
{
    Reference reference(config);
    Production virt(config);
    Production fused(config);
    const BpredSimResult want = simulateBranchPredictor(reference, trace);
    const BpredSimResult got_virtual = simulateBranchPredictor(virt, trace);
    const BpredSimResult got_fused =
        sweepKernelRaw(fused, trace);

    EXPECT_EQ(got_virtual.branches, want.branches) << context;
    EXPECT_EQ(got_fused.branches, want.branches) << context;
    EXPECT_EQ(got_virtual.mispredicts, want.mispredicts) << context;
    EXPECT_EQ(got_fused.mispredicts, want.mispredicts) << context;
    EXPECT_EQ(virt.name(), reference.name()) << context;
    EXPECT_EQ(virt.area(), reference.area()) << context;
    if constexpr (std::is_same_v<Production, XScaleBtb>) {
        EXPECT_EQ(virt.lookups(), reference.lookups()) << context;
        EXPECT_EQ(virt.hits(), reference.hits()) << context;
        EXPECT_EQ(fused.lookups(), reference.lookups()) << context;
        EXPECT_EQ(fused.hits(), reference.hits()) << context;
    }
}

// The packed production classes must be indistinguishable from the
// reference predictors on every benchmark, at every Figure-5 geometry
// (plus a 4-entry BTB that conflicts constantly), over full traces and
// over prefixes that end around an outcome-word boundary.
TEST(ReferencePredictorTest, ProductionClassesMatchReference)
{
    for (const std::string &name : branchBenchmarkNames()) {
        const PackedTrace full =
            makeBranchTrace(name, WorkloadInput::Test, kBranches);
        for (size_t length : {full.size(), size_t{1}, size_t{63},
                              size_t{64}, size_t{65}}) {
            const PackedTrace trace = prefixOf(full, length);
            const std::string at =
                name + " n=" + std::to_string(length) + " ";

            for (int entries : {BtbConfig{}.entries, 4}) {
                BtbConfig config;
                config.entries = entries;
                expectMatchesReference<XScaleBtb, reference::XScaleBtb>(
                    config, trace, at + "btb" + std::to_string(entries));
            }
            for (int log2 = 8; log2 <= 16; ++log2) {
                GshareConfig config;
                config.log2Entries = log2;
                config.historyBits = std::min(log2, 16);
                expectMatchesReference<Gshare, reference::Gshare>(
                    config, trace, at + "gshare" + std::to_string(log2));
            }
            for (int log2 = 8; log2 <= 13; ++log2) {
                LgcConfig config;
                config.log2Entries = log2;
                expectMatchesReference<LocalGlobalChooser,
                                       reference::LocalGlobalChooser>(
                    config, trace, at + "lgc" + std::to_string(log2));
            }
        }
    }
}

TEST(ReferencePredictorTest, LocalGlobalChooserRejectsOversizedGeometry)
{
    LgcConfig config;
    config.log2Entries = 17;
    EXPECT_THROW(LocalGlobalChooser{config}, std::length_error);
}

TEST(CustomReplayTest, MatchesDirectMachineStepping)
{
    const PackedTrace train =
        makeBranchTrace("ijpeg", WorkloadInput::Train, kBranches);
    CustomTrainingOptions options;
    options.maxCustomBranches = 4;
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(train, options);
    ASSERT_FALSE(trained.empty());

    // Reference: the seed loop stepping every machine on every record.
    const BtbConfig btb_config;
    const AreaCosts costs;
    reference::XScaleBtb btb(btb_config, costs);
    std::vector<PredictorFsm> machines;
    std::unordered_map<uint64_t, size_t> machine_of;
    for (size_t i = 0; i < trained.size(); ++i) {
        machines.emplace_back(trained[i].design.fsm);
        machine_of.emplace(trained[i].pc, i);
    }
    uint64_t btb_misses_total = 0;
    std::vector<uint64_t> btb_misses(trained.size(), 0);
    std::vector<uint64_t> fsm_misses(trained.size(), 0);
    for (const BranchRecord record : train) {
        const bool wrong = btb.predict(record.pc) != record.taken;
        btb_misses_total += wrong;
        const auto it = machine_of.find(record.pc);
        if (it != machine_of.end()) {
            btb_misses[it->second] += wrong;
            fsm_misses[it->second] +=
                (machines[it->second].predict() != 0) != record.taken;
        }
        btb.update(record.pc, record.taken);
        for (auto &machine : machines)
            machine.update(record.taken ? 1 : 0);
    }

    std::vector<CustomSweepMachine> sweep_machines;
    for (const auto &branch : trained)
        sweep_machines.push_back({branch.pc, &branch.design.fsm});
    const CustomReplayCounts counts = replayCustomMachines(
        sweep_machines, train, btb_config, costs);

    EXPECT_EQ(counts.btbMissesTotal, btb_misses_total);
    EXPECT_EQ(counts.btbMisses, btb_misses);
    EXPECT_EQ(counts.fsmMisses, fsm_misses);
    EXPECT_EQ(counts.btbArea, btb.area());
}

// The training pass records the baseline tallies and branch positions
// the custom-same replay needs; driving the replay from that profile
// must yield exactly what re-simulating the baseline BTB would.
TEST(CustomReplayTest, ProfileDrivenReplayMatchesBtbPass)
{
    const PackedTrace train =
        makeBranchTrace("gsm", WorkloadInput::Train, kBranches);
    CustomTrainingOptions options;
    options.maxCustomBranches = 4;
    BaselineBtbProfile profile;
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(train, options, &profile);
    ASSERT_FALSE(trained.empty());
    ASSERT_TRUE(profile.valid);

    std::vector<CustomSweepMachine> machines;
    for (const auto &branch : trained)
        machines.push_back({branch.pc, &branch.design.fsm});

    const AreaCosts costs;
    const CustomReplayCounts from_pass = replayCustomMachines(
        machines, train, options.baseline, costs);

    CustomBaselineProfile baseline;
    baseline.btbMissesTotal = profile.mispredicts;
    baseline.btbLookups = profile.lookups;
    baseline.btbHits = profile.hits;
    baseline.btbArea = profile.area;
    baseline.btbName = profile.name;
    for (const auto &branch : trained) {
        baseline.btbMisses.push_back(branch.baselineMisses);
        baseline.positions.push_back(&branch.trainPositions);
    }
    const CustomReplayCounts from_profile =
        replayCustomMachines(machines, train, baseline);

    EXPECT_EQ(from_pass.btbMissesTotal, from_profile.btbMissesTotal);
    EXPECT_EQ(from_pass.btbMisses, from_profile.btbMisses);
    EXPECT_EQ(from_pass.fsmMisses, from_profile.fsmMisses);
    EXPECT_EQ(from_pass.btbArea, from_profile.btbArea);
    EXPECT_EQ(from_pass.btbName, from_profile.btbName);
    EXPECT_EQ(from_pass.btbLookups, from_profile.btbLookups);
    EXPECT_EQ(from_pass.btbHits, from_profile.btbHits);
}

// A profile that does not describe every machine, or whose positions
// fall outside the trace or out of order, must be rejected: padding or
// dropping entries would give a wrong curve with no error.
TEST(CustomReplayTest, RejectsMalformedBaselineProfile)
{
    PackedTraceBuilder builder(10);
    for (int i = 0; i < 10; ++i)
        builder.push(0x400, i % 3 == 0);
    const PackedTrace trace = builder.finish();
    const Dfa counter = Dfa::saturatingCounter(2);
    const std::vector<CustomSweepMachine> machines = {{0x400, &counter}};

    const std::vector<uint32_t> good = {0, 4, 9};
    CustomBaselineProfile baseline;
    baseline.btbMisses = {1};
    baseline.positions = {&good};
    EXPECT_NO_THROW(replayCustomMachines(machines, trace, baseline));

    CustomBaselineProfile short_misses = baseline;
    short_misses.btbMisses.clear();
    EXPECT_THROW(replayCustomMachines(machines, trace, short_misses),
                 std::invalid_argument);
    CustomBaselineProfile long_misses = baseline;
    long_misses.btbMisses = {1, 2};
    EXPECT_THROW(replayCustomMachines(machines, trace, long_misses),
                 std::invalid_argument);
    CustomBaselineProfile null_positions = baseline;
    null_positions.positions = {nullptr};
    EXPECT_THROW(replayCustomMachines(machines, trace, null_positions),
                 std::invalid_argument);

    for (const std::vector<uint32_t> &positions :
         {std::vector<uint32_t>{700}, std::vector<uint32_t>{2, 10},
          std::vector<uint32_t>{4, 4}, std::vector<uint32_t>{5, 1}}) {
        CustomBaselineProfile bad = baseline;
        bad.positions = {&positions};
        EXPECT_THROW(replayCustomMachines(machines, trace, bad),
                     std::invalid_argument)
            << positions.front() << ", " << positions.back();
    }
}

// Every machine Figure 5 trains is definite within the suffix table's
// budget, so its replays never fall back to stepping every record.
TEST(CustomReplayTest, DesignedMachinesTakeTheSuffixTable)
{
    const CustomTrainingOptions options;
    for (const std::string &name : branchBenchmarkNames()) {
        const std::shared_ptr<const PackedTrace> train =
            cachedBranchTrace(name, WorkloadInput::Train, kBranches);
        const std::vector<TrainedBranch> trained =
            trainCustomPredictors(*train, options);
        ASSERT_FALSE(trained.empty()) << name;
        for (const TrainedBranch &branch : trained) {
            const int index = definiteIndex(
                compileFsm(branch.design.fsm, name), train->size());
            EXPECT_GE(index, 0) << name << " pc " << branch.pc;
            EXPECT_LE(index, options.historyLength)
                << name << " pc " << branch.pc;
        }
    }
}

/** Series must agree bit for bit, label for label. */
void
expectSeriesIdentical(const AreaMissSeries &a, const AreaMissSeries &b)
{
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].area, b.points[i].area);
        EXPECT_EQ(a.points[i].missRate, b.points[i].missRate);
        EXPECT_EQ(a.points[i].label, b.points[i].label);
    }
}

// TSan covers this test in CI: the parallel run exercises concurrent
// sweep points and custom replays over the shared packed trace.
TEST(SweepParallelTest, ParallelSweepMatchesSerial)
{
    const PackedTrace train =
        makeBranchTrace("g721", WorkloadInput::Train, kBranches);
    const PackedTrace test =
        makeBranchTrace("g721", WorkloadInput::Test, kBranches);

    Fig5Options options;
    options.branchesPerRun = kBranches;
    options.gshareLog2 = {8, 12};
    options.lgcLog2 = {8, 12};
    options.training.maxCustomBranches = 4;
    BaselineBtbProfile profile;
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(train, options.training, &profile);

    options.sweepThreads = 1;
    const Fig5Benchmark serial =
        evaluateFigure5("g721", train, test, trained, options);
    options.sweepThreads = 4;
    const Fig5Benchmark parallel =
        evaluateFigure5("g721", train, test, trained, options);

    EXPECT_EQ(serial.xscale.area, parallel.xscale.area);
    EXPECT_EQ(serial.xscale.missRate, parallel.xscale.missRate);
    expectSeriesIdentical(serial.gshare, parallel.gshare);
    expectSeriesIdentical(serial.lgc, parallel.lgc);
    expectSeriesIdentical(serial.customSame, parallel.customSame);
    expectSeriesIdentical(serial.customDiff, parallel.customDiff);

    // The profile-driven custom-same path must not change anything
    // either (parallel + profile is what runFigure5 actually runs).
    const Fig5Benchmark profiled =
        evaluateFigure5("g721", train, test, trained, options, &profile);
    EXPECT_EQ(serial.xscale.area, profiled.xscale.area);
    EXPECT_EQ(serial.xscale.missRate, profiled.xscale.missRate);
    expectSeriesIdentical(serial.customSame, profiled.customSame);
    expectSeriesIdentical(serial.customDiff, profiled.customDiff);
}

// One Figure-5 pass times every sweep point it evaluates: each gshare
// and LGC point, the baseline BTB chain and the two custom-machine
// replays. A point that forgets its timer leaves the count short.
TEST(SweepTelemetryTest, EveryExportedSweepPointCellIsObserved)
{
#ifdef AUTOFSM_NO_TELEMETRY
    GTEST_SKIP() << "built with AUTOFSM_NO_TELEMETRY";
#endif
    obs::MetricsRegistry &registry = obs::globalMetrics();
    registry.reset();

    Fig5Options options;
    options.branchesPerRun = kBranches;
    options.training.maxCustomBranches = 4;
    runFigure5("gsm", options);

    size_t cells = 0;
    for (const obs::MetricValue &metric : registry.snapshot().metrics) {
        if (metric.name != "autofsm_sweep_point_millis")
            continue;
        ++cells;
        EXPECT_TRUE(metric.labels.empty());
        EXPECT_EQ(metric.histogram.count,
                  options.gshareLog2.size() + options.lgcLog2.size() + 3);
    }
    EXPECT_EQ(cells, 1u);
}

TEST(TraceCacheTest, ConcurrentCallersShareOneBuild)
{
    clearBranchTraceCache();

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const PackedTrace>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&got, t] {
            got[static_cast<size_t>(t)] =
                cachedBranchTrace("gs", WorkloadInput::Train, kBranches);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[static_cast<size_t>(t)], got[0]);
    ASSERT_NE(got[0], nullptr);
    EXPECT_EQ(got[0]->size(),
              makeBranchTrace("gs", WorkloadInput::Train, kBranches).size());

    const BranchTraceCacheStats stats = branchTraceCacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.cachedBranches, got[0]->size());

    // Distinct keys are distinct entries; repeats hit.
    const auto test_input =
        cachedBranchTrace("gs", WorkloadInput::Test, kBranches);
    EXPECT_NE(test_input, got[0]);
    const auto again =
        cachedBranchTrace("gs", WorkloadInput::Train, kBranches);
    EXPECT_EQ(again, got[0]);
    EXPECT_EQ(branchTraceCacheStats().misses, 2u);

    clearBranchTraceCache();
    EXPECT_EQ(branchTraceCacheStats().entries, 0u);
}

TEST(TraceCacheTest, LruCapEvictsColdestCompletedEntry)
{
    clearBranchTraceCache();
    const size_t previous = setBranchTraceCacheCapacity(2);

    const auto a = cachedBranchTrace("gs", WorkloadInput::Train, 2000);
    const auto b = cachedBranchTrace("gs", WorkloadInput::Test, 2000);
    // Touch 'a' so 'b' is the LRU victim when 'c' lands.
    cachedBranchTrace("gs", WorkloadInput::Train, 2000);
    const auto c = cachedBranchTrace("gsm", WorkloadInput::Train, 2000);
    (void)c;

    BranchTraceCacheStats stats = branchTraceCacheStats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.capacity, 2u);

    // 'a' survived (it was touched); re-requesting it hits...
    const uint64_t hits_before = branchTraceCacheStats().hits;
    const auto a2 = cachedBranchTrace("gs", WorkloadInput::Train, 2000);
    EXPECT_EQ(a2, a);
    EXPECT_EQ(branchTraceCacheStats().hits, hits_before + 1);
    // ...while the evicted 'b' rebuilds (a fresh allocation; the old
    // shared_ptr stays valid).
    const auto b2 = cachedBranchTrace("gs", WorkloadInput::Test, 2000);
    EXPECT_NE(b2, b);
    EXPECT_EQ(b2->size(), b->size());

    setBranchTraceCacheCapacity(previous);
    clearBranchTraceCache();
}

#ifndef AUTOFSM_NO_TELEMETRY
uint64_t
traceEvictionsCounter()
{
    for (const obs::MetricValue &metric :
         obs::globalMetrics().snapshot().metrics) {
        if (metric.name == "autofsm_tracecache_evictions_total")
            return metric.count;
    }
    return 0;
}
#endif

// Lowering the cap evicts least-recently-used completed traces at
// once (and counts them); a caller still holding an evicted trace keeps
// a valid one, and the next lookup rebuilds the same records.
TEST(TraceCacheTest, LoweringTheCapEvictsImmediately)
{
    clearBranchTraceCache();
    const size_t previous = setBranchTraceCacheCapacity(0);
#ifndef AUTOFSM_NO_TELEMETRY
    const uint64_t counted_before = traceEvictionsCounter();
#endif

    const auto t1 = cachedBranchTrace("gs", WorkloadInput::Train, 2000);
    const auto t2 = cachedBranchTrace("gs", WorkloadInput::Test, 2000);
    const auto t3 = cachedBranchTrace("gsm", WorkloadInput::Train, 2000);
    cachedBranchTrace("gs", WorkloadInput::Train, 2000); // touch t1
    EXPECT_EQ(branchTraceCacheStats().entries, 3u);

    // t2 and t3 are now the coldest; a cap of one keeps only t1.
    EXPECT_EQ(setBranchTraceCacheCapacity(1), 0u);
    BranchTraceCacheStats stats = branchTraceCacheStats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.capacity, 1u);
    EXPECT_EQ(stats.cachedBranches, t1->size());
#ifndef AUTOFSM_NO_TELEMETRY
    EXPECT_EQ(traceEvictionsCounter() - counted_before, 2u);
#endif

    EXPECT_EQ(cachedBranchTrace("gs", WorkloadInput::Train, 2000), t1);
    const PackedTrace fresh = makeBranchTrace("gs", WorkloadInput::Test, 2000);
    ASSERT_EQ(t2->size(), fresh.size());
    EXPECT_TRUE(std::equal(t2->pcs().begin(), t2->pcs().end(),
                           fresh.pcs().begin()));
    const auto t2_again = cachedBranchTrace("gs", WorkloadInput::Test, 2000);
    EXPECT_NE(t2_again, t2); // rebuilt after eviction
    EXPECT_TRUE(std::equal(t2_again->takenWords().begin(),
                           t2_again->takenWords().end(),
                           t2->takenWords().begin()));
    (void)t3;

    setBranchTraceCacheCapacity(previous);
    clearBranchTraceCache();
}

#ifndef AUTOFSM_NO_TELEMETRY
/** Observations so far in autofsm_trace_build_millis. */
uint64_t
traceBuildCount()
{
    for (const obs::MetricValue &metric :
         obs::globalMetrics().snapshot().metrics) {
        if (metric.name == "autofsm_trace_build_millis")
            return metric.histogram.count;
    }
    return 0;
}
#endif

TEST(TraceCacheTest, ColdKeyIsTimedOnceIntoTheBuildHistogram)
{
#ifdef AUTOFSM_NO_TELEMETRY
    GTEST_SKIP() << "built with AUTOFSM_NO_TELEMETRY";
#else
    clearBranchTraceCache();
    const uint64_t before = traceBuildCount();
    const auto first = cachedBranchTrace("gsm", WorkloadInput::Test, 2000);
    const auto second = cachedBranchTrace("gsm", WorkloadInput::Test, 2000);
    EXPECT_EQ(first, second);
    EXPECT_EQ(traceBuildCount() - before, 1u);

    makeValueTrace(valueBenchmarkNames().front(), 1000);
    EXPECT_EQ(traceBuildCount() - before, 2u);
    clearBranchTraceCache();
#endif
}

} // anonymous namespace
} // namespace autofsm
