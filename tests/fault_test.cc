/**
 * @file
 * Deterministic fault-injection tests of the resilience layer: failpoint
 * trigger modes, the design flow's degradation ladders (minimizer and
 * automata fallbacks), budget/deadline enforcement, the batch retry
 * policy, and recovery paths in the trace cache and the thread pool.
 * Every recovery path is driven deterministically — no timing or
 * scheduling luck — so the suite is also run under TSan in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "flow/batch.hh"
#include "flow/budget.hh"
#include "flow/design_flow.hh"
#include "obs/metrics.hh"
#include "store/store.hh"
#include "support/failpoint.hh"
#include "support/thread_pool.hh"
#include "workloads/branch_workloads.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{
namespace
{

/** The Section 4 worked-example trace. */
std::vector<int>
paperTrace()
{
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');
    return trace;
}

/** Deterministic distinct traces so memoization cannot merge items. */
std::vector<std::vector<int>>
distinctTraces(size_t count)
{
    std::vector<std::vector<int>> traces;
    for (size_t t = 0; t < count; ++t) {
        std::vector<int> trace;
        for (size_t i = 0; i < 256; ++i)
            trace.push_back(static_cast<int>((i >> (t % 8)) & 1));
        traces.push_back(std::move(trace));
    }
    return traces;
}

/** Models for distinctTraces at @p order. */
std::vector<MarkovModel>
distinctModels(size_t count, int order)
{
    std::vector<MarkovModel> models;
    for (const auto &trace : distinctTraces(count)) {
        MarkovModel model(order);
        model.train(trace);
        models.push_back(std::move(model));
    }
    return models;
}

#ifndef AUTOFSM_NO_TELEMETRY
/** Current value of a counter identified by name + exact label set. */
uint64_t
counterValue(const std::string &name, const obs::Labels &labels)
{
    const obs::MetricsSnapshot snap = obs::globalMetrics().snapshot();
    for (const auto &metric : snap.metrics) {
        if (metric.name != name || metric.labels.size() != labels.size())
            continue;
        bool all = true;
        for (const auto &want : metric.labels) {
            bool found = false;
            for (const auto &have : labels)
                found |= have == want;
            all &= found;
        }
        if (all)
            return metric.count;
    }
    return 0;
}
#endif

/** Every test leaves the process-wide registry disarmed. */
class FaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { failpoint::registry().clearAll(); }
};

TEST_F(FaultTest, FailAfterMode)
{
    failpoint::registry().set("t.after", "fail-after:2");
    EXPECT_NO_THROW(failpoint::evaluate("t.after"));
    EXPECT_NO_THROW(failpoint::evaluate("t.after"));
    EXPECT_THROW(failpoint::evaluate("t.after"), InjectedFault);
    EXPECT_THROW(failpoint::evaluate("t.after"), InjectedFault);

    const failpoint::SiteStats stats =
        failpoint::registry().stats("t.after");
    EXPECT_EQ(stats.evaluations, 4u);
    EXPECT_EQ(stats.triggers, 2u);
}

TEST_F(FaultTest, FailTimesModeIsTransient)
{
    failpoint::registry().set("t.times", "fail-times:2");
    EXPECT_THROW(failpoint::evaluate("t.times"), InjectedFault);
    EXPECT_THROW(failpoint::evaluate("t.times"), InjectedFault);
    EXPECT_NO_THROW(failpoint::evaluate("t.times"));
    EXPECT_NO_THROW(failpoint::evaluate("t.times"));
}

TEST_F(FaultTest, FailEveryMode)
{
    failpoint::registry().set("t.every", "fail-every:3");
    int triggers = 0;
    for (int i = 0; i < 9; ++i) {
        try {
            failpoint::evaluate("t.every");
        } catch (const InjectedFault &e) {
            EXPECT_EQ(e.site(), "t.every");
            ++triggers;
            // Only the 3rd, 6th and 9th evaluation trigger.
            EXPECT_EQ((i + 1) % 3, 0);
        }
    }
    EXPECT_EQ(triggers, 3);
}

TEST_F(FaultTest, FailProbModeIsSeededAndDeterministic)
{
    failpoint::registry().set("t.prob", "fail-prob:1.0:7");
    EXPECT_THROW(failpoint::evaluate("t.prob"), InjectedFault);

    failpoint::registry().set("t.prob", "fail-prob:0.0");
    for (int i = 0; i < 50; ++i)
        EXPECT_NO_THROW(failpoint::evaluate("t.prob"));

    // A fractional probability triggers the same subsequence every run.
    std::vector<int> first, second;
    for (int pass = 0; pass < 2; ++pass) {
        failpoint::registry().set("t.prob", "fail-prob:0.5:1234");
        std::vector<int> &hits = pass == 0 ? first : second;
        for (int i = 0; i < 64; ++i) {
            try {
                failpoint::evaluate("t.prob");
            } catch (const InjectedFault &) {
                hits.push_back(i);
            }
        }
    }
    EXPECT_FALSE(first.empty());
    EXPECT_LT(first.size(), 64u);
    EXPECT_EQ(first, second);
}

TEST_F(FaultTest, ConfigureParsesEnvFormat)
{
    failpoint::registry().configure(
        "t.a:fail-after:0,t.b:fail-every:2");
    EXPECT_TRUE(failpoint::registry().configured("t.a"));
    EXPECT_TRUE(failpoint::registry().configured("t.b"));
    EXPECT_FALSE(failpoint::registry().configured("t.c"));
    EXPECT_THROW(failpoint::evaluate("t.a"), InjectedFault);
    EXPECT_NO_THROW(failpoint::evaluate("t.b"));
    EXPECT_THROW(failpoint::evaluate("t.b"), InjectedFault);

    failpoint::registry().clear("t.a");
    EXPECT_FALSE(failpoint::registry().configured("t.a"));
    EXPECT_NO_THROW(failpoint::evaluate("t.a"));
    // Cleared sites keep their stats readable.
    EXPECT_EQ(failpoint::registry().stats("t.a").triggers, 1u);
}

TEST_F(FaultTest, BadSpecsAreRejected)
{
    failpoint::Registry &reg = failpoint::registry();
    EXPECT_THROW(reg.set("t.x", "explode"), std::invalid_argument);
    EXPECT_THROW(reg.set("t.x", "fail-after:banana"),
                 std::invalid_argument);
    EXPECT_THROW(reg.set("t.x", "fail-every:0"), std::invalid_argument);
    EXPECT_THROW(reg.set("t.x", "fail-prob:1.5"), std::invalid_argument);
    EXPECT_THROW(reg.configure("nocolon"), std::invalid_argument);
    EXPECT_FALSE(reg.configured("t.x"));
}

TEST_F(FaultTest, UnconfiguredSitePassesEvenWhileArmed)
{
    failpoint::registry().set("t.other", "fail-after:0");
    EXPECT_NO_THROW(failpoint::evaluate("t.unrelated"));
}

// ---------------------------------------------------------------------
// Design-flow degradation ladders.
// ---------------------------------------------------------------------

TEST_F(FaultTest, EspressoFailureFallsBackToExactQm)
{
    failpoint::registry().set("logicmin.espresso", "fail-after:0");

    FsmDesignOptions options;
    options.minimizer = MinimizeAlgo::Heuristic;
    const FlowResult degraded = DesignFlow(options).runOnTrace(paperTrace());
    EXPECT_TRUE(degraded.trace.degraded());
    ASSERT_FALSE(degraded.trace.fallbacks().empty());
    EXPECT_EQ(degraded.trace.fallbacks().front(), "minimize:exact");

    // The fallback engine is the exact one, so the machine matches a
    // healthy exact-minimizer run bit for bit.
    failpoint::registry().clearAll();
    FsmDesignOptions exact;
    exact.minimizer = MinimizeAlgo::Exact;
    const FlowResult healthy = DesignFlow(exact).runOnTrace(paperTrace());
    EXPECT_FALSE(healthy.trace.degraded());
    EXPECT_TRUE(degraded.design.fsm.identical(healthy.design.fsm));
}

TEST_F(FaultTest, TotalMinimizerFailureFallsBackToUnminimizedCover)
{
    failpoint::registry().configure(
        "logicmin.espresso:fail-after:0,logicmin.qm:fail-after:0");

    FsmDesignOptions options;
    options.minimizer = MinimizeAlgo::Heuristic;
    const FlowResult result = DesignFlow(options).runOnTrace(paperTrace());
    EXPECT_TRUE(result.trace.degraded());
    ASSERT_FALSE(result.trace.fallbacks().empty());
    EXPECT_EQ(result.trace.fallbacks().back(), "minimize:unminimized");

    // The unminimized cover is exact on the ON-set, so the flow still
    // finishes with a usable machine and full stage records.
    EXPECT_GE(result.design.fsm.numStates(), 1);
    EXPECT_NE(result.trace.find(FlowStage::StartReduce), nullptr);
}

TEST_F(FaultTest, DfaBudgetFallsBackToSaturatingCounter)
{
    FsmDesignOptions options;
    options.budget.maxDfaStates = 1;
    const FlowResult result = DesignFlow(options).runOnTrace(paperTrace());
    EXPECT_TRUE(result.trace.degraded());
    ASSERT_FALSE(result.trace.fallbacks().empty());
    EXPECT_EQ(result.trace.fallbacks().back(), "subset:saturating-counter");
    EXPECT_TRUE(result.design.fsm.identical(Dfa::saturatingCounter(2)));
    EXPECT_EQ(result.design.statesFinal, 4);
    // Degraded runs keep the same FlowTrace shape as healthy ones.
    EXPECT_NE(result.trace.find(FlowStage::Subset), nullptr);
    EXPECT_NE(result.trace.find(FlowStage::StartReduce), nullptr);
}

TEST_F(FaultTest, NfaBudgetFallsBackToSaturatingCounter)
{
    FsmDesignOptions options;
    options.budget.maxNfaStates = 1;
    const FlowResult result = DesignFlow(options).runOnTrace(paperTrace());
    EXPECT_TRUE(result.trace.degraded());
    EXPECT_TRUE(result.design.fsm.identical(Dfa::saturatingCounter(2)));
}

TEST_F(FaultTest, SaturatingCounterIsTheClassicTwoBitMachine)
{
    const Dfa counter = Dfa::saturatingCounter(2);
    ASSERT_EQ(counter.numStates(), 4);
    EXPECT_EQ(counter.output(0), 0);
    EXPECT_EQ(counter.output(1), 0);
    EXPECT_EQ(counter.output(2), 1);
    EXPECT_EQ(counter.output(3), 1);
    EXPECT_EQ(counter.start(), 1); // weakly not-taken
    EXPECT_EQ(counter.next(0, 0), 0); // saturates low
    EXPECT_EQ(counter.next(3, 1), 3); // saturates high
    EXPECT_EQ(counter.next(1, 1), 2);
    EXPECT_EQ(counter.next(2, 0), 1);
}

TEST_F(FaultTest, DeadlineExceededPropagates)
{
    FsmDesignOptions options;
    options.budget.deadlineMillis = 1e-9; // expires immediately
    try {
        DesignFlow(options).runOnTrace(paperTrace());
        FAIL() << "expected FlowError";
    } catch (const FlowError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::DeadlineExceeded);
        EXPECT_NE(std::string(e.what()).find("deadline-exceeded"),
                  std::string::npos);
    }
}

TEST_F(FaultTest, DefaultBudgetIsUnlimitedAndChangesNothing)
{
    const FlowBudget budget;
    EXPECT_TRUE(budget.unlimited());
    EXPECT_TRUE(budget.escalated(8.0).unlimited());

    FlowBudget finite;
    finite.maxDfaStates = 4;
    finite.maxMinterms = 10;
    const FlowBudget doubled = finite.escalated(2.0);
    EXPECT_EQ(doubled.maxDfaStates, 8);
    EXPECT_EQ(doubled.maxMinterms, 20u);
    EXPECT_EQ(doubled.maxNfaStates, 0);      // unlimited stays unlimited
    EXPECT_EQ(doubled.deadlineMillis, 0.0);

    // A default-budget run is bit-identical to the pre-budget pipeline.
    const FlowResult a = DesignFlow().runOnTrace(paperTrace());
    const FlowResult b = DesignFlow().runOnTrace(paperTrace());
    EXPECT_FALSE(a.trace.degraded());
    EXPECT_TRUE(a.design.fsm.identical(b.design.fsm));
}

// ---------------------------------------------------------------------
// Batch retry policy.
// ---------------------------------------------------------------------

TEST_F(FaultTest, BatchRetriesTransientFaultAndSucceeds)
{
    failpoint::registry().set("flow.patterns", "fail-times:1");

    MarkovModel model(2);
    model.train(paperTrace());
    BatchOptions batch;
    batch.threads = 1;
    batch.retry.maxAttempts = 2;
    BatchDesigner designer(FsmDesignOptions{}, batch);
    const auto results = designer.designAll({model});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 2);
    EXPECT_EQ(designer.stats().retries, 1u);
    EXPECT_EQ(designer.stats().failures, 0u);

    // The retried item matches a healthy run exactly.
    const FlowResult healthy = DesignFlow().run(model);
    EXPECT_TRUE(results[0].flow.design.fsm.identical(healthy.design.fsm));
}

TEST_F(FaultTest, BatchReportsTerminalInjectedFaultAfterRetries)
{
    failpoint::registry().set("flow.patterns", "fail-times:10");

    MarkovModel model(2);
    model.train(paperTrace());
    BatchOptions batch;
    batch.threads = 1;
    batch.retry.maxAttempts = 3;
    BatchDesigner designer(FsmDesignOptions{}, batch);
    const auto results = designer.designAll({model});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 3);
    EXPECT_EQ(results[0].errorKind, "injected");
    EXPECT_EQ(designer.stats().failures, 1u);
    EXPECT_EQ(designer.stats().retries, 2u);
}

TEST_F(FaultTest, BatchDeadlineFailureIsRetriedThenTerminal)
{
    MarkovModel model(2);
    model.train(paperTrace());
    FsmDesignOptions design;
    design.budget.deadlineMillis = 1e-9;
    BatchOptions batch;
    batch.threads = 1;
    batch.retry.maxAttempts = 2;
    batch.retry.budgetEscalation = 2.0; // 2e-9 ms still expires
    BatchDesigner designer(design, batch);
    const auto results = designer.designAll({model});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 2);
    EXPECT_EQ(results[0].errorKind, "deadline-exceeded");
}

TEST_F(FaultTest, BatchInvalidInputIsNeverRetried)
{
    MarkovModel poison(5); // wrong order for the batch's options
    poison.train(paperTrace());
    FsmDesignOptions design;
    design.order = 2;
    BatchOptions batch;
    batch.threads = 1;
    batch.retry.maxAttempts = 5;
    BatchDesigner designer(design, batch);
    const auto results = designer.designAll({poison});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 1); // terminal on the first attempt
    EXPECT_EQ(results[0].errorKind, "invalid-input");
    EXPECT_EQ(designer.stats().retries, 0u);
}

TEST_F(FaultTest, BatchReportsDegradedItems)
{
    failpoint::registry().set("logicmin.espresso", "fail-after:0");

    FsmDesignOptions design;
    design.minimizer = MinimizeAlgo::Heuristic;
    BatchOptions batch;
    batch.threads = 1;
    BatchDesigner designer(design, batch);
    const auto results = designer.designAll(distinctModels(3, 2));

    ASSERT_EQ(results.size(), 3u);
    for (const auto &result : results) {
        EXPECT_TRUE(result.ok);
        EXPECT_TRUE(result.degraded);
        EXPECT_NE(result.fallback.find("minimize:exact"),
                  std::string::npos);
    }
    EXPECT_EQ(designer.stats().degraded, 3u);
    EXPECT_EQ(designer.stats().failures, 0u);
}

TEST_F(FaultTest, EnvFormatConfigDrivesPartiallyDegradedBatch)
{
    // The README's AUTOFSM_FAILPOINTS example, via the same parser the
    // env var uses: every 3rd minimize call loses its primary engine.
    failpoint::registry().configure("flow.minimize:fail-every:3");

    BatchOptions batch;
    batch.threads = 1; // deterministic item order
    BatchDesigner designer(FsmDesignOptions{}, batch);
    const auto results = designer.designAll(distinctModels(6, 2));

    ASSERT_EQ(results.size(), 6u);
    size_t degraded = 0;
    for (const auto &result : results) {
        EXPECT_TRUE(result.ok); // degraded, never failed
        degraded += result.degraded;
    }
    EXPECT_EQ(degraded, 2u); // evaluations 3 and 6
    EXPECT_EQ(designer.stats().degraded, 2u);
    EXPECT_TRUE(results[2].degraded);
    EXPECT_TRUE(results[5].degraded);
}

// ---------------------------------------------------------------------
// Trace cache, trace IO and thread-pool recovery.
// ---------------------------------------------------------------------

TEST_F(FaultTest, TraceCacheDoesNotCacheFailures)
{
    clearBranchTraceCache();
    failpoint::registry().set("workloads.trace_build", "fail-times:1");

    EXPECT_THROW(
        cachedBranchTrace("gsm", WorkloadInput::Train, 2000),
        InjectedFault);
    // The failed entry was evicted, so the next call rebuilds fresh.
    const auto trace = cachedBranchTrace("gsm", WorkloadInput::Train, 2000);
    ASSERT_NE(trace, nullptr);
    EXPECT_FALSE(trace->empty());
    EXPECT_EQ(branchTraceCacheStats().misses, 2u);
    clearBranchTraceCache();
}

TEST_F(FaultTest, TraceCacheConcurrentCallersRecoverFromFailure)
{
    clearBranchTraceCache();
    failpoint::registry().set("workloads.trace_build", "fail-times:1");

    // One build fails; threads that latched the failing future see the
    // fault, everyone else (and everyone after) gets a fresh build.
    std::atomic<int> failures{0}, successes{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            try {
                const auto trace =
                    cachedBranchTrace("gsm", WorkloadInput::Train, 2000);
                successes += trace != nullptr;
            } catch (const InjectedFault &) {
                ++failures;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_GE(failures.load(), 1);
    EXPECT_EQ(failures.load() + successes.load(), 4);

    const auto trace = cachedBranchTrace("gsm", WorkloadInput::Train, 2000);
    ASSERT_NE(trace, nullptr);
    EXPECT_FALSE(trace->empty());
    clearBranchTraceCache();
}

TEST_F(FaultTest, ParallelForSurfacesInjectedPoolFault)
{
    failpoint::registry().set("pool.task", "fail-times:1");
    // Exactly one index hits the fault; parallelFor reports it and every
    // other index still runs.
    std::vector<std::atomic<int>> hits(8);
    for (auto &h : hits)
        h = 0;
    EXPECT_THROW(
        parallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); },
                    2),
        InjectedFault);
    int ran = 0;
    for (const auto &h : hits)
        ran += h.load();
    EXPECT_EQ(ran, 7); // all but the faulted index
}

#ifndef AUTOFSM_NO_TELEMETRY
TEST_F(FaultTest, FallbackAndFailpointCountersIncrement)
{
    const obs::Labels fallback_labels = {{"stage", "minimize"},
                                         {"kind", "exact"}};
    const obs::Labels site_labels = {{"site", "logicmin.espresso"}};
    const uint64_t fallbacks_before =
        counterValue("autofsm_flow_fallbacks_total", fallback_labels);
    const uint64_t triggers_before =
        counterValue("autofsm_failpoint_triggers_total", site_labels);

    failpoint::registry().set("logicmin.espresso", "fail-after:0");
    FsmDesignOptions options;
    options.minimizer = MinimizeAlgo::Heuristic;
    const FlowResult result = DesignFlow(options).runOnTrace(paperTrace());
    EXPECT_TRUE(result.trace.degraded());

    EXPECT_EQ(counterValue("autofsm_flow_fallbacks_total", fallback_labels),
              fallbacks_before + 1);
    EXPECT_GE(counterValue("autofsm_failpoint_triggers_total", site_labels),
              triggers_before + 1);
}
#endif

// ---------------------------------------------------------------------------
// Persistent store: a writer dying mid-commit (at any of the three
// commit failpoints) must never leave a torn entry observable — the
// next open recovers to a clean miss, and entries committed before the
// crash still load bit-identical.

/** Store fault fixture: a scratch directory plus a committed entry. */
class StoreFaultTest : public FaultTest
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "autofsm-storefault-XXXXXX")
                               .string();
        dir_ = ::mkdtemp(tmpl.data());
        ASSERT_FALSE(dir_.empty());
        const size_t n = 300;
        pcs_.resize(n);
        words_.assign((n + 63) / 64, 0);
        for (size_t i = 0; i < n; ++i) {
            pcs_[i] = 0x1000 + i * 4;
            if ((i % 3) == 0)
                words_[i >> 6] |= 1ULL << (i & 63);
        }
    }

    void
    TearDown() override
    {
        FaultTest::TearDown();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    store::StoreOptions
    options() const
    {
        store::StoreOptions opts;
        opts.dir = dir_;
        return opts;
    }

    /** Commit one good entry under "survivor" (before the fault). */
    void
    commitSurvivor(store::ArtifactStore &store)
    {
        ASSERT_TRUE(
            store.putTrace("survivor", pcs_, words_, pcs_.size()));
    }

    /** Reopen and check crash-consistency: the faulted entry is a
     *  clean miss, the survivor loads bit-identical, and nothing is
     *  quarantined (the torn temp was never published as an entry). */
    void
    expectCleanRecovery(uint64_t expectRecoveredTemps)
    {
        failpoint::registry().clearAll();
        store::ArtifactStore reopened(options());
        const store::StoreStats stats = reopened.stats();
        EXPECT_EQ(stats.recoveredTemps, expectRecoveredTemps);
        EXPECT_EQ(stats.quarantined, 0u);
        EXPECT_EQ(stats.entries, 1u);
        EXPECT_FALSE(reopened.loadTrace("victim").has_value());
        const auto blob = reopened.loadTrace("survivor");
        ASSERT_TRUE(blob.has_value());
        ASSERT_EQ(blob->pcs.size(), pcs_.size());
        EXPECT_TRUE(
            std::equal(pcs_.begin(), pcs_.end(), blob->pcs.begin()));
        EXPECT_TRUE(std::equal(words_.begin(), words_.end(),
                               blob->takenWords.begin()));
    }

    std::string dir_;
    std::vector<uint64_t> pcs_;
    std::vector<uint64_t> words_;
};

TEST_F(StoreFaultTest, WriterKilledMidWriteLeavesNoTornEntry)
{
    {
        store::ArtifactStore store(options());
        commitSurvivor(store);
        failpoint::registry().set("store.write", "fail-after:0");
        // The fault fires with half the payload in the temp file —
        // exactly what a crash mid-write(2) leaves behind.
        EXPECT_THROW(
            store.putTrace("victim", pcs_, words_, pcs_.size()),
            InjectedFault);
    }
    expectCleanRecovery(/*expectRecoveredTemps=*/1);
}

TEST_F(StoreFaultTest, WriterKilledBeforeFsyncLeavesNoTornEntry)
{
    {
        store::ArtifactStore store(options());
        commitSurvivor(store);
        failpoint::registry().set("store.fsync", "fail-after:0");
        // Full temp file, never made durable, never renamed.
        EXPECT_THROW(
            store.putTrace("victim", pcs_, words_, pcs_.size()),
            InjectedFault);
    }
    expectCleanRecovery(/*expectRecoveredTemps=*/1);
}

TEST_F(StoreFaultTest, WriterKilledBeforeRenameLeavesNoTornEntry)
{
    {
        store::ArtifactStore store(options());
        commitSurvivor(store);
        failpoint::registry().set("store.rename", "fail-after:0");
        // Durable bytes, invisible entry: the atomic publish never ran.
        EXPECT_THROW(
            store.putTrace("victim", pcs_, words_, pcs_.size()),
            InjectedFault);
    }
    expectCleanRecovery(/*expectRecoveredTemps=*/1);
}

TEST_F(StoreFaultTest, TransientWriteFaultThenRetrySucceeds)
{
    store::ArtifactStore store(options());
    failpoint::registry().set("store.write", "fail-times:1");
    EXPECT_THROW(store.putTrace("k", pcs_, words_, pcs_.size()),
                 InjectedFault);
    // The retry commits; the earlier torn temp is no entry at all.
    EXPECT_TRUE(store.putTrace("k", pcs_, words_, pcs_.size()));
    const auto blob = store.loadTrace("k");
    ASSERT_TRUE(blob.has_value());
    EXPECT_TRUE(std::equal(pcs_.begin(), pcs_.end(), blob->pcs.begin()));
}

TEST_F(StoreFaultTest, InjectedReadFaultsDegradeToCleanMisses)
{
    store::ArtifactStore store(options());
    commitSurvivor(store);

    failpoint::registry().set("store.load", "fail-times:1");
    EXPECT_FALSE(store.loadTrace("survivor").has_value());
    // Transient: the entry itself is intact and untouched.
    EXPECT_TRUE(store.loadTrace("survivor").has_value());

    failpoint::registry().set("store.mmap", "fail-times:1");
    EXPECT_FALSE(store.loadTrace("survivor").has_value());
    EXPECT_TRUE(store.loadTrace("survivor").has_value());

    EXPECT_EQ(store.stats().quarantined, 0u);
}

} // anonymous namespace
} // namespace autofsm
