/**
 * @file
 * Tests of the batch design pipeline: the thread-pool utilities, the
 * stage-oriented DesignFlow (equivalence with the runDesignRequest API),
 * and the BatchDesigner guarantees — thread-count-invariant determinism,
 * memo-cache reuse of identical models, per-item failure isolation, and
 * the evaluation stage's replay of each designed machine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "automata/regex.hh"
#include "flow/api.hh"
#include "flow/batch.hh"
#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "fsmgen/profile.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"

#include "reference_replay.hh"

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

/** A family of deterministic pseudo-random behavior traces. */
std::vector<std::vector<int>>
syntheticTraces(size_t count, size_t length)
{
    std::vector<std::vector<int>> traces;
    traces.reserve(count);
    for (size_t t = 0; t < count; ++t) {
        Rng rng(0xABCDEF ^ (t * 7919));
        std::vector<int> trace;
        trace.reserve(length);
        // Mix of biased, alternating and correlated stretches so the
        // designed machines differ meaningfully across traces.
        for (size_t i = 0; i < length; ++i) {
            const int mode = static_cast<int>((i / 64 + t) % 3);
            int bit;
            if (mode == 0)
                bit = rng.uniform() < 0.8;
            else if (mode == 1)
                bit = static_cast<int>(i & 1);
            else
                bit = i >= 2 ? (trace[i - 2] ^ 1) : 1;
            trace.push_back(bit);
        }
        traces.push_back(std::move(trace));
    }
    return traces;
}

std::vector<int>
randomOutcomes(size_t n, uint64_t seed, double taken_bias = 0.5)
{
    Rng rng(seed);
    std::vector<int> outcomes(n);
    for (size_t i = 0; i < n; ++i)
        outcomes[i] = rng.uniform() < taken_bias ? 1 : 0;
    return outcomes;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        std::vector<std::atomic<int>> hits(257);
        for (auto &h : hits)
            h = 0;
        parallelFor(hits.size(),
                    [&](size_t i) { hits[i].fetch_add(1); }, threads);
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPoolTest, ParallelForZeroAndOneItems)
{
    int calls = 0;
    parallelFor(0, [&](size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&](size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesLowestIndexException)
{
    try {
        parallelFor(
            100,
            [](size_t i) {
                if (i == 17 || i == 63)
                    throw std::runtime_error("boom " + std::to_string(i));
            },
            4);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 17");
    }
}

TEST(ThreadPoolTest, PoolRunsSubmittedJobs)
{
    std::atomic<int> sum{0};
    {
        ThreadPool pool(3);
        EXPECT_EQ(pool.threadCount(), 3u);
        for (int i = 1; i <= 10; ++i)
            pool.submit([&sum, i] { sum.fetch_add(i); });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPoolTest, ShutdownDrainsDeeplyQueuedJobs)
{
    // A single worker guarantees a backlog: the first job blocks until
    // every later job is already queued, then the pool is destroyed
    // immediately. Shutdown must still run the whole queue.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        std::promise<void> release;
        std::shared_future<void> gate = release.get_future().share();
        pool.submit([gate, &ran] {
            gate.wait();
            ran.fetch_add(1);
        });
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        release.set_value();
    }
    EXPECT_EQ(ran.load(), 51);
}

TEST(ThreadPoolTest, WorkerSurvivesThrowingJob)
{
    // Raw submit() jobs are expected not to throw; if one does anyway,
    // the worker contains it and keeps serving the queue instead of
    // taking the process down via std::terminate.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        pool.submit([] { throw std::runtime_error("rogue job"); });
        pool.submit([&ran] { ran.fetch_add(1); });
        pool.submit([] { throw 42; }); // non-std exceptions too
        pool.submit([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, LowestIndexWinsEvenWhenHigherIndexThrowsFirst)
{
    // Deterministic ordering check: index 1 throws immediately, index 0
    // throws only after a delay, so the higher index's exception is
    // recorded first — and must still lose to the lower index.
    try {
        parallelFor(
            2,
            [](size_t i) {
                if (i == 1)
                    throw std::runtime_error("boom 1");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                throw std::runtime_error("boom 0");
            },
            2);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 0");
    }
}

TEST(ThreadPoolTest, NestedParallelForThreeDeepCoversEveryIndexOnce)
{
    // Inner calls run from pool workers; the caller claims indices
    // alongside its helpers, so nesting cannot deadlock even when every
    // worker is busy in an outer body.
    const std::vector<size_t> counts = {0, 1, 2, 63, 64, 65};
    for (unsigned threads = 1; threads <= 8; ++threads) {
        for (size_t k = 0; k < counts.size(); ++k) {
            const size_t a = counts[k];
            const size_t b = counts[(k + 1) % counts.size()];
            const size_t c = counts[(k + 2) % counts.size()];
            std::vector<std::atomic<int>> hits(a * b * c);
            for (auto &h : hits)
                h = 0;
            parallelFor(
                a,
                [&](size_t i) {
                    parallelFor(
                        b,
                        [&](size_t j) {
                            parallelFor(
                                c,
                                [&](size_t l) {
                                    hits[(i * b + j) * c + l].fetch_add(1);
                                },
                                threads);
                        },
                        threads);
                },
                threads);
            for (size_t i = 0; i < hits.size(); ++i) {
                ASSERT_EQ(hits[i].load(), 1)
                    << "threads " << threads << " dims " << a << "x" << b
                    << "x" << c << " index " << i;
            }
        }
    }
}

TEST(ThreadPoolTest, NestedFailureLowestIndexWins)
{
    std::vector<std::atomic<int>> ran(16);
    for (auto &r : ran)
        r = 0;
    try {
        parallelFor(
            ran.size(),
            [&](size_t i) {
                ran[i].fetch_add(1);
                parallelFor(
                    16,
                    [i](size_t j) {
                        if ((i == 3 || i == 9) && (j == 5 || j == 11)) {
                            throw std::runtime_error(std::to_string(i) +
                                                     "/" +
                                                     std::to_string(j));
                        }
                    },
                    4);
            },
            4);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "3/5");
    }
    for (const auto &r : ran)
        EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPoolTest, BackToBackCallsReuseTheSharedWorkers)
{
    // One pool for the process: however many calls run, bodies only
    // ever execute on its workers or on the calling thread.
    std::mutex mutex;
    std::set<std::thread::id> runners;
    for (int call = 0; call < 1000; ++call) {
        parallelFor(
            8,
            [&](size_t) {
                std::lock_guard<std::mutex> lock(mutex);
                runners.insert(std::this_thread::get_id());
            },
            8);
    }
    EXPECT_LE(runners.size(), ThreadPool::defaultThreadCount() + 1);
    EXPECT_EQ(sharedPool().threadCount(), ThreadPool::defaultThreadCount());
}

TEST(ThreadPoolTest, ConcurrentBodiesNeverExceedThreadCap)
{
    for (unsigned threads = 1; threads <= 8; ++threads) {
        std::atomic<unsigned> running{0};
        std::atomic<unsigned> peak{0};
        parallelFor(
            64,
            [&](size_t) {
                const unsigned now = running.fetch_add(1) + 1;
                unsigned seen = peak.load();
                while (now > seen && !peak.compare_exchange_weak(seen, now)) {
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                running.fetch_sub(1);
            },
            threads);
        EXPECT_LE(peak.load(), threads) << "threads " << threads;
        EXPECT_GE(peak.load(), 1u);
    }
}

TEST(DesignFlowTest, MatchesRunDesignRequestOnPaperExample)
{
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    const DesignFlow flow(options);

    auto expectSame = [](const FsmDesignResult &got,
                         const FsmDesignResult &want) {
        EXPECT_TRUE(got.fsm.identical(want.fsm));
        EXPECT_TRUE(got.beforeReduction.identical(want.beforeReduction));
        EXPECT_EQ(got.regexText, want.regexText);
        EXPECT_EQ(got.statesSubset, want.statesSubset);
        EXPECT_EQ(got.statesHopcroft, want.statesHopcroft);
        EXPECT_EQ(got.statesFinal, want.statesFinal);
    };

    DesignRequest outcomes;
    outcomes.outcomes = paperTrace();
    outcomes.options = options;
    expectSame(flow.runOnTrace(paperTrace()).design,
               runDesignRequest(outcomes).design);

    DesignRequest model;
    model.model = trainMarkovModel(paperTrace(), options.order);
    model.options = options;
    expectSame(flow.run(*model.model).design,
               runDesignRequest(model).design);
}

TEST(DesignFlowTest, TraceRecordsEveryStage)
{
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    const FlowResult flow = DesignFlow(options).runOnTrace(paperTrace());

    for (FlowStage stage :
         {FlowStage::Markov, FlowStage::Patterns, FlowStage::Minimize,
          FlowStage::Regex, FlowStage::Subset, FlowStage::Hopcroft,
          FlowStage::StartReduce}) {
        const StageRecord *record = flow.trace.find(stage);
        ASSERT_NE(record, nullptr) << flowStageName(stage);
        EXPECT_GE(record->millis, 0.0);
    }
    EXPECT_EQ(flow.trace.find(FlowStage::Subset)->metric,
              flow.design.statesSubset);
    EXPECT_EQ(flow.trace.find(FlowStage::Hopcroft)->metric,
              flow.design.statesHopcroft);
    EXPECT_EQ(flow.trace.find(FlowStage::StartReduce)->metric,
              flow.design.statesFinal);
    EXPECT_GE(flow.trace.totalMillis(), 0.0);

    const std::string json = flow.trace.toJson();
    EXPECT_NE(json.find("\"stage\":\"hopcroft\""), std::string::npos);
    EXPECT_NE(json.find("\"metricName\":\"states\""), std::string::npos);
}

TEST(DesignFlowTest, RecordsStagesForConstantMachine)
{
    FsmDesignOptions options;
    options.order = 2;
    // An all-zero trace yields an empty predict-1 cover.
    const FlowResult flow =
        DesignFlow(options).runOnTrace(std::vector<int>(64, 0));
    EXPECT_EQ(flow.design.statesFinal, 1);
    ASSERT_NE(flow.trace.find(FlowStage::StartReduce), nullptr);
    EXPECT_EQ(flow.trace.find(FlowStage::StartReduce)->metric, 1);
}

/**
 * The subset stage's two budgets bite exactly at their edges: a limit
 * equal to the cover's Thompson count, or to the subset DFA's state
 * count, designs the unlimited run's machine; one less degrades to the
 * saturating counter.
 */
TEST(DesignFlowTest, SubsetBudgetsHoldAtTheirEdges)
{
    FsmDesignOptions options;
    options.order = 4;
    for (const auto &trace : syntheticTraces(3, 2000)) {
        const FlowResult unlimited = DesignFlow(options).runOnTrace(trace);
        ASSERT_FALSE(unlimited.trace.degraded());
        const Cover &cover = unlimited.design.cover;
        ASSERT_FALSE(cover.empty());

        auto runWith = [&](int max_nfa_states, int max_dfa_states) {
            FsmDesignOptions limited = options;
            limited.budget.maxNfaStates = max_nfa_states;
            limited.budget.maxDfaStates = max_dfa_states;
            return DesignFlow(limited).runOnTrace(trace);
        };
        auto expectClean = [&](const FlowResult &result) {
            EXPECT_FALSE(result.trace.degraded());
            EXPECT_EQ(result.design.statesSubset,
                      unlimited.design.statesSubset);
            EXPECT_TRUE(result.design.fsm.identical(unlimited.design.fsm));
        };
        auto expectDegraded = [](const FlowResult &result) {
            EXPECT_EQ(result.trace.fallbacks(),
                      std::vector<std::string>{"subset:saturating-counter"});
            EXPECT_TRUE(
                result.design.fsm.identical(Dfa::saturatingCounter(2)));
        };

        const int nfa_states = static_cast<int>(thompsonStateCount(cover));
        expectClean(runWith(nfa_states, 0));
        expectDegraded(runWith(nfa_states - 1, 0));

        const int dfa_states = unlimited.design.statesSubset;
        expectClean(runWith(0, dfa_states));
        expectDegraded(runWith(0, dfa_states - 1));
    }
}

TEST(DesignFlowTest, MismatchedOrderThrows)
{
    MarkovModel model(3);
    model.train(paperTrace());
    FsmDesignOptions options;
    options.order = 2;
    EXPECT_THROW(DesignFlow(options).run(model), std::invalid_argument);
}

TEST(MarkovHashTest, EqualContentHashesEqual)
{
    MarkovModel a(2), b(2);
    a.train(paperTrace());
    b.train(paperTrace());
    EXPECT_EQ(markovContentHash(a), markovContentHash(b));
    EXPECT_TRUE(markovEqual(a, b));

    MarkovModel c(2);
    c.train(std::vector<int>(32, 1));
    EXPECT_NE(markovContentHash(a), markovContentHash(c));
    EXPECT_FALSE(markovEqual(a, c));
}

TEST(BatchDesignerTest, DeterministicAcrossThreadCounts)
{
    const auto traces = syntheticTraces(9, 600);
    FsmDesignOptions options;
    options.order = 4;

    // Serial reference, one DesignFlow run per trace.
    std::vector<FsmDesignResult> reference;
    std::vector<MarkovModel> models;
    for (const auto &trace : traces) {
        reference.push_back(DesignFlow(options).runOnTrace(trace).design);
        models.push_back(trainMarkovModel(trace, options.order));
    }

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        BatchOptions batch;
        batch.threads = threads;
        BatchDesigner designer(options, batch);
        const auto results = designer.designAll(models);
        ASSERT_EQ(results.size(), traces.size());
        for (size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            const FsmDesignResult &got = results[i].flow.design;
            EXPECT_TRUE(got.fsm.identical(reference[i].fsm))
                << "threads=" << threads << " item=" << i;
            EXPECT_EQ(got.regexText, reference[i].regexText);
            EXPECT_EQ(got.statesFinal, reference[i].statesFinal);
        }
    }
}

TEST(BatchDesignerTest, IdenticalModelsDesignOnce)
{
    MarkovModel model(3);
    model.train(syntheticTraces(1, 500)[0]);
    MarkovModel other(3);
    other.train(std::vector<int>(200, 1));

    FsmDesignOptions options;
    options.order = 3;
    BatchDesigner designer(options);
    const auto results =
        designer.designAll({model, model, other, model});

    ASSERT_EQ(results.size(), 4u);
    for (const auto &result : results)
        EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(designer.stats().items, 4u);
    EXPECT_EQ(designer.stats().designed, 2u);
    EXPECT_EQ(designer.stats().cacheHits, 2u);
    EXPECT_FALSE(results[0].fromCache);
    EXPECT_TRUE(results[1].fromCache);
    EXPECT_FALSE(results[2].fromCache);
    EXPECT_TRUE(results[3].fromCache);
    EXPECT_TRUE(
        results[1].flow.design.fsm.identical(results[0].flow.design.fsm));
    EXPECT_TRUE(
        results[3].flow.design.fsm.identical(results[0].flow.design.fsm));
}

TEST(BatchDesignerTest, MemoizationCanBeDisabled)
{
    MarkovModel model(2);
    model.train(paperTrace());
    BatchOptions batch;
    batch.memoize = false;
    FsmDesignOptions options;
    options.order = 2;
    BatchDesigner designer(options, batch);
    const auto results = designer.designAll({model, model});
    EXPECT_EQ(designer.stats().designed, 2u);
    EXPECT_EQ(designer.stats().cacheHits, 0u);
    EXPECT_TRUE(
        results[1].flow.design.fsm.identical(results[0].flow.design.fsm));
}

TEST(BatchDesignerTest, PoisonedItemDoesNotSinkBatch)
{
    MarkovModel good(2);
    good.train(paperTrace());
    MarkovModel poison(5); // wrong order for the batch's options
    poison.train(paperTrace());

    FsmDesignOptions options;
    options.order = 2;
    BatchDesigner designer(options);
    const auto results = designer.designAll({good, poison, good});

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("order"), std::string::npos);
    EXPECT_TRUE(results[2].ok);
    EXPECT_EQ(designer.stats().failures, 1u);
    EXPECT_TRUE(
        results[2].flow.design.fsm.identical(results[0].flow.design.fsm));
}

TEST(BatchDesignerTest, FailingDuplicatesAreServedFromCache)
{
    // Identical models fail identically, so duplicates of a failing
    // representative reuse its error instead of re-running the flow.
    MarkovModel poison(5); // wrong order for the batch's options
    poison.train(paperTrace());

    FsmDesignOptions options;
    options.order = 2;
    BatchDesigner designer(options);
    const auto results = designer.designAll({poison, poison, poison});

    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_FALSE(results[0].fromCache);
    for (size_t i : {size_t{1}, size_t{2}}) {
        EXPECT_FALSE(results[i].ok);
        EXPECT_TRUE(results[i].fromCache);
        EXPECT_EQ(results[i].error, results[0].error);
        EXPECT_EQ(results[i].errorKind, results[0].errorKind);
    }
    EXPECT_EQ(designer.stats().designed, 1u);
    EXPECT_EQ(designer.stats().cacheHits, 2u);
    // Every duplicate counts as its own failure.
    EXPECT_EQ(designer.stats().failures, 3u);
}


TEST(FlowTraceTest, FindReturnsNullForAbsentStage)
{
    FlowTrace trace;
    trace.add(FlowStage::Markov, 1.0, 3, "histories");
    ASSERT_NE(trace.find(FlowStage::Markov), nullptr);
    EXPECT_EQ(trace.find(FlowStage::Markov)->metric, 3);
    EXPECT_EQ(trace.find(FlowStage::Hopcroft), nullptr);
}

TEST(FlowTraceTest, StageNamesRoundTrip)
{
    const FlowStage all[] = {
        FlowStage::Markov,   FlowStage::Patterns, FlowStage::Minimize,
        FlowStage::Regex,    FlowStage::Subset,   FlowStage::Hopcroft,
        FlowStage::StartReduce,
    };
    for (const FlowStage stage : all) {
        const char *name = flowStageName(stage);
        EXPECT_STRNE(name, "?");
        const auto parsed = flowStageFromName(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, stage) << name;
    }
    EXPECT_FALSE(flowStageFromName("no-such-stage").has_value());
    EXPECT_FALSE(flowStageFromName("").has_value());
}

// --- The batch evaluation stage. -----------------------------------------

TEST(BatchEvaluate, InlineOutcomesReportDenseMisses)
{
    const std::vector<int> outcomes = randomOutcomes(4000, 91, 0.8);

    DesignRequest request;
    request.id = 7;
    request.outcomes = outcomes;
    request.options.order = 4;
    request.evaluate = true;

    BatchDesigner designer;
    const std::vector<BatchItemResult> results =
        designer.designRequests({request});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_TRUE(results[0].evaluated);
    EXPECT_EQ(results[0].evalBranches, outcomes.size());
    EXPECT_EQ(results[0].evalMisses,
              referenceMisses(results[0].flow.design.fsm, outcomes,
                              nullptr));
    EXPECT_EQ(designer.stats().evaluated, 1u);

    // The response carries the numbers and round-trips through JSON.
    const DesignResponse response =
        designResponseFromItem(request, results[0]);
    EXPECT_TRUE(response.evaluated);
    EXPECT_EQ(response.evalBranches, outcomes.size());
    EXPECT_EQ(response.evalMisses, results[0].evalMisses);
    const DesignResponse parsed =
        designResponseFromJson(toJson(response));
    EXPECT_TRUE(parsed.evaluated);
    EXPECT_EQ(parsed.evalBranches, response.evalBranches);
    EXPECT_EQ(parsed.evalMisses, response.evalMisses);
}

TEST(BatchEvaluate, MatchesSingleRequestService)
{
    const std::vector<int> outcomes = randomOutcomes(3000, 101, 0.3);
    DesignRequest request;
    request.outcomes = outcomes;
    request.options.order = 3;
    request.evaluate = true;

    const DesignResponse single = designService(request);
    ASSERT_TRUE(single.ok) << single.error.detail;
    ASSERT_TRUE(single.evaluated);

    BatchDesigner designer;
    const std::vector<BatchItemResult> results =
        designer.designRequests({request});
    ASSERT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].evalBranches, single.evalBranches);
    EXPECT_EQ(results[0].evalMisses, single.evalMisses);
}

TEST(BatchEvaluate, DedupedDuplicatesStillEvaluate)
{
    const std::vector<int> outcomes = randomOutcomes(2500, 111, 0.6);
    DesignRequest request;
    request.outcomes = outcomes;
    request.options.order = 3;
    request.evaluate = true;

    BatchDesigner designer;
    const std::vector<BatchItemResult> results =
        designer.designRequests({request, request, request});
    ASSERT_EQ(results.size(), 3u);
    for (const BatchItemResult &result : results) {
        ASSERT_TRUE(result.ok);
        ASSERT_TRUE(result.evaluated);
        EXPECT_EQ(result.evalMisses, results[0].evalMisses);
        EXPECT_EQ(result.evalBranches, outcomes.size());
    }
    EXPECT_EQ(designer.stats().cacheHits, 2u);
    EXPECT_EQ(designer.stats().evaluated, 3u);
}

TEST(BatchEvaluate, RequestJsonRoundTripsEvaluateFlag)
{
    DesignRequest request;
    request.outcomes = {1, 0, 1, 1};
    request.evaluate = true;
    const DesignRequest parsed = designRequestFromJson(toJson(request));
    EXPECT_TRUE(parsed.evaluate);

    DesignRequest plain;
    plain.outcomes = {1, 0};
    const std::string json = toJson(plain);
    EXPECT_EQ(json.find("evaluate"), std::string::npos);
    EXPECT_FALSE(designRequestFromJson(json).evaluate);
}

TEST(BatchEvaluate, ModelSourceRejectsEvaluate)
{
    DesignRequest request;
    request.model = MarkovModel(3);
    request.evaluate = true;
    EXPECT_THROW(request.validate(), std::invalid_argument);
    // The non-throwing entry point classifies it instead.
    const DesignResponse response = designService(request);
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error.kind, "invalid-input");
}

} // anonymous namespace
} // namespace autofsm
