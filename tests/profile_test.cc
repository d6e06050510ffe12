/**
 * @file
 * Tests of the multi-order profiling engine (fsmgen/profile.hh) and the
 * cross-item design-stage memo (flow/design_memo.hh).
 *
 * The profiling engine's contract is bit-identity: flat kernels, packed
 * word streams and fold-derived order sweeps must produce exactly the
 * tables that per-order `MarkovModel::train` builds. The property tests
 * drive random traces across orders and trace lengths (including traces
 * shorter than the maximum order, where only warm-up edges exist). The
 * memo tests pin the hit path's byte-identical artifacts, its
 * eligibility rules (unlimited budget, no armed failpoint) and its
 * thread-safety under a concurrent BatchDesigner (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "flow/batch.hh"
#include "flow/design_flow.hh"
#include "flow/design_memo.hh"
#include "fsmgen/markov.hh"
#include "fsmgen/patterns.hh"
#include "fsmgen/profile.hh"
#include "obs/metrics.hh"
#include "support/failpoint.hh"
#include "support/rng.hh"

namespace autofsm
{
namespace
{

/** Deterministic random 0/1 trace with a taken bias. */
std::vector<int>
randomTrace(uint64_t seed, size_t length, double bias = 0.6)
{
    Rng rng(seed);
    std::vector<int> trace;
    trace.reserve(length);
    for (size_t i = 0; i < length; ++i)
        trace.push_back(rng.uniform() < bias ? 1 : 0);
    return trace;
}

/** Pack a 0/1 trace into the takenWords layout (bit i&63 of word i>>6). */
std::vector<uint64_t>
packWords(const std::vector<int> &bits)
{
    std::vector<uint64_t> words((bits.size() + 63) / 64, 0);
    for (size_t i = 0; i < bits.size(); ++i) {
        if (bits[i])
            words[i >> 6] |= uint64_t{1} << (i & 63);
    }
    return words;
}

/** The Section 4 worked-example trace. */
std::vector<int>
paperTrace()
{
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');
    return trace;
}

/** @p model with every count scaled by @p factor (same probabilities). */
MarkovModel
scaledModel(const MarkovModel &model, uint64_t factor)
{
    MarkovModel out(model.order());
    for (const auto &[history, counts] : model.table())
        out.addCounts(history, counts.ones * factor, counts.total * factor);
    return out;
}

// ---------------------------------------------------------------------
// Profiling engine: bit-identity properties.
// ---------------------------------------------------------------------

TEST(ProfileTest, FoldDerivedSweepMatchesPerOrderTraining)
{
    std::vector<int> orders;
    for (int order = 2; order <= 12; ++order)
        orders.push_back(order);

    const size_t lengths[] = {97, 1000, 4096};
    for (size_t t = 0; t < 3; ++t) {
        const std::vector<int> trace =
            randomTrace(0xBEEF + t, lengths[t], 0.3 + 0.2 * t);
        const std::vector<uint64_t> words = packWords(trace);

        const MultiOrderProfile from_bits = profileBits(trace, orders);
        const MultiOrderProfile from_words =
            profileWords(words.data(), trace.size(), orders);

        for (int order : orders) {
            MarkovModel direct(order);
            direct.train(trace);
            EXPECT_TRUE(markovEqual(direct, from_bits.model(order)))
                << "bits, order " << order << ", length " << lengths[t];
            EXPECT_TRUE(markovEqual(direct, from_words.model(order)))
                << "words, order " << order << ", length " << lengths[t];
            EXPECT_EQ(direct.distinctHistories(),
                      from_bits.model(order).distinctHistories());
            EXPECT_EQ(direct.totalObservations(),
                      from_bits.model(order).totalObservations());
        }
        EXPECT_TRUE(from_bits.stats().flat);
    }
}

TEST(ProfileTest, FlatSingleOrderTrainingMatchesSparse)
{
    const std::vector<int> trace = randomTrace(0xABCD, 3000);
    const std::vector<uint64_t> words = packWords(trace);
    for (int order : {1, 2, 7, 12, 16}) {
        MarkovModel direct(order);
        direct.train(trace);
        EXPECT_TRUE(markovEqual(direct, trainMarkovModel(trace, order)))
            << "order " << order;
        EXPECT_TRUE(markovEqual(
            direct, trainMarkovModelWords(words.data(), trace.size(), order)))
            << "order " << order;
    }
}

TEST(ProfileTest, WarmupEdgesAtTracesShorterThanMaxOrder)
{
    // Traces shorter than (or comparable to) the maximum order consist
    // mostly or entirely of warm-up edges; the replay path must still
    // reproduce per-order training exactly, including empty tables.
    const std::vector<int> orders = {2, 3, 5, 8, 12};
    for (size_t length : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                          size_t{11}, size_t{12}, size_t{13}}) {
        const std::vector<int> trace = randomTrace(0x51 + length, length);
        const std::vector<uint64_t> words = packWords(trace);
        const MultiOrderProfile from_bits = profileBits(trace, orders);
        const MultiOrderProfile from_words =
            profileWords(words.data(), trace.size(), orders);
        for (int order : orders) {
            MarkovModel direct(order);
            direct.train(trace);
            EXPECT_TRUE(markovEqual(direct, from_bits.model(order)))
                << "length " << length << ", order " << order;
            EXPECT_TRUE(markovEqual(direct, from_words.model(order)))
                << "length " << length << ", order " << order;
        }
    }
}

TEST(ProfileTest, SparseFallbackAboveFlatCapIsIdentical)
{
    // Orders above kMaxFlatOrder use the sparse map, including sparse
    // folds down the ladder.
    const std::vector<int> orders = {kMaxFlatOrder + 2, kMaxFlatOrder, 9};
    const std::vector<int> trace = randomTrace(0x22, 2000);
    const MultiOrderProfile profile = profileBits(trace, orders);
    EXPECT_FALSE(profile.stats().flat);
    for (int order : orders) {
        MarkovModel direct(order);
        direct.train(trace);
        EXPECT_TRUE(markovEqual(direct, profile.model(order)))
            << "order " << order;
    }
}

TEST(ProfileTest, MultipleStreamsAccumulateLikeIndependentTraining)
{
    // Each consumed stream warms up independently, exactly like calling
    // train() once per stream on one model.
    const std::vector<int> a = randomTrace(0xA, 500);
    const std::vector<int> b = randomTrace(0xB, 7); // warm-up only at 9
    const std::vector<int> c = randomTrace(0xC, 300);
    const std::vector<int> orders = {3, 9};

    MultiOrderCounter counter(9);
    counter.consume(a);
    counter.consume(b);
    counter.consume(c);
    const MultiOrderProfile profile = counter.finish(orders);

    for (int order : orders) {
        MarkovModel direct(order);
        direct.train(a);
        direct.train(b);
        direct.train(c);
        EXPECT_TRUE(markovEqual(direct, profile.model(order)))
            << "order " << order;
    }
}

TEST(ProfileTest, StatsAndOrderValidation)
{
    const std::vector<int> trace = randomTrace(0x7, 100);
    MultiOrderCounter counter(5);
    counter.consume(trace);
    MultiOrderProfile profile = counter.finish({5, 2, 2});

    EXPECT_EQ(profile.orders(), (std::vector<int>{5, 2}));
    EXPECT_EQ(profile.stats().observations, 95u);
    EXPECT_EQ(profile.stats().warmupObservations, 4u);
    EXPECT_THROW(profile.model(3), std::invalid_argument);

    MarkovModel taken = profile.takeModel(2);
    MarkovModel direct(2);
    direct.train(trace);
    EXPECT_TRUE(markovEqual(direct, taken));

    MultiOrderCounter bad(4);
    EXPECT_THROW(bad.finish({}), std::invalid_argument);
    EXPECT_THROW(bad.finish({5}), std::invalid_argument);
    EXPECT_THROW(bad.finish({0}), std::invalid_argument);
}

TEST(ProfileTest, PublishesProfileGauges)
{
#ifdef AUTOFSM_NO_TELEMETRY
    GTEST_SKIP() << "built with AUTOFSM_NO_TELEMETRY";
#endif
    obs::MetricsRegistry &registry = obs::globalMetrics();
    registry.enable(true);
    const std::vector<int> trace = randomTrace(0x99, 400);
    const MarkovModel model = trainMarkovModel(trace, 6);

    const obs::MetricsSnapshot snapshot = registry.snapshot();
    const obs::MetricValue *distinct = nullptr;
    const obs::MetricValue *bytes = nullptr;
    const obs::MetricValue *runs = nullptr;
    for (const obs::MetricValue &metric : snapshot.metrics) {
        if (metric.name == "autofsm_profile_distinct_histories")
            distinct = &metric;
        if (metric.name == "autofsm_profile_table_bytes")
            bytes = &metric;
        if (metric.name == "autofsm_profile_runs_total")
            runs = &metric;
    }
    ASSERT_NE(distinct, nullptr);
    ASSERT_NE(bytes, nullptr);
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(distinct->value,
              static_cast<double>(model.distinctHistories()));
    EXPECT_GT(bytes->value, 0.0);
    EXPECT_GE(runs->count, 1u);
}

TEST(ProfileTest, PatternsAreInsertionOrderIndependent)
{
    // definePatterns' don't-care selection ranks histories with a
    // partial sort; the classification must depend only on the table's
    // content, not on map iteration or insertion order.
    const std::vector<int> trace = randomTrace(0x123, 5000);
    const MarkovModel forward = trainMarkovModel(trace, 8);

    // Same content, inserted in descending-history order.
    std::vector<uint32_t> histories;
    for (const auto &[history, counts] : forward.table())
        histories.push_back(history);
    std::sort(histories.rbegin(), histories.rend());
    MarkovModel reversed(8);
    for (uint32_t history : histories) {
        const HistoryCounts counts = forward.counts(history);
        reversed.addCounts(history, counts.ones, counts.total);
    }

    PatternOptions options;
    options.dontCareMass = 0.05;
    const PatternSets a = definePatterns(forward, options);
    const PatternSets b = definePatterns(reversed, options);
    EXPECT_EQ(a.predictOne, b.predictOne);
    EXPECT_EQ(a.predictZero, b.predictZero);
    EXPECT_EQ(a.dontCare, b.dontCare);
    EXPECT_FALSE(a.dontCare.empty());
}

// ---------------------------------------------------------------------
// Design-stage memo.
// ---------------------------------------------------------------------

class DesignMemoTest : public ::testing::Test
{
  protected:
    void SetUp() override { clearDesignMemo(); }

    void
    TearDown() override
    {
        clearDesignMemo();
        designMemoSetCapacity(4096);
        failpoint::registry().clearAll();
    }
};

TEST_F(DesignMemoTest, ScaledCountsHitMemoWithIdenticalArtifacts)
{
    MarkovModel base(2);
    base.train(paperTrace());
    // Doubling every count changes the model's content hash (so the
    // per-batch memo cannot group the two) but preserves every
    // probability, hence the history partition and the whole tail.
    const MarkovModel doubled = scaledModel(base, 2);
    ASSERT_FALSE(markovEqual(base, doubled));

    DesignFlow flow(FsmDesignOptions{});
    const FlowResult first = flow.run(base);
    EXPECT_FALSE(first.tailFromMemo);

    const FlowResult second = flow.run(doubled);
    EXPECT_TRUE(second.tailFromMemo);
    EXPECT_TRUE(second.design.fsm.identical(first.design.fsm));
    EXPECT_TRUE(
        second.design.beforeReduction.identical(first.design.beforeReduction));
    EXPECT_EQ(second.design.regexText, first.design.regexText);
    EXPECT_EQ(second.design.statesSubset, first.design.statesSubset);
    EXPECT_EQ(second.design.statesHopcroft, first.design.statesHopcroft);
    EXPECT_EQ(second.design.statesFinal, first.design.statesFinal);
    EXPECT_EQ(second.design.cover.size(), first.design.cover.size());

    const DesignMemoStats stats = designMemoStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST_F(DesignMemoTest, FiniteBudgetBypassesMemo)
{
    MarkovModel model(2);
    model.train(paperTrace());

    FsmDesignOptions options;
    options.budget.maxDfaStates = 1000; // generous but finite
    DesignFlow flow(options);
    flow.run(model);
    flow.run(model);

    const DesignMemoStats stats = designMemoStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST_F(DesignMemoTest, ArmedFailpointBypassesMemo)
{
    MarkovModel model(2);
    model.train(paperTrace());
    DesignFlow flow(FsmDesignOptions{});
    flow.run(model);
    EXPECT_EQ(designMemoStats().misses, 1u);

    // Any configured failpoint disarms the memo: a hit would skip the
    // downstream stages a fault-injection test is driving.
    failpoint::registry().set("unrelated.site", "fail-times:1000000");
    const FlowResult result = flow.run(model);
    EXPECT_FALSE(result.tailFromMemo);
    const DesignMemoStats stats = designMemoStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 1u); // the bypassed run counted nothing
}

TEST_F(DesignMemoTest, DesignMemoFailpointInjectsFault)
{
    MarkovModel model(2);
    model.train(paperTrace());
    failpoint::registry().set("flow.designmemo", "fail-times:1");
    DesignFlow flow(FsmDesignOptions{});
    EXPECT_THROW(flow.run(model), InjectedFault);
    failpoint::registry().clearAll();
    EXPECT_NO_THROW(flow.run(model));
}

TEST_F(DesignMemoTest, CapacityCapDropsStores)
{
    designMemoSetCapacity(0);
    MarkovModel model(2);
    model.train(paperTrace());
    DesignFlow flow(FsmDesignOptions{});
    flow.run(model);
    flow.run(model);
    const DesignMemoStats stats = designMemoStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST_F(DesignMemoTest, ConcurrentBatchItemsShareMemo)
{
    // Six models with pairwise-different counts but one shared history
    // partition: the per-batch memo cannot group them, so every item
    // races on the process-wide memo. Run under TSan in CI; every
    // resulting machine must be byte-identical regardless of which item
    // stored the entry first.
    MarkovModel base(2);
    base.train(paperTrace());
    std::vector<MarkovModel> models;
    for (uint64_t factor = 1; factor <= 6; ++factor)
        models.push_back(scaledModel(base, factor));

    BatchOptions batch;
    batch.threads = 4;
    BatchDesigner designer(FsmDesignOptions{}, batch);
    const std::vector<BatchItemResult> results = designer.designAll(models);

    ASSERT_EQ(results.size(), 6u);
    for (const BatchItemResult &result : results) {
        ASSERT_TRUE(result.ok);
        EXPECT_TRUE(
            result.flow.design.fsm.identical(results[0].flow.design.fsm));
    }
    const DesignMemoStats stats = designMemoStats();
    EXPECT_EQ(stats.hits + stats.misses, 6u);
    EXPECT_GE(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

} // anonymous namespace
} // namespace autofsm
