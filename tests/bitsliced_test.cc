/**
 * @file
 * Tests of the bit-sliced replay engine (sim/bitsliced.hh): tally
 * bit-identity against a naive record-by-record reference for every
 * shard count, the warm-up fallback on non-synchronizing machines,
 * lane-group and wide-machine splits, SIMD on/off equality, pool
 * execution, and the batch evaluation stage built on top of it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "automata/dfa.hh"
#include "flow/api.hh"
#include "flow/batch.hh"
#include "sim/bitsliced.hh"
#include "support/rng.hh"

namespace autofsm
{
namespace
{

/** Step @p fsm over every record, predicting where the mode says to. */
uint64_t
referenceMisses(const Dfa &fsm, const std::vector<int> &outcomes,
                const std::vector<uint32_t> *positions)
{
    uint64_t misses = 0;
    size_t cursor = 0;
    int state = fsm.start();
    for (size_t i = 0; i < outcomes.size(); ++i) {
        bool predicts = positions == nullptr;
        if (positions != nullptr && cursor < positions->size() &&
            (*positions)[cursor] == i) {
            predicts = true;
            ++cursor;
        }
        if (predicts && fsm.output(state) != outcomes[i])
            ++misses;
        state = fsm.next(state, outcomes[i]);
    }
    return misses;
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

/** Ascending positions hitting roughly every @p stride-th record. */
std::vector<uint32_t>
randomPositions(size_t n, uint64_t seed, uint64_t stride)
{
    Rng rng(seed);
    std::vector<uint32_t> positions;
    for (size_t i = 0; i < n; ++i) {
        if (rng.below(stride) == 0)
            positions.push_back(static_cast<uint32_t>(i));
    }
    return positions;
}

/** The classic non-synchronizing machine: state = parity of 1s seen. */
Dfa
parityMachine()
{
    Dfa fsm;
    const int even = fsm.addState(0);
    const int odd = fsm.addState(1);
    fsm.setEdge(even, 0, even);
    fsm.setEdge(even, 1, odd);
    fsm.setEdge(odd, 0, odd);
    fsm.setEdge(odd, 1, even);
    fsm.setStart(even);
    return fsm;
}

/** A @p states-state shift-register-ish machine (synchronizing). */
Dfa
bigMachine(int states, uint64_t seed)
{
    Rng rng(seed);
    Dfa fsm;
    for (int s = 0; s < states; ++s)
        fsm.addState(static_cast<int>(rng.below(2)));
    for (int s = 0; s < states; ++s) {
        fsm.setEdge(s, 0, static_cast<int>(rng.below(states)));
        fsm.setEdge(s, 1, static_cast<int>(rng.below(states)));
    }
    fsm.setStart(0);
    return fsm;
}

TEST(BitslicedReplay, PackOutcomeWordsLayout)
{
    std::vector<int> outcomes(70, 0);
    outcomes[0] = 1;
    outcomes[63] = 1;
    outcomes[64] = 1;
    outcomes[69] = 1;
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);
    ASSERT_EQ(words.size(), 2u);
    EXPECT_EQ(words[0], (1ULL << 0) | (1ULL << 63));
    EXPECT_EQ(words[1], (1ULL << 0) | (1ULL << 5));
}

TEST(BitslicedReplay, MatchesReferenceAcrossShardCounts)
{
    const size_t kRecords = 40000;
    const std::vector<int> outcomes = randomOutcomes(kRecords, 11, 0.6);
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);

    std::vector<Dfa> fsms;
    fsms.push_back(Dfa::saturatingCounter(2));
    fsms.push_back(Dfa::saturatingCounter(3));
    fsms.push_back(Dfa::constant(1));
    fsms.push_back(bigMachine(17, 5));
    std::vector<std::vector<uint32_t>> positions;
    positions.push_back(randomPositions(kRecords, 21, 3));
    positions.push_back(randomPositions(kRecords, 22, 17));
    positions.push_back(randomPositions(kRecords, 23, 64));
    positions.push_back({}); // sparse-empty: never predicts

    std::vector<BitslicedMachine> machines(fsms.size());
    std::vector<uint64_t> expected(fsms.size());
    for (size_t m = 0; m < fsms.size(); ++m) {
        machines[m] = BitslicedMachine{&fsms[m], &positions[m]};
        expected[m] = referenceMisses(fsms[m], outcomes, &positions[m]);
    }
    EXPECT_EQ(expected[3], 0u);

    for (const size_t shards : {1u, 2u, 3u, 7u, 16u}) {
        BitslicedOptions options;
        options.threads = 4;
        options.shards = shards;
        BitslicedReplayStats stats;
        const std::vector<uint64_t> misses = replayMachinesBitsliced(
            machines, words.data(), kRecords, options, &stats);
        EXPECT_EQ(misses, expected) << "shards=" << shards;
        EXPECT_EQ(stats.serialFallbacks, 0u) << "shards=" << shards;
    }
}

TEST(BitslicedReplay, DenseModeMatchesReference)
{
    const size_t kRecords = 20000;
    const std::vector<int> outcomes = randomOutcomes(kRecords, 31, 0.7);
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);

    std::vector<Dfa> fsms;
    fsms.push_back(Dfa::saturatingCounter(2));
    fsms.push_back(bigMachine(9, 77));
    std::vector<BitslicedMachine> machines;
    std::vector<uint64_t> expected;
    for (const Dfa &fsm : fsms) {
        machines.push_back(BitslicedMachine{&fsm, nullptr});
        expected.push_back(referenceMisses(fsm, outcomes, nullptr));
    }

    for (const size_t shards : {1u, 2u, 7u}) {
        BitslicedOptions options;
        options.threads = 2;
        options.shards = shards;
        EXPECT_EQ(replayMachinesBitsliced(machines, words.data(),
                                          kRecords, options),
                  expected)
            << "shards=" << shards;
    }
}

TEST(BitslicedReplay, NonSynchronizingMachineFallsBackExactly)
{
    const size_t kRecords = 30000;
    const std::vector<int> outcomes = randomOutcomes(kRecords, 41);
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);

    const Dfa parity = parityMachine();
    const Dfa counter = Dfa::saturatingCounter(2);
    const std::vector<uint32_t> pos = randomPositions(kRecords, 42, 5);
    const std::vector<BitslicedMachine> machines = {
        {&parity, &pos}, {&counter, &pos}};
    const std::vector<uint64_t> expected = {
        referenceMisses(parity, outcomes, &pos),
        referenceMisses(counter, outcomes, &pos)};

    BitslicedOptions options;
    options.threads = 4;
    options.shards = 8;
    BitslicedReplayStats stats;
    const std::vector<uint64_t> misses = replayMachinesBitsliced(
        machines, words.data(), kRecords, options, &stats);
    EXPECT_EQ(misses, expected);
    // The parity lane cannot converge in any warm-up window; it must
    // have been replayed serially (and only it).
    EXPECT_EQ(stats.serialFallbacks, 1u);
}

TEST(BitslicedReplay, ManyMachinesSpanMultipleGroups)
{
    const size_t kRecords = 8000;
    const std::vector<int> outcomes = randomOutcomes(kRecords, 51, 0.55);
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);

    std::vector<Dfa> fsms;
    std::vector<std::vector<uint32_t>> positions;
    for (int m = 0; m < 90; ++m) {
        fsms.push_back(bigMachine(3 + m % 29, 100 + m));
        positions.push_back(
            randomPositions(kRecords, 200 + m, 2 + m % 13));
    }
    std::vector<BitslicedMachine> machines(fsms.size());
    std::vector<uint64_t> expected(fsms.size());
    for (size_t m = 0; m < fsms.size(); ++m) {
        machines[m] = BitslicedMachine{&fsms[m], &positions[m]};
        expected[m] = referenceMisses(fsms[m], outcomes, &positions[m]);
    }

    BitslicedOptions options;
    options.threads = 3;
    options.shards = 4;
    BitslicedReplayStats stats;
    EXPECT_EQ(replayMachinesBitsliced(machines, words.data(), kRecords,
                                      options, &stats),
              expected);
    EXPECT_EQ(stats.groups, 2u);
}

TEST(BitslicedReplay, WideMachineTakesSerialPath)
{
    const size_t kRecords = 5000;
    const std::vector<int> outcomes = randomOutcomes(kRecords, 61);
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);

    const Dfa wide = bigMachine(300, 9); // > 256 states: no lane fits
    const Dfa counter = Dfa::saturatingCounter(2);
    const std::vector<uint32_t> pos = randomPositions(kRecords, 62, 4);
    const std::vector<BitslicedMachine> machines = {
        {&wide, &pos}, {&counter, &pos}};
    const std::vector<uint64_t> expected = {
        referenceMisses(wide, outcomes, &pos),
        referenceMisses(counter, outcomes, &pos)};

    BitslicedOptions options;
    options.threads = 2;
    options.shards = 3;
    EXPECT_EQ(replayMachinesBitsliced(machines, words.data(), kRecords,
                                      options),
              expected);
}

TEST(BitslicedReplay, SimdAndScalarAgree)
{
    const size_t kRecords = 50000;
    const std::vector<int> outcomes = randomOutcomes(kRecords, 71, 0.65);
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);

    std::vector<Dfa> fsms;
    std::vector<std::vector<uint32_t>> positions;
    for (int m = 0; m < 24; ++m) {
        fsms.push_back(bigMachine(2 + m % 11, 300 + m));
        positions.push_back(
            randomPositions(kRecords, 400 + m, 40 + m));
    }
    std::vector<BitslicedMachine> machines(fsms.size());
    for (size_t m = 0; m < fsms.size(); ++m)
        machines[m] = BitslicedMachine{&fsms[m], &positions[m]};

    BitslicedOptions scalar;
    scalar.threads = 1;
    scalar.allowSimd = false;
    BitslicedReplayStats scalar_stats;
    const std::vector<uint64_t> scalar_misses = replayMachinesBitsliced(
        machines, words.data(), kRecords, scalar, &scalar_stats);
    EXPECT_FALSE(scalar_stats.simd);

    BitslicedOptions simd;
    simd.threads = 2;
    simd.shards = 2;
    BitslicedReplayStats simd_stats;
    const std::vector<uint64_t> simd_misses = replayMachinesBitsliced(
        machines, words.data(), kRecords, simd, &simd_stats);
    EXPECT_EQ(simd_misses, scalar_misses);
    EXPECT_EQ(simd_stats.simd, bitslicedSimdAvailable());
}

TEST(BitslicedReplay, ShardsAcrossThreadCap)
{
    const size_t kRecords = 20000;
    const std::vector<int> outcomes = randomOutcomes(kRecords, 81);
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);
    const Dfa counter = Dfa::saturatingCounter(2);
    const std::vector<BitslicedMachine> machines = {{&counter, nullptr}};
    const std::vector<uint64_t> expected = {
        referenceMisses(counter, outcomes, nullptr)};

    BitslicedOptions options;
    options.threads = 3;
    options.shards = 5;
    BitslicedReplayStats stats;
    EXPECT_EQ(replayMachinesBitsliced(machines, words.data(), kRecords,
                                      options, &stats),
              expected);
    EXPECT_EQ(stats.shards, 5u);
}

TEST(BitslicedReplay, EmptyTraceAndValidation)
{
    const Dfa counter = Dfa::saturatingCounter(2);
    const std::vector<BitslicedMachine> machines = {{&counter, nullptr}};
    EXPECT_EQ(replayMachinesBitsliced(machines, nullptr, 0),
              std::vector<uint64_t>{0});

    const std::vector<BitslicedMachine> bad = {{nullptr, nullptr}};
    std::vector<uint64_t> word(1, 0);
    EXPECT_THROW(replayMachinesBitsliced(bad, word.data(), 1),
                 std::invalid_argument);
    EXPECT_TRUE(
        replayMachinesBitsliced({}, word.data(), 1).empty());
}

// --- The batch evaluation stage built on the engine. -------------------

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
