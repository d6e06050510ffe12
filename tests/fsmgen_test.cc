/**
 * @file
 * Tests for the fsmgen core: Markov modeling, pattern definition, the
 * end-to-end design flow (reproducing the paper's worked example and
 * Figure 1), and the runtime predictor.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "fsmgen/markov.hh"
#include "fsmgen/patterns.hh"
#include "fsmgen/predictor_fsm.hh"
#include "support/rng.hh"

namespace autofsm
{
namespace
{

/** The paper's example trace t = 0000 1000 1011 1101 1110 1111. */
std::vector<int>
paperTrace()
{
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');
    return trace;
}

TEST(MarkovTest, PaperSecondOrderProbabilities)
{
    MarkovModel model(2);
    model.train(paperTrace());
    // Section 4.2: P[1|00]=2/5, P[1|01]=3/5, P[1|10]=3/4, P[1|11]=6/8.
    EXPECT_DOUBLE_EQ(model.probabilityOne(fromBinary("00")), 2.0 / 5.0);
    EXPECT_DOUBLE_EQ(model.probabilityOne(fromBinary("01")), 3.0 / 5.0);
    EXPECT_DOUBLE_EQ(model.probabilityOne(fromBinary("10")), 3.0 / 4.0);
    EXPECT_DOUBLE_EQ(model.probabilityOne(fromBinary("11")), 6.0 / 8.0);
}

TEST(MarkovTest, CountsAndTotals)
{
    MarkovModel model(2);
    model.train(paperTrace());
    EXPECT_EQ(model.counts(fromBinary("00")).total, 5u);
    EXPECT_EQ(model.counts(fromBinary("00")).ones, 2u);
    EXPECT_EQ(model.counts(fromBinary("11")).total, 8u);
    // 24-bit trace, order 2: 22 sliding windows.
    EXPECT_EQ(model.totalObservations(), 22u);
    EXPECT_EQ(model.distinctHistories(), 4u);
}

TEST(MarkovTest, UnseenHistoryIsFiftyFifty)
{
    MarkovModel model(4);
    EXPECT_DOUBLE_EQ(model.probabilityOne(0b1010), 0.5);
    EXPECT_EQ(model.counts(0b1010).total, 0u);
}

TEST(MarkovTest, WarmupSkipsFirstNBits)
{
    MarkovModel model(3);
    model.train({1, 1, 1});     // exactly N bits: nothing observed yet
    EXPECT_EQ(model.totalObservations(), 0u);
    model.train({1, 1, 1, 0}); // one observation: 111 -> 0
    EXPECT_EQ(model.counts(fromBinary("111")).total, 1u);
    EXPECT_EQ(model.counts(fromBinary("111")).ones, 0u);
}

TEST(MarkovTest, OrderOutsideRangeThrows)
{
    // Checked in every build type, not only asserted: a Release build
    // would otherwise size tables and masks from the bad order.
    EXPECT_THROW(MarkovModel(0), std::invalid_argument);
    EXPECT_THROW(MarkovModel(-1), std::invalid_argument);
    EXPECT_THROW(MarkovModel(25), std::invalid_argument);
    EXPECT_THROW(MarkovModel(30), std::invalid_argument);
    EXPECT_EQ(MarkovModel(1).order(), 1);
    EXPECT_EQ(MarkovModel(24).order(), 24);
}

TEST(MarkovTest, MergeAggregatesSuites)
{
    MarkovModel a(2), b(2);
    a.train({0, 0, 1});
    b.train({0, 0, 1});
    a.merge(b);
    EXPECT_EQ(a.counts(fromBinary("00")).total, 2u);
    EXPECT_EQ(a.counts(fromBinary("00")).ones, 2u);
    EXPECT_EQ(a.totalObservations(), 2u);
}

TEST(MarkovTest, MergeRejectsOrderMismatch)
{
    // Checked in every build type: merging an order-4 table into an
    // order-8 model would mix history widths in one table.
    MarkovModel wide(8), narrow(4);
    wide.train({0, 0, 0, 0, 0, 0, 0, 0, 1});
    narrow.train({1, 1, 1, 1, 0});
    EXPECT_THROW(wide.merge(narrow), std::invalid_argument);
    EXPECT_THROW(narrow.merge(wide), std::invalid_argument);
    // Neither table was touched.
    EXPECT_EQ(wide.totalObservations(), 1u);
    EXPECT_EQ(wide.distinctHistories(), 1u);
    EXPECT_EQ(narrow.totalObservations(), 1u);
    EXPECT_EQ(narrow.counts(fromBinary("1111")).ones, 0u);
}

TEST(MarkovTest, HistoryPackingMatchesPaperNotation)
{
    // Trace 1,0 then next 1: history "10" (older=1, newer=0).
    MarkovModel model(2);
    model.train({1, 0, 1});
    EXPECT_EQ(model.counts(fromBinary("10")).total, 1u);
    EXPECT_EQ(model.counts(fromBinary("10")).ones, 1u);
}

TEST(PatternTest, PaperPartition)
{
    MarkovModel model(2);
    model.train(paperTrace());
    PatternOptions options;
    options.dontCareMass = 0.0;
    const PatternSets sets = definePatterns(model, options);
    // Section 4.3: predict1 = {01, 10, 11}, predict0 = {00}, dc empty.
    EXPECT_EQ(sets.predictOne,
              (std::vector<uint32_t>{fromBinary("01"), fromBinary("10"),
                                     fromBinary("11")}));
    EXPECT_EQ(sets.predictZero, std::vector<uint32_t>{fromBinary("00")});
    EXPECT_TRUE(sets.dontCare.empty());
}

TEST(PatternTest, UnseenHistoriesBecomeDontCares)
{
    MarkovModel model(3);
    model.train({1, 1, 1, 1, 1, 1}); // only history 111 observed
    const PatternSets sets = definePatterns(model);
    EXPECT_EQ(sets.predictOne, std::vector<uint32_t>{fromBinary("111")});
    EXPECT_EQ(sets.dontCare.size(), 7u);
}

TEST(PatternTest, RareMassDivertsLeastSeen)
{
    MarkovModel model(2);
    // History 00 seen 98 times (always ->1), history 11 seen twice.
    for (int i = 0; i < 98; ++i)
        model.observe(fromBinary("00"), 1);
    model.observe(fromBinary("11"), 0);
    model.observe(fromBinary("11"), 0);
    PatternOptions options;
    options.dontCareMass = 0.05; // budget: 5 observations
    const PatternSets sets = definePatterns(model, options);
    EXPECT_EQ(sets.predictOne, std::vector<uint32_t>{fromBinary("00")});
    // 11 (2 observations <= budget) plus the two unseen histories.
    EXPECT_EQ(sets.dontCare.size(), 3u);
    EXPECT_TRUE(sets.predictZero.empty());
}

TEST(PatternTest, ThresholdSweepShrinksPredictOneSet)
{
    MarkovModel model(2);
    model.train(paperTrace());
    PatternOptions loose, strict;
    loose.threshold = 0.5;
    strict.threshold = 0.7;
    const auto loose_sets = definePatterns(model, loose);
    const auto strict_sets = definePatterns(model, strict);
    EXPECT_EQ(loose_sets.predictOne.size(), 3u);
    // Only 10 (0.75) and 11 (0.75) survive at 0.7.
    EXPECT_EQ(strict_sets.predictOne.size(), 2u);
}

TEST(PatternTest, TruthTableRoundTrip)
{
    PatternSets sets;
    sets.order = 2;
    sets.predictOne = {1, 2};
    sets.predictZero = {0};
    sets.dontCare = {3};
    const TruthTable table = sets.toTruthTable();
    EXPECT_TRUE(table.isOn(1));
    EXPECT_TRUE(table.isOn(2));
    EXPECT_FALSE(table.isOn(0));
    EXPECT_TRUE(table.isDontCare(3));
}

TEST(DesignerTest, PaperWorkedExampleEndToEnd)
{
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    const FsmDesignResult result =
        DesignFlow(options).runOnTrace(paperTrace()).design;

    // Section 4.4's minimized cover.
    EXPECT_EQ(result.cover.toString(), "x1 | 1x");
    // Section 4.5's regular expression.
    EXPECT_EQ(result.regexText, "{0|1}*{ {0|1}1 | 1{0|1} }");
    // Figure 1: 5 states with start-up states, 3 after reduction.
    EXPECT_EQ(result.statesHopcroft, 5);
    EXPECT_EQ(result.statesFinal, 3);
    EXPECT_EQ(result.beforeReduction.numStates(), 5);
    EXPECT_EQ(result.fsm.numStates(), 3);
}

TEST(DesignerTest, FinalMachinePredictsPaperPatterns)
{
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    const Dfa fsm = DesignFlow(options).runOnTrace(paperTrace()).design.fsm;

    // From any state, pattern 01/10/11 ends predicting 1; 00 predicts 0.
    for (int start = 0; start < fsm.numStates(); ++start) {
        for (uint32_t pattern = 0; pattern < 4; ++pattern) {
            int state = start;
            state = fsm.next(state, bitOf(pattern, 1));
            state = fsm.next(state, bitOf(pattern, 0));
            EXPECT_EQ(fsm.output(state), pattern == 0 ? 0 : 1)
                << "start=" << start << " pattern=" << pattern;
        }
    }
}

TEST(DesignerTest, KeepStartupStatesOption)
{
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    options.keepStartupStates = true;
    const FsmDesignResult result =
        DesignFlow(options).runOnTrace(paperTrace()).design;
    EXPECT_EQ(result.fsm.numStates(), 5);
}

TEST(DesignerTest, AllZeroTraceGivesConstantZero)
{
    FsmDesignOptions options;
    options.order = 2;
    const FsmDesignResult result =
        DesignFlow(options).runOnTrace(std::vector<int>(64, 0)).design;
    EXPECT_EQ(result.fsm.numStates(), 1);
    EXPECT_EQ(result.fsm.output(result.fsm.start()), 0);
    EXPECT_EQ(result.regexText, "(empty)");
}

TEST(DesignerTest, AllOneTraceGivesConstantOne)
{
    FsmDesignOptions options;
    options.order = 2;
    const FsmDesignResult result =
        DesignFlow(options).runOnTrace(std::vector<int>(64, 1)).design;
    EXPECT_EQ(result.fsm.numStates(), 1);
    EXPECT_EQ(result.fsm.output(result.fsm.start()), 1);
}

TEST(DesignerTest, AlternatingTraceIsPerfectlyLearned)
{
    std::vector<int> trace;
    for (int i = 0; i < 100; ++i)
        trace.push_back(i % 2);
    FsmDesignOptions options;
    options.order = 2;
    const Dfa fsm = DesignFlow(options).runOnTrace(trace).design.fsm;

    // Simulate: predictions should be perfect once warmed up.
    PredictorFsm predictor(fsm);
    int correct = 0, total = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        if (i >= 2) {
            correct += predictor.predict() == trace[i];
            ++total;
        }
        predictor.update(trace[i]);
    }
    EXPECT_EQ(correct, total);
}

TEST(DesignerTest, HigherOrderCapturesLongerPeriodicity)
{
    // Period-3 pattern 1,1,0 needs order >= 2 to be fully predictable;
    // order 3 must learn it perfectly.
    std::vector<int> trace;
    for (int i = 0; i < 300; ++i)
        trace.push_back(i % 3 == 2 ? 0 : 1);
    FsmDesignOptions options;
    options.order = 3;
    const Dfa fsm = DesignFlow(options).runOnTrace(trace).design.fsm;

    PredictorFsm predictor(fsm);
    int correct = 0, total = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        if (i >= 3) {
            correct += predictor.predict() == trace[i];
            ++total;
        }
        predictor.update(trace[i]);
    }
    EXPECT_EQ(correct, total);
}

/**
 * Build a Markov model whose biased histories are exactly those matching
 * one of @p patterns, with profile noise - the setup behind the paper's
 * Figure 6/7 example machines.
 */
MarkovModel
modelFromPatterns(int order, const std::vector<std::string> &patterns,
                  double noise, uint64_t seed)
{
    MarkovModel model(order);
    Rng rng(seed);
    std::vector<Cube> cubes;
    for (const auto &text : patterns)
        cubes.push_back(Cube::fromPattern(text));
    for (uint32_t h = 0; h < (1u << order); ++h) {
        bool biased = false;
        for (const auto &cube : cubes)
            biased = biased || cube.contains(h);
        for (int i = 0; i < 100; ++i) {
            int outcome = biased ? 1 : 0;
            if (rng.chance(noise))
                outcome ^= 1;
            model.observe(h, outcome);
        }
    }
    return model;
}

TEST(DesignerTest, Figure6MachineHasFourStates)
{
    // Figure 6: ijpeg branch correlated with the branch two back
    // (pattern "1x"); the paper's machine has 4 states.
    const MarkovModel model = modelFromPatterns(2, {"1x"}, 0.05, 0x5eed);
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    const FsmDesignResult result = DesignFlow(options).run(model).design;
    EXPECT_EQ(result.cover.toString(), "1x");
    EXPECT_EQ(result.statesFinal, 4);

    // The paper's invariant: from ANY state, traversing first a 1 and
    // then either symbol lands on a predict-1 state; first a 0 lands on
    // a predict-0 state.
    const Dfa &fsm = result.fsm;
    for (int start = 0; start < fsm.numStates(); ++start) {
        for (int second = 0; second < 2; ++second) {
            EXPECT_EQ(fsm.output(fsm.next(fsm.next(start, 1), second)), 1);
            EXPECT_EQ(fsm.output(fsm.next(fsm.next(start, 0), second)), 0);
        }
    }
}

TEST(DesignerTest, Figure7MachineHasElevenStates)
{
    // Figure 7: gs branch capturing 0x1x and 0xx1x; the paper's machine
    // has 11 states.
    const MarkovModel model =
        modelFromPatterns(5, {"x0x1x", "0xx1x"}, 0.05, 0x5eed);
    FsmDesignOptions options;
    options.order = 5;
    options.patterns.dontCareMass = 0.0;
    const FsmDesignResult result = DesignFlow(options).run(model).design;
    EXPECT_EQ(result.statesFinal, 11);

    // Any 5-edge walk matching either pattern ends on predict-1.
    const Dfa &fsm = result.fsm;
    const Cube a = Cube::fromPattern("x0x1x");
    const Cube b = Cube::fromPattern("0xx1x");
    for (int start = 0; start < fsm.numStates(); ++start) {
        for (uint32_t walk = 0; walk < 32; ++walk) {
            int state = start;
            for (int bit = 4; bit >= 0; --bit)
                state = fsm.next(state, bitOf(walk, bit));
            const bool expect_one = a.contains(walk) || b.contains(walk);
            EXPECT_EQ(fsm.output(state), expect_one ? 1 : 0)
                << "start=" << start << " walk=" << toBinary(walk, 5);
        }
    }
}

TEST(PredictorFsmTest, SharedTableReplication)
{
    const Dfa fsm = Dfa::constant(1);
    PredictorFsm first(fsm);
    PredictorFsm second(first.sharedTable());
    EXPECT_EQ(&first.table(), &second.table());
    EXPECT_EQ(second.predict(), 1);
}

TEST(PredictorFsmTest, UpdateFollowsTransitions)
{
    // Two-state machine: output equals last input.
    Dfa dfa;
    const int s0 = dfa.addState(0);
    const int s1 = dfa.addState(1);
    dfa.setEdge(s0, 0, s0);
    dfa.setEdge(s0, 1, s1);
    dfa.setEdge(s1, 0, s0);
    dfa.setEdge(s1, 1, s1);
    dfa.setStart(s0);

    PredictorFsm predictor(dfa);
    EXPECT_EQ(predictor.predict(), 0);
    predictor.update(1);
    EXPECT_EQ(predictor.predict(), 1);
    predictor.update(0);
    EXPECT_EQ(predictor.predict(), 0);
    predictor.reset();
    EXPECT_EQ(predictor.state(), s0);
}

/**
 * Property: for random biased traces, the generated FSM's steady-state
 * prediction for history h equals the majority vote of the training
 * model at h (for histories that were seen and kept).
 */
class DesignerPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DesignerPropertyTest, PredictionsFollowTrainingBias)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
    const int order = 2 + static_cast<int>(rng.below(3)); // 2..4

    // Correlated source: next bit = older bit XOR noise.
    std::vector<int> trace;
    int prev = 0, prev2 = 0;
    for (int i = 0; i < 4000; ++i) {
        int bit = (prev2 ^ 1);
        if (rng.chance(0.1))
            bit ^= 1;
        trace.push_back(bit);
        prev2 = prev;
        prev = bit;
    }

    FsmDesignOptions options;
    options.order = order;
    options.patterns.dontCareMass = 0.0;
    const FsmDesignResult result =
        DesignFlow(options).runOnTrace(trace).design;

    MarkovModel model(order);
    model.train(trace);

    for (const auto &[history, counts] : model.table()) {
        if (counts.total == 0)
            continue;
        const double p = static_cast<double>(counts.ones) /
            static_cast<double>(counts.total);
        if (p == 0.5)
            continue; // ties may go either way
        // Drive the machine through the history from its start state,
        // preceded by `order` filler bits so we are in steady state.
        PredictorFsm predictor(result.fsm);
        for (int i = 0; i < order; ++i)
            predictor.update(0);
        for (int bit = order - 1; bit >= 0; --bit)
            predictor.update(bitOf(history, bit));
        EXPECT_EQ(predictor.predict(), p > 0.5 ? 1 : 0)
            << "order=" << order << " history="
            << toBinary(history, order);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, DesignerPropertyTest,
                         ::testing::Range(0, 15));

} // anonymous namespace
} // namespace autofsm
