/**
 * @file
 * Tests for the extension predictors: PPM, the generated-counter
 * bimodal BTB, the general-purpose counter design flow, and the loop
 * termination unit.
 */

#include <gtest/gtest.h>

#include "bpred/counter_design.hh"
#include "bpred/fsm_bimodal.hh"
#include "bpred/loop_predictor.hh"
#include "bpred/ppm.hh"
#include "bpred/simulate.hh"
#include "support/rng.hh"
#include "workloads/branch_workloads.hh"

namespace autofsm
{
namespace
{

TEST(PpmTest, ColdPredictsNotTaken)
{
    PpmPredictor ppm;
    EXPECT_FALSE(ppm.predict(0x100));
}

TEST(PpmTest, LearnsDeepGlobalCorrelation)
{
    // Outcome = outcome of the branch 4 back; only contexts of length
    // >= 4 carry the signal.
    PpmPredictor ppm(PpmConfig{8, 12, 2, 0.0});
    Rng rng(3);
    std::vector<int> recent = {0, 0, 0, 0};
    uint64_t wrong = 0, total = 0;
    for (int i = 0; i < 30000; ++i) {
        // Four noise branches, then the correlated one.
        for (int b = 0; b < 4; ++b) {
            const bool t = rng.chance(0.5);
            ppm.update(0x100 + 4 * static_cast<uint64_t>(b), t);
            recent.push_back(t);
        }
        const bool taken = recent[recent.size() - 4] != 0;
        if (i > 2000) {
            ++total;
            wrong += ppm.predict(0x200) != taken;
        }
        ppm.update(0x200, taken);
        recent.push_back(taken);
    }
    EXPECT_LT(static_cast<double>(wrong) / static_cast<double>(total),
              0.08);
}

TEST(PpmTest, FrequencySaturationHalves)
{
    // Hammering one context must not overflow the 16-bit counters.
    PpmPredictor ppm(PpmConfig{2, 8, 2, 0.0});
    for (int i = 0; i < 200000; ++i)
        ppm.update(0x300, true);
    EXPECT_TRUE(ppm.predict(0x300));
}

TEST(PpmTest, AreaScalesWithOrderAndTables)
{
    const PpmPredictor small(PpmConfig{4, 10, 2, 0.0});
    const PpmPredictor large(PpmConfig{8, 12, 2, 0.0});
    EXPECT_LT(small.area(), large.area());
    EXPECT_EQ(small.name(), "ppm-m4-2^10");
}

TEST(CounterDesignTest, RecoversTwoBitLikeBehaviorFromBiasedSuite)
{
    // A suite of strongly biased branches: the designed counter must
    // predict 1 after a run of 1s and 0 after a run of 0s, like the
    // 2-bit counter it replaces.
    std::vector<PackedTrace> suite;
    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        PackedTraceBuilder trace;
        for (int i = 0; i < 5000; ++i) {
            trace.push(0x100, rng.chance(0.9));
            trace.push(0x200, !rng.chance(0.9));
        }
        suite.push_back(trace.finish());
    }

    FsmDesignOptions options;
    options.order = 2;
    const FsmDesignResult result = designGeneralCounter(suite, options);
    PredictorFsm counter(result.fsm);
    counter.update(1);
    counter.update(1);
    EXPECT_EQ(counter.predict(), 1);
    counter.update(0);
    counter.update(0);
    EXPECT_EQ(counter.predict(), 0);
}

TEST(CounterDesignTest, LocalModelSeparatesInterleavedBranches)
{
    // Branch A strictly alternates; branch B is always taken. A global
    // (interleaved) view would see pattern 1,1,0,1 noise; the local
    // model must see a clean alternation for A.
    PackedTraceBuilder trace;
    for (int i = 0; i < 1000; ++i) {
        trace.push(0xA00, i % 2 == 0);
        trace.push(0xB00, true);
    }
    MarkovModel model(2);
    collectLocalOutcomeModel(trace.finish(), model);
    // Local history "10" (older taken, newer not) is always followed by
    // taken for A, and "11" always by taken for B.
    EXPECT_DOUBLE_EQ(model.probabilityOne(fromBinary("10")), 1.0);
    EXPECT_DOUBLE_EQ(model.probabilityOne(fromBinary("01")), 0.0);
    EXPECT_DOUBLE_EQ(model.probabilityOne(fromBinary("11")), 1.0);
}

TEST(FsmBimodalTest, BehavesLikeBtbWithInjectedTwoBitCounter)
{
    // Inject a hand-built 2-bit-counter machine; the FSM bimodal must
    // then agree with the XScale BTB on any trace (both allocate to the
    // weak state nearest the first outcome... the XScale allocates
    // biased toward the outcome, so compare against a fresh-start
    // semantic instead: prediction after two takens is taken).
    Dfa two_bit;
    for (int s = 0; s < 4; ++s)
        two_bit.addState(s >= 2);
    for (int s = 0; s < 4; ++s) {
        two_bit.setEdge(s, 1, std::min(s + 1, 3));
        two_bit.setEdge(s, 0, std::max(s - 1, 0));
    }
    two_bit.setStart(1);

    FsmBimodalBtb btb(two_bit);
    EXPECT_FALSE(btb.predict(0x100)); // miss -> not taken
    btb.update(0x100, true);
    btb.update(0x100, true);
    EXPECT_TRUE(btb.predict(0x100));
    btb.update(0x100, false);
    btb.update(0x100, false);
    btb.update(0x100, false);
    EXPECT_FALSE(btb.predict(0x100));
    EXPECT_EQ(btb.counterStates(), 4);
}

TEST(FsmBimodalTest, AllocationResetsState)
{
    Dfa last_outcome;
    const int s0 = last_outcome.addState(0);
    const int s1 = last_outcome.addState(1);
    last_outcome.setEdge(s0, 0, s0);
    last_outcome.setEdge(s0, 1, s1);
    last_outcome.setEdge(s1, 0, s0);
    last_outcome.setEdge(s1, 1, s1);
    last_outcome.setStart(s0);

    BtbConfig config;
    config.entries = 4;
    FsmBimodalBtb btb(last_outcome, config);
    const uint64_t pc_a = 0x100, pc_b = pc_a + 4 * 4; // conflicting
    btb.update(pc_a, true);
    EXPECT_TRUE(btb.predict(pc_a));
    btb.update(pc_b, false); // evicts A, allocates B at start state
    btb.update(pc_a, true);  // re-allocates A at start, then steps on 1
    EXPECT_TRUE(btb.predict(pc_a));
}

TEST(LoopTerminationTest, LearnsFixedTripCount)
{
    LoopTerminationUnit unit;
    auto run_instance = [&unit](int trip, int &wrong) {
        for (int i = 0; i < trip - 1; ++i) {
            wrong += unit.predict() != true;
            unit.update(true);
        }
        wrong += unit.predict() != false;
        unit.update(false);
    };

    int warmup_wrong = 0;
    run_instance(8, warmup_wrong);
    run_instance(8, warmup_wrong);
    EXPECT_TRUE(unit.confident());
    EXPECT_EQ(unit.trip(), 8u);

    int wrong = 0;
    for (int k = 0; k < 50; ++k)
        run_instance(8, wrong);
    EXPECT_EQ(wrong, 0); // perfect once locked
}

TEST(LoopTerminationTest, TripChangeCostsOneInstance)
{
    LoopTerminationUnit unit;
    int wrong = 0;
    auto run_instance = [&](int trip) {
        for (int i = 0; i < trip - 1; ++i) {
            wrong += unit.predict() != true;
            unit.update(true);
        }
        wrong += unit.predict() != false;
        unit.update(false);
    };
    run_instance(5);
    run_instance(5);
    wrong = 0;
    run_instance(9); // trip grows: mispredicts the old exit + new exit
    EXPECT_LE(wrong, 2);
    wrong = 0;
    run_instance(9);
    run_instance(9);
    EXPECT_LE(wrong, 1); // re-locks after one repeat
}

TEST(LoopTerminationTest, UnconfidentPredictsTaken)
{
    LoopTerminationUnit unit;
    EXPECT_TRUE(unit.predict());
    unit.update(true);
    EXPECT_TRUE(unit.predict());
}

TEST(PpmEndToEndTest, CompetitiveOnCorrelatedWorkload)
{
    const PackedTrace test =
        makeBranchTrace("vortex", WorkloadInput::Test, 30000);
    PpmPredictor ppm;
    XScaleBtb btb;
    const double ppm_rate = simulateBranchPredictor(ppm, test).missRate();
    XScaleBtb fresh;
    const double btb_rate =
        simulateBranchPredictor(fresh, test).missRate();
    EXPECT_LT(ppm_rate, btb_rate * 0.6);
}

} // anonymous namespace
} // namespace autofsm
