/**
 * @file
 * Tests for the branch-prediction substrate: SUD counters, the XScale
 * BTB, gshare, the local/global chooser, the customized architecture
 * and the training flow.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "bpred/btb.hh"
#include "bpred/custom.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/simulate.hh"
#include "bpred/trainer.hh"
#include "support/rng.hh"
#include "support/sud_counter.hh"
#include "workloads/branch_workloads.hh"

namespace autofsm
{
namespace
{

TEST(SudCounterTest, TwoBitSemantics)
{
    SudCounter counter(SudConfig::twoBit(), 0);
    EXPECT_FALSE(counter.predict());
    counter.update(true);
    counter.update(true);
    EXPECT_TRUE(counter.predict());
    counter.update(true);
    counter.update(true);
    EXPECT_EQ(counter.value(), 3); // saturates
    counter.update(false);
    EXPECT_TRUE(counter.predict()); // hysteresis
    counter.update(false);
    EXPECT_FALSE(counter.predict());
    counter.update(false);
    EXPECT_EQ(counter.value(), 0); // floors
}

TEST(SudCounterTest, ResettingCounterClearsOnMiss)
{
    SudCounter counter(SudConfig::resetting(10, 8), 0);
    for (int i = 0; i < 9; ++i)
        counter.update(true);
    EXPECT_TRUE(counter.predict());
    counter.update(false);
    EXPECT_EQ(counter.value(), 0);
    EXPECT_FALSE(counter.predict());
}

TEST(SudCounterTest, AsymmetricPenalty)
{
    SudConfig config{20, 1, 5, 16};
    SudCounter counter(config, 20);
    EXPECT_TRUE(counter.predict());
    counter.update(false);
    EXPECT_EQ(counter.value(), 15);
    EXPECT_FALSE(counter.predict());
}

TEST(XScaleBtbTest, MissPredictsNotTaken)
{
    XScaleBtb btb;
    EXPECT_FALSE(btb.predict(0x1234));
    EXPECT_FALSE(btb.hit(0x1234));
}

TEST(XScaleBtbTest, LearnsBias)
{
    XScaleBtb btb;
    const uint64_t pc = 0x4000;
    for (int i = 0; i < 4; ++i)
        btb.update(pc, true);
    EXPECT_TRUE(btb.hit(pc));
    EXPECT_TRUE(btb.predict(pc));
    for (int i = 0; i < 4; ++i)
        btb.update(pc, false);
    EXPECT_FALSE(btb.predict(pc));
}

TEST(XScaleBtbTest, ConflictEviction)
{
    BtbConfig config;
    config.entries = 4; // tiny, forces conflicts
    XScaleBtb btb(config);
    const uint64_t pc_a = 0x1000;
    const uint64_t pc_b = pc_a + 4 * 4; // same index, different tag
    for (int i = 0; i < 3; ++i)
        btb.update(pc_a, true);
    EXPECT_TRUE(btb.predict(pc_a));
    btb.update(pc_b, true); // evicts pc_a
    EXPECT_FALSE(btb.hit(pc_a));
    EXPECT_FALSE(btb.predict(pc_a));
}

TEST(XScaleBtbTest, AreaMatchesGeometry)
{
    BtbConfig config;
    AreaCosts costs;
    XScaleBtb btb(config, costs);
    const double expected =
        (config.tagBits + config.targetBits + 2) * config.entries *
        costs.sramBit;
    EXPECT_DOUBLE_EQ(btb.area(), expected);
}

// Geometry checks run before any table is allocated, in every build
// type: these sizes would otherwise ask for up to 2^40 counters or
// shift out of range.
TEST(XScaleBtbTest, RejectsBadGeometry)
{
    for (const int entries : {0, -128, 96, 1 << 25}) {
        BtbConfig config;
        config.entries = entries;
        EXPECT_THROW(XScaleBtb{config}, std::invalid_argument) << entries;
    }
    BtbConfig config;
    config.tagBits = -1;
    EXPECT_THROW(XScaleBtb{config}, std::invalid_argument);
}

TEST(GshareTest, RejectsBadGeometry)
{
    for (const int log2 : {0, -1, 25, 40, 64}) {
        GshareConfig config;
        config.log2Entries = log2;
        config.historyBits = 0;
        EXPECT_THROW(Gshare{config}, std::invalid_argument) << log2;
    }
    for (const int history : {-1, 13}) {
        GshareConfig config;
        config.log2Entries = 12;
        config.historyBits = history;
        EXPECT_THROW(Gshare{config}, std::invalid_argument) << history;
    }
}

TEST(LgcTest, RejectsBadGeometry)
{
    for (const int log2 : {0, -1}) {
        LgcConfig config;
        config.log2Entries = log2;
        EXPECT_THROW(LocalGlobalChooser{config}, std::invalid_argument)
            << log2;
    }
    for (const int log2 : {17, 40, 64}) {
        LgcConfig config;
        config.log2Entries = log2;
        EXPECT_THROW(LocalGlobalChooser{config}, std::length_error) << log2;
    }
}

TEST(GshareTest, LearnsGlobalCorrelation)
{
    // Branch B is taken iff the previous branch was taken: gshare must
    // get B nearly perfect; a bimodal BTB sees a 50/50 coin.
    Gshare gshare(GshareConfig{10, 10, 0.0});
    XScaleBtb btb;
    Rng rng(5);

    uint64_t gshare_wrong = 0, btb_wrong = 0, executions = 0;
    bool prev = false;
    for (int i = 0; i < 20000; ++i) {
        const bool a_taken = rng.chance(0.5);
        gshare.update(0x100, a_taken);
        btb.update(0x100, a_taken);

        const bool b_taken = a_taken;
        ++executions;
        gshare_wrong += gshare.predict(0x200) != b_taken;
        btb_wrong += btb.predict(0x200) != b_taken;
        gshare.update(0x200, b_taken);
        btb.update(0x200, b_taken);
        prev = b_taken;
    }
    (void)prev;
    EXPECT_LT(static_cast<double>(gshare_wrong) / executions, 0.05);
    EXPECT_GT(static_cast<double>(btb_wrong) / executions, 0.30);
}

TEST(GshareTest, AreaGrowsWithTable)
{
    const Gshare small(GshareConfig{10, 10});
    const Gshare large(GshareConfig{14, 14});
    EXPECT_LT(small.area(), large.area());
}

TEST(LgcTest, LearnsLocalPattern)
{
    // Period-4 local pattern on one branch, interleaved with random
    // branches that pollute global history: the local side must win.
    LocalGlobalChooser lgc(LgcConfig{10});
    Rng rng(9);
    const int pattern[4] = {1, 1, 0, 1};
    uint64_t wrong = 0, executions = 0;
    int pos = 0;
    for (int i = 0; i < 40000; ++i) {
        // Noise branch.
        lgc.update(0x900, rng.chance(0.5));
        // Patterned branch.
        const bool taken = pattern[pos] != 0;
        pos = (pos + 1) % 4;
        if (i > 2000) {
            ++executions;
            wrong += lgc.predict(0x500) != taken;
        }
        lgc.update(0x500, taken);
    }
    EXPECT_LT(static_cast<double>(wrong) / executions, 0.05);
}

TEST(LgcTest, AreaIncludesAllStructures)
{
    AreaCosts costs;
    LgcConfig config{10, 0.0};
    LocalGlobalChooser lgc(config, costs);
    const double n = 1 << 10;
    EXPECT_DOUBLE_EQ(lgc.area(), (n * 10 + 6 * n) * costs.sramBit);
}

TEST(CustomPredictorTest, CustomEntryOverridesBtb)
{
    CustomBranchPredictor custom;
    custom.addCustomEntry(0x100, Dfa::constant(1));
    EXPECT_TRUE(custom.isCustom(0x100));
    EXPECT_FALSE(custom.isCustom(0x104));
    // BTB would say not-taken (miss); the custom FSM says taken.
    EXPECT_TRUE(custom.predict(0x100));
    EXPECT_FALSE(custom.predict(0x104));
}

TEST(CustomPredictorTest, FsmUpdatesOnEveryBranch)
{
    // FSM predicting "last outcome", attached to branch A. Branch B's
    // outcomes must also step it (Section 7.3 update-all semantics).
    Dfa dfa;
    const int s0 = dfa.addState(0);
    const int s1 = dfa.addState(1);
    dfa.setEdge(s0, 0, s0);
    dfa.setEdge(s0, 1, s1);
    dfa.setEdge(s1, 0, s0);
    dfa.setEdge(s1, 1, s1);
    dfa.setStart(s0);

    CustomBranchPredictor custom;
    custom.addCustomEntry(0xA00, dfa);
    EXPECT_FALSE(custom.predict(0xA00));
    custom.update(0xB00, true); // different branch
    EXPECT_TRUE(custom.predict(0xA00));
    custom.update(0xC00, false);
    EXPECT_FALSE(custom.predict(0xA00));
}

TEST(CustomPredictorTest, AreaAddsPerEntry)
{
    LineFit line;
    line.slope = 2.0;
    line.intercept = 10.0;
    AreaCosts costs;
    CustomBranchPredictor custom({}, {}, line, costs);
    const double base = custom.area();
    custom.addCustomEntry(0x100, Dfa::constant(1)); // 1 state
    const CustomEntryConfig entry;
    const double expected = base + entry.tagBits * costs.camBit +
        entry.targetBits * costs.sramBit + (2.0 * 1 + 10.0);
    EXPECT_DOUBLE_EQ(custom.area(), expected);
}

TEST(SimulateTest, CountsMispredicts)
{
    // Always-not-taken BTB vs an all-taken toy trace.
    XScaleBtb btb;
    PackedTraceBuilder trace;
    for (int i = 0; i < 10; ++i)
        trace.push(0x50, true);
    const BpredSimResult result =
        simulateBranchPredictor(btb, trace.finish());
    EXPECT_EQ(result.branches, 10u);
    // First prediction misses (BTB empty), then the counter locks on.
    EXPECT_LT(result.mispredicts, 3u);
    EXPECT_GT(result.mispredicts, 0u);
}

TEST(SimulateTest, PerBranchBreakdown)
{
    XScaleBtb btb;
    PackedTraceBuilder trace;
    for (int i = 0; i < 50; ++i) {
        trace.push(0x50, true);
        trace.push(0x60, i % 2 == 0); // alternating: hard
    }
    std::unordered_map<uint64_t, uint64_t> per_branch;
    simulateBranchPredictor(btb, trace.finish(), per_branch);
    EXPECT_GT(per_branch[0x60], per_branch[0x50]);
}

TEST(TrainerTest, ProfilesWorstBranchFirst)
{
    const PackedTrace trace =
        makeBranchTrace("vortex", WorkloadInput::Train, 30000);
    const auto ranked = profileBaselineMisses(trace);
    ASSERT_GE(ranked.size(), 2u);
    EXPECT_GE(ranked[0].second, ranked[1].second);
}

TEST(TrainerTest, TrainsRequestedCount)
{
    const PackedTrace trace =
        makeBranchTrace("ijpeg", WorkloadInput::Train, 30000);
    CustomTrainingOptions options;
    options.maxCustomBranches = 3;
    options.historyLength = 6;
    const auto trained = trainCustomPredictors(trace, options);
    ASSERT_EQ(trained.size(), 3u);
    for (const auto &branch : trained) {
        EXPECT_GT(branch.design.statesFinal, 0);
        EXPECT_GT(branch.baselineMisses, 0u);
    }
    EXPECT_GE(trained[0].baselineMisses, trained[1].baselineMisses);
}

TEST(TrainerTest, RejectsNegativeBranchBudget)
{
    // Cast to size_t, -1 would silently mean "every branch".
    PackedTraceBuilder builder;
    for (int i = 0; i < 64; ++i)
        builder.push(0x40 + 4 * (i % 4), (i % 3) == 0);
    const PackedTrace trace = builder.finish();
    CustomTrainingOptions options;
    options.maxCustomBranches = -1;
    EXPECT_THROW(trainCustomPredictors(trace, options),
                 std::invalid_argument);
    EXPECT_THROW(collectBranchModelSweeps(trace, {2, 4}, options),
                 std::invalid_argument);
}

TEST(TrainerTest, CustomFsmBeatsBaselineOnCorrelatedBranch)
{
    // End-to-end: on the vortex model (globally-correlated branches),
    // the customized architecture must cut the misprediction rate well
    // below the XScale baseline.
    const PackedTrace train =
        makeBranchTrace("vortex", WorkloadInput::Train, 40000);
    const PackedTrace test =
        makeBranchTrace("vortex", WorkloadInput::Test, 40000);

    CustomTrainingOptions options;
    options.maxCustomBranches = 8;
    const auto trained = trainCustomPredictors(train, options);

    XScaleBtb baseline;
    const double base_rate =
        simulateBranchPredictor(baseline, test).missRate();

    CustomBranchPredictor custom;
    for (const auto &branch : trained)
        custom.addCustomEntry(branch.pc, branch.design.fsm);
    const double custom_rate =
        simulateBranchPredictor(custom, test).missRate();

    EXPECT_LT(custom_rate, base_rate * 0.6)
        << "baseline " << base_rate << " custom " << custom_rate;
}

} // anonymous namespace
} // namespace autofsm
