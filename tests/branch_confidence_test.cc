/**
 * @file
 * Tests for branch confidence estimation and the Grunwald metrics.
 */

#include <gtest/gtest.h>

#include "bpred/branch_confidence.hh"
#include "bpred/btb.hh"
#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "workloads/branch_workloads.hh"

namespace autofsm
{
namespace
{

TEST(ConfidenceMetricsTest, DefinitionsOnKnownCounts)
{
    ConfidenceMetrics m;
    m.branches = 100;
    m.correct = 80;          // 20 wrong
    m.highConfidence = 70;   // 30 low
    m.highAndCorrect = 65;   // 5 confident-but-wrong

    EXPECT_DOUBLE_EQ(m.pvp(), 65.0 / 70.0);
    // low & wrong = 20 - 5 = 15, low = 30.
    EXPECT_DOUBLE_EQ(m.pvn(), 15.0 / 30.0);
    EXPECT_DOUBLE_EQ(m.sensitivity(), 65.0 / 80.0);
    EXPECT_DOUBLE_EQ(m.specificity(), 15.0 / 20.0);
}

TEST(ConfidenceMetricsTest, DegenerateCasesAreZero)
{
    ConfidenceMetrics m;
    EXPECT_DOUBLE_EQ(m.pvp(), 0.0);
    EXPECT_DOUBLE_EQ(m.pvn(), 0.0);
    EXPECT_DOUBLE_EQ(m.sensitivity(), 0.0);
    EXPECT_DOUBLE_EQ(m.specificity(), 0.0);
}

TEST(SudBranchConfidenceTest, TracksPerBranchCorrectness)
{
    SudBranchConfidence estimator(8, SudConfig{3, 1, 3, 2});
    const uint64_t pc = 0x1000;
    EXPECT_FALSE(estimator.confident(pc));
    estimator.update(pc, true);
    estimator.update(pc, true);
    EXPECT_TRUE(estimator.confident(pc));
    estimator.update(pc, false); // decrement 3: drops to 0
    EXPECT_FALSE(estimator.confident(pc));
}

TEST(FsmBranchConfidenceTest, SharedMachinePerEntryState)
{
    Dfa last;
    const int s0 = last.addState(0);
    const int s1 = last.addState(1);
    last.setEdge(s0, 0, s0);
    last.setEdge(s0, 1, s1);
    last.setEdge(s1, 0, s0);
    last.setEdge(s1, 1, s1);
    last.setStart(s0);

    FsmBranchConfidence estimator(6, last);
    estimator.update(0x40, true);
    EXPECT_TRUE(estimator.confident(0x40));
    // A different branch (different hash bucket) is untouched.
    EXPECT_FALSE(estimator.confident(0x44));
}

TEST(MeasureBranchConfidenceTest, CountsAreConsistent)
{
    const PackedTrace trace =
        makeBranchTrace("g721", WorkloadInput::Test, 20000);
    XScaleBtb predictor;
    SudBranchConfidence estimator(10, SudConfig::resetting(4, 4));
    const ConfidenceMetrics m =
        measureBranchConfidence(predictor, estimator, trace);
    EXPECT_EQ(m.branches, trace.size());
    EXPECT_LE(m.highAndCorrect, m.highConfidence);
    EXPECT_LE(m.highAndCorrect, m.correct);
    EXPECT_LE(m.correct, m.branches);
}

TEST(MeasureBranchConfidenceTest, ResettingCounterIsConservative)
{
    // A resetting counter with a high threshold asserts confidence only
    // after long correct runs: PVP must exceed the raw accuracy.
    const PackedTrace trace =
        makeBranchTrace("gsm", WorkloadInput::Test, 40000);
    XScaleBtb predictor;
    SudBranchConfidence estimator(10, SudConfig::resetting(15, 15));
    const ConfidenceMetrics m =
        measureBranchConfidence(predictor, estimator, trace);
    const double accuracy = static_cast<double>(m.correct) /
        static_cast<double>(m.branches);
    EXPECT_GT(m.pvp(), accuracy);
}

TEST(CollectBranchConfidenceModelTest, FsmEstimatorLearnsStructure)
{
    // On vortex, the XScale is wrong in clusters (the correlated
    // branches); an FSM trained on the correctness stream must reach a
    // much better PVN than a resetting counter at similar sensitivity.
    const PackedTrace train =
        makeBranchTrace("vortex", WorkloadInput::Train, 40000);
    const PackedTrace test =
        makeBranchTrace("vortex", WorkloadInput::Test, 40000);

    MarkovModel model(8);
    {
        XScaleBtb predictor;
        collectBranchConfidenceModel(predictor, train, 10, model);
    }
    EXPECT_GT(model.totalObservations(), 10000u);

    FsmDesignOptions design;
    design.order = 8;
    design.patterns.threshold = 0.7;
    const FsmDesignResult designed = DesignFlow(design).run(model).design;

    XScaleBtb p1;
    FsmBranchConfidence fsm_estimator(10, designed.fsm);
    const ConfidenceMetrics fsm_m =
        measureBranchConfidence(p1, fsm_estimator, test);

    XScaleBtb p2;
    SudBranchConfidence sud_estimator(10, SudConfig::resetting(8, 7));
    const ConfidenceMetrics sud_m =
        measureBranchConfidence(p2, sud_estimator, test);

    EXPECT_GT(fsm_m.pvn(), sud_m.pvn() * 1.5);
}

} // anonymous namespace
} // namespace autofsm
