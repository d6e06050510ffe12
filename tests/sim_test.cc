/**
 * @file
 * Integration tests of the experiment drivers (Figures 2, 4, 5) on
 * reduced problem sizes: structural invariants, paper-shape assertions
 * and reporting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bpred/custom.hh"
#include "bpred/simulate.hh"
#include "sim/figure2.hh"
#include "sim/figure4.hh"
#include "sim/figure5.hh"
#include "sim/report.hh"
#include "workloads/branch_workloads.hh"

namespace autofsm
{
namespace
{

Fig5Options
smallFig5()
{
    Fig5Options options;
    options.branchesPerRun = 30000;
    options.gshareLog2 = {8, 12};
    options.lgcLog2 = {8, 12};
    options.training.maxCustomBranches = 4;
    return options;
}

TEST(Figure5Test, SeriesAreWellFormed)
{
    const Fig5Benchmark result = runFigure5("ijpeg", smallFig5());
    EXPECT_EQ(result.name, "ijpeg");
    EXPECT_GT(result.xscale.area, 0.0);
    EXPECT_EQ(result.gshare.points.size(), 2u);
    EXPECT_EQ(result.lgc.points.size(), 2u);
    EXPECT_EQ(result.customSame.points.size(), result.trained.size());
    EXPECT_EQ(result.customDiff.points.size(), result.trained.size());

    // Area grows monotonically along each curve.
    for (size_t i = 1; i < result.customDiff.points.size(); ++i) {
        EXPECT_GT(result.customDiff.points[i].area,
                  result.customDiff.points[i - 1].area);
    }
    EXPECT_LT(result.gshare.points[0].area, result.gshare.points[1].area);

    // Custom mispredictions essentially never increase as machines are
    // added on the training input (each FSM replaces a counter that
    // mispredicted more; a tiny warm-up slack is allowed).
    for (size_t i = 1; i < result.customSame.points.size(); ++i) {
        EXPECT_LE(result.customSame.points[i].missRate,
                  result.customSame.points[i - 1].missRate + 2e-3);
    }
}

TEST(Figure5Test, CustomBeatsBaselineOnCorrelatedBenchmarks)
{
    for (const char *name : {"ijpeg", "vortex", "gsm"}) {
        const Fig5Benchmark result = runFigure5(name, smallFig5());
        ASSERT_FALSE(result.customDiff.points.empty());
        const double custom_best = result.customDiff.points.back().missRate;
        EXPECT_LT(custom_best, result.xscale.missRate * 0.75) << name;
    }
}

TEST(Figure5Test, CustomDiffTracksCustomSame)
{
    // Section 7.5: "little to no difference between custom-diff and
    // custom-same" - the models capture input-independent behavior.
    const Fig5Benchmark result = runFigure5("vortex", smallFig5());
    ASSERT_FALSE(result.customDiff.points.empty());
    const double same = result.customSame.points.back().missRate;
    const double diff = result.customDiff.points.back().missRate;
    EXPECT_NEAR(same, diff, 0.02);
}

TEST(Figure5Test, CurveMatchesDirectCustomSimulation)
{
    // The one-pass curve evaluation must equal simulating the actual
    // CustomBranchPredictor architecture with k entries.
    Fig5Options options = smallFig5();
    options.training.maxCustomBranches = 3;
    const Fig5Benchmark result = runFigure5("gsm", options);
    const PackedTrace test = makeBranchTrace(
        "gsm", WorkloadInput::Test, options.branchesPerRun);

    for (size_t k = 1; k <= result.trained.size(); ++k) {
        CustomBranchPredictor custom(options.training.baseline);
        for (size_t i = 0; i < k; ++i) {
            custom.addCustomEntry(result.trained[i].pc,
                                  result.trained[i].design.fsm);
        }
        const BpredSimResult direct =
            simulateBranchPredictor(custom, test);
        EXPECT_NEAR(direct.missRate(),
                    result.customDiff.points[k - 1].missRate, 1e-12)
            << "k=" << k;
    }
}

TEST(Figure4Test, SamplesAndFit)
{
    Fig4Options options;
    options.branchesPerRun = 20000;
    options.fsmsPerBenchmark = 3;
    const Fig4Result result = runFigure4(options);
    // 6 benchmarks x up to 3 machines (some benchmarks have fewer
    // mispredicting branches).
    EXPECT_GE(result.samples.size(), 12u);
    EXPECT_LE(result.samples.size(), 18u);
    for (const auto &sample : result.samples) {
        EXPECT_GT(sample.states, 0);
        EXPECT_GT(sample.area, 0.0);
    }
    // The Figure 4 claim: a meaningful positive linear trend.
    EXPECT_GT(result.fit.slope, 0.0);
    EXPECT_GT(result.fit.r2, 0.3);
}

TEST(Figure4Test, SampleFractionSubsamples)
{
    Fig4Options all;
    all.branchesPerRun = 15000;
    all.fsmsPerBenchmark = 3;
    Fig4Options some = all;
    some.sampleFraction = 0.3;
    const size_t full = runFigure4(all).samples.size();
    const size_t part = runFigure4(some).samples.size();
    EXPECT_LT(part, full);
}

TEST(Figure4Test, ZeroSampleFractionAdmitsNothing)
{
    // Regression: the sampling draw compared with <=, which let a
    // uniform() draw of exactly 0.0 through a 0.0 fraction. uniform()
    // is in [0, 1), so a fraction of 0.0 must admit no machine.
    Fig4Options options;
    options.branchesPerRun = 10000;
    options.fsmsPerBenchmark = 2;
    options.sampleFraction = 0.0;
    EXPECT_TRUE(runFigure4(options).samples.empty());
}

TEST(Figure2Test, StructureAndCrossTraining)
{
    Fig2Options options;
    options.loadsPerBenchmark = 20000;
    options.histories = {2, 4};
    options.thresholds = {0.5, 0.8};
    options.sudMax = {5};
    options.sudDecrement = {1, -1};
    options.sudThresholdFrac = {0.5, 0.9};

    const Fig2Benchmark result = runFigure2("groff", options);
    EXPECT_EQ(result.name, "groff");
    EXPECT_EQ(result.sudPoints.size(), 4u);
    ASSERT_EQ(result.fsmCurves.size(), 2u);
    EXPECT_EQ(result.fsmCurves[0].label, "custom w/ hist=2");
    for (const auto &series : result.fsmCurves) {
        EXPECT_EQ(series.points.size(), 2u);
        for (const auto &point : series.points) {
            EXPECT_GE(point.accuracy, 0.0);
            EXPECT_LE(point.accuracy, 1.0);
            EXPECT_GE(point.coverage, 0.0);
            EXPECT_LE(point.coverage, 1.0);
        }
    }
}

TEST(Figure2Test, ThresholdTradesCoverageForAccuracy)
{
    Fig2Options options;
    options.loadsPerBenchmark = 30000;
    options.histories = {6};
    options.thresholds = {0.5, 0.9};
    options.sudMax = {5};
    options.sudDecrement = {1};
    options.sudThresholdFrac = {0.5};

    const Fig2Benchmark result = runFigure2("gcc", options);
    const auto &points = result.fsmCurves[0].points;
    ASSERT_EQ(points.size(), 2u);
    // Stricter threshold: accuracy must not drop, coverage must not rise.
    EXPECT_GE(points[1].accuracy + 1e-9, points[0].accuracy);
    EXPECT_LE(points[1].coverage, points[0].coverage + 1e-9);
}

TEST(ReportTest, PrintersEmitSeries)
{
    Fig5Options options = smallFig5();
    options.training.maxCustomBranches = 2;
    const Fig5Benchmark fig5 = runFigure5("g721", options);
    std::ostringstream out5;
    Fig5Report(fig5).renderText(out5);
    EXPECT_NE(out5.str().find("xscale"), std::string::npos);
    EXPECT_NE(out5.str().find("custom-diff"), std::string::npos);
    EXPECT_NE(out5.str().find("g721"), std::string::npos);

    Fig4Options fig4_options;
    fig4_options.branchesPerRun = 10000;
    fig4_options.fsmsPerBenchmark = 1;
    std::ostringstream out4;
    Fig4Report(runFigure4(fig4_options)).renderText(out4);
    EXPECT_NE(out4.str().find("linear fit"), std::string::npos);

    Fig2Options fig2_options;
    fig2_options.loadsPerBenchmark = 10000;
    fig2_options.histories = {2};
    fig2_options.thresholds = {0.5};
    fig2_options.sudMax = {5};
    fig2_options.sudDecrement = {1};
    fig2_options.sudThresholdFrac = {0.5};
    std::ostringstream out2;
    Fig2Report(runFigure2("perl", fig2_options)).renderText(out2);
    EXPECT_NE(out2.str().find("Figure 2"), std::string::npos);
    EXPECT_NE(out2.str().find("custom w/ hist=2"), std::string::npos);
    EXPECT_NE(out2.str().find("accuracy"), std::string::npos);
}

} // anonymous namespace
} // namespace autofsm
