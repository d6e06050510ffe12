/**
 * @file
 * Tests for the synthesis substrate: VHDL emission and the area model.
 */

#include <gtest/gtest.h>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "obs/metrics.hh"
#include "support/rng.hh"
#include "synth/area.hh"
#include "synth/vhdl.hh"

namespace autofsm
{
namespace
{

Dfa
paperFsm()
{
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    return DesignFlow(options).runOnTrace(trace).design.fsm;
}

TEST(VhdlTest, ContainsEntityAndPorts)
{
    const std::string vhdl = toVhdl(paperFsm());
    EXPECT_NE(vhdl.find("entity fsm_predictor is"), std::string::npos);
    EXPECT_NE(vhdl.find("clk  : in  std_logic;"), std::string::npos);
    EXPECT_NE(vhdl.find("rst  : in  std_logic;"), std::string::npos);
    EXPECT_NE(vhdl.find("din  : in  std_logic;"), std::string::npos);
    EXPECT_NE(vhdl.find("pred : out std_logic"), std::string::npos);
    EXPECT_NE(vhdl.find("end architecture rtl;"), std::string::npos);
}

TEST(VhdlTest, EnumeratesAllStates)
{
    const Dfa fsm = paperFsm();
    const std::string vhdl = toVhdl(fsm);
    EXPECT_NE(vhdl.find("type state_t is (S0, S1, S2);"),
              std::string::npos);
    for (int s = 0; s < fsm.numStates(); ++s) {
        EXPECT_NE(vhdl.find("when S" + std::to_string(s) + " =>"),
                  std::string::npos);
    }
}

TEST(VhdlTest, ResetTargetsStartState)
{
    const Dfa fsm = paperFsm();
    const std::string vhdl = toVhdl(fsm);
    EXPECT_NE(vhdl.find("state <= S" + std::to_string(fsm.start()) + ";"),
              std::string::npos);
}

TEST(VhdlTest, CustomEntityNameAndOneHot)
{
    VhdlOptions options;
    options.entityName = "branch42";
    options.oneHot = true;
    const std::string vhdl = toVhdl(Dfa::constant(1), options);
    EXPECT_NE(vhdl.find("entity branch42 is"), std::string::npos);
    EXPECT_NE(vhdl.find("one-hot"), std::string::npos);
}

TEST(VhdlTest, MooreOutputsMatchMachine)
{
    const Dfa fsm = paperFsm();
    const std::string vhdl = toVhdl(fsm);
    for (int s = 0; s < fsm.numStates(); ++s) {
        const std::string line = "'" + std::to_string(fsm.output(s)) +
            "' when S" + std::to_string(s);
        EXPECT_NE(vhdl.find(line), std::string::npos) << line;
    }
}

TEST(AreaTest, ConstantMachineIsTiny)
{
    const AreaEstimate est = estimateFsmArea(Dfa::constant(0));
    EXPECT_EQ(est.flops, 0);
    EXPECT_LT(est.area, 5.0);
}

TEST(AreaTest, PaperMachineHasPlausibleCost)
{
    const AreaEstimate est = estimateFsmArea(paperFsm());
    EXPECT_EQ(est.states, 3);
    EXPECT_EQ(est.flops, 2);
    EXPECT_GT(est.terms, 0);
    EXPECT_GT(est.area, 10.0);
    EXPECT_LT(est.area, 100.0);
}

TEST(AreaTest, AreaGrowsWithStates)
{
    // Counter-like machines of growing size.
    auto ring = [](int n) {
        Dfa dfa;
        for (int s = 0; s < n; ++s)
            dfa.addState(s % 2);
        for (int s = 0; s < n; ++s) {
            dfa.setEdge(s, 0, (s + 1) % n);
            dfa.setEdge(s, 1, 0);
        }
        dfa.setStart(0);
        return dfa;
    };
    const double small = estimateFsmArea(ring(4)).area;
    const double medium = estimateFsmArea(ring(16)).area;
    const double large = estimateFsmArea(ring(64)).area;
    EXPECT_LT(small, medium);
    EXPECT_LT(medium, large);
}

/** Observations so far in `autofsm_synth_area_millis` (0 before the
 *  first timed call registers it). */
uint64_t
areaMillisCount()
{
    for (const obs::MetricValue &metric :
         obs::globalMetrics().snapshot().metrics) {
        if (metric.name == "autofsm_synth_area_millis")
            return metric.histogram.count;
    }
    return 0;
}

TEST(AreaTest, EachCallIsTimed)
{
#ifdef AUTOFSM_NO_TELEMETRY
    GTEST_SKIP() << "built with AUTOFSM_NO_TELEMETRY";
#endif
    obs::globalMetrics().enable(true);
    const uint64_t before = areaMillisCount();
    estimateFsmArea(paperFsm());
    estimateFsmArea(Dfa::constant(1));
    EXPECT_EQ(areaMillisCount(), before + 2);
}

TEST(AreaTest, LogicTablesFollowTheBinaryEncoding)
{
    // Three states: two code bits, so two next-state tables over
    // (code, din) plus the output table over the code; code 3 is unused.
    const Dfa fsm = paperFsm();
    const std::vector<TruthTable> tables = fsmLogicTables(fsm);
    ASSERT_EQ(tables.size(), 3u);
    EXPECT_EQ(tables[0].numVars(), 3);
    EXPECT_EQ(tables[1].numVars(), 3);
    EXPECT_EQ(tables[2].numVars(), 2);
    for (int s = 0; s < 3; ++s) {
        for (int din = 0; din < 2; ++din) {
            const uint32_t row = static_cast<uint32_t>(s | din << 2);
            for (int bit = 0; bit < 2; ++bit) {
                EXPECT_EQ(tables[static_cast<size_t>(bit)].isOn(row),
                          ((fsm.next(s, din) >> bit) & 1) != 0);
            }
        }
        EXPECT_EQ(tables[2].isOn(static_cast<uint32_t>(s)),
                  fsm.output(s) != 0);
    }
    for (int din = 0; din < 2; ++din) {
        EXPECT_TRUE(tables[0].isDontCare(static_cast<uint32_t>(3 | din << 2)));
    }
    EXPECT_TRUE(tables[2].isDontCare(3));
    EXPECT_TRUE(fsmLogicTables(Dfa::constant(0)).empty());
}

TEST(AreaTest, TableAreaIsLinearInBits)
{
    AreaCosts costs;
    EXPECT_DOUBLE_EQ(tableArea(100.0, costs), 100.0 * costs.sramBit);
    EXPECT_DOUBLE_EQ(tableArea(0.0, costs), 0.0);
}

TEST(AreaTest, FitAreaLineTracksSamples)
{
    std::vector<AreaEstimate> samples;
    for (int states = 2; states <= 40; states += 2) {
        AreaEstimate est;
        est.states = states;
        est.area = 2.2 * states + 10.0;
        samples.push_back(est);
    }
    const LineFit fit = fitAreaLine(samples);
    EXPECT_NEAR(fit.slope, 2.2, 1e-9);
    EXPECT_NEAR(fit.intercept, 10.0, 1e-9);
}

TEST(AreaTest, RandomMachinesRoughlyLinear)
{
    // The Figure-4 claim: over generated-FSM-like machines, area is
    // bounded roughly linearly by state count.
    Rng rng(17);
    std::vector<AreaEstimate> samples;
    for (int trial = 0; trial < 12; ++trial) {
        const int n = 3 + static_cast<int>(rng.below(30));
        Dfa dfa;
        for (int s = 0; s < n; ++s)
            dfa.addState(static_cast<int>(rng.below(2)));
        for (int s = 0; s < n; ++s) {
            dfa.setEdge(s, 0, static_cast<int>(rng.below(
                static_cast<uint64_t>(n))));
            dfa.setEdge(s, 1, static_cast<int>(rng.below(
                static_cast<uint64_t>(n))));
        }
        dfa.setStart(0);
        samples.push_back(estimateFsmArea(dfa));
    }
    const LineFit fit = fitAreaLine(samples);
    EXPECT_GT(fit.slope, 0.0);
    EXPECT_GT(fit.r2, 0.5);
}

} // anonymous namespace
} // namespace autofsm
