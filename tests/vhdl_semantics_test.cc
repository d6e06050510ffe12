/**
 * @file
 * Semantic check of the VHDL emitter: a small interpreter parses the
 * emitted two-process template back into a transition table and
 * co-simulates it against the source machine on random stimulus. This
 * is the closest offline equivalent of the paper's "hand the VHDL to
 * Synopsys" step.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "support/rng.hh"
#include "synth/verilog.hh"
#include "synth/vhdl.hh"

namespace autofsm
{
namespace
{

/** Transition table recovered from emitted VHDL text. */
struct ParsedVhdl
{
    int resetState = -1;
    std::map<int, int> next0, next1; // state -> successor
    std::map<int, int> output;       // state -> pred bit
};

int
stateNumber(const std::string &token)
{
    // Tokens look like "S12" possibly followed by punctuation.
    size_t pos = token.find('S');
    EXPECT_NE(pos, std::string::npos) << token;
    int value = 0;
    for (++pos; pos < token.size() && isdigit(token[pos]); ++pos)
        value = value * 10 + (token[pos] - '0');
    return value;
}

ParsedVhdl
parseVhdl(const std::string &text)
{
    ParsedVhdl parsed;
    std::istringstream in(text);
    std::string line;
    int current = -1;
    bool in_taken_arm = false;
    while (std::getline(in, line)) {
        if (line.find("state <= S") != std::string::npos &&
            line.find("next_state") == std::string::npos) {
            parsed.resetState = stateNumber(line);
        } else if (line.find("when S") != std::string::npos &&
                   line.find("=>") != std::string::npos) {
            current = stateNumber(line);
        } else if (line.find("if din = '1' then") != std::string::npos) {
            in_taken_arm = true;
        } else if (line.find("else") != std::string::npos) {
            in_taken_arm = false;
        } else if (line.find("next_state <= S") != std::string::npos) {
            EXPECT_GE(current, 0);
            (in_taken_arm ? parsed.next1 : parsed.next0)[current] =
                stateNumber(line);
        } else if (line.find("' when S") != std::string::npos) {
            const size_t quote = line.find('\'');
            const int bit = line[quote + 1] - '0';
            parsed.output[stateNumber(line.substr(quote))] = bit;
        }
    }
    return parsed;
}

void
cosimulate(const Dfa &fsm)
{
    ParsedVhdl parsed;
    {
        SCOPED_TRACE("parse");
        parsed = parseVhdl(toVhdl(fsm));
    }
    ASSERT_EQ(parsed.resetState, fsm.start());
    ASSERT_EQ(static_cast<int>(parsed.output.size()), fsm.numStates());

    Rng rng(0xc051);
    int hw_state = parsed.resetState;
    int model_state = fsm.start();
    for (int cycle = 0; cycle < 2000; ++cycle) {
        ASSERT_EQ(parsed.output.at(hw_state), fsm.output(model_state))
            << "cycle " << cycle;
        const int din = static_cast<int>(rng.below(2));
        hw_state = din ? parsed.next1.at(hw_state)
                       : parsed.next0.at(hw_state);
        model_state = fsm.next(model_state, din);
        ASSERT_EQ(hw_state, model_state) << "cycle " << cycle;
    }
}

TEST(VhdlSemanticsTest, PaperMachineCosimulates)
{
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    cosimulate(DesignFlow(options).runOnTrace(trace).design.fsm);
}

TEST(VhdlSemanticsTest, ConstantMachineCosimulates)
{
    cosimulate(Dfa::constant(0));
    cosimulate(Dfa::constant(1));
}

class VhdlSemanticsPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(VhdlSemanticsPropertyTest, GeneratedMachinesCosimulate)
{
    // Design a machine from a random correlated trace, then verify the
    // emitted VHDL implements it bit-for-bit.
    Rng rng(static_cast<uint64_t>(GetParam()) * 997 + 13);
    std::vector<int> trace;
    int bit = 0;
    for (int i = 0; i < 3000; ++i) {
        if (rng.chance(0.3))
            bit ^= 1;
        trace.push_back(bit);
    }
    FsmDesignOptions options;
    options.order = 2 + GetParam() % 4;
    cosimulate(DesignFlow(options).runOnTrace(trace).design.fsm);
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, VhdlSemanticsPropertyTest,
                         ::testing::Range(0, 10));

/** Parse one "W'dN" literal starting at @p pos. */
int
verilogState(const std::string &line, size_t pos)
{
    const size_t d = line.find("'d", pos);
    EXPECT_NE(d, std::string::npos) << line;
    int value = 0;
    for (size_t i = d + 2; i < line.size() && isdigit(line[i]); ++i)
        value = value * 10 + (line[i] - '0');
    return value;
}

ParsedVhdl
parseVerilog(const std::string &text)
{
    ParsedVhdl parsed;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("default") != std::string::npos)
            continue; // defensive arms carry no machine information
        if (line.find("state <= ") != std::string::npos &&
            line.find("rst") == std::string::npos &&
            line.find("next_state;") == std::string::npos) {
            parsed.resetState = verilogState(line, line.find("<="));
        } else if (line.find(": next_state = din ?") !=
                   std::string::npos) {
            const int from = verilogState(line, 0);
            const size_t q = line.find('?');
            const size_t c = line.find(':', q);
            parsed.next1[from] = verilogState(line, q);
            parsed.next0[from] = verilogState(line, c);
        } else if (line.find(": pred = 1'b") != std::string::npos) {
            const int from = verilogState(line, 0);
            const size_t b = line.find("1'b");
            parsed.output[from] = line[b + 3] - '0';
        }
    }
    return parsed;
}

void
cosimulateVerilog(const Dfa &fsm)
{
    const ParsedVhdl parsed = parseVerilog(toVerilog(fsm));
    ASSERT_EQ(parsed.resetState, fsm.start());
    ASSERT_EQ(static_cast<int>(parsed.output.size()), fsm.numStates());

    Rng rng(0xbeef);
    int hw_state = parsed.resetState;
    int model_state = fsm.start();
    for (int cycle = 0; cycle < 2000; ++cycle) {
        ASSERT_EQ(parsed.output.at(hw_state), fsm.output(model_state))
            << "cycle " << cycle;
        const int din = static_cast<int>(rng.below(2));
        hw_state = din ? parsed.next1.at(hw_state)
                       : parsed.next0.at(hw_state);
        model_state = fsm.next(model_state, din);
        ASSERT_EQ(hw_state, model_state) << "cycle " << cycle;
    }
}

TEST(VerilogSemanticsTest, PaperMachineCosimulates)
{
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    cosimulateVerilog(DesignFlow(options).runOnTrace(trace).design.fsm);
}

TEST(VerilogSemanticsTest, ModuleStructure)
{
    const std::string text = toVerilog(Dfa::constant(1));
    EXPECT_NE(text.find("module fsm_predictor"), std::string::npos);
    EXPECT_NE(text.find("endmodule"), std::string::npos);
    EXPECT_NE(text.find("input  wire din"), std::string::npos);
    VerilogOptions options;
    options.moduleName = "branch7";
    EXPECT_NE(toVerilog(Dfa::constant(0), options).find("module branch7"),
              std::string::npos);
}

class VerilogSemanticsPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(VerilogSemanticsPropertyTest, GeneratedMachinesCosimulate)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 331 + 5);
    std::vector<int> trace;
    int bit = 0;
    for (int i = 0; i < 3000; ++i) {
        if (rng.chance(0.25))
            bit ^= 1;
        trace.push_back(bit);
    }
    FsmDesignOptions options;
    options.order = 2 + GetParam() % 4;
    cosimulateVerilog(DesignFlow(options).runOnTrace(trace).design.fsm);
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, VerilogSemanticsPropertyTest,
                         ::testing::Range(0, 10));

} // anonymous namespace
} // namespace autofsm
