/**
 * @file
 * Tests for DFA serialization and additional automata invariants
 * (idempotence of the optimization passes, equivalence properties).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "automata/dfa.hh"
#include "automata/dfa_io.hh"
#include "reference_automata.hh"
#include "support/rng.hh"

namespace autofsm
{
namespace
{

Dfa
randomMachine(uint64_t seed, int max_states = 24)
{
    Rng rng(seed);
    const int n = 2 + static_cast<int>(rng.below(
        static_cast<uint64_t>(max_states - 1)));
    Dfa dfa;
    for (int s = 0; s < n; ++s)
        dfa.addState(static_cast<int>(rng.below(2)));
    for (int s = 0; s < n; ++s) {
        dfa.setEdge(s, 0,
                    static_cast<int>(rng.below(static_cast<uint64_t>(n))));
        dfa.setEdge(s, 1,
                    static_cast<int>(rng.below(static_cast<uint64_t>(n))));
    }
    dfa.setStart(static_cast<int>(rng.below(static_cast<uint64_t>(n))));
    return dfa;
}

TEST(DfaIoTest, RoundTripPreservesStructure)
{
    const Dfa original = randomMachine(11);
    const Dfa parsed = dfaFromText(dfaToText(original));
    ASSERT_EQ(parsed.numStates(), original.numStates());
    EXPECT_EQ(parsed.start(), original.start());
    for (int s = 0; s < original.numStates(); ++s) {
        EXPECT_EQ(parsed.output(s), original.output(s));
        EXPECT_EQ(parsed.next(s, 0), original.next(s, 0));
        EXPECT_EQ(parsed.next(s, 1), original.next(s, 1));
    }
}

class DfaIoPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DfaIoPropertyTest, RoundTripIsBehaviorallyEquivalent)
{
    const Dfa original =
        randomMachine(static_cast<uint64_t>(GetParam()) * 31 + 7);
    const Dfa parsed = dfaFromText(dfaToText(original));
    EXPECT_TRUE(original.equivalent(parsed));
}

INSTANTIATE_TEST_SUITE_P(RandomMachines, DfaIoPropertyTest,
                         ::testing::Range(0, 12));

TEST(DfaIoTest, RejectsMalformedInput)
{
    EXPECT_THROW(dfaFromText(""), std::invalid_argument);
    EXPECT_THROW(dfaFromText("nope 1 0\n1 0 0\n"), std::invalid_argument);
    EXPECT_THROW(dfaFromText("fsm 0 0\n"), std::invalid_argument);
    EXPECT_THROW(dfaFromText("fsm 2 5\n0 0 0\n0 0 0\n"),
                 std::invalid_argument);
    EXPECT_THROW(dfaFromText("fsm 2 0\n0 0 0\n"), std::invalid_argument);
    EXPECT_THROW(dfaFromText("fsm 1 0\n2 0 0\n"), std::invalid_argument);
    EXPECT_THROW(dfaFromText("fsm 1 0\n0 0 9\n"), std::invalid_argument);
}

/** What() of the invalid_argument dfaFromText throws on @p text. */
std::string
parseError(const std::string &text)
{
    try {
        dfaFromText(text);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(DfaIoTest, RejectsStateCountTheTextCannotHold)
{
    // Refused as truncated before any room is reserved for the rows.
    EXPECT_EQ(parseError("fsm 2147483647 0\n"),
              "dfaFromText: truncated body");
    EXPECT_EQ(parseError("fsm 3 0\n0 0 0\n0 0 0\n"),
              "dfaFromText: truncated body");
    EXPECT_EQ(parseError("fsm 1 0"), "dfaFromText: truncated body");
    // The tightest body still parses, trailing newline or not.
    EXPECT_EQ(dfaFromText("fsm 2 1\n1 0 1\n0 1 0").numStates(), 2);
    EXPECT_EQ(dfaFromText("fsm 2 1 1 0 1 0 1 0").start(), 1);
}

TEST(DfaIoTest, RejectsTrailingData)
{
    EXPECT_EQ(parseError("fsm 1 0\n0 0 0 junk"),
              "dfaFromText: trailing data");
    EXPECT_EQ(parseError("fsm 1 0\n0 0 0\n1 0 0\n"),
              "dfaFromText: trailing data");
    EXPECT_EQ(dfaFromText("fsm 1 0\n1 0 0\n \n\t").output(0), 1);
}

TEST(DfaIoTest, TextFormatIsStable)
{
    const Dfa one = Dfa::constant(1);
    EXPECT_EQ(dfaToText(one), "fsm 1 0\n1 0 0\n");
}

TEST(AutomataInvariantTest, HopcroftIsIdempotent)
{
    for (int seed = 0; seed < 8; ++seed) {
        const Dfa machine = randomMachine(static_cast<uint64_t>(seed));
        const Dfa once = machine.minimizeHopcroft();
        const Dfa twice = once.minimizeHopcroft();
        EXPECT_EQ(once.numStates(), twice.numStates()) << seed;
        EXPECT_TRUE(once.equivalent(twice)) << seed;
    }
}

TEST(AutomataInvariantTest, SteadyStateReduceIsIdempotent)
{
    for (int seed = 0; seed < 8; ++seed) {
        const Dfa machine =
            randomMachine(static_cast<uint64_t>(seed) + 100);
        const Dfa once = machine.steadyStateReduce();
        const Dfa twice = once.steadyStateReduce();
        EXPECT_EQ(once.numStates(), twice.numStates()) << seed;
    }
}

TEST(AutomataInvariantTest, MinimalMachineIsUnique)
{
    // Two different constructions of the same suffix language minimize
    // to machines of identical size.
    Cover a(2), b(2);
    a.add(Cube::fromPattern("x1"));
    a.add(Cube::fromPattern("1x"));
    // Same function, expressed redundantly.
    b.add(Cube::fromPattern("x1"));
    b.add(Cube::fromPattern("1x"));
    b.add(Cube::fromPattern("11"));

    const Dfa ma = reference::subsetOracle(a).minimizeHopcroft();
    const Dfa mb = reference::subsetOracle(b).minimizeHopcroft();
    EXPECT_EQ(ma.numStates(), mb.numStates());
    EXPECT_TRUE(ma.equivalent(mb));
}

TEST(AutomataInvariantTest, EquivalenceIsReflexiveAndSymmetric)
{
    const Dfa a = randomMachine(3);
    const Dfa b = randomMachine(4);
    EXPECT_TRUE(a.equivalent(a));
    EXPECT_EQ(a.equivalent(b), b.equivalent(a));
}

} // anonymous namespace
} // namespace autofsm
