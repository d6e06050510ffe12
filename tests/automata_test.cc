/**
 * @file
 * Tests for the automata substrate: the regex text and Thompson count
 * rendered from a cover, subset construction straight from a cover,
 * Hopcroft minimization and start-state reduction. The paper's
 * regex -> Thompson NFA -> subset path is the oracle
 * (reference_automata.hh), itself checked against suffix semantics.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automata/dfa.hh"
#include "automata/dfa_io.hh"
#include "automata/regex.hh"
#include "flow/budget.hh"
#include "reference_automata.hh"
#include "support/rng.hh"

namespace autofsm
{
namespace
{

/** All bit strings of length @p len as vectors. */
std::vector<std::vector<int>>
allStrings(int len)
{
    std::vector<std::vector<int>> out;
    for (uint32_t v = 0; v < (1u << len); ++v) {
        std::vector<int> s(static_cast<size_t>(len));
        for (int i = 0; i < len; ++i)
            s[static_cast<size_t>(i)] = bitOf(v, len - 1 - i);
        out.push_back(std::move(s));
    }
    return out;
}

/** The trailing-@p n bits of @p s packed with bit 0 = most recent. */
uint32_t
suffixBits(const std::vector<int> &s, int n)
{
    uint32_t value = 0;
    for (size_t i = s.size() - static_cast<size_t>(n); i < s.size(); ++i)
        value = (value << 1) | static_cast<uint32_t>(s[i]);
    return value;
}

Cover
paperCover()
{
    Cover cover(2);
    cover.add(Cube::fromPattern("x1"));
    cover.add(Cube::fromPattern("1x"));
    return cover;
}

TEST(RegexTest, PaperNotationRendering)
{
    EXPECT_EQ(regexText(paperCover()), "{0|1}*{ {0|1}1 | 1{0|1} }");
    EXPECT_EQ(reference::regexFromCover(paperCover()).toString(),
              "{0|1}*{ {0|1}1 | 1{0|1} }");
}

TEST(RegexTest, EmptyCoverGivesEmptyRegex)
{
    EXPECT_EQ(regexText(Cover(2)), "(empty)");
    EXPECT_TRUE(reference::regexFromCover(Cover(2)).empty());
    EXPECT_EQ(reference::Regex().toString(), "(empty)");
}

TEST(NfaTest, AcceptsExactlySuffixLanguage)
{
    const auto nfa = reference::Nfa::fromRegex(
        reference::regexFromCover(paperCover()));
    // Language: all strings whose last two bits are 01, 10 or 11.
    for (int len = 2; len <= 6; ++len) {
        for (const auto &s : allStrings(len)) {
            const uint32_t suffix = suffixBits(s, 2);
            EXPECT_EQ(nfa.accepts(s), suffix != 0u);
        }
    }
}

TEST(NfaTest, ShortStringsRejected)
{
    const auto nfa = reference::Nfa::fromRegex(
        reference::regexFromCover(paperCover()));
    EXPECT_FALSE(nfa.accepts({}));
    EXPECT_FALSE(nfa.accepts({1}));
    EXPECT_FALSE(nfa.accepts({0}));
}

TEST(DfaTest, SubsetConstructionMatchesNfa)
{
    const auto nfa = reference::Nfa::fromRegex(
        reference::regexFromCover(paperCover()));
    const Dfa dfa = reference::subsetConstruction(nfa);
    for (int len = 0; len <= 7; ++len) {
        for (const auto &s : allStrings(len))
            EXPECT_EQ(dfa.predictAfter(s) == 1, nfa.accepts(s));
    }
}

TEST(DfaTest, HopcroftPreservesBehavior)
{
    const Dfa dfa = Dfa::fromCover(paperCover());
    const Dfa minimized = dfa.minimizeHopcroft();
    EXPECT_TRUE(dfa.equivalent(minimized));
    EXPECT_LE(minimized.numStates(), dfa.numStates());
}

TEST(DfaTest, HopcroftReachesPaperStateCount)
{
    // Figure 1 (left): the machine with start-up states has 5 states.
    const Dfa minimized = Dfa::fromCover(paperCover()).minimizeHopcroft();
    EXPECT_EQ(minimized.numStates(), 5);
}

TEST(DfaTest, SteadyStateReductionReachesPaperStateCount)
{
    // Figure 1 (right): removing start-up states leaves 3 states.
    const Dfa reduced = Dfa::fromCover(paperCover())
                            .minimizeHopcroft()
                            .steadyStateReduce();
    EXPECT_EQ(reduced.numStates(), 3);
}

TEST(DfaTest, SteadyStateMachineAgreesOnWarmStrings)
{
    const Dfa full = Dfa::fromCover(paperCover()).minimizeHopcroft();
    const Dfa reduced = full.steadyStateReduce();
    // Behavior must be identical for every string of length >= N = 2.
    for (int len = 2; len <= 8; ++len) {
        for (const auto &s : allStrings(len))
            EXPECT_EQ(full.predictAfter(s), reduced.predictAfter(s));
    }
}

TEST(DfaTest, HopcroftMergesRedundantStates)
{
    // Hand-built machine with two interchangeable output-1 states.
    Dfa dfa;
    const int a = dfa.addState(0);
    const int b = dfa.addState(1);
    const int c = dfa.addState(1); // duplicate of b
    dfa.setEdge(a, 0, a);
    dfa.setEdge(a, 1, b);
    dfa.setEdge(b, 0, a);
    dfa.setEdge(b, 1, c);
    dfa.setEdge(c, 0, a);
    dfa.setEdge(c, 1, b);
    dfa.setStart(a);
    const Dfa minimized = dfa.minimizeHopcroft();
    EXPECT_EQ(minimized.numStates(), 2);
    EXPECT_TRUE(dfa.equivalent(minimized));
}

TEST(DfaTest, TrimDropsUnreachable)
{
    Dfa dfa;
    const int a = dfa.addState(0);
    const int b = dfa.addState(1);
    const int orphan = dfa.addState(1);
    dfa.setEdge(a, 0, a);
    dfa.setEdge(a, 1, b);
    dfa.setEdge(b, 0, b);
    dfa.setEdge(b, 1, a);
    dfa.setEdge(orphan, 0, a);
    dfa.setEdge(orphan, 1, b);
    dfa.setStart(a);
    EXPECT_EQ(dfa.trimUnreachable().numStates(), 2);
}

TEST(DfaTest, EquivalentDetectsDifference)
{
    const Dfa zero = Dfa::constant(0);
    const Dfa one = Dfa::constant(1);
    EXPECT_FALSE(zero.equivalent(one));
    EXPECT_TRUE(zero.equivalent(Dfa::constant(0)));
}

TEST(DfaTest, ConstantMachines)
{
    const Dfa one = Dfa::constant(1);
    EXPECT_EQ(one.numStates(), 1);
    EXPECT_EQ(one.predictAfter({0, 1, 0, 0}), 1);
}

TEST(DfaTest, DotOutputMentionsStatesAndEdges)
{
    const Dfa dfa = Dfa::constant(1);
    const std::string dot = dfa.toDot("example");
    EXPECT_NE(dot.find("digraph example"), std::string::npos);
    EXPECT_NE(dot.find("s0"), std::string::npos);
    EXPECT_NE(dot.find("[1]"), std::string::npos);
    EXPECT_NE(dot.find("init -> s0"), std::string::npos);
}

/** What() of the FlowError @p build throws, or "" if it throws none. */
template <typename Build>
std::string
subsetBudgetError(Build build)
{
    try {
        build();
    } catch (const FlowError &e) {
        EXPECT_EQ(e.stage(), "subset");
        EXPECT_EQ(e.kind(), ErrorKind::BudgetExceeded);
        return e.what();
    }
    return "";
}

/**
 * Dfa::fromCover against the oracle on @p cover: the same DFA state for
 * state, the same reduced machine, the same budget edge, and the closed
 * Thompson count equal to the built NFA's.
 */
void
expectDirectMatchesSubset(const Cover &cover)
{
    SCOPED_TRACE("N=" + std::to_string(cover.numVars()) +
                 " k=" + std::to_string(cover.size()));
    const Dfa oracle = reference::subsetOracle(cover);
    const Dfa direct = Dfa::fromCover(cover);
    ASSERT_TRUE(direct.identical(oracle))
        << direct.numStates() << " vs " << oracle.numStates() << " states";
    EXPECT_EQ(dfaToText(direct.minimizeHopcroft().steadyStateReduce()),
              dfaToText(oracle.minimizeHopcroft().steadyStateReduce()));
    EXPECT_EQ(thompsonStateCount(cover),
              reference::Nfa::fromRegex(reference::regexFromCover(cover))
                  .numStates());

    const int count = oracle.numStates();
    const std::string direct_error = subsetBudgetError(
        [&] { Dfa::fromCover(cover, count - 1); });
    EXPECT_FALSE(direct_error.empty());
    EXPECT_EQ(direct_error, subsetBudgetError([&] {
                  reference::subsetOracle(cover, count - 1);
              }));
    EXPECT_TRUE(Dfa::fromCover(cover, count).identical(oracle));
    EXPECT_TRUE(reference::subsetOracle(cover, count).identical(oracle));
}

/** A random cube over @p n variables, each one specified with @p p. */
Cube
randomCube(Rng &rng, int n, double p)
{
    Cube cube;
    for (int bit = 0; bit < n; ++bit) {
        if (rng.chance(p)) {
            cube.mask |= 1U << bit;
            if (rng.chance(0.5))
                cube.value |= 1U << bit;
        }
    }
    return cube;
}

TEST(DfaTest, DirectCoverConstructionMatchesSubset)
{
    expectDirectMatchesSubset(paperCover());

    // Seeded random covers across every history length. Fewer, more
    // specified cubes at large N keep the oracle's state count small.
    Rng rng(0x5eedc0de);
    for (int n = 1; n <= 16; ++n) {
        for (int trial = 0; trial < 8; ++trial) {
            Cover cover(n);
            const int k = 1 + static_cast<int>(rng.below(n <= 10 ? 16 : 8));
            for (int i = 0; i < k; ++i)
                cover.add(randomCube(rng, n, n <= 10 ? 0.6 : 0.7));
            expectDirectMatchesSubset(cover);
        }
    }

    // Cube counts on both sides of the 64-bit row-word edges.
    for (const int k : {1, 63, 64, 65, 129}) {
        Cover cover(7);
        for (int i = 0; i < k; ++i)
            cover.add(randomCube(rng, 7, 0.7));
        expectDirectMatchesSubset(cover);
    }

    // One all-don't-care cube: every started state predicts 1.
    Cover any(3);
    any.add(Cube(0, 0));
    expectDirectMatchesSubset(any);

    // Every minterm: the full on-set, one cube per history.
    for (int n = 1; n <= 6; ++n) {
        Cover all(n);
        for (uint32_t m = 0; m < (1u << n); ++m)
            all.add(Cube::minterm(m, n));
        expectDirectMatchesSubset(all);
    }

    // Duplicate and contained cubes stay separate positions.
    Cover overlap(4);
    for (const char *pattern : {"1x0x", "1x0x", "110x", "1101", "xxx1"})
        overlap.add(Cube::fromPattern(pattern));
    expectDirectMatchesSubset(overlap);
}

/** regexText against the oracle AST's rendering of @p cover. */
void
expectTextMatchesOracle(const Cover &cover)
{
    SCOPED_TRACE("N=" + std::to_string(cover.numVars()) +
                 " k=" + std::to_string(cover.size()));
    EXPECT_EQ(regexText(cover), reference::regexFromCover(cover).toString());
}

TEST(RegexTest, TextMatchesOracleRendering)
{
    expectTextMatchesOracle(paperCover());
    expectTextMatchesOracle(Cover(2));

    // One cube: no alternation, so no braces around the term.
    for (const char *pattern : {"1", "0", "x", "1x0", "xxxx", "0110"}) {
        Cover one(static_cast<int>(std::string(pattern).size()));
        one.add(Cube::fromPattern(pattern));
        expectTextMatchesOracle(one);
    }
    Cover single(1);
    single.add(Cube::fromPattern("1"));
    EXPECT_EQ(regexText(single), "{0|1}*1");

    // One variable: every symbol kind, alternations nested to the left.
    Cover one_var(1);
    for (const char *pattern : {"1", "0", "x", "1"}) {
        one_var.add(Cube::fromPattern(pattern));
        expectTextMatchesOracle(one_var);
    }
    EXPECT_EQ(regexText(one_var), "{0|1}*{ { { 1 | 0 } | {0|1} } | 1 }");

    // Random covers up to N = 24, with cube counts on both sides of
    // 64-cube boundaries.
    Rng rng(0x7e47);
    std::vector<int> lengths;
    for (int n = 2; n <= 16; ++n)
        lengths.push_back(n);
    lengths.push_back(24);
    for (const int n : lengths) {
        for (const int k : {1, 2, 63, 64, 65, 129}) {
            Cover cover(n);
            for (int i = 0; i < k; ++i)
                cover.add(randomCube(rng, n, 0.5));
            expectTextMatchesOracle(cover);
        }
    }
}

/**
 * Property: for a random cover over n variables, the fully processed
 * machine (subset construction + Hopcroft + steady-state reduction)
 * predicts exactly cover.evaluate(last n bits) on every input of length
 * >= n. This is the core semantic guarantee of Sections 4.5-4.7.
 */
class PipelinePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelinePropertyTest, FinalMachineMatchesCoverOnSuffixes)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
    const int n = 2 + static_cast<int>(rng.below(3)); // 2..4

    // Random non-empty, non-total ON set as minterm cover.
    Cover cover(n);
    uint32_t on_count = 0;
    for (uint32_t m = 0; m < (1u << n); ++m) {
        if (rng.chance(0.4)) {
            cover.add(Cube::minterm(m, n));
            ++on_count;
        }
    }
    if (on_count == 0)
        cover.add(Cube::minterm(0, n));

    const Dfa fsm =
        Dfa::fromCover(cover).minimizeHopcroft().steadyStateReduce();

    for (int len = n; len <= n + 4; ++len) {
        for (const auto &s : allStrings(len)) {
            EXPECT_EQ(fsm.predictAfter(s) == 1,
                      cover.evaluate(suffixBits(s, n)))
                << "len=" << len;
        }
    }

    // The steady-state core of a suffix language needs at most 2^n
    // states (one per reachable suffix).
    EXPECT_LE(fsm.numStates(), 1 << n);
}

INSTANTIATE_TEST_SUITE_P(RandomCovers, PipelinePropertyTest,
                         ::testing::Range(0, 20));

} // anonymous namespace
} // namespace autofsm
