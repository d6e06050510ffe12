/**
 * @file
 * Unit and property tests for the logic-minimization substrate.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bpred/trainer.hh"
#include "logicmin/espresso.hh"
#include "logicmin/minimize.hh"
#include "logicmin/quine_mccluskey.hh"
#include "reference_minimizers.hh"
#include "sim/figure5.hh"
#include "support/rng.hh"
#include "synth/area.hh"
#include "workloads/branch_workloads.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{
namespace
{

TEST(CubeTest, MintermContainsOnlyItself)
{
    const Cube cube = Cube::minterm(0b101, 3);
    EXPECT_TRUE(cube.contains(0b101));
    for (uint32_t m = 0; m < 8; ++m) {
        if (m != 0b101) {
            EXPECT_FALSE(cube.contains(m));
        }
    }
    EXPECT_EQ(cube.literals(), 3);
}

TEST(CubeTest, DontCarePositionsMatchBoth)
{
    // Pattern "1x" over 2 vars: bit1 = 1, bit0 free.
    const Cube cube = Cube::fromPattern("1x");
    EXPECT_TRUE(cube.contains(0b10));
    EXPECT_TRUE(cube.contains(0b11));
    EXPECT_FALSE(cube.contains(0b00));
    EXPECT_FALSE(cube.contains(0b01));
    EXPECT_EQ(cube.literals(), 1);
}

TEST(CubeTest, PatternRoundTrip)
{
    for (const char *text : {"x1", "1x", "0x1x", "xxxx", "1010"}) {
        const Cube cube = Cube::fromPattern(text);
        EXPECT_EQ(cube.toPattern(static_cast<int>(strlen(text))), text);
    }
}

TEST(CubeTest, CoversIsContainment)
{
    const Cube big = Cube::fromPattern("1xx");
    const Cube small = Cube::fromPattern("1x0");
    EXPECT_TRUE(big.covers(small));
    EXPECT_FALSE(small.covers(big));
    EXPECT_TRUE(big.covers(big));
}

TEST(CubeTest, IntersectsDetectsSharedMinterms)
{
    EXPECT_TRUE(Cube::fromPattern("1x").intersects(Cube::fromPattern("x0")));
    EXPECT_FALSE(Cube::fromPattern("1x").intersects(Cube::fromPattern("0x")));
}

TEST(CubeTest, TryMergeAdjacent)
{
    Cube merged;
    EXPECT_TRUE(Cube::tryMerge(Cube::minterm(0b01, 2),
                               Cube::minterm(0b11, 2), merged));
    EXPECT_EQ(merged.toPattern(2), "x1");

    // Distance 2: no merge.
    EXPECT_FALSE(Cube::tryMerge(Cube::minterm(0b00, 2),
                                Cube::minterm(0b11, 2), merged));
    // Different masks: no merge.
    EXPECT_FALSE(Cube::tryMerge(Cube::fromPattern("1x"),
                                Cube::minterm(0b11, 2), merged));
}

TEST(TruthTableTest, TracksMembership)
{
    TruthTable table(3);
    table.addOn(0b000);
    table.addDontCare(0b111);
    EXPECT_TRUE(table.isOn(0));
    EXPECT_FALSE(table.isOn(7));
    EXPECT_TRUE(table.isDontCare(7));
    int off = 0;
    for (uint32_t m = 0; m < 8; ++m)
        off += !table.isOn(m) && !table.isDontCare(m);
    EXPECT_EQ(off, 6);
    // Duplicate insertion is idempotent.
    table.addOn(0b000);
    table.addDontCare(0b111);
    EXPECT_EQ(table.onSet().size(), 1u);
    EXPECT_EQ(table.dontCareSet().size(), 1u);
}

TEST(TruthTableTest, RejectsVariableCountsOutsideTheDenseRange)
{
    EXPECT_THROW(TruthTable(0), std::invalid_argument);
    EXPECT_THROW(TruthTable(-3), std::invalid_argument);
    EXPECT_THROW(TruthTable(TruthTable::MaxVars + 1), std::invalid_argument);
    EXPECT_THROW(TruthTable(32), std::invalid_argument);
    EXPECT_EQ(TruthTable(1).numVars(), 1);
    EXPECT_EQ(TruthTable(TruthTable::MaxVars).numVars(), TruthTable::MaxVars);
}

TEST(TruthTableTest, RejectsMintermsOutsideTheTable)
{
    TruthTable table(3);
    EXPECT_THROW(table.addOn(8), std::invalid_argument);
    EXPECT_THROW(table.addOn(9), std::invalid_argument);
    EXPECT_THROW(table.addDontCare(8), std::invalid_argument);
    EXPECT_THROW(table.addDontCare(0xffffffffU), std::invalid_argument);
    EXPECT_THROW(table.isOn(8), std::invalid_argument);
    EXPECT_THROW(table.isDontCare(1U << 31), std::invalid_argument);
    EXPECT_TRUE(table.onSet().empty());
    EXPECT_TRUE(table.dontCareSet().empty());
}

TEST(TruthTableTest, RejectsMintermsInBothOnAndDontCare)
{
    TruthTable table(3);
    table.addOn(1);
    EXPECT_THROW(table.addDontCare(1), std::invalid_argument);
    table.addDontCare(2);
    EXPECT_THROW(table.addOn(2), std::invalid_argument);
    EXPECT_TRUE(table.isOn(1));
    EXPECT_FALSE(table.isDontCare(1));
    EXPECT_FALSE(table.isOn(2));
    EXPECT_TRUE(table.isDontCare(2));
    EXPECT_EQ(table.onSet(), std::vector<uint32_t>{1});
    EXPECT_EQ(table.dontCareSet(), std::vector<uint32_t>{2});
}

TEST(CoverTest, EvaluateAndLiterals)
{
    Cover cover(2);
    cover.add(Cube::fromPattern("x1"));
    cover.add(Cube::fromPattern("1x"));
    EXPECT_TRUE(cover.evaluate(0b01));
    EXPECT_TRUE(cover.evaluate(0b10));
    EXPECT_TRUE(cover.evaluate(0b11));
    EXPECT_FALSE(cover.evaluate(0b00));
    EXPECT_EQ(cover.literalCount(), 2);
    EXPECT_EQ(cover.toString(), "x1 | 1x");
}

TEST(CoverTest, RemoveContained)
{
    Cover cover(3);
    cover.add(Cube::fromPattern("1xx"));
    cover.add(Cube::fromPattern("10x")); // contained
    cover.add(Cube::fromPattern("0x1"));
    cover.removeContained();
    EXPECT_EQ(cover.size(), 2u);
    EXPECT_EQ(cover.toString(), "1xx | 0x1");
}

TEST(CoverTest, RemoveContainedKeepsOneOfEqualCubes)
{
    Cover cover(2);
    cover.add(Cube::fromPattern("1x"));
    cover.add(Cube::fromPattern("1x"));
    cover.removeContained();
    EXPECT_EQ(cover.size(), 1u);
}

TEST(QuineMcCluskeyTest, PaperTwoVarExample)
{
    // Section 4.4: {00 -> 0, 01 -> 1, 10 -> 1, 11 -> 1} minimizes to
    // (x1) v (1x).
    TruthTable table(2);
    table.addOn(0b01);
    table.addOn(0b10);
    table.addOn(0b11);
    const Cover cover = minimizeQuineMcCluskey(table);
    EXPECT_EQ(cover.size(), 2u);
    EXPECT_EQ(cover.toString(), "x1 | 1x");
}

TEST(QuineMcCluskeyTest, FullOnCollapsesToTautology)
{
    TruthTable table(3);
    for (uint32_t m = 0; m < 8; ++m)
        table.addOn(m);
    const Cover cover = minimizeQuineMcCluskey(table);
    ASSERT_EQ(cover.size(), 1u);
    EXPECT_EQ(cover.cubes()[0].literals(), 0);
}

TEST(QuineMcCluskeyTest, EmptyOnGivesEmptyCover)
{
    TruthTable table(4);
    table.addDontCare(3);
    EXPECT_TRUE(minimizeQuineMcCluskey(table).empty());
}

TEST(QuineMcCluskeyTest, ClassicTextbookFunction)
{
    // f(a,b,c,d) = sum m(4,8,10,11,12,15) + d(9,14): the standard
    // Quine-McCluskey worked example; with the don't-cares the minimum
    // cover has 3 terms (10xx, 1x1x, x100).
    TruthTable table(4);
    for (uint32_t m : {4u, 8u, 10u, 11u, 12u, 15u})
        table.addOn(m);
    table.addDontCare(9);
    table.addDontCare(14);
    const Cover cover = minimizeQuineMcCluskey(table);
    EXPECT_TRUE(cover.implements(table));
    EXPECT_EQ(cover.size(), 3u);
}

TEST(QuineMcCluskeyTest, DontCaresEnlargePrimes)
{
    // With DC at 0b11, ON {0b01, 0b10} can be covered by x1 | 1x
    // instead of 01 | 10 (same term count, fewer literals).
    TruthTable table(2);
    table.addOn(0b01);
    table.addOn(0b10);
    table.addDontCare(0b11);
    const Cover cover = minimizeQuineMcCluskey(table);
    EXPECT_EQ(cover.literalCount(), 2);
}

TEST(PrimeImplicantTest, AllPrimesFound)
{
    // f = x1 + 1x over 2 vars has exactly two primes.
    TruthTable table(2);
    table.addOn(1);
    table.addOn(2);
    table.addOn(3);
    const auto primes = primeImplicants(table);
    EXPECT_EQ(primes.size(), 2u);
}

TEST(EspressoTest, MatchesExactOnPaperExample)
{
    TruthTable table(2);
    table.addOn(0b01);
    table.addOn(0b10);
    table.addOn(0b11);
    const Cover cover = minimizeEspresso(table);
    EXPECT_TRUE(cover.implements(table));
    EXPECT_EQ(cover.size(), 2u);
    EXPECT_EQ(cover.literalCount(), 2);
}

TEST(EspressoTest, EmptyOnGivesEmptyCover)
{
    TruthTable table(3);
    EXPECT_TRUE(minimizeEspresso(table).empty());
}

TEST(MinimizeTest, DispatchesAndVerifies)
{
    TruthTable table(2);
    table.addOn(0b11);
    for (auto algo : {MinimizeAlgo::Auto, MinimizeAlgo::Exact,
                      MinimizeAlgo::Heuristic}) {
        const Cover cover = minimize(table, algo);
        EXPECT_TRUE(cover.implements(table));
        EXPECT_EQ(cover.size(), 1u);
    }
}

/**
 * Property test: on random incompletely-specified functions, both
 * engines must produce functionally-correct covers, and the heuristic
 * must not be wildly worse than the exact engine.
 */
class MinimizerPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MinimizerPropertyTest, EnginesAgreeFunctionally)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    const int num_vars = 3 + static_cast<int>(rng.below(4)); // 3..6
    TruthTable table(num_vars);
    for (uint32_t m = 0; m < (1u << num_vars); ++m) {
        const double roll = rng.uniform();
        if (roll < 0.35)
            table.addOn(m);
        else if (roll < 0.50)
            table.addDontCare(m);
    }
    if (table.onSet().empty())
        table.addOn(0);

    const Cover exact = minimizeQuineMcCluskey(table);
    const Cover heur = minimizeEspresso(table);
    EXPECT_TRUE(exact.implements(table));
    EXPECT_TRUE(heur.implements(table));

    // Where they differ, only the DC minterms may disagree.
    for (uint32_t m = 0; m < (1u << num_vars); ++m) {
        if (!table.isDontCare(m)) {
            EXPECT_EQ(exact.evaluate(m), heur.evaluate(m)) << "m=" << m;
        }
    }

    // Cost sanity: heuristic within 2x of exact cover size.
    EXPECT_LE(heur.size(), exact.size() * 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, MinimizerPropertyTest,
                         ::testing::Range(0, 25));

TEST(MinimizerExhaustiveTest, AllThreeVariableFunctions)
{
    // Every completely-specified function of 3 variables (256 of them):
    // both engines must return implementing covers, and the exact
    // engine's cover must never exceed the trivial minterm count.
    for (uint32_t truth = 0; truth < 256; ++truth) {
        TruthTable table(3);
        int on_count = 0;
        for (uint32_t m = 0; m < 8; ++m) {
            if (truth & (1u << m)) {
                table.addOn(m);
                ++on_count;
            }
        }
        const Cover exact = minimizeQuineMcCluskey(table);
        const Cover heur = minimizeEspresso(table);
        ASSERT_TRUE(exact.implements(table)) << "truth=" << truth;
        ASSERT_TRUE(heur.implements(table)) << "truth=" << truth;
        EXPECT_LE(static_cast<int>(exact.size()), on_count);
        EXPECT_LE(static_cast<int>(heur.size()), on_count);
        // Fully-specified function: the two engines compute the same
        // boolean function everywhere.
        for (uint32_t m = 0; m < 8; ++m)
            ASSERT_EQ(exact.evaluate(m), heur.evaluate(m));
    }
}

TEST(MinimizerStressTest, TenVariableBiasedFunction)
{
    // History length 10, ~1024 minterms: the largest case the design
    // flow produces. The heuristic engine must stay fast and correct.
    Rng rng(99);
    TruthTable table(10);
    for (uint32_t m = 0; m < 1024; ++m) {
        // Bias: ON where the two most recent history bits look taken.
        const bool likely = (m & 0b11) == 0b11;
        if (rng.uniform() < (likely ? 0.95 : 0.05))
            table.addOn(m);
        else if (rng.uniform() < 0.1)
            table.addDontCare(m);
    }
    const Cover cover = minimizeEspresso(table);
    EXPECT_TRUE(cover.implements(table));
    // The structure should compress far below one cube per minterm.
    EXPECT_LT(cover.size(), table.onSet().size() / 2);
}

/**
 * Differential test: the bit-plane minimizer must return exactly the
 * reference engine's cover (tests/reference_minimizers.hh), the same
 * cubes in the same order, not merely an equivalent function.
 */
class EspressoDifferentialTest : public ::testing::Test
{
  protected:
    /** Minimize @p table with both engines at every iteration count in
     *  @p iterations and require identical cube lists. */
    static void
    expectSameCover(const TruthTable &table, const std::string &label,
                    std::vector<int> iterations = {1, 2, 3, 4})
    {
        for (int iters : iterations) {
            EspressoOptions options;
            options.maxIterations = iters;
            const Cover got = minimizeEspresso(table, options);
            const Cover want = reference::minimizeEspresso(table, options);
            ASSERT_EQ(got.toString(), want.toString())
                << label << " maxIterations=" << iters;
            ASSERT_TRUE(got.cubes() == want.cubes())
                << label << " maxIterations=" << iters;
        }
    }

    /** Fisher-Yates shuffle with the test's own generator. */
    static void
    shuffle(std::vector<uint32_t> &items, Rng &rng)
    {
        for (size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[rng.below(i)]);
    }

    /** A table from ON and DC lists, each added in a shuffled order. */
    static TruthTable
    shuffledTable(int num_vars, std::vector<uint32_t> on,
                  std::vector<uint32_t> dc, Rng &rng)
    {
        shuffle(on, rng);
        shuffle(dc, rng);
        TruthTable table(num_vars);
        for (uint32_t m : on)
            table.addOn(m);
        for (uint32_t m : dc)
            table.addDontCare(m);
        return table;
    }

    /** @p on_count ON and @p dc_count DC minterms drawn at random from
     *  2^num_vars, for tables too large to roll per minterm. */
    static TruthTable
    sparseTable(int num_vars, size_t on_count, size_t dc_count, Rng &rng)
    {
        TruthTable table(num_vars);
        const uint64_t size = uint64_t{1} << num_vars;
        while (table.onSet().size() < on_count) {
            table.addOn(static_cast<uint32_t>(rng.below(size)));
        }
        while (table.dontCareSet().size() < dc_count) {
            const auto m = static_cast<uint32_t>(rng.below(size));
            if (!table.isOn(m))
                table.addDontCare(m);
        }
        return table;
    }
};

TEST_F(EspressoDifferentialTest, RandomTablesAtSeveralDensities)
{
    const std::pair<double, double> densities[] = {
        {0.05, 0.02}, {0.2, 0.1}, {0.35, 0.15}, {0.6, 0.2}, {0.9, 0.05}};
    Rng rng(0xe59);
    for (int num_vars = 1; num_vars <= 12; ++num_vars) {
        for (const auto &[on_frac, dc_frac] : densities) {
            for (int seed = 0; seed < (num_vars <= 10 ? 4 : 1); ++seed) {
                std::vector<uint32_t> on, dc;
                for (uint32_t m = 0; m < (1U << num_vars); ++m) {
                    const double roll = rng.uniform();
                    if (roll < on_frac)
                        on.push_back(m);
                    else if (roll < on_frac + dc_frac)
                        dc.push_back(m);
                }
                expectSameCover(
                    shuffledTable(num_vars, on, dc, rng),
                    "random n=" + std::to_string(num_vars) + " on=" +
                        std::to_string(on_frac) + " seed=" +
                        std::to_string(seed));
            }
        }
    }
}

TEST_F(EspressoDifferentialTest, WorkloadShapedTables)
{
    // Biased by the recent history bits, as branch pattern sets are
    // (the shape bench_ablation_minimizer draws).
    Rng rng(0xb1a5);
    for (int num_vars = 3; num_vars <= 12; ++num_vars) {
        for (int seed = 0; seed < 3; ++seed) {
            std::vector<uint32_t> on, dc;
            for (uint32_t m = 0; m < (1U << num_vars); ++m) {
                const bool likely =
                    (m & 0b11) == 0b11 || (m & 0b101) == 0b101;
                const double roll = rng.uniform();
                if (roll < (likely ? 0.9 : 0.05))
                    on.push_back(m);
                else if (roll < (likely ? 0.95 : 0.15))
                    dc.push_back(m);
            }
            expectSameCover(shuffledTable(num_vars, on, dc, rng),
                            "biased n=" + std::to_string(num_vars));
        }
    }
}

TEST_F(EspressoDifferentialTest, EdgeTables)
{
    Rng rng(0xed6e);
    for (int num_vars : {1, 2, 5, 6, 7, 10}) {
        const uint32_t size = 1U << num_vars;
        const std::string n = " n=" + std::to_string(num_vars);
        std::vector<uint32_t> all(size);
        for (uint32_t m = 0; m < size; ++m)
            all[m] = m;

        // Empty ON set, with and without don't-cares.
        expectSameCover(TruthTable(num_vars), "empty" + n);
        expectSameCover(shuffledTable(num_vars, {}, all, rng),
                        "all-dc" + n);
        // Full ON set: no OFF minterm at all.
        expectSameCover(shuffledTable(num_vars, all, {}, rng), "full" + n);

        const auto pick = static_cast<uint32_t>(rng.below(size));
        std::vector<uint32_t> rest;
        for (uint32_t m = 0; m < size; ++m) {
            if (m != pick)
                rest.push_back(m);
        }
        // All don't-care but one ON minterm.
        expectSameCover(shuffledTable(num_vars, {pick}, rest, rng),
                        "dc-but-one-on" + n);
        // All ON but one OFF minterm, and all DC but one OFF minterm.
        expectSameCover(shuffledTable(num_vars, rest, {}, rng),
                        "on-but-one-off" + n);
        if (num_vars > 1) {
            std::vector<uint32_t> dc(rest.begin() + 1, rest.end());
            expectSameCover(shuffledTable(num_vars, {rest[0]}, dc, rng),
                            "dc-but-one-off" + n);
        }
        // A single ON minterm; everything else OFF.
        expectSameCover(shuffledTable(num_vars, {pick}, {}, rng),
                        "single" + n);
    }
}

TEST_F(EspressoDifferentialTest, SparseWideTables)
{
    // The reference scans an explicit 2^N OFF list; these sizes keep it
    // to about a second at N = 16 and at the 24-variable ceiling.
    Rng rng(0x5a7);
    for (int seed = 0; seed < 2; ++seed) {
        expectSameCover(sparseTable(16, 60, 400, rng), "sparse n=16", {4});
    }
    expectSameCover(sparseTable(24, 3, 12, rng), "sparse n=24", {4});
    TruthTable single(24);
    single.addOn(0xabcdef);
    expectSameCover(single, "single n=24", {2});
}

TEST_F(EspressoDifferentialTest, Figure5AreaTables)
{
    // Every next-state and output function estimateFsmArea minimizes
    // for the Figure 5 custom machines at 20k branches per run.
    const Fig5Options fig5;
    size_t machines = 0;
    for (const std::string &name : branchBenchmarkNames()) {
        const auto trace =
            cachedBranchTrace(name, WorkloadInput::Train, 20000);
        for (const TrainedBranch &branch :
             trainCustomPredictors(*trace, fig5.training)) {
            ++machines;
            for (const TruthTable &table :
                 fsmLogicTables(branch.design.fsm)) {
                expectSameCover(table, name + " pc=" +
                                           std::to_string(branch.pc));
            }
        }
    }
    EXPECT_GT(machines, 0u);
}

} // anonymous namespace
} // namespace autofsm
