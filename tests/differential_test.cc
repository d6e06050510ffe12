/**
 * @file
 * Differential tests of the fast replay engine against its reference.
 *
 * replayMachines (fsmgen/suffix_table.hh) tallies a definite machine
 * from a history count at its positions and steps every other machine.
 * A seeded generator produces machines (cover-built, random, parity,
 * saturating counters, wide and very wide), streams (0/1/63/64/65
 * records, biased, periodic with phase shifts) and position patterns
 * (dense, empty, sparse, positions below the definite index), and every
 * count must equal the stepping reference (tests/reference_replay.hh).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "automata/dfa.hh"
#include "fsmgen/suffix_table.hh"
#include "logicmin/cover.hh"
#include "support/rng.hh"

#include "reference_replay.hh"

namespace autofsm
{
namespace
{

/** The classic non-synchronizing machine: state = parity of 1s seen. */
Dfa
parityMachine()
{
    Dfa fsm;
    const int even = fsm.addState(0);
    const int odd = fsm.addState(1);
    fsm.setEdge(even, 0, even);
    fsm.setEdge(even, 1, odd);
    fsm.setEdge(odd, 0, odd);
    fsm.setEdge(odd, 1, even);
    fsm.setStart(even);
    return fsm;
}

/** @p states states with random outputs and successors. */
Dfa
randomMachine(int states, Rng &rng)
{
    Dfa fsm;
    for (int s = 0; s < states; ++s)
        fsm.addState(static_cast<int>(rng.below(2)));
    for (int s = 0; s < states; ++s) {
        fsm.setEdge(s, 0, static_cast<int>(rng.below(states)));
        fsm.setEdge(s, 1, static_cast<int>(rng.below(states)));
    }
    fsm.setStart(static_cast<int>(rng.below(states)));
    return fsm;
}

/**
 * The last @p order inputs as the state (2^order states, exactly
 * order-definite), predicting a random function of them.
 */
Dfa
shiftRegister(int order, Rng &rng)
{
    const int states = 1 << order;
    Dfa fsm;
    for (int s = 0; s < states; ++s)
        fsm.addState(static_cast<int>(rng.below(2)));
    for (int s = 0; s < states; ++s) {
        fsm.setEdge(s, 0, (s << 1) & (states - 1));
        fsm.setEdge(s, 1, ((s << 1) | 1) & (states - 1));
    }
    fsm.setStart(0);
    return fsm;
}

/** A designed-machine shape: a random order-@p n cover, minimized and
 *  start-reduced as the design flow does. */
Dfa
coverMachine(int n, Rng &rng)
{
    Cover cover(n);
    const int cubes = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < cubes; ++i) {
        Cube cube;
        for (int bit = 0; bit < n; ++bit) {
            if (rng.chance(0.6)) {
                cube.mask |= 1U << bit;
                if (rng.chance(0.5))
                    cube.value |= 1U << bit;
            }
        }
        cover.add(cube);
    }
    return Dfa::fromCover(cover).minimizeHopcroft().steadyStateReduce();
}

/** Every machine kind but the very wide ones, which cost a test each. */
std::vector<Dfa>
machineZoo(Rng &rng)
{
    std::vector<Dfa> fsms;
    fsms.push_back(Dfa::constant(0));
    fsms.push_back(Dfa::constant(1));
    fsms.push_back(parityMachine());
    for (const int bits : {1, 2, 3})
        fsms.push_back(Dfa::saturatingCounter(bits));
    for (int n = 1; n <= 10; ++n)
        fsms.push_back(coverMachine(n, rng));
    for (const int order : {1, 3, 6})
        fsms.push_back(shiftRegister(order, rng));
    for (const int states : {2, 5, 17, 40})
        fsms.push_back(randomMachine(states, rng));
    fsms.push_back(randomMachine(300, rng)); // more than a byte of states
    return fsms;
}

/**
 * @p n outcomes of one of three shapes: independent at a random bias,
 * or periodic with a random pattern that shifts phase and period every
 * few hundred records.
 */
std::vector<int>
randomStream(size_t n, Rng &rng)
{
    std::vector<int> outcomes(n);
    if (rng.chance(0.5)) {
        const double bias = rng.uniform();
        for (size_t i = 0; i < n; ++i)
            outcomes[i] = rng.chance(bias) ? 1 : 0;
        return outcomes;
    }
    uint32_t pattern = 0;
    uint64_t period = 1;
    size_t phase = 0;
    for (size_t i = 0; i < n; ++i) {
        if (i % 300 == 0) {
            period = 2 + rng.below(11);
            pattern = static_cast<uint32_t>(rng.below(1ULL << period));
            phase = static_cast<size_t>(rng.below(period));
        }
        outcomes[i] = static_cast<int>(
            (pattern >> ((i + phase) % period)) & 1U);
    }
    return outcomes;
}

/** Ascending positions, each record kept with probability @p p. */
std::vector<uint32_t>
sparsePositions(size_t n, double p, Rng &rng)
{
    std::vector<uint32_t> positions;
    for (size_t i = 0; i < n; ++i) {
        if (rng.chance(p))
            positions.push_back(static_cast<uint32_t>(i));
    }
    return positions;
}

/**
 * Replay every (machine, pattern) pair in one call and compare each
 * count with the stepping reference. nullptr patterns are dense.
 */
void
expectMatchesStepping(
    const std::vector<Dfa> &fsms, const std::vector<int> &outcomes,
    const std::vector<const std::vector<uint32_t> *> &patterns)
{
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);
    std::vector<ReplayMachine> machines;
    std::vector<uint64_t> expected;
    for (const Dfa &fsm : fsms) {
        for (const std::vector<uint32_t> *positions : patterns) {
            machines.push_back({&fsm, positions});
            expected.push_back(referenceMisses(fsm, outcomes, positions));
        }
    }
    const std::vector<uint64_t> misses =
        replayMachines(machines, words.data(), outcomes.size());
    ASSERT_EQ(misses.size(), expected.size());
    for (size_t k = 0; k < machines.size(); ++k) {
        EXPECT_EQ(misses[k], expected[k])
            << "machine " << k / patterns.size() << " ("
            << machines[k].fsm->numStates() << " states), pattern "
            << k % patterns.size() << ", " << outcomes.size()
            << " records";
    }
}

TEST(ReplayDifferential, PackOutcomeWordsLayout)
{
    std::vector<int> outcomes(70, 0);
    outcomes[0] = 1;
    outcomes[63] = 1;
    outcomes[64] = 1;
    outcomes[69] = 1;
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);
    ASSERT_EQ(words.size(), 2u);
    EXPECT_EQ(words[0], (1ULL << 0) | (1ULL << 63));
    EXPECT_EQ(words[1], (1ULL << 0) | (1ULL << 5));
}

TEST(ReplayDifferential, MatchesSteppingOnEveryMachineKind)
{
    Rng rng(0xd1ff5eed);
    const std::vector<Dfa> fsms = machineZoo(rng);
    for (const size_t n : {0u, 1u, 2u, 15u, 63u, 64u, 65u, 127u, 128u,
                           129u, 1000u, 4096u, 20000u}) {
        for (int trial = 0; trial < 2; ++trial) {
            SCOPED_TRACE(std::to_string(n) + " records, trial " +
                         std::to_string(trial));
            const std::vector<int> outcomes = randomStream(n, rng);
            // Positions below every definite index: the first records,
            // where a history is still the whole past.
            std::vector<uint32_t> head;
            for (uint32_t i = 0; i < n && i < 20; ++i)
                head.push_back(i);
            std::vector<uint32_t> every;
            for (uint32_t i = 0; i < n; ++i)
                every.push_back(i);
            const std::vector<uint32_t> sparse =
                sparsePositions(n, 0.1, rng);
            const std::vector<uint32_t> dense_ish =
                sparsePositions(n, 0.7, rng);
            const std::vector<uint32_t> none;
            expectMatchesStepping(
                fsms, outcomes,
                {nullptr, &none, &head, &every, &sparse, &dense_ish});
        }
    }
}

// The table path must be the one exercised: on a long stream the
// cover-built machines and shift registers prove definite, the parity
// machine and saturating counters never do.
TEST(ReplayDifferential, DefiniteIndexOfKnownMachines)
{
    Rng rng(7);
    const size_t length = 1 << 20;
    for (int order = 1; order <= 10; ++order) {
        EXPECT_EQ(definiteIndex(compileFsm(shiftRegister(order, rng), "sr"),
                                length),
                  order);
        const int index =
            definiteIndex(compileFsm(coverMachine(order, rng), "cover"),
                          length);
        EXPECT_GE(index, 0) << "order " << order;
        EXPECT_LE(index, order) << "order " << order;
    }
    EXPECT_EQ(definiteIndex(compileFsm(Dfa::constant(1), "c"), length), 0);
    EXPECT_EQ(definiteIndex(compileFsm(parityMachine(), "p"), length), -1);
    for (const int bits : {1, 2, 3}) {
        const CompactFsm counter =
            compileFsm(Dfa::saturatingCounter(bits), "counter");
        // A 1-bit counter holds the last outcome; wider ones never
        // forget an alternating past.
        EXPECT_EQ(definiteIndex(counter, length), bits == 1 ? 1 : -1);
    }
    // Too short a stream to pay for the table: step instead.
    EXPECT_EQ(definiteIndex(compileFsm(shiftRegister(6, rng), "sr"), 100),
              -1);
    EXPECT_EQ(definiteIndex(compileFsm(Dfa::constant(0), "c"), 1), -1);
}

// No state-count limit: a 65536-state shift register (definite, but its
// walk is over budget here) and a wider random machine both step.
TEST(ReplayDifferential, VeryWideMachinesStep)
{
    Rng rng(0x65536);
    std::vector<Dfa> fsms;
    fsms.push_back(shiftRegister(16, rng));
    fsms.push_back(randomMachine(70000, rng));
    const std::vector<int> outcomes = randomStream(5000, rng);
    const std::vector<uint32_t> sparse = sparsePositions(5000, 0.2, rng);
    expectMatchesStepping(fsms, outcomes, {nullptr, &sparse});
}

TEST(ReplayDifferential, RejectsMalformedInput)
{
    const Dfa counter = Dfa::saturatingCounter(2);
    const std::vector<int> outcomes(10, 1);
    const std::vector<uint64_t> words = packOutcomeWords(outcomes);

    const std::vector<std::vector<uint32_t>> bad = {
        {700},     // past a 10-record stream
        {3, 10},   // the first record past the end
        {2, 5, 5}, // repeated
        {4, 2},    // descending
    };
    for (const std::vector<uint32_t> &positions : bad) {
        EXPECT_THROW(replayMachines({{&counter, &positions}}, words.data(),
                                    outcomes.size()),
                     std::invalid_argument)
            << positions.back();
    }
    const std::vector<uint32_t> good = {0, 9};
    EXPECT_EQ(replayMachines({{&counter, &good}}, words.data(), 10),
              std::vector<uint64_t>{1});

    EXPECT_THROW(replayMachines({{nullptr, nullptr}}, words.data(), 10),
                 std::invalid_argument);
    Dfa bad_start = Dfa::constant(1);
    bad_start.setStart(3);
    EXPECT_THROW(replayMachines({{&bad_start, nullptr}}, words.data(), 10),
                 std::invalid_argument);

    EXPECT_TRUE(replayMachines({}, words.data(), 10).empty());
    EXPECT_EQ(replayMachines({{&counter, nullptr}}, nullptr, 0),
              std::vector<uint64_t>{0});
}

} // anonymous namespace
} // namespace autofsm
