/**
 * @file
 * Designed machines replayed as suffix tables.
 *
 * Every machine the design flow builds recognizes `(0|1)* T` over a
 * cover of length-N history cubes, so once it has seen N inputs its
 * state - and so its prediction - depends only on the last N of them.
 * Such a machine is *definite*: some index d makes the state after any
 * d inputs a function of those inputs alone. A definite machine need
 * not be stepped record by record. Counting how often each history
 * precedes a prediction point, and walking the trie of histories once
 * from the start state, gives the same tallies as stepping. Below depth
 * d a history is the whole past (the start-up states); at depth d its
 * last d inputs already fix the state.
 *
 * Histories carry a 1 sentinel above their outcomes, newest outcome in
 * bit 0: cell 1 is the empty past, cell (1 << d) | x a full one.
 *
 * Two engines use this: the value side's confidence replay
 * (vpred/conf_sim.hh) counts histories per predictor entry, and the
 * branch side's replayMachines below counts them per machine over a
 * packed outcome stream.
 */

#ifndef AUTOFSM_FSMGEN_SUFFIX_TABLE_HH
#define AUTOFSM_FSMGEN_SUFFIX_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "automata/dfa.hh"

namespace autofsm
{

/** A Dfa in compact replay form: flat successors, 0/1 outputs. */
struct CompactFsm
{
    std::vector<uint32_t> next; ///< next[2 * state + input]
    std::vector<uint8_t> output;
    uint32_t start = 0;
};

/**
 * Compile @p dfa for replay.
 *
 * @throws std::invalid_argument, prefixed with @p name, on a machine
 * without states or with a start state or successor out of range.
 */
CompactFsm compileFsm(const Dfa &dfa, const std::string &name);

/**
 * The index d of @p fsm if the machine is d-definite and the suffix
 * table pays for it on a stream of @p length inputs: d <= 16, 2^(d+1)
 * <= length, and at most length state steps spent finding d. -1
 * otherwise. Walks the image of the whole state set down every input
 * word, depth first, until each branch reaches a single state; d is
 * the deepest such branch.
 */
int definiteIndex(const CompactFsm &fsm, size_t length);

/**
 * Prediction points per history: cell h counts the points whose past
 * was h (see the file comment) and how many of them saw a 1.
 */
struct SuffixCounts
{
    int depth = 0;
    std::vector<uint64_t> count;
    std::vector<uint64_t> ones;
};

/** What a machine's 1-outputs cover of a SuffixCounts. */
struct SuffixTally
{
    /** Points where the machine output 1. */
    uint64_t marked = 0;
    /** Of those, the points that saw a 1. */
    uint64_t markedOnes = 0;
};

/**
 * Tally a definite machine of index <= counts.depth: walk the trie of
 * histories from the start state and credit every history whose state
 * outputs 1.
 */
SuffixTally tallySuffixes(const CompactFsm &fsm, const SuffixCounts &counts);

/** One machine to replay over a packed outcome stream. */
struct ReplayMachine
{
    const Dfa *fsm = nullptr;
    /**
     * Strictly ascending records where the machine predicts; nullptr
     * predicts at every record. An empty vector never predicts.
     */
    const std::vector<uint32_t> *positions = nullptr;
};

/**
 * Replay every machine over @p records packed outcomes (bit i of word
 * i >> 6 is record i's outcome) and return its mispredictions at its
 * positions, in input order. Each machine reads every outcome. A
 * definite machine within definiteIndex's budget is tallied from a
 * history count at its positions; any other machine is stepped over
 * every record. Both give the same counts.
 *
 * @throws std::invalid_argument on a null or malformed machine, a
 * position at or past @p records, or positions not strictly ascending.
 */
std::vector<uint64_t> replayMachines(const std::vector<ReplayMachine> &machines,
                                     const uint64_t *words, size_t records);

/**
 * Pack a 0/1 outcome stream into replayMachines' word form (64 outcomes
 * per word, LSB-first; trailing bits zero). The inline-outcome form of
 * DesignRequest feeds the evaluation stage through this.
 */
std::vector<uint64_t> packOutcomeWords(const std::vector<int> &outcomes);

} // namespace autofsm

#endif // AUTOFSM_FSMGEN_SUFFIX_TABLE_HH
