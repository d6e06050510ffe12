/**
 * @file
 * Non-deterministic finite automata via Thompson's construction.
 *
 * Section 4.6: the regular expression is first turned into an NFA by
 * "a fairly straight forward process of enumerating paths", i.e.
 * Thompson's construction, and then determinized by subset construction.
 * The design flow skips this step: Dfa::fromCover builds the identical
 * DFA from the cover, and this path stays as its test oracle.
 */

#ifndef AUTOFSM_AUTOMATA_NFA_HH
#define AUTOFSM_AUTOMATA_NFA_HH

#include <cstdint>
#include <vector>

#include "automata/regex.hh"

namespace autofsm
{

/**
 * NFA over the alphabet {0,1} with epsilon transitions.
 *
 * Thompson fragments guarantee one accept state overall; we keep a
 * generic accepting set anyway so hand-built NFAs can be tested.
 */
class Nfa
{
  public:
    struct State
    {
        /** Epsilon-successors. */
        std::vector<int> eps;
        /** Successors on symbol 0 and 1. */
        std::vector<int> next[2];
    };

    /** Add a fresh state and return its index. */
    int addState();

    /** Add an epsilon transition. */
    void addEpsilon(int from, int to);

    /** Add a transition on @p symbol (0 or 1). */
    void addEdge(int from, int symbol, int to);

    void setStart(int state) { start_ = state; }
    void markAccepting(int state);

    int start() const { return start_; }
    int numStates() const { return static_cast<int>(states_.size()); }
    const State &state(int idx) const { return states_[static_cast<size_t>(idx)]; }
    bool accepting(int idx) const { return accepting_[static_cast<size_t>(idx)]; }

    /**
     * Epsilon-closure of @p set, as a sorted state-index vector.
     */
    std::vector<int> closure(std::vector<int> set) const;

    /** True iff the NFA accepts the bit string @p input. */
    bool accepts(const std::vector<int> &input) const;

    /** Thompson-construct an NFA from @p regex (must be non-empty). */
    static Nfa fromRegex(const Regex &regex);

  private:
    std::vector<State> states_;
    std::vector<bool> accepting_;
    int start_ = 0;

    /**
     * Scratch for closure(): states whose entry equals the current
     * epoch are in the working set, so a bump of markEpoch_ clears all
     * marks at once instead of zeroing a bitmap per call. Subset
     * construction calls closure() once per (subset, symbol), which
     * made that per-call allocation + clear the dominant cost.
     * Mutating scratch makes closure() non-reentrant: concurrent calls
     * on the *same* Nfa would race. The design flow builds no NFA
     * (Dfa::fromCover); the tests and fsm2vhdl each use their own
     * Nfa on one thread, so this holds throughout the codebase.
     */
    mutable std::vector<uint64_t> markScratch_;
    mutable uint64_t markEpoch_ = 0;
};

} // namespace autofsm

#endif // AUTOFSM_AUTOMATA_NFA_HH
