/**
 * @file
 * Deterministic finite automata over {0,1} with one output bit per state.
 *
 * This is the Moore-machine form the paper's predictors take: the state's
 * output is the prediction of the next input bit. Provides subset
 * construction (Section 4.6) straight from a minimized cover, Hopcroft
 * minimization, the paper's start-state reduction (Section 4.7),
 * reachability trimming, equivalence checking and Graphviz output. The
 * paper's regex -> Thompson NFA -> subset path is kept only as the test
 * oracle for fromCover (tests/reference_automata.hh).
 */

#ifndef AUTOFSM_AUTOMATA_DFA_HH
#define AUTOFSM_AUTOMATA_DFA_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "logicmin/cover.hh"

namespace autofsm
{

/** A complete DFA / 1-bit-output Moore machine. */
class Dfa
{
  public:
    struct State
    {
        /** Successor on input 0 and 1. */
        std::array<int, 2> next = {0, 0};
        /** Moore output: the prediction made while in this state. */
        int output = 0;
    };

    /** Add a state with @p output; returns its index. */
    int addState(int output);

    void setStart(int state) { start_ = state; }
    void setEdge(int from, int symbol, int to);
    void setOutput(int state, int output);

    int start() const { return start_; }
    int numStates() const { return static_cast<int>(states_.size()); }
    int next(int state, int symbol) const;
    int output(int state) const;

    /** Run from the start state over @p input; returns the final state. */
    int run(const std::vector<int> &input) const;

    /** Output of the state reached by @p input (the prediction). */
    int predictAfter(const std::vector<int> &input) const;

    /** Exhaustive output-equivalence against @p other (product BFS). */
    bool equivalent(const Dfa &other) const;

    /**
     * Bit-identical structural equality: same start state and the exact
     * same numbered states, edges and outputs (stronger than
     * equivalent(); used to check that parallel design reproduces the
     * serial result verbatim).
     */
    bool identical(const Dfa &other) const;

    /**
     * Drop states unreachable from the start state, renumbering the
     * survivors (stable order).
     */
    Dfa trimUnreachable() const;

    /**
     * Hopcroft's partition-refinement minimization. The input must be a
     * complete DFA; the result is the unique minimal machine with the
     * same output behavior from the start state.
     */
    Dfa minimizeHopcroft() const;

    /**
     * The paper's start-state reduction (Section 4.7): remove the
     * transient start-up states that can only be visited before N inputs
     * have been seen. Computed as the *eventual image* fixpoint
     * S_0 = Q, S_{k+1} = delta(S_k, {0,1}); the chain is monotonically
     * decreasing and its limit is the steady-state core. The start state
     * is re-rooted onto the core by walking inputs of 0 until the core is
     * entered (any in-core state is behaviorally valid past warm-up).
     */
    Dfa steadyStateReduce() const;

    /** Graphviz DOT rendering; states labelled "sN [output]". */
    std::string toDot(const std::string &name = "fsm") const;

    /**
     * Subset construction for the predictor language of @p cover,
     * `(0|1)* (t_1 | ... | t_k)` (regexText), without building the
     * regex or its Thompson NFA. The result is identical() to subset
     * construction over that NFA, state for state (checked against the
     * oracle in tests/reference_automata.hh).
     *
     * Every term spells N symbols, and the only NFA states a symbol
     * edge enters are the (cube i, depth j) positions plus the star's.
     * A subset is therefore a "started" flag and, per depth j = 1..N,
     * the k-bit row of cubes whose first j symbols (MSB first) match
     * the last j inputs. Input c maps row j to row j+1 through a
     * per-depth match mask, row 1 is the mask alone, and a subset
     * accepts iff row N is non-empty. States are minted in BFS
     * discovery order.
     *
     * @param max_states Optional budget on the number of DFA states
     *        minted (0 = unlimited). Subset construction is worst-case
     *        exponential in N, so the bound is checked inside the
     *        construction loop; exceeding it raises a
     *        FlowError{"subset", BudgetExceeded} (flow/budget.hh).
     */
    static Dfa fromCover(const Cover &cover, int max_states = 0);

    /**
     * The trivial one-state machine with constant @p output, used when a
     * pattern set is empty (always predict 0 or always predict 1).
     */
    static Dfa constant(int output);

    /**
     * The classic 2^bits-state saturating up/down counter predictor
     * (Smith, ISCA 1981): state s outputs 1 in the upper half, a taken
     * outcome saturates up, a not-taken outcome saturates down. The
     * design flow falls back to this machine when a custom FSM cannot
     * be designed within budget. Start state: the weakly-not-taken
     * state just below the prediction threshold.
     */
    static Dfa saturatingCounter(int bits = 2);

  private:
    std::vector<State> states_;
    int start_ = 0;
};

} // namespace autofsm

#endif // AUTOFSM_AUTOMATA_DFA_HH
