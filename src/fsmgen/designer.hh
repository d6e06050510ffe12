/**
 * @file
 * The end-to-end automated FSM predictor design flow (Section 4).
 *
 * trace -> Markov model -> pattern sets -> minimized cover -> regular
 * expression -> NFA -> DFA -> Hopcroft minimization -> start-state
 * reduction. The result carries the artifacts of every stage so examples,
 * benches and tests can inspect intermediate products (e.g. Figure 1
 * shows the machine both before and after start-state reduction).
 *
 * This header holds the flow's knobs and artifacts only. The pipeline
 * itself runs through `DesignFlow` (flow/design_flow.hh), which also
 * reports per-stage wall-clock and size metrics; batches go through
 * `BatchDesigner` (flow/batch.hh) for parallelism and memoization, and
 * wire-shaped requests through `runDesignRequest` (flow/api.hh).
 */

#ifndef AUTOFSM_FSMGEN_DESIGNER_HH
#define AUTOFSM_FSMGEN_DESIGNER_HH

#include <string>

#include "automata/dfa.hh"
#include "automata/regex.hh"
#include "flow/budget.hh"
#include "fsmgen/markov.hh"
#include "fsmgen/patterns.hh"
#include "logicmin/minimize.hh"

namespace autofsm
{

/** Knobs of the whole design flow. */
struct FsmDesignOptions
{
    /** Markov order / history length N. */
    int order = 2;
    /** Pattern-definition knobs (threshold, don't-care mass). */
    PatternOptions patterns;
    /** Logic-minimization engine. */
    MinimizeAlgo minimizer = MinimizeAlgo::Auto;
    /**
     * Skip start-state reduction and keep the transient start-up states
     * (used to reproduce the left-hand machine of Figure 1 and for the
     * size ablation).
     */
    bool keepStartupStates = false;
    /**
     * Per-stage resource budgets (flow/budget.hh). All-zero (the
     * default) means unlimited and leaves the flow's behavior exactly
     * as before; finite limits make oversized inputs degrade gracefully
     * instead of stalling (see DesignFlow's fallback ladder).
     */
    FlowBudget budget;
};

/** All artifacts produced by one run of the design flow. */
struct FsmDesignResult
{
    PatternSets patterns;
    /**
     * Minimized sum-of-products description of the "predict 1" set.
     * Starts as an empty 1-input cover; the flow replaces it with a
     * cover over the N history bits.
     */
    Cover cover = Cover::forInputs(1);
    /** The paper-notation regular expression for the language L. */
    std::string regexText;
    /** Hopcroft-minimized machine before start-state reduction. */
    Dfa beforeReduction;
    /** The final predictor machine. */
    Dfa fsm;

    /** @name Stage state-count statistics. */
    /// @{
    int statesSubset = 0;   ///< after subset construction
    int statesHopcroft = 0; ///< after Hopcroft minimization
    int statesFinal = 0;    ///< after start-state reduction
    /// @}
};

} // namespace autofsm

#endif // AUTOFSM_FSMGEN_DESIGNER_HH
