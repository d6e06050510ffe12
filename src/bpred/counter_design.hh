/**
 * @file
 * General-purpose counter design (Section 1 / Section 6 methodology
 * applied to branch prediction).
 *
 * Instead of customizing one FSM per branch, design ONE counter from
 * the aggregate per-branch outcome behavior of a whole suite, and use
 * it in place of the 2-bit counter in every BTB entry - "customized to
 * achieve the best average performance over the design workload". The
 * Markov model is built over each static branch's *local* outcome
 * stream (that is what a per-entry counter sees at runtime).
 */

#ifndef AUTOFSM_BPRED_COUNTER_DESIGN_HH
#define AUTOFSM_BPRED_COUNTER_DESIGN_HH

#include "fsmgen/designer.hh"
#include "trace/packed_trace.hh"

namespace autofsm
{

/**
 * Accumulate, into @p model, every (local history, outcome) pair of
 * every static branch in @p trace. Each branch keeps its own history
 * register of the model's order; call repeatedly to aggregate a suite.
 */
void collectLocalOutcomeModel(const PackedTrace &trace, MarkovModel &model);

/**
 * Design a general-purpose prediction counter of the given history
 * length from aggregate traces (convenience wrapper: collect + design).
 */
FsmDesignResult designGeneralCounter(const std::vector<PackedTrace> &traces,
                                     const FsmDesignOptions &options);

} // namespace autofsm

#endif // AUTOFSM_BPRED_COUNTER_DESIGN_HH
