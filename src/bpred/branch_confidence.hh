/**
 * @file
 * Branch correctness streams for confidence estimation (Sections 2.5
 * and 3.1).
 *
 * Jacobsen/Rotenberg/Smith-style confidence: alongside a branch
 * predictor, a per-branch estimator watches whether the predictor was
 * right and classifies each upcoming prediction as high or low
 * confidence. Manne et al. use exactly this to gate the fetch unit on
 * low-confidence branches (pipeline gating). The estimator only ever
 * sees a per-entry binary correctness stream, so branch confidence runs
 * on the value-confidence engine (vpred/conf_sim.hh): this file records
 * the branch predictor's stream once, and replaySudConfidence,
 * replayFsmConfidence and collectConfidenceModels measure and train
 * every estimator over it. ConfidenceResult carries Grunwald et al.'s
 * metrics (PVP, PVN, sensitivity, specificity).
 */

#ifndef AUTOFSM_BPRED_BRANCH_CONFIDENCE_HH
#define AUTOFSM_BPRED_BRANCH_CONFIDENCE_HH

#include <cstddef>
#include <cstdint>

#include "bpred/predictor.hh"
#include "trace/packed_trace.hh"
#include "vpred/conf_sim.hh"

namespace autofsm
{

/**
 * Estimator table entry of the branch at @p pc in a hashed table of
 * 2^@p log2_entries entries (@p log2_entries in [1, 20]).
 */
size_t branchConfidenceEntry(uint64_t pc, int log2_entries);

/**
 * Run @p trace through @p predictor once and record its correctness
 * stream: per branch, entry branchConfidenceEntry(pc, log2_entries) and
 * whether predict(pc) matched the outcome (the predictor is then
 * updated). The stream's bank has 2^@p log2_entries entries. Throws
 * std::invalid_argument when @p log2_entries is outside [1, 20].
 */
CorrectnessStream buildCorrectnessStream(const PackedTrace &trace,
                                         BranchPredictor &predictor,
                                         int log2_entries);

} // namespace autofsm

#endif // AUTOFSM_BPRED_BRANCH_CONFIDENCE_HH
