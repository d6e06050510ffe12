/**
 * @file
 * Branch confidence estimation (Sections 2.5 and 3.1).
 *
 * Jacobsen/Rotenberg/Smith-style confidence: alongside a branch
 * predictor, a per-branch estimator watches whether the predictor was
 * right and classifies each upcoming prediction as high or low
 * confidence. Manne et al. use exactly this to gate the fetch unit on
 * low-confidence branches (pipeline gating). Both counter-based and
 * generated-FSM estimators are provided, plus Grunwald et al.'s
 * evaluation metrics (PVP, PVN, sensitivity, specificity).
 */

#ifndef AUTOFSM_BPRED_BRANCH_CONFIDENCE_HH
#define AUTOFSM_BPRED_BRANCH_CONFIDENCE_HH

#include <memory>
#include <vector>

#include "bpred/predictor.hh"
#include "fsmgen/markov.hh"
#include "fsmgen/predictor_fsm.hh"
#include "support/sud_counter.hh"
#include "trace/packed_trace.hh"

namespace autofsm
{

/** Per-branch confidence estimator bank over a hashed table. */
class BranchConfidenceEstimator
{
  public:
    virtual ~BranchConfidenceEstimator() = default;

    /** Is the upcoming prediction for @p pc high-confidence? */
    virtual bool confident(uint64_t pc) const = 0;

    /** Record whether the prediction for @p pc was correct. */
    virtual void update(uint64_t pc, bool correct) = 0;
};

/** Table of SUD (or resetting) counters indexed by PC. */
class SudBranchConfidence : public BranchConfidenceEstimator
{
  public:
    SudBranchConfidence(int log2_entries, const SudConfig &config);

    bool confident(uint64_t pc) const override;
    void update(uint64_t pc, bool correct) override;

  private:
    size_t indexOf(uint64_t pc) const;

    int log2Entries_;
    std::vector<SudCounter> counters_;
};

/** Table of generated-FSM estimators sharing one transition table. */
class FsmBranchConfidence : public BranchConfidenceEstimator
{
  public:
    FsmBranchConfidence(int log2_entries, const Dfa &fsm);

    bool confident(uint64_t pc) const override;
    void update(uint64_t pc, bool correct) override;

  private:
    size_t indexOf(uint64_t pc) const;

    int log2Entries_;
    std::shared_ptr<const FsmTable> table_;
    std::vector<PredictorFsm> machines_;
};

/**
 * Grunwald et al.'s confidence metrics. Convention: "positive" = high
 * confidence, the event being detected = the prediction being correct.
 */
struct ConfidenceMetrics
{
    uint64_t branches = 0;
    uint64_t correct = 0;            ///< predictor was right
    uint64_t highConfidence = 0;     ///< marked confident
    uint64_t highAndCorrect = 0;     ///< confident and right

    /** PVP: P(correct | high confidence). */
    double pvp() const;
    /** PVN: P(incorrect | low confidence). */
    double pvn() const;
    /** Sensitivity: P(high confidence | correct). */
    double sensitivity() const;
    /** Specificity: P(low confidence | incorrect). */
    double specificity() const;
};

/**
 * Run @p predictor over @p trace with @p estimator watching its
 * correctness stream; returns the aggregated metrics. The estimator is
 * updated on every branch with whether the prediction was right.
 */
ConfidenceMetrics
measureBranchConfidence(BranchPredictor &predictor,
                        BranchConfidenceEstimator &estimator,
                        const PackedTrace &trace);

/**
 * Training pass for FSM branch confidence: per-table-entry Markov
 * model of the predictor's correctness stream (the branch analogue of
 * collectConfidenceModels).
 */
void collectBranchConfidenceModel(BranchPredictor &predictor,
                                  const PackedTrace &trace,
                                  int log2_entries, MarkovModel &model);

} // namespace autofsm

#endif // AUTOFSM_BPRED_BRANCH_CONFIDENCE_HH
