/**
 * @file
 * Confidence estimators for value prediction (Sections 6.2-6.3).
 *
 * One estimator instance lives per value-predictor table entry (the
 * paper's 2K SUD counters). Implementations: the SUD counter family
 * (including resetting counters via a full decrement) and the
 * automatically designed FSM estimators, all instances of which share
 * one immutable transition table.
 */

#ifndef AUTOFSM_VPRED_CONFIDENCE_HH
#define AUTOFSM_VPRED_CONFIDENCE_HH

#include <memory>
#include <string>
#include <vector>

#include "automata/dfa.hh"
#include "fsmgen/predictor_fsm.hh"
#include "support/sud_counter.hh"

namespace autofsm
{

/** Per-entry confidence estimation interface. */
class ConfidenceEstimator
{
  public:
    virtual ~ConfidenceEstimator() = default;

    /** Is entry @p entry currently confident? */
    virtual bool confident(size_t entry) const = 0;

    /** Record whether entry @p entry's value prediction was correct. */
    virtual void update(size_t entry, bool correct) = 0;

    /** Configuration label for reports. */
    virtual std::string name() const = 0;
};

/** A bank of SUD counters, one per predictor entry. */
class SudConfidence : public ConfidenceEstimator
{
  public:
    SudConfidence(size_t entries, const SudConfig &config);

    bool confident(size_t entry) const override;
    void update(size_t entry, bool correct) override;
    std::string name() const override;

    /** The report label of a bank of @p config counters. */
    static std::string label(const SudConfig &config);

  private:
    SudConfig config_;
    std::vector<SudCounter> counters_;
};

/** A bank of generated-FSM estimators sharing one transition table. */
class FsmConfidence : public ConfidenceEstimator
{
  public:
    FsmConfidence(size_t entries, const Dfa &fsm, std::string label = "fsm");

    bool confident(size_t entry) const override;
    void update(size_t entry, bool correct) override;
    std::string name() const override;

    /** Number of states in the shared machine. */
    int numStates() const { return table_->numStates(); }

  private:
    std::shared_ptr<const FsmTable> table_;
    std::vector<PredictorFsm> machines_;
    std::string label_;
};

} // namespace autofsm

#endif // AUTOFSM_VPRED_CONFIDENCE_HH
