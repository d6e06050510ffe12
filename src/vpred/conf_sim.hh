/**
 * @file
 * The confidence engine (Sections 2.5 and 6.3-6.4).
 *
 * A confidence estimator only sees a per-entry binary correctness
 * stream: for every prediction, which table entry's estimator is
 * consulted and whether the prediction was right. The underlying
 * predictor never sees the estimator, so its verdicts do not depend on
 * which estimator is measured. `buildCorrectnessStream` therefore runs
 * the predictor once and records that stream - here for a value
 * predictor, in bpred/branch_confidence.hh for a branch predictor - and
 * the replays drive any number of SUD configurations or FSM estimators
 * over it; the training pass feeds each entry's correctness history into
 * Markov models of the requested orders (this is how the cross-trained
 * FSM estimators of Figure 2 and of branch pipeline gating are built).
 *
 * The virtual per-estimator `simulateConfidence` loop stays as the
 * reference the engine is tested against.
 */

#ifndef AUTOFSM_VPRED_CONF_SIM_HH
#define AUTOFSM_VPRED_CONF_SIM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "automata/dfa.hh"
#include "fsmgen/markov.hh"
#include "trace/value_trace.hh"
#include "vpred/confidence.hh"
#include "vpred/stride_predictor.hh"

namespace autofsm
{

/**
 * Measurement of one confidence configuration over a stream of loads
 * (or branches). In Grunwald et al.'s terms, "positive" is high
 * confidence and the event detected is a correct prediction:
 * accuracy() is the PVP and coverage() the sensitivity. Every ratio is
 * 0 when its denominator is empty.
 */
struct ConfidenceResult
{
    uint64_t loads = 0;              ///< predictions (loads or branches)
    uint64_t correct = 0;            ///< correct predictions
    uint64_t confident = 0;          ///< predictions marked confident
    uint64_t confidentCorrect = 0;   ///< confident and correct

    /** PVP: P(correct | marked confident). */
    double
    accuracy() const
    {
        return confident == 0
            ? 0.0
            : static_cast<double>(confidentCorrect) /
                static_cast<double>(confident);
    }

    /** Sensitivity: P(marked confident | correct). */
    double
    coverage() const
    {
        return correct == 0
            ? 0.0
            : static_cast<double>(confidentCorrect) /
                static_cast<double>(correct);
    }

    /** PVN: P(incorrect | not marked confident). */
    double
    pvn() const
    {
        const uint64_t low = loads - confident;
        return low == 0 ? 0.0
                        : static_cast<double>(lowAndWrong()) /
                static_cast<double>(low);
    }

    /** Specificity: P(not marked confident | incorrect). */
    double
    specificity() const
    {
        const uint64_t wrong = loads - correct;
        return wrong == 0 ? 0.0
                          : static_cast<double>(lowAndWrong()) /
                static_cast<double>(wrong);
    }

  private:
    uint64_t
    lowAndWrong() const
    {
        return (loads - correct) - (confident - confidentCorrect);
    }
};

/**
 * Measure @p estimator against @p trace: for every load, consult the
 * estimator for the entry the load maps to, run @p predictor, then
 * update the estimator with the verdict. The estimator bank must have
 * at least predictor.entries() entries.
 */
ConfidenceResult simulateConfidence(const ValueTrace &trace,
                                    ValuePredictor &predictor,
                                    ConfidenceEstimator &estimator);

/**
 * Convenience overload: a fresh two-delta stride predictor of the
 * given geometry (the paper's configuration).
 */
ConfidenceResult simulateConfidence(const ValueTrace &trace,
                                    const StrideConfig &config,
                                    ConfidenceEstimator &estimator);

/**
 * Training pass over a fresh two-delta stride predictor: the stream
 * form below over buildCorrectnessStream(trace, config).
 */
void collectConfidenceModels(const ValueTrace &trace,
                             const StrideConfig &config,
                             std::vector<MarkovModel *> models);

/**
 * One predictor pass recorded for replay, structure of arrays: per load
 * (or branch), the table entry whose estimator is consulted and whether
 * the prediction was correct. The replay and training engines below
 * throw std::invalid_argument for a malformed stream: an entry at or
 * above `entries`, or fewer than ceil(size() / 64) outcome words.
 */
struct CorrectnessStream
{
    /** Estimator bank size (a value predictor's entries()). */
    size_t entries = 0;
    /** Total correct predictions over the stream. */
    uint64_t correct = 0;
    /** Table entry of load i. */
    std::vector<uint32_t> entry;
    /** Bit (i & 63) of word (i >> 6) is load i's correct bit. */
    std::vector<uint64_t> correctWords;

    size_t size() const { return entry.size(); }

    bool
    correctAt(size_t i) const
    {
        return (correctWords[i >> 6] >> (i & 63)) & 1;
    }
};

/**
 * Run @p trace through @p predictor once and record its correctness
 * stream. Throws std::invalid_argument for a predictor whose entry
 * indices do not fit the stream (entries() above 2^32, an index out of
 * range, or executeLoad reporting a different entry than indexOf).
 */
CorrectnessStream buildCorrectnessStream(const ValueTrace &trace,
                                         ValuePredictor &predictor);

/** Convenience overload: fresh two-delta stride predictor. */
CorrectnessStream buildCorrectnessStream(const ValueTrace &trace,
                                         const StrideConfig &config);

/**
 * Measure every configuration in @p configs over @p stream in one
 * replay; result i equals simulateConfidence with a fresh
 * SudConfidence(stream.entries, configs[i]). Throws
 * std::invalid_argument for a malformed stream or for a configuration
 * the byte counters cannot represent (max outside [1, 255]) or
 * SudCounter rejects.
 */
std::vector<ConfidenceResult>
replaySudConfidence(const CorrectnessStream &stream,
                    const std::vector<SudConfig> &configs);

/** One FSM estimator to replay: the machine and its report label. */
struct FsmEstimator
{
    const Dfa *fsm = nullptr;
    std::string label = "fsm";
};

/**
 * Measure every estimator in @p estimators over @p stream; result i
 * equals simulateConfidence with a fresh FsmConfidence(stream.entries,
 * *estimators[i].fsm, estimators[i].label). Throws
 * std::invalid_argument for a malformed stream, a null machine, one
 * with more than 65535 states or one with an undefined transition.
 *
 * A machine that is d-definite (after any d inputs its state depends
 * only on those inputs, as for every flow-designed estimator of order
 * d) is tallied from one count of the stream's per-entry histories
 * instead of being stepped, when d <= 16 and the stream is long enough
 * to pay for it; every other machine is stepped across the stream.
 * Both paths give the same counts.
 */
std::vector<ConfidenceResult>
replayFsmConfidence(const CorrectnessStream &stream,
                    const std::vector<FsmEstimator> &estimators);

/**
 * Training pass: feed each entry's correctness stream into every model
 * in @p models (each may have a different order). Entries keep
 * independent history registers, exactly mirroring how the per-entry
 * FSM estimators see the world at runtime. An empty @p models is a
 * no-op; a malformed stream or a null entry throws
 * std::invalid_argument.
 */
void collectConfidenceModels(const CorrectnessStream &stream,
                             std::vector<MarkovModel *> models);

} // namespace autofsm

#endif // AUTOFSM_VPRED_CONF_SIM_HH
