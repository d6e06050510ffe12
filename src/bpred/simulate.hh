/**
 * @file
 * Trace-driven simulation of branch predictors.
 */

#ifndef AUTOFSM_BPRED_SIMULATE_HH
#define AUTOFSM_BPRED_SIMULATE_HH

#include <string>
#include <unordered_map>

#include "bpred/predictor.hh"
#include "trace/packed_trace.hh"

namespace autofsm
{

/** Outcome of one simulation run. */
struct BpredSimResult
{
    uint64_t branches = 0;
    uint64_t mispredicts = 0;

    /** Misprediction rate in [0,1]. */
    double
    missRate() const
    {
        return branches == 0
            ? 0.0
            : static_cast<double>(mispredicts) /
                static_cast<double>(branches);
    }
};

/**
 * Publish one run's branch/mispredict tallies to the global metrics
 * registry, labelled with @p predictor_name. Called once per finished
 * run by simulateBranchPredictor and the sweep kernels, so both paths
 * export identical counters.
 */
void publishBpredRun(const std::string &predictor_name,
                     const BpredSimResult &result);

/** Drive @p predictor with @p trace (predict, then update, per record). */
BpredSimResult simulateBranchPredictor(BranchPredictor &predictor,
                                       const PackedTrace &trace);

/**
 * Like simulateBranchPredictor, additionally collecting per-static-
 * branch misprediction counts into @p per_branch.
 */
BpredSimResult
simulateBranchPredictor(BranchPredictor &predictor, const PackedTrace &trace,
                        std::unordered_map<uint64_t, uint64_t> &per_branch);

} // namespace autofsm

#endif // AUTOFSM_BPRED_SIMULATE_HH
