#include "bpred/simulate.hh"

#include "obs/metrics.hh"

namespace autofsm
{

/*
 * Counters are registered per predictor name (bounded label
 * cardinality: one per swept configuration) and bumped once per run,
 * so the per-branch hot loop stays untouched.
 */
void
publishBpredRun(const std::string &predictor_name,
                const BpredSimResult &result)
{
    obs::MetricsRegistry &registry = obs::globalMetrics();
    if (!registry.enabled())
        return;
    const obs::Labels labels = {{"predictor", predictor_name}};
    registry
        .counter("autofsm_bpred_branches_total",
                 "Dynamic branches simulated.", labels)
        .inc(result.branches);
    registry
        .counter("autofsm_bpred_mispredicts_total",
                 "Mispredicted dynamic branches.", labels)
        .inc(result.mispredicts);
}

BpredSimResult
simulateBranchPredictor(BranchPredictor &predictor, const PackedTrace &trace)
{
    BpredSimResult result;
    for (const BranchRecord record : trace) {
        ++result.branches;
        if (predictor.predict(record.pc) != record.taken)
            ++result.mispredicts;
        predictor.update(record.pc, record.taken);
    }
    publishBpredRun(predictor.name(), result);
    return result;
}

BpredSimResult
simulateBranchPredictor(BranchPredictor &predictor, const PackedTrace &trace,
                        std::unordered_map<uint64_t, uint64_t> &per_branch)
{
    BpredSimResult result;
    for (const BranchRecord record : trace) {
        ++result.branches;
        if (predictor.predict(record.pc) != record.taken) {
            ++result.mispredicts;
            ++per_branch[record.pc];
        }
        predictor.update(record.pc, record.taken);
    }
    publishBpredRun(predictor.name(), result);
    return result;
}

} // namespace autofsm
