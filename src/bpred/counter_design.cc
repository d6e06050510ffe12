#include "bpred/counter_design.hh"

#include <unordered_map>

#include "flow/design_flow.hh"
#include "support/history.hh"

namespace autofsm
{

void
collectLocalOutcomeModel(const PackedTrace &trace, MarkovModel &model)
{
    std::unordered_map<uint64_t, HistoryRegister> histories;
    for (const BranchRecord record : trace) {
        auto it = histories.find(record.pc);
        if (it == histories.end()) {
            it = histories.emplace(record.pc,
                                   HistoryRegister(model.order()))
                     .first;
        }
        HistoryRegister &history = it->second;
        if (history.warm())
            model.observe(history.value(), record.taken ? 1 : 0);
        history.push(record.taken ? 1 : 0);
    }
}

FsmDesignResult
designGeneralCounter(const std::vector<PackedTrace> &traces,
                     const FsmDesignOptions &options)
{
    MarkovModel model(options.order);
    for (const PackedTrace &trace : traces)
        collectLocalOutcomeModel(trace, model);
    return DesignFlow(options).run(model).design;
}

} // namespace autofsm
