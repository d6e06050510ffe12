#include "bpred/counter_design.hh"

#include <unordered_map>

#include "flow/design_flow.hh"
#include "support/history.hh"

namespace autofsm
{

void
collectLocalOutcomeModel(const BranchTrace &trace, MarkovModel &model)
{
    std::unordered_map<uint64_t, HistoryRegister> histories;
    for (const auto &record : trace) {
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
designGeneralCounter(const std::vector<BranchTrace> &traces,
                     const FsmDesignOptions &options)
{
    MarkovModel model(options.order);
    for (const BranchTrace &trace : traces)
        collectLocalOutcomeModel(trace, model);
    return DesignFlow(options).run(model).design;
}

} // namespace autofsm
