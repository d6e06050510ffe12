#include "trace/packed_trace.hh"

namespace autofsm
{

PackedTraceBuilder::PackedTraceBuilder(size_t records)
{
    pcs_.reserve(records);
    taken_.reserve((records + 63) / 64);
}

PackedTrace
PackedTraceBuilder::finish()
{
    struct Arrays
    {
        std::vector<uint64_t> pcs;
        std::vector<uint64_t> taken;
    };
    auto arrays = std::make_shared<const Arrays>(
        Arrays{std::move(pcs_), std::move(taken_)});
    pcs_.clear();
    taken_.clear();
    return PackedTrace(arrays->pcs, arrays->taken, arrays);
}

BranchProfile
profileTrace(const PackedTrace &trace)
{
    BranchProfile profile;
    for (const BranchRecord record : trace) {
        auto &entry = profile[record.pc];
        entry.executions += 1;
        entry.taken += record.taken ? 1 : 0;
    }
    return profile;
}

} // namespace autofsm
