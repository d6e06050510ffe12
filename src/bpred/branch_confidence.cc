#include "bpred/branch_confidence.hh"

#include <stdexcept>
#include <string>

namespace autofsm
{

size_t
branchConfidenceEntry(uint64_t pc, int log2_entries)
{
    uint64_t h = (pc >> 2) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return static_cast<size_t>(h & ((1ULL << log2_entries) - 1));
}

CorrectnessStream
buildCorrectnessStream(const PackedTrace &trace, BranchPredictor &predictor,
                       int log2_entries)
{
    if (log2_entries < 1 || log2_entries > 20) {
        throw std::invalid_argument(
            "buildCorrectnessStream: log2 entries " +
            std::to_string(log2_entries) + " outside [1, 20]");
    }
    CorrectnessStream stream;
    stream.entries = size_t{1} << log2_entries;
    stream.entry.resize(trace.size());
    stream.correctWords.assign((trace.size() + 63) / 64, 0);
    for (size_t i = 0; i < trace.size(); ++i) {
        const uint64_t pc = trace.pc(i);
        const bool taken = trace.taken(i);
        const bool right = predictor.predict(pc) == taken;
        stream.entry[i] =
            static_cast<uint32_t>(branchConfidenceEntry(pc, log2_entries));
        stream.correctWords[i >> 6] |= uint64_t{right ? 1U : 0U} << (i & 63);
        stream.correct += right;
        predictor.update(pc, taken);
    }
    return stream;
}

} // namespace autofsm
