#include "bpred/branch_confidence.hh"

#include <cassert>

#include "support/bits.hh"
#include "support/history.hh"

namespace autofsm
{

namespace
{

size_t
hashPc(uint64_t pc, int log2_entries)
{
    uint64_t h = (pc >> 2) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return static_cast<size_t>(h & ((1ULL << log2_entries) - 1));
}

} // anonymous namespace

SudBranchConfidence::SudBranchConfidence(int log2_entries,
                                         const SudConfig &config)
    : log2Entries_(log2_entries),
      counters_(1ULL << log2_entries, SudCounter(config))
{
    assert(log2_entries >= 1 && log2_entries <= 20);
}

size_t
SudBranchConfidence::indexOf(uint64_t pc) const
{
    return hashPc(pc, log2Entries_);
}

bool
SudBranchConfidence::confident(uint64_t pc) const
{
    return counters_[indexOf(pc)].predict();
}

void
SudBranchConfidence::update(uint64_t pc, bool correct)
{
    counters_[indexOf(pc)].update(correct);
}

FsmBranchConfidence::FsmBranchConfidence(int log2_entries, const Dfa &fsm)
    : log2Entries_(log2_entries),
      table_(std::make_shared<const FsmTable>(fsm))
{
    assert(log2_entries >= 1 && log2_entries <= 20);
    const size_t n = 1ULL << log2_entries;
    machines_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        machines_.emplace_back(table_);
}

size_t
FsmBranchConfidence::indexOf(uint64_t pc) const
{
    return hashPc(pc, log2Entries_);
}

bool
FsmBranchConfidence::confident(uint64_t pc) const
{
    return machines_[indexOf(pc)].predict() != 0;
}

void
FsmBranchConfidence::update(uint64_t pc, bool correct)
{
    machines_[indexOf(pc)].update(correct ? 1 : 0);
}

double
ConfidenceMetrics::pvp() const
{
    return highConfidence == 0
        ? 0.0
        : static_cast<double>(highAndCorrect) /
            static_cast<double>(highConfidence);
}

double
ConfidenceMetrics::pvn() const
{
    const uint64_t low = branches - highConfidence;
    const uint64_t low_and_wrong =
        (branches - correct) - (highConfidence - highAndCorrect);
    return low == 0 ? 0.0
                    : static_cast<double>(low_and_wrong) /
            static_cast<double>(low);
}

double
ConfidenceMetrics::sensitivity() const
{
    return correct == 0 ? 0.0
                        : static_cast<double>(highAndCorrect) /
            static_cast<double>(correct);
}

double
ConfidenceMetrics::specificity() const
{
    const uint64_t wrong = branches - correct;
    const uint64_t low_and_wrong =
        wrong - (highConfidence - highAndCorrect);
    return wrong == 0 ? 0.0
                      : static_cast<double>(low_and_wrong) /
            static_cast<double>(wrong);
}

ConfidenceMetrics
measureBranchConfidence(BranchPredictor &predictor,
                        BranchConfidenceEstimator &estimator,
                        const PackedTrace &trace)
{
    ConfidenceMetrics metrics;
    for (const BranchRecord record : trace) {
        const bool marked = estimator.confident(record.pc);
        const bool right = predictor.predict(record.pc) == record.taken;

        ++metrics.branches;
        metrics.correct += right;
        metrics.highConfidence += marked;
        metrics.highAndCorrect += marked && right;

        estimator.update(record.pc, right);
        predictor.update(record.pc, record.taken);
    }
    return metrics;
}

void
collectBranchConfidenceModel(BranchPredictor &predictor,
                             const PackedTrace &trace, int log2_entries,
                             MarkovModel &model)
{
    const size_t entries = 1ULL << log2_entries;
    std::vector<uint32_t> history(entries, 0);
    std::vector<int> pushes(entries, 0);

    for (const BranchRecord record : trace) {
        const size_t entry = hashPc(record.pc, log2_entries);
        const bool right = predictor.predict(record.pc) == record.taken;

        if (pushes[entry] >= model.order())
            model.observe(history[entry] & lowMask(model.order()),
                          right ? 1 : 0);

        history[entry] =
            ((history[entry] << 1) | (right ? 1U : 0U)) &
            lowMask(model.order());
        if (pushes[entry] < model.order())
            ++pushes[entry];

        predictor.update(record.pc, record.taken);
    }
}

} // namespace autofsm
