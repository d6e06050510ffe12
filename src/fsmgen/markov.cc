#include "fsmgen/markov.hh"

#include <cassert>
#include <stdexcept>
#include <string>

namespace autofsm
{

MarkovModel::MarkovModel(int order)
    : order_(order)
{
    if (order < 1 || order > 24) {
        throw std::invalid_argument("MarkovModel: order " +
                                    std::to_string(order) +
                                    " outside [1, 24]");
    }
}

void
MarkovModel::observe(uint32_t history, int outcome)
{
    assert(outcome == 0 || outcome == 1);
    assert((history & ~lowMask(order_)) == 0);
    auto &entry = table_[history];
    entry.total += 1;
    entry.ones += static_cast<uint64_t>(outcome);
    ++total_;
}

void
MarkovModel::addCounts(uint32_t history, uint64_t ones, uint64_t total)
{
    assert((history & ~lowMask(order_)) == 0);
    assert(ones <= total);
    if (total == 0)
        return;
    auto &entry = table_[history];
    entry.ones += ones;
    entry.total += total;
    total_ += total;
}

void
MarkovModel::train(const std::vector<int> &trace)
{
    HistoryRegister history(order_);
    for (int bit : trace) {
        if (history.warm())
            observe(history.value(), bit);
        history.push(bit);
    }
}

double
MarkovModel::probabilityOne(uint32_t history) const
{
    const auto it = table_.find(history);
    if (it == table_.end() || it->second.total == 0)
        return 0.5;
    return static_cast<double>(it->second.ones) /
        static_cast<double>(it->second.total);
}

HistoryCounts
MarkovModel::counts(uint32_t history) const
{
    const auto it = table_.find(history);
    return it == table_.end() ? HistoryCounts{} : it->second;
}

void
MarkovModel::merge(const MarkovModel &other)
{
    if (other.order_ != order_) {
        throw std::invalid_argument(
            "MarkovModel::merge: order " + std::to_string(other.order_) +
            " into order " + std::to_string(order_));
    }
    for (const auto &[history, counts] : other.table_) {
        auto &entry = table_[history];
        entry.ones += counts.ones;
        entry.total += counts.total;
    }
    total_ += other.total_;
    publishMarkovTableGauges(*this);
}

} // namespace autofsm
