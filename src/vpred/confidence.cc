#include "vpred/confidence.hh"

namespace autofsm
{

SudConfidence::SudConfidence(size_t entries, const SudConfig &config)
    : config_(config), counters_(entries, SudCounter(config))
{}

bool
SudConfidence::confident(size_t entry) const
{
    return counters_[entry].predict();
}

void
SudConfidence::update(size_t entry, bool correct)
{
    counters_[entry].update(correct);
}

std::string
SudConfidence::name() const
{
    return label(config_);
}

std::string
SudConfidence::label(const SudConfig &config)
{
    return "sud(max=" + std::to_string(config.max) +
        ",dec=" + std::to_string(config.decrement) +
        ",thr=" + std::to_string(config.threshold) + ")";
}

FsmConfidence::FsmConfidence(size_t entries, const Dfa &fsm,
                             std::string label)
    : table_(std::make_shared<const FsmTable>(fsm)), label_(std::move(label))
{
    machines_.reserve(entries);
    for (size_t i = 0; i < entries; ++i)
        machines_.emplace_back(table_);
}

bool
FsmConfidence::confident(size_t entry) const
{
    return machines_[entry].predict() != 0;
}

void
FsmConfidence::update(size_t entry, bool correct)
{
    machines_[entry].update(correct ? 1 : 0);
}

std::string
FsmConfidence::name() const
{
    return label_;
}

} // namespace autofsm
