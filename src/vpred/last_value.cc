#include "vpred/last_value.hh"

#include "support/bits.hh"

namespace autofsm
{

LastValuePredictor::LastValuePredictor(const StrideConfig &config)
    : config_(checkedGeometry(config, "LastValuePredictor")),
      entries_(static_cast<size_t>(config.entries))
{}

size_t
LastValuePredictor::indexOf(uint64_t pc) const
{
    return static_cast<size_t>((pc >> 2) &
                               static_cast<uint64_t>(config_.entries - 1));
}

size_t
LastValuePredictor::entries() const
{
    return entries_.size();
}

uint64_t
LastValuePredictor::tagOf(uint64_t pc) const
{
    const int index_bits = ceilLog2(static_cast<uint32_t>(config_.entries));
    return (pc >> (2 + index_bits)) & lowMask(config_.tagBits);
}

StrideOutcome
LastValuePredictor::executeLoad(uint64_t pc, uint64_t value)
{
    StrideOutcome outcome;
    outcome.entry = indexOf(pc);
    Entry &entry = entries_[outcome.entry];

    if (!entry.valid || entry.tag != tagOf(pc)) {
        entry.valid = true;
        entry.tag = tagOf(pc);
        entry.lastValue = value;
        return outcome; // allocation: no prediction
    }

    outcome.predicted = true;
    outcome.correct = entry.lastValue == value;
    entry.lastValue = value;
    return outcome;
}

std::string
LastValuePredictor::name() const
{
    return "last-value" + std::to_string(config_.entries);
}

} // namespace autofsm
