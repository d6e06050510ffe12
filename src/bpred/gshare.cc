#include "bpred/gshare.hh"

#include <stdexcept>
#include <string>

namespace autofsm
{

namespace
{

/** @p config, or std::invalid_argument before the table is allocated. */
const GshareConfig &
checkedConfig(const GshareConfig &config)
{
    if (config.log2Entries < 1 || config.log2Entries > 24) {
        throw std::invalid_argument(
            "Gshare: log2Entries " + std::to_string(config.log2Entries) +
            " outside [1, 24]");
    }
    if (config.historyBits < 0 || config.historyBits > config.log2Entries) {
        throw std::invalid_argument(
            "Gshare: historyBits " + std::to_string(config.historyBits) +
            " outside [0, log2Entries]");
    }
    return config;
}

} // anonymous namespace

Gshare::Gshare(const GshareConfig &config, const AreaCosts &costs)
    : config_(checkedConfig(config)), costs_(costs),
      table_(size_t{1} << config.log2Entries, 1),
      indexMask_((uint64_t{1} << config.log2Entries) - 1),
      historyMask_((uint64_t{1} << config.historyBits) - 1)
{
}

bool
Gshare::predict(uint64_t pc) const
{
    return table_[indexOf(pc)] >= 2;
}

void
Gshare::update(uint64_t pc, bool taken)
{
    uint8_t &counter = table_[indexOf(pc)];
    counter = bumpedTwoBit(counter, taken);
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

double
Gshare::area() const
{
    const double counter_bits = 2.0 * static_cast<double>(table_.size());
    return tableArea(counter_bits + config_.btbBits, costs_);
}

std::string
Gshare::name() const
{
    return "gshare-2^" + std::to_string(config_.log2Entries);
}

} // namespace autofsm
