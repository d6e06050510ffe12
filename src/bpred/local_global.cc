#include "bpred/local_global.hh"

#include <stdexcept>
#include <string>

namespace autofsm
{

namespace
{

/** @p config, or an exception before any table is allocated. */
const LgcConfig &
checkedConfig(const LgcConfig &config)
{
    if (config.log2Entries > 16)
        throw std::length_error(
            "LocalGlobalChooser supports log2Entries <= 16");
    if (config.log2Entries < 1) {
        throw std::invalid_argument(
            "LocalGlobalChooser: log2Entries " +
            std::to_string(config.log2Entries) + " below 1");
    }
    return config;
}

} // anonymous namespace

LocalGlobalChooser::LocalGlobalChooser(const LgcConfig &config,
                                       const AreaCosts &costs)
    : config_(checkedConfig(config)), costs_(costs),
      mask_((uint64_t{1} << config.log2Entries) - 1)
{
    const size_t n = size_t{1} << config.log2Entries;
    localHistory_.assign(n, 0);
    localTable_.assign((n + 3) / 4, 0x55);
    globalChooser_.assign(n, 0x05);
}

bool
LocalGlobalChooser::predict(uint64_t pc) const
{
    const uint8_t gc = globalChooser_[globalIndex()];
    if (((gc >> 2) & 3) >= 2)
        return (gc & 3) >= 2;
    const auto hist = static_cast<size_t>(localHistory_[pcIndex(pc)]);
    return ((localTable_[hist >> 2] >> ((hist & 3) * 2)) & 3) >= 2;
}

void
LocalGlobalChooser::update(uint64_t pc, bool taken)
{
    step(pc, taken);
}

double
LocalGlobalChooser::area() const
{
    const double n = static_cast<double>(uint64_t{1} << config_.log2Entries);
    // LHT (history bits per entry) + three 2-bit counter tables.
    const double bits =
        n * config_.log2Entries + 3.0 * 2.0 * n + config_.btbBits;
    return tableArea(bits, costs_);
}

std::string
LocalGlobalChooser::name() const
{
    return "lgc-2^" + std::to_string(config_.log2Entries);
}

} // namespace autofsm
