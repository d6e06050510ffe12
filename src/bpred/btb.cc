#include "bpred/btb.hh"

#include <stdexcept>
#include <string>

#include "obs/metrics.hh"
#include "support/bits.hh"

namespace autofsm
{

namespace
{

/** @p config, or std::invalid_argument before the table is allocated. */
const BtbConfig &
checkedConfig(const BtbConfig &config)
{
    if (config.entries < 1 || config.entries > (1 << 24) ||
        (config.entries & (config.entries - 1)) != 0) {
        throw std::invalid_argument(
            "XScaleBtb: entries " + std::to_string(config.entries) +
            " is not a power of two in [1, 2^24]");
    }
    if (config.tagBits < 0) {
        throw std::invalid_argument("XScaleBtb: negative tagBits " +
                                    std::to_string(config.tagBits));
    }
    return config;
}

} // anonymous namespace

XScaleBtb::XScaleBtb(const BtbConfig &config, const AreaCosts &costs)
    : config_(checkedConfig(config)), costs_(costs),
      entries_(static_cast<size_t>(config.entries)),
      indexMask_(static_cast<uint64_t>(config.entries - 1)),
      tagShift_(2 + ceilLog2(static_cast<uint32_t>(config.entries))),
      tagMask_(lowMask(config.tagBits))
{
}

bool
XScaleBtb::hit(uint64_t pc) const
{
    const Entry &entry = entries_[indexOf(pc)];
    return entry.valid && entry.tag == tagOf(pc);
}

bool
XScaleBtb::predict(uint64_t pc) const
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    if (!hit(pc))
        return false; // BTB miss: predict not-taken
    hits_.fetch_add(1, std::memory_order_relaxed);
    return entries_[indexOf(pc)].counter >= 2;
}

void
XScaleBtb::update(uint64_t pc, bool taken)
{
    Entry &entry = entries_[indexOf(pc)];
    if (hit(pc)) {
        entry.counter = bumpedTwoBit(entry.counter, taken);
        return;
    }
    // Allocate on first contact (or conflict): bias towards the
    // observed direction, starting from the weak state.
    entry.valid = true;
    entry.tag = tagOf(pc);
    entry.counter = taken ? 2 : 1;
}

double
XScaleBtb::entryBits() const
{
    return static_cast<double>(config_.tagBits + config_.targetBits + 2);
}

double
XScaleBtb::area() const
{
    return tableArea(entryBits() * config_.entries, costs_);
}

std::string
XScaleBtb::name() const
{
    return "xscale-btb" + std::to_string(config_.entries);
}

void
publishBtbMetrics(const std::string &btb_name, uint64_t lookups,
                  uint64_t hits)
{
    obs::MetricsRegistry &registry = obs::globalMetrics();
    if (!registry.enabled())
        return;
    const obs::Labels labels = {{"btb", btb_name}};
    registry
        .counter("autofsm_btb_lookups_total",
                 "BTB predict() lookups across simulation passes.", labels)
        .inc(lookups);
    registry
        .counter("autofsm_btb_hits_total",
                 "BTB tag hits among those lookups.", labels)
        .inc(hits);
}

} // namespace autofsm
