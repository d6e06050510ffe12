#include "vpred/stride_predictor.hh"

#include "support/bits.hh"

namespace autofsm
{

TwoDeltaStridePredictor::TwoDeltaStridePredictor(const StrideConfig &config)
    : config_(checkedGeometry(config, "TwoDeltaStridePredictor")),
      entries_(static_cast<size_t>(config.entries)),
      indexMask_(static_cast<uint64_t>(config.entries - 1)),
      tagShift_(2 + ceilLog2(static_cast<uint32_t>(config.entries))),
      tagMask_(lowMask(config.tagBits))
{}

size_t
TwoDeltaStridePredictor::entries() const
{
    return entries_.size();
}

std::string
TwoDeltaStridePredictor::name() const
{
    return "two-delta-stride" + std::to_string(config_.entries);
}

} // namespace autofsm
