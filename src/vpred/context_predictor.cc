#include "vpred/context_predictor.hh"

#include <stdexcept>

#include "support/bits.hh"

namespace autofsm
{

namespace
{

const FcmConfig &
checkedFcm(const FcmConfig &config)
{
    checkedGeometry(config.level1, "FcmPredictor");
    if (config.order < 1 || config.order > 3) {
        throw std::invalid_argument("FcmPredictor: order " +
                                    std::to_string(config.order) +
                                    " outside [1, 3]");
    }
    if (config.log2Level2 < 4 || config.log2Level2 > 24) {
        throw std::invalid_argument("FcmPredictor: log2Level2 " +
                                    std::to_string(config.log2Level2) +
                                    " outside [4, 24]");
    }
    return config;
}

} // anonymous namespace

FcmPredictor::FcmPredictor(const FcmConfig &config)
    : config_(checkedFcm(config)),
      level1_(static_cast<size_t>(config.level1.entries)),
      level2_(1ULL << config.log2Level2)
{}

size_t
FcmPredictor::indexOf(uint64_t pc) const
{
    return static_cast<size_t>(
        (pc >> 2) & static_cast<uint64_t>(config_.level1.entries - 1));
}

size_t
FcmPredictor::entries() const
{
    return level1_.size();
}

uint64_t
FcmPredictor::tagOf(uint64_t pc) const
{
    const int index_bits =
        ceilLog2(static_cast<uint32_t>(config_.level1.entries));
    return (pc >> (2 + index_bits)) & lowMask(config_.level1.tagBits);
}

uint64_t
FcmPredictor::foldValue(uint64_t context, uint64_t value)
{
    // The context is a shift register of 16-bit value hashes: exactly
    // the last K values, oldest bits discarded by the caller's mask.
    const uint64_t h16 = (value * 0x9e3779b97f4a7c15ULL) >> 48;
    return (context << 16) | h16;
}

size_t
FcmPredictor::level2Index(uint64_t context) const
{
    uint64_t h = context * 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h & ((1ULL << config_.log2Level2) - 1));
}

StrideOutcome
FcmPredictor::executeLoad(uint64_t pc, uint64_t value)
{
    StrideOutcome outcome;
    outcome.entry = indexOf(pc);
    Level1Entry &entry = level1_[outcome.entry];

    const uint64_t mask =
        (16 * config_.order >= 64) ? ~0ULL
                                   : ((1ULL << (16 * config_.order)) - 1);

    if (!entry.valid || entry.tag != tagOf(pc)) {
        entry.valid = true;
        entry.tag = tagOf(pc);
        entry.context = foldValue(0, value) & mask;
        entry.seen = 1;
        return outcome; // allocation: no prediction
    }

    if (entry.seen >= config_.order) {
        Level2Entry &slot = level2_[level2Index(entry.context)];
        if (slot.valid) {
            outcome.predicted = true;
            outcome.correct = slot.value == value;
        }
        // Train the context -> value mapping.
        slot.valid = true;
        slot.value = value;
    }

    entry.context = foldValue(entry.context, value) & mask;
    if (entry.seen < config_.order)
        ++entry.seen;
    return outcome;
}

std::string
FcmPredictor::name() const
{
    return "fcm-o" + std::to_string(config_.order) + "-2^" +
        std::to_string(config_.log2Level2);
}

} // namespace autofsm
