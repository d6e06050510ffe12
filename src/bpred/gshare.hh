/**
 * @file
 * McFarling's gshare predictor [26], one of the Figure 5 comparison
 * points: a table of 2-bit counters indexed by PC XOR global history.
 */

#ifndef AUTOFSM_BPRED_GSHARE_HH
#define AUTOFSM_BPRED_GSHARE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "bpred/two_bit.hh"
#include "synth/area.hh"

namespace autofsm
{

/** Gshare geometry: table of 2^log2Entries 2-bit counters. */
struct GshareConfig
{
    int log2Entries = 12;
    /** Global history bits folded into the index (<= log2Entries). */
    int historyBits = 12;
    /**
     * Storage bits charged for the accompanying target BTB (tag +
     * target, no counters), so areas are comparable with the coupled
     * XScale design.
     */
    double btbBits = 128.0 * (23 + 32);
};

/** The gshare predictor: one byte per 2-bit counter. */
class Gshare final : public BranchPredictor
{
  public:
    explicit Gshare(const GshareConfig &config = {},
                    const AreaCosts &costs = {});

    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    double area() const override;
    std::string name() const override;

    /**
     * Fused predict-then-update: one shared counter load, stepped
     * through detail::kCounterStep; returns whether the prediction
     * was wrong.
     */
    bool
    step(uint64_t pc, bool taken)
    {
        uint8_t &counter = table_[indexOf(pc)];
        const uint8_t stepped = detail::kCounterStep
            [(static_cast<size_t>(taken) << 2) | counter];
        counter = stepped & 3;
        history_ = (history_ << 1) | (taken ? 1 : 0);
        return ((stepped & 0x10) != 0) != taken;
    }

  private:
    size_t
    indexOf(uint64_t pc) const
    {
        return static_cast<size_t>(((pc >> 2) ^ (history_ & historyMask_)) &
                                   indexMask_);
    }

    GshareConfig config_;
    AreaCosts costs_;
    std::vector<uint8_t> table_;
    uint64_t indexMask_;
    uint64_t historyMask_;
    uint64_t history_ = 0;
};

} // namespace autofsm

#endif // AUTOFSM_BPRED_GSHARE_HH
