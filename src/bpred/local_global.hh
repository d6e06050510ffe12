/**
 * @file
 * Local/Global Chooser (LGC) predictor, "similar to the predictor found
 * in the Alpha 21264" (Section 7.5): a two-level local predictor, a
 * global-history predictor, and a meta chooser that picks between them.
 */

#ifndef AUTOFSM_BPRED_LOCAL_GLOBAL_HH
#define AUTOFSM_BPRED_LOCAL_GLOBAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "bpred/two_bit.hh"
#include "synth/area.hh"

namespace autofsm
{

/**
 * LGC geometry, scaled by one knob: all four structures (local history
 * table, local pattern table, global table, chooser) have 2^log2Entries
 * entries, and local/global history lengths equal log2Entries.
 */
struct LgcConfig
{
    int log2Entries = 10;
    /** Target-BTB storage charged for comparability (tag + target). */
    double btbBits = 128.0 * (23 + 32);
};

/**
 * The Local Global Chooser predictor, in packed tables. The global
 * counter and the chooser are always read and trained at the same
 * index (the global history), so they share one byte (global in bits
 * 0-1, chooser in bits 2-3). Local pattern counters pack four per
 * byte, and local histories are uint16.
 *
 * Supports log2Entries in [1, 16]; the constructor throws
 * std::length_error above 16, where a local history no longer fits its
 * uint16 entry. The Figure 5 sweep goes up to 13.
 */
class LocalGlobalChooser final : public BranchPredictor
{
  public:
    explicit LocalGlobalChooser(const LgcConfig &config = {},
                                const AreaCosts &costs = {});

    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    double area() const override;
    std::string name() const override;

    /**
     * Fused predict-then-update; returns whether the prediction was
     * wrong. The component indices and counters are loaded once, the
     * whole global/chooser decision - select, train-on-disagreement,
     * bump - is one lookup in detail::kLgcGcStep, and the local counter
     * bumps through detail::kCounterStep, so the step has no
     * data-dependent branches.
     */
    bool
    step(uint64_t pc, bool taken)
    {
        const size_t t = taken;
        const size_t pc_idx = pcIndex(pc);
        const size_t global_idx = globalIndex();
        const uint64_t local_hist = localHistory_[pc_idx] & mask_;
        const auto local_idx = static_cast<size_t>(local_hist);

        uint8_t &local_byte = localTable_[local_idx >> 2];
        const unsigned local_shift = (local_idx & 3) * 2;
        const uint8_t local_counter = (local_byte >> local_shift) & 3;
        const size_t local_pred = local_counter >> 1;

        const uint8_t gc_byte = globalChooser_[global_idx];
        const uint8_t stepped = detail::kLgcGcStep
            [(static_cast<size_t>(gc_byte) << 2) | (t << 1) | local_pred];
        globalChooser_[global_idx] = stepped & 0xf;

        const uint8_t bumped =
            detail::kCounterStep[(t << 2) | local_counter] & 3;
        local_byte = static_cast<uint8_t>(
            (local_byte & ~(3u << local_shift)) |
            (static_cast<unsigned>(bumped) << local_shift));

        localHistory_[pc_idx] =
            static_cast<uint16_t>(((local_hist << 1) | t) & mask_);
        history_ = (history_ << 1) | t;
        return ((stepped >> 4) & 1) ^ t;
    }

    /**
     * Hint the local history a future record at @p pc will touch - the
     * head of the step's dependent load chain (history, then pattern
     * counter). The history-indexed tables can't be prefetched: their
     * indices depend on outcomes not yet consumed.
     */
    void
    prefetch(uint64_t pc) const
    {
        __builtin_prefetch(&localHistory_[pcIndex(pc)], 1);
    }

  private:
    size_t
    pcIndex(uint64_t pc) const
    {
        return static_cast<size_t>((pc >> 2) & mask_);
    }

    size_t globalIndex() const { return static_cast<size_t>(history_ & mask_); }

    LgcConfig config_;
    AreaCosts costs_;
    std::vector<uint16_t> localHistory_;
    /** Local pattern counters, packed four per byte. */
    std::vector<uint8_t> localTable_;
    /** Byte i: global counter (bits 0-1), chooser (bits 2-3). */
    std::vector<uint8_t> globalChooser_;
    uint64_t mask_;
    uint64_t history_ = 0;
};

} // namespace autofsm

#endif // AUTOFSM_BPRED_LOCAL_GLOBAL_HH
