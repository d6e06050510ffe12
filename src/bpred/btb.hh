/**
 * @file
 * XScale-style coupled branch target buffer (Section 7.2).
 *
 * Intel's XScale has a 128-entry BTB; each entry carries a 2-bit
 * saturating counter used for conditional branch prediction, and a BTB
 * miss predicts not-taken. This is the baseline the customized
 * architecture extends.
 */

#ifndef AUTOFSM_BPRED_BTB_HH
#define AUTOFSM_BPRED_BTB_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "bpred/two_bit.hh"
#include "synth/area.hh"

namespace autofsm
{

/** Geometry of the coupled BTB. */
struct BtbConfig
{
    int entries = 128;  ///< direct-mapped entry count (power of two)
    int tagBits = 23;   ///< tag width stored per entry
    int targetBits = 32; ///< branch target width stored per entry
};

/**
 * Direct-mapped BTB with a 2-bit counter per entry. The sweep kernels
 * drive it through the fused step(); the virtual predict/update pair
 * makes the same decisions and tallies.
 */
class XScaleBtb final : public BranchPredictor
{
  public:
    explicit XScaleBtb(const BtbConfig &config = {},
                       const AreaCosts &costs = {});

    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    double area() const override;
    std::string name() const override;

    /**
     * Fused predict-then-update over one shared entry load; returns
     * whether the prediction was wrong. Same decisions and tallies as
     * predict(pc) followed by update(pc, taken), but branch-free: the
     * hit/miss outcome is data-dependent and mispredicts heavily as a
     * branch, so both paths are computed and selected. Writing back
     * valid and tag unconditionally is a no-op on hits. step() is a
     * writer like update(), so its tallies use a plain relaxed
     * load/store pair instead of a locked read-modify-write.
     */
    bool
    step(uint64_t pc, bool taken)
    {
        lookups_.store(lookups_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
        Entry &entry = entries_[indexOf(pc)];
        const uint64_t tag = tagOf(pc);
        const bool hit = entry.valid & (entry.tag == tag);
        hits_.store(hits_.load(std::memory_order_relaxed) +
                        static_cast<uint64_t>(hit),
                    std::memory_order_relaxed);
        const bool prediction = hit & (entry.counter >= 2);
        entry.counter = hit ? bumpedTwoBit(entry.counter, taken)
                            : static_cast<uint8_t>(taken ? 2 : 1);
        entry.valid = true;
        entry.tag = tag;
        return prediction != taken;
    }

    /** Hint the entry a future record at @p pc will touch. */
    void
    prefetch(uint64_t pc) const
    {
        __builtin_prefetch(&entries_[indexOf(pc)], 1);
    }

    /** True iff @p pc currently hits in the BTB. */
    bool hit(uint64_t pc) const;

    /** Lifetime lookups (telemetry: autofsm_btb_lookups_total). */
    uint64_t
    lookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }

    /** Lifetime tag hits among those lookups. */
    uint64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    const BtbConfig &config() const { return config_; }

    /** Storage bits of one entry (tag + target + counter). */
    double entryBits() const;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint8_t counter = 1;
        bool valid = false;
    };

    size_t
    indexOf(uint64_t pc) const
    {
        // Branches are 4-byte aligned in the synthetic traces.
        return static_cast<size_t>((pc >> 2) & indexMask_);
    }

    uint64_t tagOf(uint64_t pc) const { return (pc >> tagShift_) & tagMask_; }

    BtbConfig config_;
    AreaCosts costs_;
    std::vector<Entry> entries_;
    uint64_t indexMask_;
    int tagShift_;
    uint64_t tagMask_;
    /** Tallied in predict() (const, hence mutable); relaxed atomics so
     *  an instance shared across threads tallies without a data race.
     *  The table itself is still single-writer via update()/step().
     *  Callers export the totals in bulk via publishBtbMetrics(). */
    mutable std::atomic<uint64_t> lookups_{0};
    mutable std::atomic<uint64_t> hits_{0};
};

/**
 * Export a BTB's lookup/hit tallies to the global metrics registry
 * (autofsm_btb_lookups_total / autofsm_btb_hits_total, labelled with the
 * BTB's name). Call once per finished simulation pass.
 */
void publishBtbMetrics(const std::string &btb_name, uint64_t lookups,
                       uint64_t hits);

} // namespace autofsm

#endif // AUTOFSM_BPRED_BTB_HH
