/**
 * @file
 * Two-delta stride load value predictor (Section 6.1).
 *
 * Each entry tracks a tag, the last value, the predicted stride and the
 * last observed stride; the predicted stride is replaced only when the
 * same new stride is seen twice in a row (Eickemeyer & Vassiliadis /
 * Sazeides & Smith). The paper uses a 2K-entry table and predicts only
 * load instructions; confidence estimation is layered on top, one
 * estimator per table entry.
 */

#ifndef AUTOFSM_VPRED_STRIDE_PREDICTOR_HH
#define AUTOFSM_VPRED_STRIDE_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "vpred/value_predictor.hh"

namespace autofsm
{

/**
 * The two-delta stride value predictor. Final, with the per-load
 * methods inline, so a loop over the concrete type (the correctness-
 * stream builder, vpred/conf_sim.hh) runs without virtual calls.
 */
class TwoDeltaStridePredictor final : public ValuePredictor
{
  public:
    /** Throws std::invalid_argument unless config.entries is a
     *  positive power of two. */
    explicit TwoDeltaStridePredictor(const StrideConfig &config = {});

    /**
     * Execute the load at @p pc observing @p value: produce the
     * prediction verdict, then train the entry. Tag misses allocate and
     * report an incorrect, unpredicted outcome.
     */
    StrideOutcome
    executeLoad(uint64_t pc, uint64_t value) override
    {
        StrideOutcome outcome;
        outcome.entry = indexOf(pc);
        Entry &entry = entries_[outcome.entry];
        const uint64_t tag = tagOf(pc);

        if (!entry.valid || entry.tag != tag) {
            // Allocation: no basis for a prediction yet.
            entry.valid = true;
            entry.tag = tag;
            entry.lastValue = value;
            entry.stride = 0;
            entry.lastStride = 0;
            outcome.predicted = false;
            outcome.correct = false;
            return outcome;
        }

        const uint64_t predicted =
            entry.lastValue + static_cast<uint64_t>(entry.stride);
        outcome.predicted = true;
        outcome.correct = predicted == value;

        // Two-delta training: only adopt a new stride seen twice in a
        // row.
        const int64_t new_stride =
            static_cast<int64_t>(value - entry.lastValue);
        if (new_stride == entry.lastStride)
            entry.stride = new_stride;
        entry.lastStride = new_stride;
        entry.lastValue = value;
        return outcome;
    }

    size_t
    indexOf(uint64_t pc) const override
    {
        return static_cast<size_t>((pc >> 2) & indexMask_);
    }

    size_t entries() const override;
    std::string name() const override;

    const StrideConfig &config() const { return config_; }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lastValue = 0;
        int64_t stride = 0;
        int64_t lastStride = 0;
    };

    uint64_t
    tagOf(uint64_t pc) const
    {
        return (pc >> tagShift_) & tagMask_;
    }

    StrideConfig config_;
    std::vector<Entry> entries_;
    /** Precomputed from config_: entries - 1, 2 + log2(entries), and
     *  the tagBits-wide tag mask. */
    uint64_t indexMask_;
    int tagShift_;
    uint64_t tagMask_;
};

} // namespace autofsm

#endif // AUTOFSM_VPRED_STRIDE_PREDICTOR_HH
