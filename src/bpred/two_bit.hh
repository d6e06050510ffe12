/**
 * @file
 * Byte-form 2-bit saturating counter arithmetic shared by the
 * table-driven branch predictors (XScaleBtb, Gshare, LocalGlobalChooser).
 *
 * A counter is a 0..3 value in (part of) a byte, starting weakly
 * not-taken (1); it predicts taken at >= 2. The semantics are those of
 * SudConfig::twoBit. Data-dependent steps are precomputed into
 * one-cache-line tables because they mispredict heavily as branches.
 */

#ifndef AUTOFSM_BPRED_TWO_BIT_HH
#define AUTOFSM_BPRED_TWO_BIT_HH

#include <array>
#include <cstdint>

namespace autofsm
{

/** A 0..3 counter bumped towards @p up, saturating at both ends. */
constexpr uint8_t
bumpedTwoBit(uint8_t value, bool up)
{
    if (up)
        return value < 3 ? static_cast<uint8_t>(value + 1) : value;
    return value > 0 ? static_cast<uint8_t>(value - 1) : value;
}

namespace detail
{

/**
 * Fused 2-bit counter step: entry [(taken << 2) | counter] holds the
 * bumped counter in bits 0-1 and the pre-bump prediction (counter >= 2)
 * in bit 4, so a predict-then-train pair is one 8-byte table load
 * instead of a compare plus a saturating bump.
 */
constexpr std::array<uint8_t, 8>
makeCounterStepTable()
{
    std::array<uint8_t, 8> table{};
    for (unsigned t = 0; t < 2; ++t) {
        for (unsigned c = 0; c < 4; ++c) {
            const auto counter = static_cast<uint8_t>(c);
            table[(t << 2) | c] = static_cast<uint8_t>(
                (static_cast<unsigned>(counter >= 2) << 4) |
                bumpedTwoBit(counter, t != 0));
        }
    }
    return table;
}

inline constexpr std::array<uint8_t, 8> kCounterStep =
    makeCounterStepTable();

/**
 * The LGC global-counter/chooser pair is a 4-bit automaton whose next
 * state and prediction depend only on (state, outcome, local component
 * prediction) - 64 combinations in total. Precomputing them turns the
 * hot loop's bump-and-select arithmetic into one load from a 64-byte
 * (single cache line) table. Entry [(state << 2) | (taken << 1) |
 * local_pred]: bits 0-3 the next packed state (global counter in 0-1,
 * chooser in 2-3), bit 4 the prediction made before training. The
 * chooser trains only when the components disagree, towards whichever
 * was right.
 */
constexpr std::array<uint8_t, 64>
makeLgcGcStepTable()
{
    std::array<uint8_t, 64> table{};
    for (unsigned gc = 0; gc < 16; ++gc) {
        for (unsigned t = 0; t < 2; ++t) {
            for (unsigned lp = 0; lp < 2; ++lp) {
                const bool taken = t != 0;
                const bool local_pred = lp != 0;
                uint8_t global_counter = gc & 3;
                uint8_t chooser = (gc >> 2) & 3;
                const bool global_pred = global_counter >= 2;
                const bool prediction =
                    chooser >= 2 ? global_pred : local_pred;
                if (local_pred != global_pred)
                    chooser = bumpedTwoBit(chooser, global_pred == taken);
                global_counter = bumpedTwoBit(global_counter, taken);
                table[(gc << 2) | (t << 1) | lp] = static_cast<uint8_t>(
                    (static_cast<unsigned>(prediction) << 4) |
                    (chooser << 2) | global_counter);
            }
        }
    }
    return table;
}

inline constexpr std::array<uint8_t, 64> kLgcGcStep = makeLgcGcStepTable();

} // namespace detail

} // namespace autofsm

#endif // AUTOFSM_BPRED_TWO_BIT_HH
