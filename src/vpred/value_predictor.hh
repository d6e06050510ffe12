/**
 * @file
 * Common interface of the load value predictors (Section 6.1).
 *
 * The paper focuses on the two-delta stride predictor but surveys the
 * alternatives (last-value, context/FCM, hybrids); all are provided
 * behind one interface so any of them can feed the confidence
 * estimation machinery.
 */

#ifndef AUTOFSM_VPRED_VALUE_PREDICTOR_HH
#define AUTOFSM_VPRED_VALUE_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace autofsm
{

/**
 * Geometry shared by the table-based value predictors: a direct-mapped,
 * partially-tagged table indexed by load PC.
 */
struct StrideConfig
{
    int entries = 2048; ///< power-of-two table size
    int tagBits = 16;   ///< partial tag per entry
};

/**
 * @p config itself when its table size is a positive power of two and
 * its tag width lies in [0, 32] (the widest lowMask); otherwise throws
 * std::invalid_argument naming @p predictor.
 */
inline const StrideConfig &
checkedGeometry(const StrideConfig &config, const std::string &predictor)
{
    if (config.entries <= 0 ||
        (config.entries & (config.entries - 1)) != 0) {
        throw std::invalid_argument(
            predictor + ": entries " + std::to_string(config.entries) +
            " is not a positive power of two");
    }
    if (config.tagBits < 0 || config.tagBits > 32) {
        throw std::invalid_argument(
            predictor + ": tagBits " + std::to_string(config.tagBits) +
            " outside [0, 32]");
    }
    return config;
}

/** Result of one load execution through a value predictor. */
struct StrideOutcome
{
    /** Table entry the load mapped to (for per-entry confidence). */
    size_t entry = 0;
    /** Whether a prediction was made (tag hit, warm context). */
    bool predicted = false;
    /** Whether the predicted value matched the loaded value. */
    bool correct = false;
};

/** A table-based load value predictor. */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /**
     * Execute the load at @p pc observing @p value: produce the
     * prediction verdict, then train.
     */
    virtual StrideOutcome executeLoad(uint64_t pc, uint64_t value) = 0;

    /** Table entry index for @p pc (for per-entry confidence). */
    virtual size_t indexOf(uint64_t pc) const = 0;

    /** Number of table entries (confidence estimator bank size). */
    virtual size_t entries() const = 0;

    /** Configuration label for reports. */
    virtual std::string name() const = 0;
};

} // namespace autofsm

#endif // AUTOFSM_VPRED_VALUE_PREDICTOR_HH
