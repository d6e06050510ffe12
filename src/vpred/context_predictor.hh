/**
 * @file
 * Finite Context Method (FCM) value predictor (Sazeides & Smith, the
 * paper's reference [33]): a first-level table tracks, per static load,
 * a hash of its last K values; a second-level table maps that context
 * hash to the value that followed it last time. Captures repeating
 * non-arithmetic sequences that stride predictors cannot.
 */

#ifndef AUTOFSM_VPRED_CONTEXT_PREDICTOR_HH
#define AUTOFSM_VPRED_CONTEXT_PREDICTOR_HH

#include <vector>

#include "vpred/value_predictor.hh"

namespace autofsm
{

/** FCM geometry. */
struct FcmConfig
{
    /** First-level (per-load) table geometry. */
    StrideConfig level1;
    /** log2 entries of the shared second-level value table. */
    int log2Level2 = 16;
    /** Context order: how many previous values form the context. */
    int order = 2;
};

/** The order-K FCM predictor. */
class FcmPredictor : public ValuePredictor
{
  public:
    /** Throws std::invalid_argument unless level1.entries is a
     *  positive power of two, order is in [1, 3] and log2Level2 in
     *  [4, 24]. */
    explicit FcmPredictor(const FcmConfig &config = {});

    StrideOutcome executeLoad(uint64_t pc, uint64_t value) override;
    size_t indexOf(uint64_t pc) const override;
    size_t entries() const override;
    std::string name() const override;

  private:
    struct Level1Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t context = 0; ///< rolling hash of the last K values
        int seen = 0;         ///< values folded in so far (context warm-up)
    };

    struct Level2Entry
    {
        bool valid = false;
        uint64_t value = 0;
    };

    uint64_t tagOf(uint64_t pc) const;
    size_t level2Index(uint64_t context) const;
    static uint64_t foldValue(uint64_t context, uint64_t value);

    FcmConfig config_;
    std::vector<Level1Entry> level1_;
    std::vector<Level2Entry> level2_;
};

} // namespace autofsm

#endif // AUTOFSM_VPRED_CONTEXT_PREDICTOR_HH
