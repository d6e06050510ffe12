/**
 * @file
 * Last-value predictor (Lipasti et al., the paper's references
 * [22, 23]): predict that a load returns the same value as its previous
 * execution.
 */

#ifndef AUTOFSM_VPRED_LAST_VALUE_HH
#define AUTOFSM_VPRED_LAST_VALUE_HH

#include <vector>

#include "vpred/value_predictor.hh"

namespace autofsm
{

/** Direct-mapped, tagged last-value prediction table. */
class LastValuePredictor : public ValuePredictor
{
  public:
    /** Throws std::invalid_argument unless config.entries is a
     *  positive power of two. */
    explicit LastValuePredictor(const StrideConfig &config = {});

    StrideOutcome executeLoad(uint64_t pc, uint64_t value) override;
    size_t indexOf(uint64_t pc) const override;
    size_t entries() const override;
    std::string name() const override;

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lastValue = 0;
    };

    uint64_t tagOf(uint64_t pc) const;

    StrideConfig config_;
    std::vector<Entry> entries_;
};

} // namespace autofsm

#endif // AUTOFSM_VPRED_LAST_VALUE_HH
