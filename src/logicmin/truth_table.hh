/**
 * @file
 * Incompletely-specified single-output boolean function.
 *
 * This is the interface between pattern definition (Section 4.3 of the
 * paper) and logic minimization (Section 4.4): the ON-set holds the
 * "predict 1" histories, the DC-set the "don't care" histories, and every
 * remaining input is implicitly in the OFF-set ("predict 0").
 */

#ifndef AUTOFSM_LOGICMIN_TRUTH_TABLE_HH
#define AUTOFSM_LOGICMIN_TRUTH_TABLE_HH

#include <cstdint>
#include <vector>

#include "support/bits.hh"

namespace autofsm
{

/**
 * ON/DC specification of a boolean function of 1 to MaxVars variables.
 *
 * Every entry point checks its input and throws std::invalid_argument
 * for a variable count outside [1, MaxVars], a minterm >= 2^numVars, or
 * a minterm added to both the ON-set and the DC-set.
 */
class TruthTable
{
  public:
    /** Largest variable count: the dense tag map takes 2^numVars bytes. */
    static constexpr int MaxVars = 24;

    explicit TruthTable(int num_vars);

    /** Number of input variables. */
    int numVars() const { return numVars_; }

    /** Add @p minterm to the ON-set; a repeat is a no-op. Throws if it
     *  is already a don't-care. */
    void addOn(uint32_t minterm);

    /** Add @p minterm to the DC-set; a repeat is a no-op. Throws if it
     *  is already in the ON-set. */
    void addDontCare(uint32_t minterm);

    /** ON-set minterms in insertion order. */
    const std::vector<uint32_t> &onSet() const { return on_; }

    /** DC-set minterms in insertion order. */
    const std::vector<uint32_t> &dontCareSet() const { return dc_; }

    /** True iff @p minterm is in the ON-set. */
    bool isOn(uint32_t minterm) const;

    /** True iff @p minterm is in the DC-set. */
    bool isDontCare(uint32_t minterm) const;

  private:
    /** Throws unless @p minterm < 2^numVars. */
    void checkMinterm(uint32_t minterm) const;

    int numVars_;
    std::vector<uint32_t> on_;
    std::vector<uint32_t> dc_;
    /** Membership bitmap, 2 bits of info per minterm: on and dc. */
    std::vector<uint8_t> tag_;

    static constexpr uint8_t TagOn = 1;
    static constexpr uint8_t TagDc = 2;
};

} // namespace autofsm

#endif // AUTOFSM_LOGICMIN_TRUTH_TABLE_HH
