/**
 * @file
 * Espresso-style heuristic two-level minimizer.
 *
 * Implements the classic EXPAND / IRREDUNDANT / REDUCE loop over an
 * explicit OFF-set. It does not guarantee minimality (neither does
 * Espresso) but produces covers close to the exact Quine-McCluskey result
 * at much lower cost on dense functions, and is the default for larger
 * history lengths. Both minimizers share the same contract: the returned
 * cover implements the incompletely-specified function.
 */

#ifndef AUTOFSM_LOGICMIN_ESPRESSO_HH
#define AUTOFSM_LOGICMIN_ESPRESSO_HH

#include "logicmin/cover.hh"
#include "logicmin/truth_table.hh"

namespace autofsm
{

/** Tunables for the heuristic loop. */
struct EspressoOptions
{
    /** Maximum EXPAND/IRREDUNDANT/REDUCE iterations. */
    int maxIterations = 4;
};

/**
 * Minimize @p table heuristically.
 *
 * @param exhausted When non-null, set to true when the loop spent all
 *        options.maxIterations iterations still improving (it stopped
 *        at the cap, not at convergence), false otherwise.
 * @return A verified cover; empty when the ON-set is empty.
 */
Cover minimizeEspresso(const TruthTable &table,
                       const EspressoOptions &options = {},
                       bool *exhausted = nullptr);

} // namespace autofsm

#endif // AUTOFSM_LOGICMIN_ESPRESSO_HH
