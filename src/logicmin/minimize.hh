/**
 * @file
 * Front door of the logic-minimization substrate.
 *
 * The design flow (Section 4.4) calls this to compress the pattern sets;
 * it dispatches between the exact and heuristic engines.
 */

#ifndef AUTOFSM_LOGICMIN_MINIMIZE_HH
#define AUTOFSM_LOGICMIN_MINIMIZE_HH

#include "logicmin/cover.hh"
#include "logicmin/truth_table.hh"

namespace autofsm
{

/** Engine selection for minimize(). */
enum class MinimizeAlgo
{
    /** Exact QM for small inputs, Espresso heuristic otherwise. */
    Auto,
    /** Always exact Quine-McCluskey. */
    Exact,
    /** Always the Espresso-style heuristic. */
    Heuristic,
};

/** Resource limits for one minimize() call; zero means unlimited. */
struct MinimizeLimits
{
    /** Cap on the espresso engine's EXPAND/IRREDUNDANT/REDUCE
     *  iterations: it runs min(EspressoOptions{}.maxIterations, limit),
     *  so a limit never adds iterations; 0 is Espresso's own default. */
    int maxEspressoIterations = 0;
    /** Max ON+DC minterms the call will accept before starting. */
    size_t maxMinterms = 0;
};

/**
 * Minimize the incompletely-specified function in @p table.
 *
 * @param table ON/DC specification (OFF is implicit).
 * @param algo Engine selection; Auto uses the exact engine up to
 *        8 variables and the heuristic beyond that.
 * @param limits Optional resource budget; exceeding maxMinterms raises
 *        a FlowError{"minimize", BudgetExceeded} (flow/budget.hh) so
 *        callers can degrade instead of stalling on a huge function.
 * @param capped When non-null, set to true when an iteration cap below
 *        Espresso's default stopped the heuristic before it converged,
 *        i.e. the cover may differ from an uncapped call's.
 * @return A cover verified to implement the function.
 */
Cover minimize(const TruthTable &table, MinimizeAlgo algo = MinimizeAlgo::Auto,
               const MinimizeLimits &limits = {}, bool *capped = nullptr);

/**
 * The degenerate rock-bottom "minimization": one fully-specified cube
 * per ON minterm. Exact, never fails, and needs no iteration — the last
 * rung of the flow's fallback ladder when both real engines are out.
 */
Cover unminimizedCover(const TruthTable &table);

} // namespace autofsm

#endif // AUTOFSM_LOGICMIN_MINIMIZE_HH
