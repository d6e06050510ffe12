#include "logicmin/minimize.hh"

#include <algorithm>
#include <string>

#include "flow/budget.hh"
#include "logicmin/espresso.hh"
#include "logicmin/quine_mccluskey.hh"

namespace autofsm
{

Cover
minimize(const TruthTable &table, MinimizeAlgo algo,
         const MinimizeLimits &limits, bool *capped)
{
    if (capped)
        *capped = false;
    if (limits.maxMinterms > 0) {
        const size_t minterms =
            table.onSet().size() + table.dontCareSet().size();
        if (minterms > limits.maxMinterms) {
            throw FlowError("minimize", ErrorKind::BudgetExceeded,
                            std::to_string(minterms) +
                                " ON+DC minterms > budget " +
                                std::to_string(limits.maxMinterms));
        }
    }

    // The limit only ever cuts Espresso's own iteration count: a limit
    // above the default must not buy a bounded request more work than
    // an unlimited one gets.
    EspressoOptions espresso;
    if (limits.maxEspressoIterations > 0) {
        espresso.maxIterations =
            std::min(espresso.maxIterations, limits.maxEspressoIterations);
    }
    const bool below_default =
        espresso.maxIterations < EspressoOptions{}.maxIterations;
    auto heuristic = [&] {
        bool exhausted = false;
        Cover cover = minimizeEspresso(table, espresso, &exhausted);
        if (capped)
            *capped = exhausted && below_default;
        return cover;
    };

    switch (algo) {
      case MinimizeAlgo::Exact:
        return minimizeQuineMcCluskey(table);
      case MinimizeAlgo::Heuristic:
        return heuristic();
      case MinimizeAlgo::Auto:
      default:
        // QM's prime generation can blow up with many ON+DC minterms at
        // higher variable counts; 8 variables (256 minterms) is well
        // inside its comfort zone and covers most per-branch models.
        if (table.numVars() <= 8)
            return minimizeQuineMcCluskey(table);
        return heuristic();
    }
}

Cover
unminimizedCover(const TruthTable &table)
{
    Cover cover(table.numVars());
    for (uint32_t m : table.onSet())
        cover.add(Cube::minterm(m, table.numVars()));
    return cover;
}

} // namespace autofsm
