#include "automata/regex.hh"

namespace autofsm
{

std::string
regexText(const Cover &cover)
{
    if (cover.empty())
        return "(empty)";

    // k terms joined left-nested: k - 1 openers up front, and every
    // term after the first closes one.
    std::string out = "{0|1}*";
    for (size_t i = 1; i < cover.size(); ++i)
        out += "{ ";
    bool first = true;
    for (const auto &cube : cover.cubes()) {
        if (!first)
            out += " | ";
        // History bit (n-1) is the oldest outcome, bit 0 the most
        // recent, so the term spells bits from high index down to 0.
        for (int bit = cover.numVars() - 1; bit >= 0; --bit) {
            if (!bitOf(cube.mask, bit))
                out += "{0|1}";
            else
                out += bitOf(cube.value, bit) ? '1' : '0';
        }
        if (!first)
            out += " }";
        first = false;
    }
    return out;
}

int64_t
thompsonStateCount(const Cover &cover)
{
    if (cover.empty())
        return 0;
    const int64_t k = static_cast<int64_t>(cover.size());
    return 2 * k * (cover.numVars() + 1) + 2;
}

} // namespace autofsm
