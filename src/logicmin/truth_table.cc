#include "logicmin/truth_table.hh"

#include <stdexcept>
#include <string>

namespace autofsm
{

namespace
{

int
checkedVars(int num_vars)
{
    if (num_vars < 1 || num_vars > TruthTable::MaxVars) {
        throw std::invalid_argument(
            "TruthTable: " + std::to_string(num_vars) +
            " variables outside [1, " +
            std::to_string(TruthTable::MaxVars) + "]");
    }
    return num_vars;
}

} // anonymous namespace

TruthTable::TruthTable(int num_vars)
    : numVars_(checkedVars(num_vars))
{
    // The dense tag map keeps membership queries O(1); pattern-definition
    // only ever builds tables up to the Markov order (N <= ~12), so the
    // 2^N bytes are cheap.
    tag_.assign(size_t{1} << num_vars, 0);
}

void
TruthTable::checkMinterm(uint32_t minterm) const
{
    if (minterm >= tag_.size()) {
        throw std::invalid_argument(
            "TruthTable: minterm " + std::to_string(minterm) +
            " outside a " + std::to_string(numVars_) + "-variable table");
    }
}

void
TruthTable::addOn(uint32_t minterm)
{
    checkMinterm(minterm);
    if (tag_[minterm] & TagDc) {
        throw std::invalid_argument("TruthTable: minterm " +
                                    std::to_string(minterm) +
                                    " is already a don't-care");
    }
    if (tag_[minterm] & TagOn)
        return;
    tag_[minterm] |= TagOn;
    on_.push_back(minterm);
}

void
TruthTable::addDontCare(uint32_t minterm)
{
    checkMinterm(minterm);
    if (tag_[minterm] & TagOn) {
        throw std::invalid_argument("TruthTable: minterm " +
                                    std::to_string(minterm) +
                                    " is already in the ON-set");
    }
    if (tag_[minterm] & TagDc)
        return;
    tag_[minterm] |= TagDc;
    dc_.push_back(minterm);
}

bool
TruthTable::isOn(uint32_t minterm) const
{
    checkMinterm(minterm);
    return tag_[minterm] & TagOn;
}

bool
TruthTable::isDontCare(uint32_t minterm) const
{
    checkMinterm(minterm);
    return tag_[minterm] & TagDc;
}

} // namespace autofsm
