#include "automata/regex.hh"

#include <cassert>

namespace autofsm
{

int
Regex::addNode(RegexNode node)
{
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
}

namespace
{

void
render(const std::vector<RegexNode> &nodes, int idx, std::string &out)
{
    assert(idx >= 0);
    const RegexNode &node = nodes[static_cast<size_t>(idx)];
    switch (node.kind) {
      case RegexKind::Epsilon:
        out += "eps";
        break;
      case RegexKind::Zero:
        out += '0';
        break;
      case RegexKind::One:
        out += '1';
        break;
      case RegexKind::AnySym:
        out += "{0|1}";
        break;
      case RegexKind::Concat:
        render(nodes, node.lhs, out);
        render(nodes, node.rhs, out);
        break;
      case RegexKind::Alt:
        out += "{ ";
        render(nodes, node.lhs, out);
        out += " | ";
        render(nodes, node.rhs, out);
        out += " }";
        break;
      case RegexKind::Star:
        render(nodes, node.lhs, out);
        out += '*';
        break;
    }
}

} // anonymous namespace

std::string
Regex::toString() const
{
    if (root_ < 0)
        return "(empty)";
    std::string out;
    render(nodes_, root_, out);
    return out;
}

Regex
regexFromCover(const Cover &cover)
{
    Regex regex;
    if (cover.empty())
        return regex;

    const int n = cover.numVars();

    // One concatenated term per cube, oldest history position first.
    // History bit (n-1) is the oldest outcome, bit 0 the most recent, so
    // the regex consumes bits from high index down to 0.
    int terms = -1;
    for (const auto &cube : cover.cubes()) {
        int term = -1;
        for (int bit = n - 1; bit >= 0; --bit) {
            int sym;
            if (!bitOf(cube.mask, bit))
                sym = regex.anySym();
            else if (bitOf(cube.value, bit))
                sym = regex.one();
            else
                sym = regex.zero();
            term = term < 0 ? sym : regex.concat(term, sym);
        }
        if (term < 0)
            term = regex.epsilon(); // n == 0 cannot happen; defensive
        terms = terms < 0 ? term : regex.alt(terms, term);
    }

    // Prefix: any number of leading symbols, so the machine recognizes
    // every string *ending* in one of the patterns.
    const int prefix = regex.star(regex.anySym());
    regex.setRoot(regex.concat(prefix, terms));
    return regex;
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
