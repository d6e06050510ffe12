/**
 * @file
 * The paper's automaton construction, step by step, used only as the
 * test oracle.
 *
 * Section 4.5 turns the minimized cover into the regular expression
 * `(0|1)* (t_1 | ... | t_k)`, Section 4.6 turns that into an NFA by
 * Thompson's construction and determinizes it by subset construction.
 * The library skips both intermediate objects: regexText renders the
 * expression straight from the cover, thompsonStateCount counts the NFA
 * in closed form, and Dfa::fromCover builds the DFA from (cube, depth)
 * position sets. The tests require the library to agree with this
 * oracle byte for byte, count for count and state for state.
 */

#ifndef AUTOFSM_TESTS_REFERENCE_AUTOMATA_HH
#define AUTOFSM_TESTS_REFERENCE_AUTOMATA_HH

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "automata/dfa.hh"
#include "flow/budget.hh"
#include "logicmin/cover.hh"

namespace autofsm::reference
{

/** Node kinds of the regex AST. */
enum class RegexKind
{
    Zero,   ///< literal symbol 0
    One,    ///< literal symbol 1
    AnySym, ///< (0|1), a "don't care" input position
    Concat, ///< lhs . rhs
    Alt,    ///< lhs | rhs
    Star,   ///< lhs*
};

/** One AST node; children are indices into Regex::nodes. */
struct RegexNode
{
    RegexKind kind;
    int lhs = -1;
    int rhs = -1;
};

/** A regular expression as an arena of nodes; no root means empty. */
struct Regex
{
    std::vector<RegexNode> nodes;
    int root = -1;

    /** Append a node and return its index. */
    int
    add(RegexKind kind, int lhs = -1, int rhs = -1)
    {
        nodes.push_back({kind, lhs, rhs});
        return static_cast<int>(nodes.size()) - 1;
    }

    bool empty() const { return root < 0; }

    /** Render in the paper's notation; "(empty)" without a root. */
    std::string
    toString() const
    {
        if (empty())
            return "(empty)";
        std::string out;
        render(root, out);
        return out;
    }

  private:
    void
    render(int idx, std::string &out) const
    {
        const RegexNode &node = nodes[static_cast<size_t>(idx)];
        switch (node.kind) {
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
            render(node.lhs, out);
            render(node.rhs, out);
            break;
          case RegexKind::Alt:
            out += "{ ";
            render(node.lhs, out);
            out += " | ";
            render(node.rhs, out);
            out += " }";
            break;
          case RegexKind::Star:
            render(node.lhs, out);
            out += '*';
            break;
        }
    }
};

/**
 * The predictor language of @p cover: `(0|1)* (t_1 | ... | t_k)`, each
 * term spelling its cube MSB first (oldest history bit first) and the
 * alternation nested to the left. An empty cover yields an empty regex.
 */
inline Regex
regexFromCover(const Cover &cover)
{
    Regex regex;
    if (cover.empty())
        return regex;
    assert(cover.numVars() >= 1);

    int terms = -1;
    for (const auto &cube : cover.cubes()) {
        int term = -1;
        for (int bit = cover.numVars() - 1; bit >= 0; --bit) {
            const RegexKind kind = !bitOf(cube.mask, bit) ? RegexKind::AnySym
                                   : bitOf(cube.value, bit) ? RegexKind::One
                                                            : RegexKind::Zero;
            const int sym = regex.add(kind);
            term = term < 0 ? sym : regex.add(RegexKind::Concat, term, sym);
        }
        terms = terms < 0 ? term : regex.add(RegexKind::Alt, terms, term);
    }
    const int prefix =
        regex.add(RegexKind::Star, regex.add(RegexKind::AnySym));
    regex.root = regex.add(RegexKind::Concat, prefix, terms);
    return regex;
}

/** NFA over {0,1} with epsilon transitions and one accepting state. */
struct Nfa
{
    struct State
    {
        /** Epsilon-successors. */
        std::vector<int> eps;
        /** Successors on symbol 0 and 1. */
        std::vector<int> next[2];
    };

    std::vector<State> states;
    int start = 0;
    int accept = 0;

    int
    addState()
    {
        states.emplace_back();
        return static_cast<int>(states.size()) - 1;
    }

    int numStates() const { return static_cast<int>(states.size()); }

    /** Epsilon-closure of @p set, as a sorted state-index vector. */
    std::vector<int>
    closure(std::vector<int> set) const
    {
        std::vector<bool> seen(states.size(), false);
        std::vector<int> out;
        while (!set.empty()) {
            const int s = set.back();
            set.pop_back();
            if (seen[static_cast<size_t>(s)])
                continue;
            seen[static_cast<size_t>(s)] = true;
            out.push_back(s);
            const auto &eps = states[static_cast<size_t>(s)].eps;
            set.insert(set.end(), eps.begin(), eps.end());
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    /** Closure of the @p symbol successors of @p set. */
    std::vector<int>
    step(const std::vector<int> &set, int symbol) const
    {
        std::vector<int> moved;
        for (int s : set) {
            const auto &succ = states[static_cast<size_t>(s)].next[symbol];
            moved.insert(moved.end(), succ.begin(), succ.end());
        }
        return closure(std::move(moved));
    }

    bool
    accepting(const std::vector<int> &set) const
    {
        return std::binary_search(set.begin(), set.end(), accept);
    }

    /** True iff the NFA accepts the bit string @p input. */
    bool
    accepts(const std::vector<int> &input) const
    {
        std::vector<int> current = closure({start});
        for (int symbol : input)
            current = step(current, symbol);
        return accepting(current);
    }

    /** Thompson-construct an NFA from the non-empty @p regex. */
    static Nfa
    fromRegex(const Regex &regex)
    {
        assert(!regex.empty());
        Nfa nfa;
        const Fragment frag = nfa.build(regex.nodes, regex.root);
        nfa.start = frag.entry;
        nfa.accept = frag.exit;
        return nfa;
    }

  private:
    /** A Thompson fragment: entry and exit states. */
    struct Fragment
    {
        int entry;
        int exit;
    };

    Fragment
    build(const std::vector<RegexNode> &nodes, int idx)
    {
        const RegexNode &node = nodes[static_cast<size_t>(idx)];
        switch (node.kind) {
          case RegexKind::Zero:
          case RegexKind::One:
          case RegexKind::AnySym: {
            const int a = addState();
            const int b = addState();
            if (node.kind != RegexKind::One)
                states[static_cast<size_t>(a)].next[0].push_back(b);
            if (node.kind != RegexKind::Zero)
                states[static_cast<size_t>(a)].next[1].push_back(b);
            return {a, b};
          }
          case RegexKind::Concat: {
            const Fragment lhs = build(nodes, node.lhs);
            const Fragment rhs = build(nodes, node.rhs);
            epsilon(lhs.exit, rhs.entry);
            return {lhs.entry, rhs.exit};
          }
          case RegexKind::Alt: {
            const Fragment lhs = build(nodes, node.lhs);
            const Fragment rhs = build(nodes, node.rhs);
            const int entry = addState();
            const int exit = addState();
            epsilon(entry, lhs.entry);
            epsilon(entry, rhs.entry);
            epsilon(lhs.exit, exit);
            epsilon(rhs.exit, exit);
            return {entry, exit};
          }
          case RegexKind::Star: {
            const Fragment inner = build(nodes, node.lhs);
            const int entry = addState();
            const int exit = addState();
            epsilon(entry, inner.entry);
            epsilon(entry, exit);
            epsilon(inner.exit, inner.entry);
            epsilon(inner.exit, exit);
            return {entry, exit};
          }
        }
        assert(false && "unreachable");
        return {0, 0};
    }

    void
    epsilon(int from, int to)
    {
        states[static_cast<size_t>(from)].eps.push_back(to);
    }
};

/**
 * Subset construction over @p nfa; accepting subsets output 1. States
 * are minted in BFS discovery order, and minting more than
 * @p max_states (0 = unlimited) raises the same
 * FlowError{"subset", BudgetExceeded} as Dfa::fromCover.
 */
inline Dfa
subsetConstruction(const Nfa &nfa, int max_states = 0)
{
    Dfa dfa;
    std::map<std::vector<int>, int> ids;
    std::deque<std::vector<int>> queue;
    auto mint = [&](const std::vector<int> &subset) {
        const int id = dfa.addState(nfa.accepting(subset) ? 1 : 0);
        if (max_states > 0 && dfa.numStates() > max_states) {
            throw FlowError("subset", ErrorKind::BudgetExceeded,
                            "subset construction minted more than " +
                                std::to_string(max_states) + " states");
        }
        ids.emplace(subset, id);
        queue.push_back(subset);
        return id;
    };

    mint(nfa.closure({nfa.start}));
    while (!queue.empty()) {
        const std::vector<int> subset = queue.front();
        queue.pop_front();
        const int from = ids.at(subset);
        for (int symbol = 0; symbol < 2; ++symbol) {
            // The (0|1)* prefix keeps every subset alive.
            const std::vector<int> target = nfa.step(subset, symbol);
            assert(!target.empty());
            const auto it = ids.find(target);
            dfa.setEdge(from, symbol,
                        it != ids.end() ? it->second : mint(target));
        }
    }
    dfa.setStart(0);
    return dfa;
}

/** The whole oracle path: cover -> regex -> Thompson NFA -> subsets. */
inline Dfa
subsetOracle(const Cover &cover, int max_states = 0)
{
    return subsetConstruction(Nfa::fromRegex(regexFromCover(cover)),
                              max_states);
}

} // namespace autofsm::reference

#endif // AUTOFSM_TESTS_REFERENCE_AUTOMATA_HH
