/**
 * @file
 * Regular expressions over the binary alphabet {0,1}.
 *
 * Section 4.5 of the paper builds, from the minimized sum-of-products
 * cover, the expression `(0|1)* ( term_1 | ... | term_k )`: any input
 * string whose trailing N bits match one of the minimized patterns is in
 * the language "predict 1". This module provides the small AST needed to
 * represent such expressions, the builder from a Cover, and a printer
 * that matches the paper's notation.
 */

#ifndef AUTOFSM_AUTOMATA_REGEX_HH
#define AUTOFSM_AUTOMATA_REGEX_HH

#include <cstdint>
#include <string>
#include <vector>

#include "logicmin/cover.hh"

namespace autofsm
{

/** Node kinds of the regex AST. */
enum class RegexKind
{
    Epsilon, ///< empty string
    Zero,    ///< literal symbol 0
    One,     ///< literal symbol 1
    AnySym,  ///< (0|1), a "don't care" input position
    Concat,  ///< lhs . rhs
    Alt,     ///< lhs | rhs
    Star,    ///< lhs*
};

/** One AST node; children are indices into Regex's node arena. */
struct RegexNode
{
    RegexKind kind;
    int lhs = -1;
    int rhs = -1;
};

/**
 * An immutable regular expression, stored as an arena of nodes.
 *
 * Construction goes through the static factories which append to the
 * arena; the final expression is identified by its root index.
 */
class Regex
{
  public:
    Regex() = default;

    /** @name Node factories; each returns the new node's index. */
    /// @{
    int epsilon() { return addNode({RegexKind::Epsilon, -1, -1}); }
    int zero() { return addNode({RegexKind::Zero, -1, -1}); }
    int one() { return addNode({RegexKind::One, -1, -1}); }
    int anySym() { return addNode({RegexKind::AnySym, -1, -1}); }
    int concat(int lhs, int rhs) { return addNode({RegexKind::Concat, lhs, rhs}); }
    int alt(int lhs, int rhs) { return addNode({RegexKind::Alt, lhs, rhs}); }
    int star(int operand) { return addNode({RegexKind::Star, operand, -1}); }
    /// @}

    /** Set which node is the root of the expression. */
    void setRoot(int root) { root_ = root; }

    int root() const { return root_; }

    const std::vector<RegexNode> &nodes() const { return nodes_; }

    bool empty() const { return root_ < 0; }

    /**
     * Render in the paper's notation, e.g.
     * "{0|1}* { 1{0|1} | {0|1}1 }".
     */
    std::string toString() const;

  private:
    int addNode(RegexNode node);

    std::vector<RegexNode> nodes_;
    int root_ = -1;
};

/**
 * Build the predictor language for @p cover:
 * `(0|1)* ( pattern_1 | ... | pattern_k )`, where each pattern spells its
 * cube MSB-first (oldest history bit first), with `x` positions becoming
 * `(0|1)`.
 *
 * An empty cover yields an empty regex (the "always predict 0" language);
 * callers special-case it.
 */
Regex regexFromCover(const Cover &cover);

/**
 * Number of states Nfa::fromRegex(regexFromCover(@p cover)) builds,
 * without building it: 2 per symbol of each of the k terms of N
 * symbols, 2 per alternation joining them, 4 for the `(0|1)*` prefix,
 * i.e. 2k(N+1) + 2. An empty cover has no NFA and counts 0.
 */
int64_t thompsonStateCount(const Cover &cover);

} // namespace autofsm

#endif // AUTOFSM_AUTOMATA_REGEX_HH
