/**
 * @file
 * The predictor language of a cover as a regular expression.
 *
 * Section 4.5 of the paper builds, from the minimized sum-of-products
 * cover, the expression `(0|1)* ( term_1 | ... | term_k )`: any input
 * string whose trailing N bits match one of the minimized patterns is in
 * the language "predict 1". The flow builds the DFA straight from the
 * cover (Dfa::fromCover), so the expression only needs rendering, in the
 * paper's notation, and its Thompson NFA only needs counting, for the
 * maxNfaStates budget.
 */

#ifndef AUTOFSM_AUTOMATA_REGEX_HH
#define AUTOFSM_AUTOMATA_REGEX_HH

#include <cstdint>
#include <string>

#include "logicmin/cover.hh"

namespace autofsm
{

/**
 * Render the predictor language of @p cover in the paper's notation,
 * e.g. "{0|1}*{ {0|1}1 | 1{0|1} }". Each term spells its cube MSB
 * first (oldest history bit first), `x` positions as "{0|1}", and the
 * alternation nests to the left: "{ { t1 | t2 } | t3 }". A one-cube
 * cover has no braces around its term; an empty cover (the "always
 * predict 0" language) renders as "(empty)".
 */
std::string regexText(const Cover &cover);

/**
 * Number of states Thompson's construction builds for the expression
 * of @p cover: 2 per symbol of each of the k terms of N symbols, 2 per
 * alternation joining them, 4 for the `(0|1)*` prefix, i.e.
 * 2k(N+1) + 2. An empty cover has no NFA and counts 0.
 */
int64_t thompsonStateCount(const Cover &cover);

} // namespace autofsm

#endif // AUTOFSM_AUTOMATA_REGEX_HH
