/**
 * @file
 * Plain-text serialization of predictor machines.
 *
 * A customized processor flow needs to hand generated machines between
 * tools (profiler, synthesizer, simulator); this is the interchange
 * format. One header line `fsm <states> <start>` followed by one line
 * per state: `<output> <next0> <next1>`.
 */

#ifndef AUTOFSM_AUTOMATA_DFA_IO_HH
#define AUTOFSM_AUTOMATA_DFA_IO_HH

#include <iosfwd>
#include <string>

#include "automata/dfa.hh"

namespace autofsm
{

/** Serialize @p fsm to the text format. */
std::string dfaToText(const Dfa &fsm);

/**
 * Parse a machine serialized by dfaToText.
 *
 * @throws std::invalid_argument on malformed input (bad header, counts,
 *         a state count the text is too short to hold, out-of-range
 *         transitions or outputs, anything but whitespace after the
 *         last row).
 */
Dfa dfaFromText(const std::string &text);

} // namespace autofsm

#endif // AUTOFSM_AUTOMATA_DFA_IO_HH
