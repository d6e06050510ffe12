#include "automata/dfa_io.hh"

#include <sstream>
#include <stdexcept>

namespace autofsm
{

std::string
dfaToText(const Dfa &fsm)
{
    std::ostringstream out;
    out << "fsm " << fsm.numStates() << " " << fsm.start() << "\n";
    for (int s = 0; s < fsm.numStates(); ++s) {
        out << fsm.output(s) << " " << fsm.next(s, 0) << " "
            << fsm.next(s, 1) << "\n";
    }
    return out.str();
}

Dfa
dfaFromText(const std::string &text)
{
    std::istringstream in(text);
    std::string magic;
    int num_states = 0, start = 0;
    if (!(in >> magic >> num_states >> start) || magic != "fsm")
        throw std::invalid_argument("dfaFromText: bad header");
    if (num_states < 1)
        throw std::invalid_argument("dfaFromText: no states");
    if (start < 0 || start >= num_states)
        throw std::invalid_argument("dfaFromText: start out of range");
    // Every row is at least a separator and "o a b": refuse a count
    // the text cannot hold before reserving room for it.
    const size_t consumed =
        in.eof() ? text.size() : static_cast<size_t>(in.tellg());
    if ((text.size() - consumed) / 6 < static_cast<size_t>(num_states))
        throw std::invalid_argument("dfaFromText: truncated body");

    Dfa fsm;
    struct Row
    {
        int output, next0, next1;
    };
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(num_states));
    for (int s = 0; s < num_states; ++s) {
        Row row{};
        if (!(in >> row.output >> row.next0 >> row.next1))
            throw std::invalid_argument("dfaFromText: truncated body");
        if (row.output != 0 && row.output != 1)
            throw std::invalid_argument("dfaFromText: bad output");
        if (row.next0 < 0 || row.next0 >= num_states || row.next1 < 0 ||
            row.next1 >= num_states) {
            throw std::invalid_argument(
                "dfaFromText: transition out of range");
        }
        rows.push_back(row);
    }
    if (!(in >> std::ws).eof())
        throw std::invalid_argument("dfaFromText: trailing data");

    for (const Row &row : rows)
        fsm.addState(row.output);
    for (int s = 0; s < num_states; ++s) {
        fsm.setEdge(s, 0, rows[static_cast<size_t>(s)].next0);
        fsm.setEdge(s, 1, rows[static_cast<size_t>(s)].next1);
    }
    fsm.setStart(start);
    return fsm;
}

} // namespace autofsm
