/**
 * @file
 * The plain stepping replay of a designed machine, used only as the
 * test oracle for replayMachines (fsmgen/suffix_table.hh): one state,
 * advanced on every record, checked at the records where it predicts.
 */

#ifndef AUTOFSM_TESTS_REFERENCE_REPLAY_HH
#define AUTOFSM_TESTS_REFERENCE_REPLAY_HH

#include <cstdint>
#include <vector>

#include "automata/dfa.hh"

namespace autofsm
{

/**
 * Step @p fsm over every record, predicting at @p positions (ascending
 * record indices) or, when null, at every record.
 */
inline uint64_t
referenceMisses(const Dfa &fsm, const std::vector<int> &outcomes,
                const std::vector<uint32_t> *positions)
{
    uint64_t misses = 0;
    size_t cursor = 0;
    int state = fsm.start();
    for (size_t i = 0; i < outcomes.size(); ++i) {
        bool predicts = positions == nullptr;
        if (positions != nullptr && cursor < positions->size() &&
            (*positions)[cursor] == i) {
            predicts = true;
            ++cursor;
        }
        if (predicts && fsm.output(state) != outcomes[i])
            ++misses;
        state = fsm.next(state, outcomes[i]);
    }
    return misses;
}

} // namespace autofsm

#endif // AUTOFSM_TESTS_REFERENCE_REPLAY_HH
