#include "fsmgen/suffix_table.hh"

#include <algorithm>
#include <stdexcept>

namespace autofsm
{

CompactFsm
compileFsm(const Dfa &dfa, const std::string &name)
{
    const int n = dfa.numStates();
    if (n < 1)
        throw std::invalid_argument(name + " has no states");
    const auto state = [&](int s) {
        if (s < 0 || s >= n) {
            throw std::invalid_argument(name +
                                        " has an undefined transition");
        }
        return static_cast<uint32_t>(s);
    };
    CompactFsm fsm;
    fsm.next.resize(static_cast<size_t>(n) * 2);
    fsm.output.resize(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
        fsm.next[static_cast<size_t>(s) * 2] = state(dfa.next(s, 0));
        fsm.next[static_cast<size_t>(s) * 2 + 1] = state(dfa.next(s, 1));
        fsm.output[static_cast<size_t>(s)] = dfa.output(s) != 0 ? 1 : 0;
    }
    fsm.start = state(dfa.start());
    return fsm;
}

namespace
{

/** Deepest history a suffix table replays: 2^17 histogram cells. */
constexpr int kMaxTableIndex = 16;

} // anonymous namespace

int
definiteIndex(const CompactFsm &fsm, size_t length)
{
    const size_t n = fsm.output.size();
    if (length < 2)
        return -1;
    if (n == 1)
        return 0;
    int limit = 0; // deepest index with 2^(limit+1) <= length
    while (limit < kMaxTableIndex && (size_t{4} << limit) <= length)
        ++limit;
    if (limit == 0)
        return -1;

    // images[k]: image of every state under the current word's first k
    // inputs; nextBit[k]: the input to try next below it.
    std::vector<std::vector<uint32_t>> images(static_cast<size_t>(limit) +
                                              1);
    std::vector<int> nextBit(images.size(), 0);
    images[0].resize(n);
    for (size_t s = 0; s < n; ++s)
        images[0][s] = static_cast<uint32_t>(s);
    std::vector<uint32_t> seen(n, 0);
    uint32_t stamp = 0;
    size_t steps = 0;
    int index = 0;
    int depth = 0;
    while (depth >= 0) {
        const size_t k = static_cast<size_t>(depth);
        if (nextBit[k] == 2) {
            --depth;
            continue;
        }
        const unsigned bit = static_cast<unsigned>(nextBit[k]++);
        std::vector<uint32_t> &child = images[k + 1];
        child.clear();
        ++stamp;
        for (const uint32_t s : images[k]) {
            const uint32_t t = fsm.next[2 * size_t{s} + bit];
            if (seen[t] != stamp) {
                seen[t] = stamp;
                child.push_back(t);
            }
        }
        steps += images[k].size();
        if (steps > length)
            return -1;
        if (child.size() == 1) {
            index = std::max(index, depth + 1);
            continue;
        }
        // A wider image one input deeper means d > depth + 1.
        if (depth + 1 >= limit)
            return -1;
        ++depth;
        nextBit[k + 1] = 0;
    }
    return index;
}

namespace
{

void
tallyFrom(const CompactFsm &fsm, const SuffixCounts &counts, uint32_t state,
          uint32_t history, int level, SuffixTally &tally)
{
    if (fsm.output[state] != 0) {
        tally.marked += counts.count[history];
        tally.markedOnes += counts.ones[history];
    }
    if (level == counts.depth)
        return;
    for (uint32_t bit = 0; bit < 2; ++bit) {
        tallyFrom(fsm, counts, fsm.next[2 * size_t{state} + bit],
                  (history << 1) | bit, level + 1, tally);
    }
}

/** The low @p len bits of @p x (len <= 16) in reverse order. */
uint32_t
reverseLow(uint64_t x, int len)
{
    uint32_t v = static_cast<uint32_t>(x) & 0xffff;
    v = ((v >> 1) & 0x5555) | ((v & 0x5555) << 1);
    v = ((v >> 2) & 0x3333) | ((v & 0x3333) << 2);
    v = ((v >> 4) & 0x0f0f) | ((v & 0x0f0f) << 4);
    v = ((v >> 8) & 0x00ff) | ((v & 0x00ff) << 8);
    return v >> (16 - len);
}

/**
 * Misses of a @p depth-definite machine, from a history count at its
 * positions. Each position p is read as one window: the last
 * min(p, depth) outcomes and p's own, oldest in bit 0, under a 1
 * sentinel. At full depth that is two word reads. The window histogram
 * is then folded into SuffixCounts' newest-in-bit-0 form.
 */
uint64_t
tableMisses(const CompactFsm &fsm, int depth, const uint64_t *words,
            size_t records, const std::vector<uint32_t> *positions)
{
    const size_t points = positions ? positions->size() : records;
    const auto at = [&](size_t i) -> size_t {
        return positions ? (*positions)[i] : i;
    };
    const auto d = static_cast<size_t>(depth);
    std::vector<uint64_t> windows(size_t{4} << depth, 0);
    size_t i = 0;
    // Records before depth see their whole past, all in word 0.
    for (; i < points && at(i) < d; ++i) {
        const size_t p = at(i);
        ++windows[(size_t{2} << p) | (words[0] & ((uint64_t{2} << p) - 1))];
    }
    const uint64_t mask = (uint64_t{2} << depth) - 1;
    const size_t full = size_t{2} << depth;
    for (; i < points; ++i) {
        const size_t p = at(i);
        const size_t from = p - d;
        const unsigned offset = static_cast<unsigned>(from & 63);
        // The word holding p supplies the bits past from's word; when
        // both are one word, its copy lands above the mask.
        const uint64_t window = (words[from >> 6] >> offset) |
            ((words[p >> 6] << 1) << (63 - offset));
        ++windows[full | (window & mask)];
    }

    SuffixCounts counts;
    counts.depth = depth;
    counts.count.assign(size_t{2} << depth, 0);
    counts.ones.assign(size_t{2} << depth, 0);
    uint64_t taken = 0;
    for (int len = 0; len <= depth; ++len) {
        for (uint32_t x = 0; x < (uint32_t{1} << len); ++x) {
            const uint32_t h = (uint32_t{1} << len) | reverseLow(x, len);
            const uint64_t zero = windows[(size_t{2} << len) | x];
            const uint64_t one =
                windows[(size_t{2} << len) | (size_t{1} << len) | x];
            counts.count[h] = zero + one;
            counts.ones[h] = one;
            taken += one;
        }
    }
    const SuffixTally tally = tallySuffixes(fsm, counts);
    // Predicted taken but not taken, plus taken but not predicted taken.
    return (tally.marked - tally.markedOnes) + (taken - tally.markedOnes);
}

/** Misses of any machine, stepped over every record. */
uint64_t
stepMisses(const CompactFsm &fsm, const uint64_t *words, size_t records,
           const std::vector<uint32_t> *positions)
{
    const uint32_t *next = fsm.next.data();
    const uint8_t *output = fsm.output.data();
    uint32_t state = fsm.start;
    uint64_t misses = 0;
    size_t cursor = 0;
    const size_t end = positions ? positions->size() : 0;
    for (size_t i = 0; i < records; ++i) {
        const auto bit = static_cast<uint32_t>((words[i >> 6] >> (i & 63)) & 1);
        if (positions == nullptr) {
            misses += output[state] != bit;
        } else if (cursor < end && (*positions)[cursor] == i) {
            misses += output[state] != bit;
            ++cursor;
        }
        state = next[2 * size_t{state} + bit];
    }
    return misses;
}

void
checkPositions(const std::vector<uint32_t> &positions, size_t records,
               size_t machine)
{
    for (size_t i = 0; i < positions.size(); ++i) {
        const uint32_t p = positions[i];
        if (p >= records || (i > 0 && p <= positions[i - 1])) {
            throw std::invalid_argument(
                "replayMachines: machine " + std::to_string(machine) +
                " position " + std::to_string(p) +
                (p >= records ? " is past a stream of " +
                                    std::to_string(records) + " records"
                              : " is not above the one before it"));
        }
    }
}

} // anonymous namespace

SuffixTally
tallySuffixes(const CompactFsm &fsm, const SuffixCounts &counts)
{
    SuffixTally tally;
    tallyFrom(fsm, counts, fsm.start, 1, 0, tally);
    return tally;
}

std::vector<uint64_t>
replayMachines(const std::vector<ReplayMachine> &machines,
               const uint64_t *words, size_t records)
{
    // Every machine and position list is checked before any outcome
    // word is read: a bad position would index past the stream.
    std::vector<CompactFsm> compiled;
    compiled.reserve(machines.size());
    for (size_t k = 0; k < machines.size(); ++k) {
        const ReplayMachine &machine = machines[k];
        if (machine.fsm == nullptr)
            throw std::invalid_argument("replayMachines: null machine");
        compiled.push_back(compileFsm(
            *machine.fsm, "replayMachines: machine " + std::to_string(k)));
        if (machine.positions != nullptr)
            checkPositions(*machine.positions, records, k);
    }

    std::vector<uint64_t> misses(machines.size(), 0);
    for (size_t k = 0; k < machines.size(); ++k) {
        const int depth = definiteIndex(compiled[k], records);
        misses[k] = depth >= 0
            ? tableMisses(compiled[k], depth, words, records,
                          machines[k].positions)
            : stepMisses(compiled[k], words, records,
                         machines[k].positions);
    }
    return misses;
}

std::vector<uint64_t>
packOutcomeWords(const std::vector<int> &outcomes)
{
    std::vector<uint64_t> words((outcomes.size() + 63) / 64, 0);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i] != 0)
            words[i >> 6] |= 1ULL << (i & 63);
    }
    return words;
}

} // namespace autofsm
