#include "automata/dfa.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "flow/budget.hh"

namespace autofsm
{

int
Dfa::addState(int output)
{
    assert(output == 0 || output == 1);
    State s;
    s.output = output;
    states_.push_back(s);
    return static_cast<int>(states_.size()) - 1;
}

void
Dfa::setEdge(int from, int symbol, int to)
{
    assert(symbol == 0 || symbol == 1);
    assert(from >= 0 && from < numStates());
    assert(to >= 0 && to < numStates());
    states_[static_cast<size_t>(from)].next[static_cast<size_t>(symbol)] = to;
}

void
Dfa::setOutput(int state, int output)
{
    assert(output == 0 || output == 1);
    states_[static_cast<size_t>(state)].output = output;
}

int
Dfa::next(int state, int symbol) const
{
    assert(symbol == 0 || symbol == 1);
    return states_[static_cast<size_t>(state)].next[static_cast<size_t>(symbol)];
}

int
Dfa::output(int state) const
{
    return states_[static_cast<size_t>(state)].output;
}

int
Dfa::run(const std::vector<int> &input) const
{
    int state = start_;
    for (int symbol : input)
        state = next(state, symbol);
    return state;
}

int
Dfa::predictAfter(const std::vector<int> &input) const
{
    return output(run(input));
}

bool
Dfa::equivalent(const Dfa &other) const
{
    // BFS over the product machine: every reachable pair must agree on
    // output.
    std::set<std::pair<int, int>> seen;
    std::deque<std::pair<int, int>> queue;
    queue.emplace_back(start_, other.start_);
    seen.insert({start_, other.start_});
    while (!queue.empty()) {
        const auto [a, b] = queue.front();
        queue.pop_front();
        if (output(a) != other.output(b))
            return false;
        for (int symbol = 0; symbol < 2; ++symbol) {
            const std::pair<int, int> succ{next(a, symbol),
                                           other.next(b, symbol)};
            if (seen.insert(succ).second)
                queue.push_back(succ);
        }
    }
    return true;
}

bool
Dfa::identical(const Dfa &other) const
{
    if (start_ != other.start_ || states_.size() != other.states_.size())
        return false;
    for (size_t i = 0; i < states_.size(); ++i) {
        if (states_[i].next != other.states_[i].next ||
            states_[i].output != other.states_[i].output) {
            return false;
        }
    }
    return true;
}

Dfa
Dfa::trimUnreachable() const
{
    std::vector<int> remap(states_.size(), -1);
    std::vector<int> order;
    std::deque<int> queue;
    queue.push_back(start_);
    remap[static_cast<size_t>(start_)] = 0;
    order.push_back(start_);
    while (!queue.empty()) {
        const int s = queue.front();
        queue.pop_front();
        for (int symbol = 0; symbol < 2; ++symbol) {
            const int t = next(s, symbol);
            if (remap[static_cast<size_t>(t)] < 0) {
                remap[static_cast<size_t>(t)] =
                    static_cast<int>(order.size());
                order.push_back(t);
                queue.push_back(t);
            }
        }
    }

    Dfa out;
    for (int old : order)
        out.addState(output(old));
    for (size_t i = 0; i < order.size(); ++i) {
        for (int symbol = 0; symbol < 2; ++symbol) {
            out.setEdge(static_cast<int>(i), symbol,
                        remap[static_cast<size_t>(next(order[i], symbol))]);
        }
    }
    out.setStart(0);
    return out;
}

Dfa
Dfa::minimizeHopcroft() const
{
    const Dfa trimmed = trimUnreachable();
    const int n = trimmed.numStates();

    // Inverse transition function.
    std::vector<std::vector<int>> preds[2];
    preds[0].assign(static_cast<size_t>(n), {});
    preds[1].assign(static_cast<size_t>(n), {});
    for (int s = 0; s < n; ++s) {
        for (int symbol = 0; symbol < 2; ++symbol) {
            preds[symbol][static_cast<size_t>(trimmed.next(s, symbol))]
                .push_back(s);
        }
    }

    // Initial partition: by Moore output.
    std::vector<int> block_of(static_cast<size_t>(n), 0);
    std::vector<std::vector<int>> blocks;
    {
        std::vector<int> zeros, ones;
        for (int s = 0; s < n; ++s)
            (trimmed.output(s) ? ones : zeros).push_back(s);
        if (!zeros.empty()) {
            for (int s : zeros)
                block_of[static_cast<size_t>(s)] =
                    static_cast<int>(blocks.size());
            blocks.push_back(std::move(zeros));
        }
        if (!ones.empty()) {
            for (int s : ones)
                block_of[static_cast<size_t>(s)] =
                    static_cast<int>(blocks.size());
            blocks.push_back(std::move(ones));
        }
    }

    // Hopcroft worklist of (block, symbol) splitters.
    std::deque<std::pair<int, int>> worklist;
    for (size_t b = 0; b < blocks.size(); ++b) {
        worklist.emplace_back(static_cast<int>(b), 0);
        worklist.emplace_back(static_cast<int>(b), 1);
    }

    // Per-state / per-block mark scratch, reused across splitters. A
    // refinement never has more blocks than states, so size n covers
    // every block index the loop can mint.
    std::vector<char> state_touched(static_cast<size_t>(n), 0);
    std::vector<char> block_touched(static_cast<size_t>(n), 0);
    std::vector<int> touched_blocks;

    while (!worklist.empty()) {
        const auto [splitter, symbol] = worklist.front();
        worklist.pop_front();

        // States with a `symbol`-edge into the splitter block.
        std::vector<int> incoming;
        for (int t : blocks[static_cast<size_t>(splitter)]) {
            const auto &ps = preds[symbol][static_cast<size_t>(t)];
            incoming.insert(incoming.end(), ps.begin(), ps.end());
        }
        if (incoming.empty())
            continue;

        // Mark incoming states and collect the blocks they live in.
        touched_blocks.clear();
        for (int s : incoming) {
            state_touched[static_cast<size_t>(s)] = 1;
            const int b = block_of[static_cast<size_t>(s)];
            if (!block_touched[static_cast<size_t>(b)]) {
                block_touched[static_cast<size_t>(b)] = 1;
                touched_blocks.push_back(b);
            }
        }
        // Ascending block order keeps the split/worklist sequence (and
        // hence state numbering) identical to the ordered-map version.
        std::sort(touched_blocks.begin(), touched_blocks.end());

        for (int block_idx : touched_blocks) {
            block_touched[static_cast<size_t>(block_idx)] = 0;
            auto &block = blocks[static_cast<size_t>(block_idx)];

            // Split `block` into touched and untouched parts. Blocks
            // stay sorted (the initial partition is in state order and
            // both halves of a split preserve it), so a single ordered
            // pass replaces the old sort + binary_search.
            std::vector<int> members, untouched;
            for (int s : block)
                (state_touched[static_cast<size_t>(s)] ? members
                                                       : untouched)
                    .push_back(s);
            if (untouched.empty())
                continue; // no split: all of the block was touched

            const int new_idx = static_cast<int>(blocks.size());
            // Keep the smaller part as the new block (Hopcroft's trick).
            std::vector<int> *small = &members, *large = &untouched;
            if (small->size() > large->size())
                std::swap(small, large);
            block = *large;
            for (int s : *small)
                block_of[static_cast<size_t>(s)] = new_idx;
            blocks.push_back(*small);

            worklist.emplace_back(new_idx, 0);
            worklist.emplace_back(new_idx, 1);
        }

        for (int s : incoming)
            state_touched[static_cast<size_t>(s)] = 0;
    }

    // Build the quotient machine.
    Dfa out;
    for (const auto &block : blocks)
        out.addState(trimmed.output(block.front()));
    for (size_t b = 0; b < blocks.size(); ++b) {
        const int repr = blocks[b].front();
        for (int symbol = 0; symbol < 2; ++symbol) {
            out.setEdge(static_cast<int>(b), symbol,
                        block_of[static_cast<size_t>(
                            trimmed.next(repr, symbol))]);
        }
    }
    out.setStart(block_of[static_cast<size_t>(trimmed.start())]);
    return out.trimUnreachable();
}

Dfa
Dfa::steadyStateReduce() const
{
    const int n = numStates();
    // Eventual-image fixpoint: S_{k+1} = delta(S_k, {0,1}). Because
    // S_1 = delta(Q) is a subset of S_0 = Q, the chain is monotonically
    // decreasing and must converge within n iterations.
    std::vector<bool> core(static_cast<size_t>(n), true);
    for (;;) {
        std::vector<bool> image(static_cast<size_t>(n), false);
        for (int s = 0; s < n; ++s) {
            if (!core[static_cast<size_t>(s)])
                continue;
            image[static_cast<size_t>(next(s, 0))] = true;
            image[static_cast<size_t>(next(s, 1))] = true;
        }
        if (image == core)
            break;
        core = std::move(image);
    }

    // Re-root: walk 0-inputs from the old start until inside the core.
    // Termination: iterating any input sequence eventually enters the
    // eventual image.
    int new_start = start_;
    for (int step = 0; step <= n && !core[static_cast<size_t>(new_start)];
         ++step) {
        new_start = next(new_start, 0);
    }
    assert(core[static_cast<size_t>(new_start)]);

    Dfa out = *this;
    out.setStart(new_start);
    return out.trimUnreachable();
}

std::string
Dfa::toDot(const std::string &name) const
{
    std::ostringstream out;
    out << "digraph " << name << " {\n";
    out << "    rankdir=LR;\n";
    out << "    init [shape=point];\n";
    for (int s = 0; s < numStates(); ++s) {
        out << "    s" << s << " [shape=circle, label=\"s" << s
            << "\\n[" << output(s) << "]\"];\n";
    }
    out << "    init -> s" << start_ << ";\n";
    for (int s = 0; s < numStates(); ++s) {
        for (int symbol = 0; symbol < 2; ++symbol) {
            out << "    s" << s << " -> s" << next(s, symbol)
                << " [label=\"" << symbol << "\"];\n";
        }
    }
    out << "}\n";
    return out.str();
}

namespace
{

/**
 * FNV-1a over the position-set words of a fromCover state. The high
 * half is folded down so every bit of a 64-bit word reaches the bucket
 * index.
 */
struct SubsetHash
{
    size_t
    operator()(const std::vector<uint64_t> &words) const
    {
        uint64_t h = 0xcbf29ce484222325ULL;
        for (uint64_t w : words) {
            h ^= w;
            h *= 0x100000001b3ULL;
        }
        return static_cast<size_t>(h ^ (h >> 32));
    }
};

/** Raise the subset stage's budget error once @p dfa has too many states. */
void
checkSubsetBudget(const Dfa &dfa, int max_states)
{
    if (max_states > 0 && dfa.numStates() > max_states) {
        throw FlowError("subset", ErrorKind::BudgetExceeded,
                        "subset construction minted more than " +
                            std::to_string(max_states) + " states");
    }
}

} // anonymous namespace

Dfa
Dfa::fromCover(const Cover &cover, int max_states)
{
    const int n = cover.numVars();
    assert(!cover.empty() && n >= 1 && n <= MaxBits);
    const size_t row_words = (cover.size() + 63) / 64;
    const size_t rows = static_cast<size_t>(n) * row_words;

    // match[c][j * row_words + i / 64] has bit i % 64 set iff symbol j of
    // cube i accepts input c. Symbols run MSB first, as in
    // regexText: symbol j is history bit n - 1 - j.
    std::vector<uint64_t> match[2] = {std::vector<uint64_t>(rows, 0),
                                      std::vector<uint64_t>(rows, 0)};
    for (size_t i = 0; i < cover.size(); ++i) {
        const Cube &cube = cover.cubes()[i];
        const uint64_t cube_bit = uint64_t{1} << (i % 64);
        for (int j = 0; j < n; ++j) {
            const int var = n - 1 - j;
            const size_t word = static_cast<size_t>(j) * row_words + i / 64;
            for (int c = 0; c < 2; ++c) {
                if (!bitOf(cube.mask, var) || bitOf(cube.value, var) == c)
                    match[c][word] |= cube_bit;
            }
        }
    }

    // A state is 1 + rows words: the started flag, then the cube rows
    // for depths 1..n. The start state (nothing consumed) is all zero.
    Dfa dfa;
    std::unordered_map<std::vector<uint64_t>, int, SubsetHash> ids;
    // Each state's words, by DFA index (map keys never move).
    std::vector<const std::vector<uint64_t> *> words_of;
    const size_t depth_n = 1 + rows - row_words;
    auto mint = [&](const std::vector<uint64_t> &words) {
        int output = 0;
        for (size_t w = depth_n; w < words.size(); ++w)
            output |= words[w] != 0 ? 1 : 0;
        const int id = dfa.addState(output);
        checkSubsetBudget(dfa, max_states);
        words_of.push_back(&ids.emplace(words, id).first->first);
        return id;
    };

    mint(std::vector<uint64_t>(1 + rows, 0));
    std::vector<uint64_t> target(1 + rows);
    // States are minted in discovery order and expanded first-in
    // first-out, so the BFS queue is simply the state index.
    for (int from = 0; from < dfa.numStates(); ++from) {
        for (int symbol = 0; symbol < 2; ++symbol) {
            const std::vector<uint64_t> &source =
                *words_of[static_cast<size_t>(from)];
            const std::vector<uint64_t> &mask = match[symbol];
            target[0] = 1;
            for (size_t w = 0; w < row_words; ++w)
                target[1 + w] = mask[w];
            for (size_t w = row_words; w < rows; ++w)
                target[1 + w] = source[1 + w - row_words] & mask[w];
            const auto it = ids.find(target);
            dfa.setEdge(from, symbol,
                        it != ids.end() ? it->second : mint(target));
        }
    }

    dfa.setStart(0);
    return dfa;
}

Dfa
Dfa::constant(int output)
{
    Dfa dfa;
    const int s = dfa.addState(output);
    dfa.setEdge(s, 0, s);
    dfa.setEdge(s, 1, s);
    dfa.setStart(s);
    return dfa;
}

Dfa
Dfa::saturatingCounter(int bits)
{
    assert(bits >= 1 && bits <= 8);
    const int n = 1 << bits;
    Dfa dfa;
    for (int s = 0; s < n; ++s)
        dfa.addState(s >= n / 2 ? 1 : 0);
    for (int s = 0; s < n; ++s) {
        dfa.setEdge(s, 0, std::max(s - 1, 0));
        dfa.setEdge(s, 1, std::min(s + 1, n - 1));
    }
    dfa.setStart(n / 2 - 1);
    return dfa;
}

} // namespace autofsm
