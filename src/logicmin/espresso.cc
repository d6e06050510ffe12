#include "logicmin/espresso.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "support/failpoint.hh"

namespace autofsm
{

namespace
{

using Word = uint64_t;

/** Variables addressed inside one word: minterm bits 0..5. */
constexpr int WordVars = 6;

/**
 * Where a cube's minterms sit in a 2^N-bit plane. Minterm m lives at
 * bit (m & 63) of word (m >> 6). The cube's free variables below bit 6
 * give the same in-word pattern in every word it touches; its free
 * variables at bit 6 and above select which words those are.
 */
struct Span
{
    /** In-word minterm pattern. */
    Word pattern = 0;
    /** Lowest word index the cube touches. */
    uint32_t base = 0;
    /** Free word-index bits; the cube touches base | every subset. */
    uint32_t free = 0;

    Span(const Cube &cube, int num_vars)
        : pattern(Word{1} << (cube.value & 63U)),
          base(cube.value >> WordVars),
          free(~cube.mask & lowMask(num_vars) & ~lowMask(WordVars))
    {
        // Each free in-word variable b doubles the pattern 2^b bits up.
        for (uint32_t low = ~cube.mask & lowMask(std::min(num_vars, WordVars));
             low != 0; low &= low - 1) {
            pattern |= pattern << (1U << std::countr_zero(low));
        }
        free >>= WordVars;
    }

    /** Call @p visit(word index) for each word, ascending; stop early
     *  and return true as soon as it returns true. */
    template <typename Visit>
    bool
    any(Visit visit) const
    {
        uint32_t sub = 0;
        do {
            if (visit(base | sub))
                return true;
            sub = (sub - free) & free;
        } while (sub != 0);
        return false;
    }

    /** Call @p visit(word index) for every word, ascending. */
    template <typename Visit>
    void
    each(Visit visit) const
    {
        any([&](uint32_t w) {
            visit(w);
            return false;
        });
    }
};

/** The cube of the minterms both cubes contain (they must intersect). */
Cube
intersection(const Cube &a, const Cube &b)
{
    assert(a.intersects(b));
    return Cube(a.value | b.value, a.mask | b.mask);
}

/**
 * One table as 2^N-bit ON and OFF planes, plus two working planes the
 * passes reuse. Every pass below asks only set questions of these
 * planes, so its answers match the explicit minterm lists exactly.
 */
class Planes
{
  public:
    explicit Planes(const TruthTable &table)
        : numVars_(table.numVars()),
          words_(size_t{1} << std::max(numVars_ - WordVars, 0)),
          on_(words_, 0), off_(words_, 0), workA_(words_, 0),
          workB_(words_, 0)
    {
        std::vector<Word> dc(words_, 0);
        for (uint32_t m : table.onSet())
            on_[m >> WordVars] |= Word{1} << (m & 63U);
        for (uint32_t m : table.dontCareSet())
            dc[m >> WordVars] |= Word{1} << (m & 63U);
        const Word valid = numVars_ >= WordVars
            ? ~Word{0}
            : (Word{1} << (1U << numVars_)) - 1;
        for (size_t w = 0; w < words_; ++w)
            off_[w] = ~(on_[w] | dc[w]) & valid;
    }

    Span span(const Cube &cube) const { return Span(cube, numVars_); }

    /**
     * EXPAND one cube: greedily drop literals, lowest variable first,
     * while the cube stays inside ON plus DC. The cube never contains
     * an OFF minterm (it starts as an ON minterm or a REDUCE shrink of
     * an expanded cube), so dropping literal b hits OFF exactly when
     * the mirror half, the cube with b flipped, does.
     */
    Cube
    expand(Cube cube) const
    {
        for (uint32_t lits = cube.mask; lits != 0; lits &= lits - 1) {
            const uint32_t flag = lits & -lits;
            const Span mirror = span(Cube(cube.value ^ flag, cube.mask));
            const bool hits = mirror.any(
                [&](uint32_t w) { return (off_[w] & mirror.pattern) != 0; });
            if (!hits)
                cube = Cube(cube.value & ~flag, cube.mask & ~flag);
        }
        return cube;
    }

    /**
     * IRREDUNDANT: keep every cube that alone covers some ON minterm,
     * then repeatedly keep the first cube covering the most
     * still-uncovered ON minterms until all are covered.
     *
     * Copies of one cube always have equal gains, so only the first
     * copy can ever be picked, and no copy alone covers anything: the
     * pass runs over the distinct cubes in first-occurrence order, with
     * the repeated ones counted twice. Covered-once and covered-twice
     * planes find the essential cubes; a cube's gain is the popcount of
     * its uncovered ON minterms, and keeping a cube lowers only the
     * gains of the cubes it intersects.
     */
    std::vector<Cube>
    irredundant(const std::vector<Cube> &all)
    {
        std::vector<std::pair<uint64_t, uint32_t>> keyed(all.size());
        for (size_t c = 0; c < all.size(); ++c) {
            keyed[c] = {uint64_t{all[c].mask} << 32 | all[c].value,
                        static_cast<uint32_t>(c)};
        }
        std::sort(keyed.begin(), keyed.end());
        std::vector<uint8_t> copies(all.size(), 0); // 0, 1 or 2 (= many)
        for (size_t i = 0, run = 0; i < keyed.size(); ++i) {
            if (i == 0 || keyed[i].first != keyed[i - 1].first)
                run = keyed[i].second;
            copies[run] = std::min(copies[run] + 1, 2);
        }
        std::vector<Cube> cubes;
        std::vector<bool> repeated;
        for (size_t c = 0; c < all.size(); ++c) {
            if (copies[c] != 0) {
                cubes.push_back(all[c]);
                repeated.push_back(copies[c] > 1);
            }
        }

        std::vector<Word> &once = workA_;
        std::vector<Word> &twice = workB_;
        std::fill(once.begin(), once.end(), 0);
        std::fill(twice.begin(), twice.end(), 0);
        std::vector<Span> spans;
        spans.reserve(cubes.size());
        for (size_t c = 0; c < cubes.size(); ++c) {
            spans.push_back(span(cubes[c]));
            const Span &s = spans.back();
            const Word again = repeated[c] ? ~Word{0} : 0;
            s.each([&](uint32_t w) {
                const Word x = on_[w] & s.pattern;
                twice[w] |= (once[w] | again) & x;
                once[w] |= x;
            });
        }

        std::vector<bool> keep(cubes.size(), false);
        for (size_t c = 0; c < cubes.size(); ++c) {
            const Span &s = spans[c];
            keep[c] = s.any([&](uint32_t w) {
                return (on_[w] & s.pattern & ~twice[w]) != 0;
            });
        }

        std::vector<Word> &done = workA_;
        std::fill(done.begin(), done.end(), 0);
        for (size_t c = 0; c < cubes.size(); ++c) {
            if (keep[c]) {
                const Span &s = spans[c];
                s.each([&](uint32_t w) { done[w] |= on_[w] & s.pattern; });
            }
        }
        auto uncovered = [&](const Span &s) {
            size_t count = 0;
            s.each([&](uint32_t w) {
                count += std::popcount(on_[w] & ~done[w] & s.pattern);
            });
            return count;
        };

        size_t remaining = 0;
        for (size_t w = 0; w < words_; ++w)
            remaining += std::popcount(on_[w] & ~done[w]);
        std::vector<size_t> gain(cubes.size(), 0);
        for (size_t c = 0; c < cubes.size(); ++c) {
            if (!keep[c])
                gain[c] = uncovered(spans[c]);
        }

        while (remaining > 0) {
            size_t best = cubes.size();
            for (size_t c = 0; c < cubes.size(); ++c) {
                if (keep[c] || gain[c] == 0)
                    continue;
                if (best == cubes.size() || gain[c] > gain[best])
                    best = c;
            }
            // A cube with positive gain always exists while minterms
            // remain uncovered, because EXPAND/REDUCE preserve coverage;
            // guard against regressions even in NDEBUG builds rather
            // than spin.
            assert(best != cubes.size());
            if (best == cubes.size())
                break;

            keep[best] = true;
            remaining -= gain[best];
            for (size_t c = 0; c < cubes.size(); ++c) {
                if (!keep[c] && gain[c] > 0 &&
                    cubes[c].intersects(cubes[best])) {
                    gain[c] -= uncovered(span(intersection(cubes[c],
                                                           cubes[best])));
                }
            }
            const Span &s = spans[best];
            s.each([&](uint32_t w) { done[w] |= on_[w] & s.pattern; });
        }

        std::vector<Cube> kept;
        for (size_t c = 0; c < cubes.size(); ++c) {
            if (keep[c])
                kept.push_back(cubes[c]);
        }
        return kept;
    }

    /**
     * REDUCE, sequentially against the live cover as in classic
     * Espresso: each cube in turn shrinks to the supercube of the ON
     * minterms no *other current* cube covers, or is dropped when there
     * are none. Shrinking one cube at a time keeps every ON minterm
     * covered throughout; shrinking two cubes "simultaneously" away
     * from a minterm they share would break the cover and deadlock the
     * next IRREDUNDANT pass.
     */
    std::vector<Cube>
    reduce(const std::vector<Cube> &cubes)
    {
        std::vector<Word> &others = workA_;
        std::fill(others.begin(), others.end(), 0);
        std::vector<Cube> current = cubes;
        std::vector<bool> removed(cubes.size(), false);
        for (size_t c = 0; c < current.size(); ++c) {
            // Earlier cubes are already shrunk, later ones not yet.
            for (size_t o = 0; o < current.size(); ++o) {
                if (o == c || removed[o] || !current[o].intersects(current[c]))
                    continue;
                const Span s = span(intersection(current[o], current[c]));
                s.each([&](uint32_t w) { others[w] |= s.pattern; });
            }

            // AND and OR of the minterms only this cube covers; the
            // in-word bits come from the six position masks.
            static constexpr Word PositionBit[WordVars] = {
                0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL,
                0xf0f0f0f0f0f0f0f0ULL, 0xff00ff00ff00ff00ULL,
                0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
            bool any = false;
            uint32_t all_and = ~0U, all_or = 0;
            const Span s = span(current[c]);
            s.each([&](uint32_t w) {
                const Word unique = on_[w] & s.pattern & ~others[w];
                others[w] = 0;
                if (unique == 0)
                    return;
                any = true;
                uint32_t word_and = w << WordVars, word_or = w << WordVars;
                for (int b = 0; b < WordVars; ++b) {
                    if ((unique & ~PositionBit[b]) == 0)
                        word_and |= 1U << b;
                    if ((unique & PositionBit[b]) != 0)
                        word_or |= 1U << b;
                }
                all_and &= word_and;
                all_or |= word_or;
            });

            if (any) {
                // Smallest cube containing the collected minterms:
                // specify the variables on which they all agree.
                const uint32_t agree =
                    ~(all_and ^ all_or) & lowMask(numVars_);
                current[c] = Cube(all_and & agree, agree);
            } else {
                removed[c] = true;
            }
        }

        std::vector<Cube> out;
        for (size_t c = 0; c < current.size(); ++c) {
            if (!removed[c])
                out.push_back(current[c]);
        }
        return out;
    }

  private:
    int numVars_;
    size_t words_;
    std::vector<Word> on_;
    std::vector<Word> off_;
    std::vector<Word> workA_;
    std::vector<Word> workB_;
};

/** Total literal count of a cube list. */
int
costOf(const std::vector<Cube> &cubes)
{
    int cost = 0;
    for (const auto &cube : cubes)
        cost += cube.literals();
    return cost;
}

} // anonymous namespace

Cover
minimizeEspresso(const TruthTable &table, const EspressoOptions &options,
                 bool *exhausted)
{
    AUTOFSM_FAILPOINT("logicmin.espresso");
    if (exhausted)
        *exhausted = false;
    Cover cover(table.numVars());
    const auto &on = table.onSet();
    if (on.empty())
        return cover;

    Planes planes(table);

    std::vector<Cube> cubes;
    cubes.reserve(on.size());
    for (uint32_t m : on)
        cubes.push_back(Cube::minterm(m, table.numVars()));

    std::vector<Cube> best;
    int best_cost = -1;
    bool converged = false;
    for (int iter = 0; iter < options.maxIterations; ++iter) {
        for (auto &cube : cubes)
            cube = planes.expand(cube);
        cubes = planes.irredundant(cubes);

        const int cost = costOf(cubes);
        if (best_cost < 0 || cost < best_cost ||
            (cost == best_cost && cubes.size() < best.size())) {
            best = cubes;
            best_cost = cost;
        } else {
            converged = true; // no improvement this round
            break;
        }

        cubes = planes.reduce(cubes);
    }
    if (exhausted)
        *exhausted = !converged;

    for (const auto &cube : best)
        cover.add(cube);

    // Functional safety net (also active in NDEBUG builds): if a
    // regression ever produced a wrong cover, fall back to the trivial
    // minterm cover rather than return an incorrect function.
    if (!cover.implements(table)) {
        assert(false && "espresso produced a non-implementing cover");
        Cover fallback(table.numVars());
        for (uint32_t m : on)
            fallback.add(Cube::minterm(m, table.numVars()));
        return fallback;
    }
    return cover;
}

} // namespace autofsm
