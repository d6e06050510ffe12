/**
 * @file
 * The Espresso-style EXPAND / IRREDUNDANT / REDUCE loop over explicit
 * minterm lists, used only as the test oracle.
 *
 * Each pass is written the direct way: EXPAND tests every widened cube
 * against the whole OFF list, IRREDUNDANT keeps a list of covering
 * cubes per ON minterm, and REDUCE keeps a live cover count per ON
 * minterm. The library's minimizeEspresso asks the same set questions
 * of 2^N-bit planes; the tests require both to return the same cubes
 * in the same order.
 */

#ifndef AUTOFSM_TESTS_REFERENCE_MINIMIZERS_HH
#define AUTOFSM_TESTS_REFERENCE_MINIMIZERS_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "logicmin/cover.hh"
#include "logicmin/espresso.hh"
#include "logicmin/truth_table.hh"

namespace autofsm::reference
{

/** Every minterm of @p table outside ON and DC, ascending. */
inline std::vector<uint32_t>
offSet(const TruthTable &table)
{
    std::vector<uint32_t> off;
    const uint32_t limit = 1U << table.numVars();
    for (uint32_t m = 0; m < limit; ++m) {
        if (!table.isOn(m) && !table.isDontCare(m))
            off.push_back(m);
    }
    return off;
}

/** True iff @p cube contains any minterm of the explicit @p off set. */
inline bool
hitsOffSet(const Cube &cube, const std::vector<uint32_t> &off)
{
    for (uint32_t m : off) {
        if (cube.contains(m))
            return true;
    }
    return false;
}

/** EXPAND one cube: drop each literal, lowest first, that keeps the
 *  cube inside ON plus DC. */
inline Cube
expand(Cube cube, const std::vector<uint32_t> &off, int num_vars)
{
    for (int bit = 0; bit < num_vars; ++bit) {
        const uint32_t flag = 1U << bit;
        if (!(cube.mask & flag))
            continue;
        Cube widened(cube.value & ~flag, cube.mask & ~flag);
        if (!hitsOffSet(widened, off))
            cube = widened;
    }
    return cube;
}

/**
 * IRREDUNDANT: keep cubes that uniquely cover some ON minterm, then
 * repeatedly keep the first cube covering the most still-uncovered ON
 * minterms until every ON minterm is covered.
 */
inline std::vector<Cube>
irredundant(const std::vector<Cube> &cubes, const std::vector<uint32_t> &on)
{
    std::vector<std::vector<size_t>> covering(on.size());
    std::vector<size_t> gain(cubes.size(), 0);
    for (size_t m = 0; m < on.size(); ++m) {
        for (size_t c = 0; c < cubes.size(); ++c) {
            if (cubes[c].contains(on[m])) {
                covering[m].push_back(c);
                ++gain[c];
            }
        }
        assert(!covering[m].empty());
    }

    std::vector<bool> keep(cubes.size(), false);
    std::vector<bool> done(on.size(), false);
    size_t remaining = on.size();

    auto absorb = [&](size_t cube_idx) {
        keep[cube_idx] = true;
        for (size_t m = 0; m < on.size(); ++m) {
            if (!done[m] && cubes[cube_idx].contains(on[m])) {
                done[m] = true;
                --remaining;
                for (size_t c : covering[m])
                    --gain[c];
            }
        }
    };

    for (size_t m = 0; m < on.size(); ++m) {
        if (covering[m].size() == 1 && !keep[covering[m][0]])
            absorb(covering[m][0]);
    }

    while (remaining > 0) {
        size_t best = cubes.size();
        for (size_t c = 0; c < cubes.size(); ++c) {
            if (keep[c] || gain[c] == 0)
                continue;
            if (best == cubes.size() || gain[c] > gain[best])
                best = c;
        }
        assert(best != cubes.size());
        if (best == cubes.size())
            break;
        absorb(best);
    }

    std::vector<Cube> kept;
    for (size_t c = 0; c < cubes.size(); ++c) {
        if (keep[c])
            kept.push_back(cubes[c]);
    }
    return kept;
}

/**
 * REDUCE, sequentially against the live cover: each cube shrinks to the
 * supercube of the ON minterms no other current cube covers, or is
 * dropped when there are none.
 */
inline std::vector<Cube>
reduce(const std::vector<Cube> &cubes, const std::vector<uint32_t> &on,
       int num_vars)
{
    std::vector<int> cover_count(on.size(), 0);
    for (size_t m = 0; m < on.size(); ++m) {
        for (const auto &cube : cubes)
            cover_count[m] += cube.contains(on[m]);
    }

    std::vector<Cube> current = cubes;
    std::vector<bool> removed(cubes.size(), false);
    for (size_t c = 0; c < current.size(); ++c) {
        bool any = false;
        uint32_t all_and = 0, all_or = 0;
        for (size_t m = 0; m < on.size(); ++m) {
            if (cover_count[m] != 1 || !current[c].contains(on[m]))
                continue;
            if (!any) {
                all_and = on[m];
                all_or = on[m];
                any = true;
            } else {
                all_and &= on[m];
                all_or |= on[m];
            }
        }

        Cube replacement;
        if (any) {
            const uint32_t agree = ~(all_and ^ all_or) & lowMask(num_vars);
            replacement = Cube(all_and & agree, agree);
        } else {
            removed[c] = true;
        }

        for (size_t m = 0; m < on.size(); ++m) {
            if (!current[c].contains(on[m]))
                continue;
            const bool still = !removed[c] && replacement.contains(on[m]);
            if (!still)
                --cover_count[m];
        }
        if (!removed[c])
            current[c] = replacement;
    }

    std::vector<Cube> out;
    for (size_t c = 0; c < current.size(); ++c) {
        if (!removed[c])
            out.push_back(current[c]);
    }
    return out;
}

/** Total literal count of a cube list. */
inline int
costOf(const std::vector<Cube> &cubes)
{
    int cost = 0;
    for (const auto &cube : cubes)
        cost += cube.literals();
    return cost;
}

/**
 * The minimizer loop: EXPAND every cube, IRREDUNDANT, keep the cover if
 * it is cheaper (fewer literals, then fewer cubes) than the best so far,
 * otherwise stop; REDUCE and go round again, at most
 * @p options.maxIterations times.
 */
inline Cover
minimizeEspresso(const TruthTable &table, const EspressoOptions &options = {})
{
    Cover cover(table.numVars());
    const auto &on = table.onSet();
    if (on.empty())
        return cover;

    const std::vector<uint32_t> off = offSet(table);

    std::vector<Cube> cubes;
    cubes.reserve(on.size());
    for (uint32_t m : on)
        cubes.push_back(Cube::minterm(m, table.numVars()));

    std::vector<Cube> best;
    int best_cost = -1;
    for (int iter = 0; iter < options.maxIterations; ++iter) {
        for (auto &cube : cubes)
            cube = expand(cube, off, table.numVars());
        cubes = irredundant(cubes, on);

        const int cost = costOf(cubes);
        if (best_cost < 0 || cost < best_cost ||
            (cost == best_cost && cubes.size() < best.size())) {
            best = cubes;
            best_cost = cost;
        } else {
            break;
        }

        cubes = reduce(cubes, on, table.numVars());
    }

    for (const auto &cube : best)
        cover.add(cube);
    return cover;
}

} // namespace autofsm::reference

#endif // AUTOFSM_TESTS_REFERENCE_MINIMIZERS_HH
