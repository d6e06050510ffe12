/**
 * @file
 * Regenerates Figures 6 and 7: example custom finite state machines.
 *
 * Figure 6: a branch in ijpeg correlated with the branch two back in
 * global history; the generated machine captures the pattern "1x"
 * (4 states in the paper).
 *
 * Figure 7: a branch in gs whose taken patterns are 0x1x and 0xx1x
 * (11 states in the paper).
 */

#include <iostream>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "fsmgen/markov.hh"
#include "support/rng.hh"

using namespace autofsm;

namespace
{

/**
 * Build a Markov model whose biased histories are exactly those
 * matching any of @p patterns (don't-care positions written 'x').
 */
MarkovModel
modelFromPatterns(int order, const std::vector<std::string> &patterns,
                  double noise, uint64_t seed)
{
    MarkovModel model(order);
    Rng rng(seed);
    std::vector<Cube> cubes;
    for (const auto &text : patterns)
        cubes.push_back(Cube::fromPattern(text));

    for (uint32_t h = 0; h < (1u << order); ++h) {
        bool taken_biased = false;
        for (const auto &cube : cubes)
            taken_biased = taken_biased || cube.contains(h);
        // Simulate 100 profile observations per history with the given
        // noise level, as a real profile of such a branch would yield.
        for (int i = 0; i < 100; ++i) {
            int outcome = taken_biased ? 1 : 0;
            if (rng.chance(noise))
                outcome ^= 1;
            model.observe(h, outcome);
        }
    }
    return model;
}

void
showMachine(const std::string &title, int order,
            const std::vector<std::string> &patterns)
{
    std::cout << "== " << title << " ==\n";
    const MarkovModel model =
        modelFromPatterns(order, patterns, 0.05, 0x5eed);
    FsmDesignOptions options;
    options.order = order;
    options.patterns.dontCareMass = 0.0;
    const FsmDesignResult result = DesignFlow(options).run(model).design;

    std::cout << "target patterns:   ";
    for (const auto &p : patterns)
        std::cout << " " << p;
    std::cout << "\nminimized cover:    " << result.cover.toString()
              << "\nregular expression: " << result.regexText
              << "\nfinal states:       " << result.statesFinal << "\n";
    std::cout << result.fsm.toDot("machine") << "\n";
}

} // anonymous namespace

int
main()
{
    std::cout << "Reproduction of Figures 6 and 7 "
                 "(Sherwood & Calder, ISCA'01)\n\n";
    // Figure 6: ijpeg branch correlated with the branch two back.
    showMachine("Figure 6: ijpeg branch, pattern 1x", 2, {"1x"});
    // Figure 7: gs branch capturing 0x1x and 0xx1x.
    showMachine("Figure 7: gs branch, patterns 0x1x | 0xx1x", 5,
                {"x0x1x", "0xx1x"});
    return 0;
}
