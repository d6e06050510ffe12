/**
 * @file
 * fsm2vhdl: a small command-line tool exposing the design flow.
 *
 * Reads history patterns from the command line, builds the minimal
 * predictor FSM that fires on them, and prints Graphviz DOT and
 * synthesizable VHDL - the last mile of the paper's toolchain.
 *
 * Usage: fsm2vhdl [--verilog] PATTERN [PATTERN...]
 *   Patterns are strings over {0,1,x}, oldest outcome first; all must
 *   share one length (the history length N). Example:
 *     fsm2vhdl 0x1x 01xx
 */

#include <iostream>
#include <string>
#include <vector>

#include "automata/dfa.hh"
#include "automata/regex.hh"
#include "logicmin/minimize.hh"
#include "synth/area.hh"
#include "synth/verilog.hh"
#include "synth/vhdl.hh"

using namespace autofsm;

int
main(int argc, char **argv)
{
    std::vector<std::string> patterns;
    bool verilog = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--verilog")
            verilog = true;
        else
            patterns.emplace_back(argv[i]);
    }
    if (patterns.empty()) {
        std::cerr << "usage: fsm2vhdl [--verilog] PATTERN [PATTERN...]\n"
                  << "  e.g. fsm2vhdl 0x1x 01xx\n";
        return 1;
    }

    const size_t width = patterns.front().size();
    for (const auto &pattern : patterns) {
        if (pattern.size() != width || pattern.empty() || width > 16) {
            std::cerr << "error: patterns must share one length "
                         "(1..16)\n";
            return 1;
        }
        for (char c : pattern) {
            if (c != '0' && c != '1' && c != 'x' && c != 'X') {
                std::cerr << "error: patterns use only 0, 1, x\n";
                return 1;
            }
        }
    }

    // Expand the patterns into an exact ON-set, then re-minimize: the
    // user's patterns may overlap or be collapsible.
    const int order = static_cast<int>(width);
    TruthTable table(order);
    for (uint32_t h = 0; h < (1u << order); ++h) {
        for (const auto &pattern : patterns) {
            if (Cube::fromPattern(pattern).contains(h)) {
                table.addOn(h);
                break;
            }
        }
    }
    if (table.onSet().empty()) {
        std::cerr << "error: patterns match nothing\n";
        return 1;
    }
    const Cover cover = minimize(table);

    const Dfa fsm =
        Dfa::fromCover(cover).minimizeHopcroft().steadyStateReduce();

    const AreaEstimate area = estimateFsmArea(fsm);
    std::cout << "minimized patterns: " << cover.toString() << "\n";
    std::cout << "regular expression: " << regexText(cover) << "\n";
    std::cout << "states: " << fsm.numStates() << ", estimated area "
              << area.area << "\n\n";
    std::cout << fsm.toDot("fsm2vhdl") << "\n";
    if (verilog)
        std::cout << toVerilog(fsm) << "\n";
    else
        std::cout << toVhdl(fsm) << "\n";
    return 0;
}
