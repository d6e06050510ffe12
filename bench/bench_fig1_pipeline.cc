/**
 * @file
 * Regenerates Figure 1 and the Section 4 worked example: the design
 * flow applied to the trace t = 0000 1000 1011 1101 1110 1111 at
 * history length 2, printing every intermediate artifact, and times the
 * flow with google-benchmark (the paper reports 20s-2min per program on
 * a 500 MHz Alpha; the flow itself is microseconds per machine).
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "synth/vhdl.hh"

using namespace autofsm;

namespace
{

std::vector<int>
paperTrace()
{
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');
    return trace;
}

FsmDesignOptions
paperOptions()
{
    FsmDesignOptions options;
    options.order = 2;
    options.patterns.dontCareMass = 0.0;
    return options;
}

void
printArtifacts()
{
    const FsmDesignResult result =
        DesignFlow(paperOptions()).runOnTrace(paperTrace()).design;

    std::cout << "Reproduction of Figure 1 / Section 4 worked example\n";
    std::cout << "trace t = 0000 1000 1011 1101 1110 1111 (N = 2)\n\n";
    std::cout << "predict-1 histories:";
    for (uint32_t h : result.patterns.predictOne)
        std::cout << " " << toBinary(h, 2);
    std::cout << "\npredict-0 histories:";
    for (uint32_t h : result.patterns.predictZero)
        std::cout << " " << toBinary(h, 2);
    std::cout << "\nminimized cover:     " << result.cover.toString()
              << "\nregular expression:  " << result.regexText << "\n\n";
    std::cout << "states after subset construction: "
              << result.statesSubset << "\n";
    std::cout << "states after Hopcroft:            "
              << result.statesHopcroft << " (Figure 1, left)\n";
    std::cout << "states after start-state removal: "
              << result.statesFinal << " (Figure 1, right)\n\n";
    std::cout << "final machine (DOT):\n"
              << result.fsm.toDot("figure1") << "\n";
    std::cout << "synthesizable VHDL:\n" << toVhdl(result.fsm) << "\n";
}

void
BM_DesignFlowPaperExample(benchmark::State &state)
{
    const std::vector<int> trace = paperTrace();
    const FsmDesignOptions options = paperOptions();
    for (auto _ : state) {
        benchmark::DoNotOptimize(DesignFlow(options).runOnTrace(trace).design);
    }
}
BENCHMARK(BM_DesignFlowPaperExample);

void
BM_DesignFlowHistory9(benchmark::State &state)
{
    // A correlated 9-bit-history trace, the shape Figure 5 trains on.
    std::vector<int> trace;
    int bit = 0;
    for (int i = 0; i < 20000; ++i) {
        bit = (i % 7 == 0) ? 1 - bit : bit;
        trace.push_back(bit);
    }
    FsmDesignOptions options;
    options.order = 9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(DesignFlow(options).runOnTrace(trace).design);
    }
}
BENCHMARK(BM_DesignFlowHistory9);

} // anonymous namespace

int
main(int argc, char **argv)
{
    printArtifacts();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
