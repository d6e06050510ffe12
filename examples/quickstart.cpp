/**
 * @file
 * Quickstart: the paper's Section 4 worked example, end to end.
 *
 * Takes the behavior trace t = 0000 1000 1011 1101 1110 1111, builds the
 * second-order Markov model, partitions the histories, minimizes the
 * "predict 1" set, converts it into a regular expression and then into
 * the final predictor FSM (Figure 1), simulates the predictor on the
 * trace, and emits Graphviz DOT and synthesizable VHDL.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iomanip>
#include <iostream>

#include "flow/design_flow.hh"
#include "fsmgen/predictor_fsm.hh"
#include "synth/area.hh"
#include "synth/vhdl.hh"

using namespace autofsm;

int
main()
{
    // --- 1. The behavior trace (Section 4.2) ---------------------------
    std::vector<int> trace;
    for (char c : std::string("000010001011110111101111"))
        trace.push_back(c == '1');

    // --- 2. Run the automated design flow ------------------------------
    // DesignFlow is the stage-oriented front door: run.design holds the
    // artifacts, run.trace the per-stage observations.
    FsmDesignOptions options;
    options.order = 2;                  // history length N
    options.patterns.threshold = 0.5;   // predict 1 when P[1|h] >= 1/2
    options.patterns.dontCareMass = 0.0; // keep every history specified
    const DesignFlow flow(options);
    const FlowResult run = flow.runOnTrace(trace);
    const FsmDesignResult &result = run.design;

    std::cout << "trace: 0000 1000 1011 1101 1110 1111 (N = "
              << options.order << ")\n\n";

    // --- 3. Inspect every stage of the flow ----------------------------
    MarkovModel model(options.order);
    model.train(trace);
    std::cout << "Markov model:\n";
    for (uint32_t h = 0; h < 4; ++h) {
        std::cout << "  P[1|" << toBinary(h, 2)
                  << "] = " << model.counts(h).ones << "/"
                  << model.counts(h).total << "\n";
    }

    std::cout << "\nstage trace (wall clock per pipeline stage):\n";
    for (const auto &stage : run.trace.stages()) {
        std::cout << "  " << std::setw(12) << std::left
                  << flowStageName(stage.stage) << std::right << std::fixed
                  << std::setprecision(3) << std::setw(9) << stage.millis
                  << " ms   " << stage.metric << " " << stage.metricName
                  << "\n";
    }
    std::cout.unsetf(std::ios::fixed);

    std::cout << "\npredict-1 set:  ";
    for (uint32_t h : result.patterns.predictOne)
        std::cout << toBinary(h, 2) << " ";
    std::cout << "\npredict-0 set:  ";
    for (uint32_t h : result.patterns.predictZero)
        std::cout << toBinary(h, 2) << " ";
    std::cout << "\nminimized:      " << result.cover.toString() << "\n";
    std::cout << "regex:          " << result.regexText << "\n";
    std::cout << "states:         " << result.statesSubset
              << " (subset) -> " << result.statesHopcroft
              << " (Hopcroft) -> " << result.statesFinal
              << " (start-state reduction)\n";

    // --- 4. Use the machine as a live predictor ------------------------
    PredictorFsm predictor(result.fsm);
    int correct = 0, total = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        if (i >= static_cast<size_t>(options.order)) {
            correct += predictor.predict() == trace[i];
            ++total;
        }
        predictor.update(trace[i]);
    }
    std::cout << "\nsimulated on t: " << correct << "/" << total
              << " predictions correct\n";

    // --- 5. Hardware artifacts ------------------------------------------
    const AreaEstimate area = estimateFsmArea(result.fsm);
    std::cout << "estimated area: " << area.area << " units ("
              << area.flops << " flops, " << area.terms << " terms)\n\n";
    std::cout << "Graphviz:\n" << result.fsm.toDot("quickstart") << "\n";
    std::cout << "VHDL:\n" << toVhdl(result.fsm) << "\n";
    return 0;
}
