/**
 * @file
 * Regenerates Figure 4: estimated implementation area versus number of
 * states for the custom FSM predictors generated across all branch
 * benchmarks, with the linear trend fit the paper reuses for its later
 * area numbers.
 *
 * Usage: bench_fig4_area [branches_per_run]
 */

#include <cstdlib>
#include <iostream>

#include "sim/figure4.hh"
#include "sim/report.hh"

#include "bench_common.hh"

using namespace autofsm;

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[branches_per_run]");
    Fig4Options options;
    options.branchesPerRun = static_cast<size_t>(
        args.positionalOr(0, static_cast<long>(options.branchesPerRun)));
    if (args.seedSet)
        options.seed = args.seed;
    if (args.threadsSet)
        options.threads = args.threads;

    std::cout << "Reproduction of Figure 4 (Sherwood & Calder, ISCA'01)\n"
              << "training " << options.fsmsPerBenchmark
              << " FSMs per benchmark, history length "
              << options.historyLength << "\n\n";

    const Fig4Result result = runFigure4(options);
    Fig4Report(result).renderText(std::cout);
    bench::exportMetricsIfRequested(args);
    return 0;
}
