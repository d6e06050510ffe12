/**
 * @file
 * Regenerates Figure 5: misprediction rate versus estimated predictor
 * area for the six branch benchmarks, comparing the XScale baseline,
 * gshare, the local/global chooser (LGC) and the customized FSM
 * architecture (custom-same / custom-diff).
 *
 * Usage: bench_fig5_branch [branches_per_run]
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "sim/figure5.hh"
#include "sim/report.hh"
#include "workloads/branch_workloads.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

/** Smallest area whose miss rate beats (<=) the given rate, or -1. */
double
areaToBeat(const AreaMissSeries &series, double target)
{
    double best = -1.0;
    for (const auto &point : series.points) {
        if (point.missRate <= target &&
            (best < 0.0 || point.area < best)) {
            best = point.area;
        }
    }
    return best;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[branches_per_run]");
    Fig5Options options;
    options.branchesPerRun = static_cast<size_t>(
        args.positionalOr(0, static_cast<long>(options.branchesPerRun)));
    if (args.threadsSet) {
        options.training.threads = args.threads;
        options.sweepThreads = args.threads;
    }

    std::cout << "Reproduction of Figure 5 (Sherwood & Calder, ISCA'01)\n"
              << "branches per run: " << options.branchesPerRun << "\n\n";

    for (const std::string &name : branchBenchmarkNames()) {
        const Fig5Benchmark result = runFigure5(name, options);
        Fig5Report(result).renderText(std::cout);

        // Headline summary rows (Section 7.5 claims).
        const double custom_best =
            result.customDiff.points.empty()
                ? result.xscale.missRate
                : result.customDiff.points.back().missRate;
        const double custom_area =
            result.customDiff.points.empty()
                ? result.xscale.area
                : result.customDiff.points.back().area;
        std::cout << std::fixed << std::setprecision(2)
                  << "summary[" << name << "]: xscale "
                  << result.xscale.missRate * 100.0 << "% @"
                  << std::setprecision(0) << result.xscale.area
                  << " -> custom " << std::setprecision(2)
                  << custom_best * 100.0 << "% @" << std::setprecision(0)
                  << custom_area << "; gshare needs area "
                  << areaToBeat(result.gshare, custom_best)
                  << ", lgc needs area "
                  << areaToBeat(result.lgc, custom_best)
                  << " to match (-1 = never)\n\n";
        std::cout.flush();
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
