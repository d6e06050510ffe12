/**
 * @file
 * perfbench: the repository's end-to-end benchmark harness.
 *
 *     perfbench --workload fig5-branch|fig2-value|serve-mixed
 *               [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
 *               [--goldens FILE] [--out-dir DIR] [--spawn-time T]
 *               [--setup-only] [--record-goldens]
 *
 * Prints the host facts, a human-readable summary, and as its last line
 * one JSON object {"correct","attempted","failed","metrics"}. run.py
 * builds this binary and wraps it; see README.md for the metrics.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hh"
#include "sim/bitsliced.hh"

namespace
{

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--size full|tiny] [--goldens FILE]"
                 " [--out-dir DIR] [--spawn-time T] [--setup-only]"
                 " [--record-goldens]\n";
    std::exit(2);
}

perfbench::Options
parseArgs(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value());
        } else if (arg == "--trace") {
            options.trace = value() == "1";
        } else if (arg == "--size") {
            const std::string size = value();
            if (size != "full" && size != "tiny")
                usage("--size must be full or tiny");
            options.tiny = size == "tiny";
        } else if (arg == "--goldens") {
            options.goldensPath = value();
        } else if (arg == "--out-dir") {
            options.outDir = value();
        } else if (arg == "--spawn-time") {
            options.spawnTime = std::stod(value());
        } else if (arg == "--setup-only") {
            options.setupOnly = true;
        } else if (arg == "--record-goldens") {
            options.recordGoldens = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    return options;
}

/** JSON number with all its digits; non-finite values print as 0. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
printResult(const perfbench::Result &result)
{
    std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {";
    const char *separator = "";
    for (const auto &[name, metric] : result.metrics) {
        std::cout << separator << "\"" << name << "\": {\"value\": "
                  << number(metric.value) << ", \"unit\": \"" << metric.unit
                  << "\"}";
        separator = ", ";
    }
    std::cout << "}}" << std::endl;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const perfbench::Options options = parseArgs(argc, argv);
    std::cout << "host: nproc=" << std::thread::hardware_concurrency()
              << " avx2_dispatch="
              << (autofsm::bitslicedSimdAvailable() ? "yes" : "no")
              << " build=" << PERFBENCH_BUILD_TYPE << "\n";
    try {
        perfbench::Result result;
        if (options.workload == "fig5-branch" ||
            options.workload == "fig2-value") {
            perfbench::Goldens goldens;
            if (!options.recordGoldens && !options.setupOnly)
                goldens = perfbench::Goldens(options.goldensPath,
                                             options.sizeName());
            result = options.workload == "fig5-branch"
                ? perfbench::runFig5Branch(options, goldens)
                : perfbench::runFig2Value(options, goldens);
        } else if (options.workload == "serve-mixed") {
            result = perfbench::runServeMixed(options);
        } else {
            usage("unknown workload '" + options.workload + "'");
        }
        if (!options.recordGoldens)
            printResult(result);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
