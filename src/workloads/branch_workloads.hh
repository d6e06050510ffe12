/**
 * @file
 * Synthetic branch workloads.
 *
 * Stand-ins for the paper's ATOM-traced binaries (SPEC95 compress,
 * ijpeg, vortex; MediaBench gsm, g721, gs). Each benchmark is a small
 * program model: a fixed round of static branch sites executed
 * repeatedly, where each site follows one of a few behavior archetypes
 * (biased-random, loop exit, globally-correlated, local pattern). The
 * archetype mixes are chosen so that each benchmark's qualitative
 * profile matches what the paper reports for the real program (see
 * DESIGN.md Section 2). Every benchmark has two inputs (train/test) that
 * share structure but differ in seed and data-dependent parameters, for
 * the custom-same vs custom-diff comparison.
 */

#ifndef AUTOFSM_WORKLOADS_BRANCH_WORKLOADS_HH
#define AUTOFSM_WORKLOADS_BRANCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "trace/packed_trace.hh"

namespace autofsm
{

/** Which of the two synthetic inputs to run a benchmark with. */
enum class WorkloadInput
{
    Train, ///< input used for profiling / FSM training
    Test,  ///< distinct input used for reporting (custom-diff)
};

/** Names of the six branch benchmarks, in the paper's order. */
const std::vector<std::string> &branchBenchmarkNames();

/**
 * Generate a dynamic branch trace of roughly @p approx_branches events
 * for benchmark @p name (must be one of branchBenchmarkNames()).
 *
 * Deterministic: the same (name, input, approx_branches) triple always
 * yields the same trace.
 */
PackedTrace makeBranchTrace(const std::string &name, WorkloadInput input,
                            size_t approx_branches = 500000);

} // namespace autofsm

#endif // AUTOFSM_WORKLOADS_BRANCH_WORKLOADS_HH
