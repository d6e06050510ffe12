/**
 * @file
 * Benchmark-harness shims over the one branch-trace representation.
 *
 * Traces are generated, cached and consumed as PackedTrace
 * (trace/packed_trace.hh, workloads/trace_cache.hh); there is no second
 * packed copy to memoize any more. The two functions below are kept
 * only because the benchmark harness still calls them, and go with the
 * next change to the benchmark. New code must not use them.
 */

#ifndef AUTOFSM_SIM_PACKED_TRACE_HH
#define AUTOFSM_SIM_PACKED_TRACE_HH

#include <memory>

#include "trace/packed_trace.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{

/** Benchmark-harness shim: a cached trace is already packed. */
inline std::shared_ptr<const PackedTrace>
cachedPackedTrace(std::shared_ptr<const PackedTrace> trace)
{
    return trace;
}

/** Benchmark-harness shim: the packing memo is the branch-trace cache. */
inline void
clearPackedTraceCache()
{
    clearBranchTraceCache();
}

} // namespace autofsm

#endif // AUTOFSM_SIM_PACKED_TRACE_HH
