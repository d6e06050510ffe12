/**
 * @file
 * Process-wide memoizing cache over makeBranchTrace - the one branch-
 * trace cache.
 *
 * makeBranchTrace is deterministic in its (benchmark, input,
 * approx_branches) triple, yet the seed code regenerated the same
 * trace in figure4, figure5, the trainer example and every bench.
 * cachedBranchTrace builds each distinct trace exactly once per
 * process and hands out shared ownership of the immutable result,
 * which every consumer (training, sweep, replay, the daemon's trace
 * refs) reads as is.
 *
 * With a process-wide store installed (store::setGlobalStore), misses
 * first try the disk tier, which wraps the stored container's mapping
 * zero-copy, and freshly generated traces are written through.
 *
 * Thread-safe: concurrent callers of the same key block on one build
 * (the first caller constructs, the rest wait on a shared future), so
 * a parallel benchmark fan-out never duplicates work. Hits and misses
 * are exported as autofsm_trace_cache_{hits,misses}_total.
 *
 * The cache is capped (setBranchTraceCacheCapacity): past the cap, the
 * least-recently-used *completed* entry is evicted — in-flight builds
 * are never dropped, so concurrent callers keep deduplicating — and
 * counted in autofsm_tracecache_evictions_total. Outstanding
 * shared_ptrs to an evicted trace stay valid; only the cache's
 * reference goes away.
 */

#ifndef AUTOFSM_WORKLOADS_TRACE_CACHE_HH
#define AUTOFSM_WORKLOADS_TRACE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "workloads/branch_workloads.hh"

namespace autofsm
{

/** Point-in-time tallies of the process-wide trace cache. */
struct BranchTraceCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
    /** Total dynamic branches held across cached traces. */
    uint64_t cachedBranches = 0;
    /** Completed entries dropped by the LRU cap. */
    uint64_t evictions = 0;
    /** The current cap (entries; 0 = unlimited). */
    size_t capacity = 0;
};

/**
 * The memoized equivalent of makeBranchTrace. The returned trace is
 * shared and immutable; callers must not cast away constness. Throws
 * whatever makeBranchTrace throws (and does not cache the failure).
 */
std::shared_ptr<const PackedTrace>
cachedBranchTrace(const std::string &name, WorkloadInput input,
                  size_t approx_branches = 500000);

/** Current cache tallies (process-wide, monotone hit/miss counts). */
BranchTraceCacheStats branchTraceCacheStats();

/**
 * Cap the cache at @p capacity entries (0 = unlimited). Lowering the
 * cap evicts LRU completed entries immediately. Returns the previous
 * cap. The default is 64 — roughly benchmarks x inputs x a few trace
 * lengths, far above any single experiment's working set.
 */
size_t setBranchTraceCacheCapacity(size_t capacity);

/**
 * Drop every cached trace (outstanding shared_ptrs stay valid) and
 * zero the stats. For tests and cold benchmark passes; production code
 * never needs it.
 *
 * Clearing also drops every memo derived from workload traces (such as
 * Figure 2's per-benchmark confidence models, sim/figure2.hh): each
 * clear bumps workloadTraceGeneration(), and those memos empty
 * themselves on their next lookup when it has moved. A cleared process
 * therefore starts cold without the cache knowing its dependents.
 */
void clearBranchTraceCache();

/**
 * Generation of the workload-trace caches: starts at 0 and is bumped by
 * every clearBranchTraceCache(). A memo derived from workload traces
 * records the generation it was filled under and drops its entries
 * when the generation differs.
 */
uint64_t workloadTraceGeneration();

} // namespace autofsm

#endif // AUTOFSM_WORKLOADS_TRACE_CACHE_HH
