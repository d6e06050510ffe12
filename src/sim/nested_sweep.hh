/**
 * @file
 * Nested-index sweep engine: every gshare/LGC/BTB sweep point of one
 * size family serviced by a single pass over the packed trace.
 *
 * The PR 3 batch path (sweepKernelBatch) already shares the trace read
 * across one family's sweep points, but each predictor still computes
 * its own table index per record and every point lives on one serial
 * dependency chain. This engine transposes the remaining per-config
 * work:
 *
 *  - **Index nesting (gshare).** The gshare index at table size 2^L is
 *    ((pc >> 2) ^ (h & lowMask(hb))) & (2^L - 1). Let
 *    hb* = max_i min(hb_i, L_i) over the sweep. When every config
 *    satisfies min(hb_i, L_i) == min(hb*, L_i) — true of any sweep that
 *    ties history length to table size, like Figure 5's — the single
 *    stream F_i = (pc_i >> 2) ^ (h_i & lowMask(hb*)) yields *every*
 *    config's index as F_i & (2^L - 1): one history update and one pc
 *    hash per branch instead of one per (branch x config). Sweeps that
 *    break the precondition fall back to sweepKernelBatch unchanged.
 *  - **SoA counter planes + AVX2 gather.** Per-config 2-bit counters
 *    are laid structure-of-arrays in one concatenated byte plane, so
 *    the per-branch counter reads across all sweep points become one
 *    vpgatherdd (CPUID-dispatched, mirroring bitsliced.cc; scalar
 *    fallback compiled under AUTOFSM_NO_AVX2).
 *  - **Exact residue-class sharding.** Predictions never feed table
 *    indices, so the index stream is a function of the trace alone and
 *    every table cell is an independent 2-bit automaton stepped by the
 *    outcomes at its own positions. Partitioning *cells* by index
 *    residue — class of F = (F & (2^Lmin - 1)) % shards, which every
 *    config's cell index agrees on because the masks nest — splits the
 *    pass into disjoint-state tasks whose tallies sum exactly: results
 *    are bit-identical to the serial kernel for ANY shard count, with
 *    no warm-up at all. The BTB shards the same way on its pc index
 *    residue (entries are independent tag+counter automata).
 *  - **Exact history recovery at trace shards.** The F build itself
 *    shards over word-aligned trace chunks: the gshare history register
 *    at record i is exactly the previous hb* outcomes, read straight
 *    out of the packed outcome words — the degenerate (window = hb*,
 *    always-synchronizing) case of bitsliced.hh's warm-up replay.
 *  - **Branchless LGC.** The local/global chooser's local-history
 *    coupling defeats both index nesting and cell sharding (pattern
 *    counters are indexed by history *values* shared across pc
 *    classes), so LGC points run one per task on
 *    LocalGlobalChooser::step, whose table-driven updates have no
 *    data-dependent branches.
 *
 * Every point's decisions, tallies, name and area match a per-config
 * sweepKernelRaw run of the predictor class (sweep_test and
 * bench_sweep_nested enforce it across shard counts, thread counts,
 * and the scalar/AVX2 kernels).
 */

#ifndef AUTOFSM_SIM_NESTED_SWEEP_HH
#define AUTOFSM_SIM_NESTED_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/simulate.hh"
#include "trace/packed_trace.hh"
#include "synth/area.hh"

namespace autofsm
{

/** The size families one nested pass services. Any family may be
 *  empty; points are returned in the order given here. */
struct NestedSweepRequest
{
    std::vector<GshareConfig> gshare;
    std::vector<LgcConfig> lgc;
    std::vector<BtbConfig> btb;
};

/** Engine knobs; defaults match the calling context's resources. */
struct NestedSweepOptions
{
    /** Cap on the threads running tasks, the caller included (0 = one
     *  per hardware core; 1 = inline serial). Tasks run on the shared
     *  pool (support/thread_pool.hh). */
    unsigned threads = 0;
    /** Residue classes per shardable family (0 = auto from threads;
     *  1 = unsharded). Any value yields bit-identical tallies. */
    size_t shards = 0;
    /** Permit the AVX2 gather when compiled in and CPUID-approved.
     *  False forces the scalar kernel (for differential tests). */
    bool allowSimd = true;
};

/** One evaluated sweep point (same name/area as the predictor class). */
struct NestedSweepPoint
{
    std::string name;
    double area = 0.0;
    BpredSimResult result;
    /** BTB points only: the lookup/hit tallies XScaleBtb keeps. */
    uint64_t lookups = 0;
    uint64_t hits = 0;
};

/** Facts about one engine run, for benches and tests. */
struct NestedSweepStats
{
    /** Whether the AVX2 gather kernel ran (gshare counter stage). */
    bool simd = false;
    /** False when the gshare configs failed the nesting precondition
     *  and the family fell back to sweepKernelBatch. */
    bool gshareNested = true;
    /** Residue classes the gshare counter stage used. */
    size_t gshareShards = 0;
    /** Residue classes the BTB stage used. */
    size_t btbShards = 0;
    /** Word-aligned trace chunks of the F-stream build. */
    size_t historyShards = 0;
    /** Sweep points serviced by this pass (all families). */
    size_t pointsPerPass = 0;
};

/** The request's points, evaluated; per-family vectors parallel the
 *  request's config vectors. */
struct NestedSweepResult
{
    std::vector<NestedSweepPoint> gshare;
    std::vector<NestedSweepPoint> lgc;
    std::vector<NestedSweepPoint> btb;
    NestedSweepStats stats;
};

/** True when the AVX2 gather kernel is compiled in. */
bool nestedSweepSimdCompiled();

/** True when the AVX2 gather kernel is compiled in and CPU-supported. */
bool nestedSweepSimdAvailable();

/**
 * True when @p configs share one index stream (see the file comment):
 * with hb* = max_i min(historyBits_i, log2Entries_i), every config must
 * satisfy min(historyBits_i, log2Entries_i) == min(hb*, log2Entries_i).
 * Trivially true for empty and single-config sweeps.
 */
bool gshareConfigsNest(const std::vector<GshareConfig> &configs);

/**
 * Evaluate every requested sweep point over @p trace in one engine
 * pass. Publishes per-run telemetry for every point (publishBpredRun,
 * plus publishBtbMetrics per BTB point) and the nested-engine
 * sweep-point timing.
 *
 * Results are bit-identical to per-config sweepKernelRaw runs for every
 * (threads, shards, allowSimd) combination.
 *
 * @throws std::length_error like LocalGlobalChooser for LGC
 * log2Entries > 16.
 */
NestedSweepResult nestedSweep(const NestedSweepRequest &request,
                              const PackedTrace &trace,
                              const AreaCosts &costs = {},
                              const NestedSweepOptions &options = {});

} // namespace autofsm

#endif // AUTOFSM_SIM_NESTED_SWEEP_HH
