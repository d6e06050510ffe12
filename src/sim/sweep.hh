/**
 * @file
 * Single-pass sweep simulation engine.
 *
 * The Figure 5 evaluation replays the same dynamic trace once per sweep
 * point (every gshare size, every LGC size, the XScale baseline) and
 * once per custom machine. The hot loops are:
 *
 *  - `sweepKernelRaw<P>`: a templated replay over a PackedTrace that
 *    drives a concrete predictor (XScaleBtb, Gshare, LocalGlobalChooser)
 *    through its header-inline fused `step(pc, taken)`. The classes are
 *    `final`, so the step binds statically and inlines; it makes the
 *    same decisions as the virtual predict/update pair. Figure 5 runs
 *    each gshare and LGC sweep point as its own shared-pool task.
 *  - `replayCustomMachines`: the transposed custom-curve evaluation -
 *    instead of stepping every trained FSM on every record, machines are
 *    compiled into lane groups and replayed together over the packed
 *    outcome bitstream by the bit-sliced engine (sim/bitsliced.hh),
 *    which also shards long traces across workers with exact
 *    warm-up-edge replay at the shard boundaries.
 *
 * Results are bit-identical to per-record virtual simulation; sweep_test
 * checks every kernel against the plain reference predictors.
 */

#ifndef AUTOFSM_SIM_SWEEP_HH
#define AUTOFSM_SIM_SWEEP_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "automata/dfa.hh"
#include "bpred/btb.hh"
#include "bpred/simulate.hh"
#include "trace/packed_trace.hh"
#include "synth/area.hh"

namespace autofsm
{

namespace detail
{

/** Detects a `prefetch(pc)` hint for pc-indexed predictor state. */
template <class P, class = void>
struct HasPrefetch : std::false_type
{};

template <class P>
struct HasPrefetch<
    P, std::void_t<decltype(std::declval<const P &>().prefetch(uint64_t{}))>>
    : std::true_type
{};

/** How many records ahead the kernels hint pc-indexed state. */
inline constexpr size_t kPrefetchDistance = 16;

} // namespace detail

/**
 * RAII timer feeding the per-sweep-point kernel-time histogram. Inert
 * when telemetry is disabled or compiled out.
 */
class SweepPointTimer
{
  public:
    SweepPointTimer();
    ~SweepPointTimer();

    SweepPointTimer(const SweepPointTimer &) = delete;
    SweepPointTimer &operator=(const SweepPointTimer &) = delete;

  private:
    std::chrono::steady_clock::time_point start_;
    bool active_ = false;
};

/**
 * Replay @p trace through @p predictor's fused step, one record at a
 * time, without publishing telemetry. Identical decision sequence to
 * simulateBranchPredictor over the virtual predict/update pair.
 */
template <class P>
BpredSimResult
sweepKernelRaw(P &predictor, const PackedTrace &trace)
{
    BpredSimResult result;
    const size_t n = trace.size();
    result.branches = n;
    const uint64_t *pcs = trace.pcs().data();
    const uint64_t *words = trace.takenWords().data();
    uint64_t mispredicts = 0;
    for (size_t i = 0; i < n; ++i) {
        const bool taken = (words[i >> 6] >> (i & 63)) & 1ULL;
        if constexpr (detail::HasPrefetch<P>::value) {
            if (i + detail::kPrefetchDistance < n)
                predictor.prefetch(pcs[i + detail::kPrefetchDistance]);
        }
        mispredicts += static_cast<uint64_t>(predictor.step(pcs[i], taken));
    }
    result.mispredicts = mispredicts;
    return result;
}

/** One trained machine to replay: its branch and its final FSM. */
struct CustomSweepMachine
{
    uint64_t pc = 0;
    const Dfa *fsm = nullptr;
};

/** Counts feeding a custom area/miss curve (see replayCustomMachines). */
struct CustomReplayCounts
{
    /** Baseline BTB mispredictions over the whole trace. */
    uint64_t btbMissesTotal = 0;
    /** Baseline mispredictions at machine k's branch. */
    std::vector<uint64_t> btbMisses;
    /** Machine k's mispredictions at its branch. */
    std::vector<uint64_t> fsmMisses;
    /** Area of the baseline BTB the counts were taken against. */
    double btbArea = 0.0;
    /** The baseline BTB's name and lookup/hit tallies over the pass.
     *  When the baseline config is also a sweep point over the same
     *  trace, callers derive that point from these instead of running
     *  the BTB chain a second time. */
    std::string btbName;
    uint64_t btbLookups = 0;
    uint64_t btbHits = 0;
};

/**
 * Transposed custom-curve evaluation. One serial baseline pass drives
 * the BTB (a single stateful chain) and records, per machine, where its
 * branch executes and how often the baseline missed it; the machines
 * then replay together over the packed outcome bitstream through the
 * bit-sliced engine (up to 64 per word-op, trace sharded across
 * @p threads workers; @p shards 0 picks a shard count automatically,
 * any value is tally-identical).
 *
 * Counts are bit-identical to the seed loop that stepped every machine
 * on every record.
 */
CustomReplayCounts
replayCustomMachines(const std::vector<CustomSweepMachine> &machines,
                     const PackedTrace &trace, const BtbConfig &btb_config,
                     const AreaCosts &costs, unsigned threads = 0,
                     size_t shards = 0);

/**
 * Baseline-pass artifacts recorded by an earlier profiling stage over
 * the same trace and BTB config (e.g. trainCustomPredictors on the
 * training trace), letting replayCustomMachines skip the serial BTB
 * chain entirely. positions[k] must list machine k's branch positions
 * in trace order; btbMisses[k] its baseline mispredictions there.
 */
struct CustomBaselineProfile
{
    uint64_t btbMissesTotal = 0;
    uint64_t btbLookups = 0;
    uint64_t btbHits = 0;
    double btbArea = 0.0;
    std::string btbName;
    std::vector<uint64_t> btbMisses;
    std::vector<const std::vector<uint32_t> *> positions;
};

/**
 * replayCustomMachines with the baseline pass replaced by recorded
 * artifacts: only the per-machine FSM replays run. Counts are identical
 * to the pass-driven overload because branch positions and baseline
 * misses are functions of the trace and BTB config alone; the BTB
 * telemetry the skipped pass would have published is exported from the
 * recorded tallies.
 */
CustomReplayCounts
replayCustomMachines(const std::vector<CustomSweepMachine> &machines,
                     const PackedTrace &trace,
                     const CustomBaselineProfile &baseline,
                     unsigned threads = 0, size_t shards = 0);

} // namespace autofsm

#endif // AUTOFSM_SIM_SWEEP_HH
