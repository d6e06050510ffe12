/**
 * @file
 * Bit-sliced multi-machine FSM replay over a packed outcome bitstream.
 *
 * The sweep engine (sim/sweep.hh) replays trained machines one at a
 * time: each replay is a single dependent chain of table lookups, so a
 * core spends most of the loop waiting on L1 latency. This engine
 * transposes the problem: machines are packed into *lane groups* of up
 * to 64 (one lane per bit of the machine word), their 4-outcome nibble
 * composition tables are laid side by side in one plane, and a single
 * pass over the `PackedTrace` outcome words advances every lane of a
 * group per word. The per-lane chains are independent, so the
 * out-of-order window overlaps dozens of lookups where the scalar path
 * had one in flight — that cross-machine parallelism, not vector
 * arithmetic, is where the throughput comes from. An AVX2 path
 * (runtime-dispatched via CPUID, compile-time guarded by
 * AUTOFSM_NO_AVX2) additionally performs the state-indexed table walk
 * as 8-lane gathers.
 *
 * Each lane replays in one of two modes, and both take the same
 * word-parallel lookup: a lane's composition table holds one plane per
 * (4-bit sample mask, 4-bit outcome nibble) pair, each entry packing
 * the next state with the number of mispredictions counted only at the
 * masked bits. Per word, each lane derives a 64-bit sample mask —
 *
 *  - **sparse** — bits set at the lane's branch positions inside the
 *    word, exactly replayCustomMachines' counting;
 *  - **dense** — all-ones (`positions == nullptr`), used by the batch
 *    evaluation stage to predict at every record
 *
 * — so prediction positions cost the same nibble lookups as a plain
 * advance and no word ever falls back to per-bit stepping (only the
 * trace's partial final word does).
 *
 * Long traces additionally shard across the shared pool: word-aligned
 * shards, each started from the *exact* machine state at its boundary.
 * The boundary state is recovered by replaying an all-states vector
 * over a warm-up window ending at the boundary — if every start state
 * converges to one state, that state must equal the true one (the true
 * pre-window state is among the starts), and the window grows
 * geometrically until convergence. Machines that never converge
 * (non-synchronizing automata, e.g. parity counters) fall back to one
 * unsharded replay. Per-shard tallies merge by plain summation over an
 * exact partition of the trace, so results are bit-identical to the
 * serial path for every shard and thread count.
 */

#ifndef AUTOFSM_SIM_BITSLICED_HH
#define AUTOFSM_SIM_BITSLICED_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "automata/dfa.hh"
#include "trace/packed_trace.hh"

namespace autofsm
{

/** One machine to replay over the shared outcome bitstream. */
struct BitslicedMachine
{
    const Dfa *fsm = nullptr;
    /**
     * Trace positions (ascending record indices) where this machine
     * predicts; nullptr selects dense mode (predict at every record).
     * An empty vector is a valid sparse machine that never predicts.
     */
    const std::vector<uint32_t> *positions = nullptr;
};

/** Replay knobs; the defaults match the calling context's resources. */
struct BitslicedOptions
{
    /** Cap on the threads running shard/group tasks, the caller
     *  included (0 = one per hardware core; 1 = inline serial). Tasks
     *  run on the shared pool (support/thread_pool.hh). */
    unsigned threads = 0;
    /** Trace shards (0 = auto from threads and length; 1 = unsharded).
     *  Any value yields bit-identical tallies. */
    size_t shards = 0;
    /** Permit the AVX2 kernel when compiled in and CPUID-approved.
     *  False forces the scalar lane kernel (for differential tests). */
    bool allowSimd = true;
};

/** Facts about one engine run, for benches and tests. */
struct BitslicedReplayStats
{
    /** Lane groups formed (ceil(lanes / 64)). */
    size_t groups = 0;
    /** Shards the trace was split into. */
    size_t shards = 0;
    /** Whether the AVX2 kernel ran. */
    bool simd = false;
    /** Machines replayed serially instead: too many states for a lane
     *  (> 256) or warm-up never converged (non-synchronizing). */
    size_t serialFallbacks = 0;
};

/** True when the AVX2 kernel is compiled in (not AUTOFSM_NO_AVX2). */
bool bitslicedSimdCompiled();

/** True when the AVX2 kernel is compiled in and this CPU supports it. */
bool bitslicedSimdAvailable();

/**
 * Replay every machine over the packed outcome words (bit i of word
 * i>>6 is record i's outcome, trailing bits of the last word zero) and
 * return per-machine miss counts in input order. Counts are
 * bit-identical to stepping each machine serially record by record,
 * for every (threads, shards, allowSimd) combination.
 *
 * @throws std::invalid_argument on a null fsm or an empty machine.
 */
std::vector<uint64_t>
replayMachinesBitsliced(const std::vector<BitslicedMachine> &machines,
                        const uint64_t *words, size_t records,
                        const BitslicedOptions &options = {},
                        BitslicedReplayStats *stats = nullptr);

/** Convenience overload over a PackedTrace's outcome bitvector. */
std::vector<uint64_t>
replayMachinesBitsliced(const std::vector<BitslicedMachine> &machines,
                        const PackedTrace &trace,
                        const BitslicedOptions &options = {},
                        BitslicedReplayStats *stats = nullptr);

/**
 * Pack a 0/1 outcome stream into the engine's word form (64 outcomes
 * per word, LSB-first; trailing bits zero). The inline-outcome form of
 * DesignRequest feeds the evaluation stage through this.
 */
std::vector<uint64_t> packOutcomeWords(const std::vector<int> &outcomes);

} // namespace autofsm

#endif // AUTOFSM_SIM_BITSLICED_HH
