/**
 * @file
 * Cross-item memoization of the design flow's automata tail.
 *
 * Distinct branches (and cross-training folds) frequently produce
 * identical history partitions even when their Markov counts differ —
 * e.g. two loop branches whose tables scale together — so the
 * minimize -> regex -> subset -> Hopcroft -> start-reduce tail
 * would be recomputed on byte-identical inputs. `BatchDesigner`'s
 * per-batch memo only catches *identical models inside one batch*; this
 * process-wide cache is keyed on what the tail actually consumes: the
 * canonical (sorted) predict-one and don't-care sets of the
 * `PatternSets` — predict-zero is the truth table's implicit OFF-set —
 * plus the options that steer the tail (order, minimizer,
 * keepStartupStates).
 *
 * Entries are immutable and shared (`shared_ptr<const>`); a hit
 * hands back bit-identical artifacts to what the miss path computes.
 * Every budget consults the memo, because a finite budget can change a
 * tail only by tripping one of its limits. An entry answers a budget
 * when what computing it used fits each finite limit: its key's ON+DC
 * minterm count within `maxMinterms`, its cover's Thompson state count
 * within `maxNfaStates` and its `statesSubset` within `maxDfaStates`.
 * Otherwise the lookup is a miss and the flow computes, degrading
 * exactly as a run without the memo would. Entries are the products of
 * non-degraded runs, so they do not depend on the budget that stored
 * them. Two kinds of run bypass the memo entirely: one with a failpoint
 * armed (a hit would mask the injected fault the test is driving), and
 * one whose `maxEspressoIterations` is below Espresso's default (an
 * entry does not record the iterations its cover took). A hit costs no
 * time, so the deadline is never what rejects one. Hits and misses are
 * counted in `autofsm_designmemo_{hits,misses}_total`.
 *
 * The memory tier holds at most `designMemoSetCapacity` entries and
 * evicts the least-recently-used one to admit a new key, so a
 * long-running daemon keeps learning its current working set.
 *
 * When a persistent store is installed (`store::setGlobalStore`, e.g.
 * the daemon's `--store-dir`), the memo is write-through: a store also
 * commits the artifact to disk (best effort — an IO failure never fails
 * the design), and a memory miss consults the disk tier before
 * reporting a miss, re-verifying the embedded canonical key and
 * promoting disk hits into the memory memo. Designed FSMs thus survive
 * restarts and are shared between replicas pointed at one directory.
 */

#ifndef AUTOFSM_FLOW_DESIGN_MEMO_HH
#define AUTOFSM_FLOW_DESIGN_MEMO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automata/dfa.hh"
#include "flow/budget.hh"
#include "fsmgen/patterns.hh"
#include "logicmin/cover.hh"
#include "logicmin/minimize.hh"

namespace autofsm
{

/** What the memoized tail depends on, canonicalized. */
struct DesignMemoKey
{
    int order = 0;
    int minimizer = 0; ///< static_cast<int>(MinimizeAlgo)
    bool keepStartupStates = false;
    /** Sorted predict-one set (the truth table's ON-set). */
    std::vector<uint32_t> predictOne;
    /** Sorted don't-care set. */
    std::vector<uint32_t> dontCare;

    bool operator==(const DesignMemoKey &other) const = default;
};

/** Build the key for @p patterns under the given tail options. */
DesignMemoKey designMemoKey(const PatternSets &patterns,
                            MinimizeAlgo minimizer,
                            bool keep_startup_states);

/** The cached artifacts of one tail execution. */
struct DesignMemoEntry
{
    Cover cover = Cover::forInputs(1);
    std::string regexText;
    Dfa beforeReduction;
    Dfa fsm;
    int statesSubset = 0;
    int statesHopcroft = 0;
    int statesFinal = 0;
    /** Stage timings of the run that computed this entry (name,
     *  milliseconds); persisted with the disk artifact, informational. */
    std::vector<std::pair<std::string, double>> stageMillis;
};

/**
 * The key's 64-bit content hash — the address the persistent store
 * files a design artifact under. The full key is embedded alongside the
 * artifact and re-verified on load, so a hash collision reads as a
 * miss, never as a wrong answer.
 */
uint64_t designMemoKeyHash(const DesignMemoKey &key);

/** Point-in-time tallies of the process-wide memo. */
struct DesignMemoStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0; ///< entries admitted to the memory tier
    uint64_t evictions = 0;  ///< entries dropped by the LRU cap
    size_t entries = 0;
    size_t capacity = 0;
};

/**
 * Look @p key up for a run under @p budget; nullptr on a miss. An entry
 * that exists but does not fit the budget (see the file comment) is a
 * miss. Thread-safe. Every call counts one hit or one miss (call only
 * for memo-eligible runs).
 */
std::shared_ptr<const DesignMemoEntry>
designMemoLookup(const DesignMemoKey &key, const FlowBudget &budget = {});

/**
 * Insert @p entry under @p key. A duplicate store (two threads racing
 * on the same key) keeps the first entry; a full memo evicts its
 * least-recently-used entry to make room. Thread-safe.
 */
void designMemoStore(DesignMemoKey key,
                     std::shared_ptr<const DesignMemoEntry> entry);

/** Current tallies (tests and benches). */
DesignMemoStats designMemoStats();

/** Drop every entry and reset the tallies (tests and benches). */
void clearDesignMemo();

/**
 * Change the entry cap (default 4096), evicting least-recently-used
 * entries down to it. 0 disables the memory tier.
 */
void designMemoSetCapacity(size_t capacity);

} // namespace autofsm

#endif // AUTOFSM_FLOW_DESIGN_MEMO_HH
