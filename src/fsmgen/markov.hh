/**
 * @file
 * Nth-order Markov model of a binary behavior trace (Section 4.2).
 *
 * The model records, for each length-N history actually seen in the
 * trace, how often the next bit was 1. Storage is sparse: per-branch
 * models see only a tiny fraction of the 2^N possible histories (the
 * paper compresses its tables the same way, "only storing non-zero
 * entries").
 */

#ifndef AUTOFSM_FSMGEN_MARKOV_HH
#define AUTOFSM_FSMGEN_MARKOV_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/bits.hh"
#include "support/history.hh"

namespace autofsm
{

/** Counts attached to one history pattern. */
struct HistoryCounts
{
    uint64_t ones = 0;  ///< times the next bit was 1
    uint64_t total = 0; ///< times the history was seen with a next bit
};

/** Sparse Nth-order Markov model over the binary alphabet. */
class MarkovModel
{
  public:
    /**
     * @param order History length N, in [1, 24].
     * @throws std::invalid_argument for an order outside that range.
     */
    explicit MarkovModel(int order);

    int order() const { return order_; }

    /**
     * Record that @p history (packed, bit 0 = most recent outcome) was
     * followed by @p outcome.
     */
    void observe(uint32_t history, int outcome);

    /**
     * Bulk form of observe: add @p ones one-outcomes out of @p total
     * observations of @p history in one step. Used by the profiling
     * engine (fsmgen/profile.hh) to convert dense count arrays into the
     * sparse table; a no-op when total is zero.
     */
    void addCounts(uint32_t history, uint64_t ones, uint64_t total);

    /**
     * Convenience trainer: slide a length-N window across @p trace and
     * observe every (history, next-bit) pair. The first N bits only warm
     * the window up, exactly as in the paper's worked example.
     */
    void train(const std::vector<int> &trace);

    /** P[next = 1 | history]; 0.5 for histories never observed. */
    double probabilityOne(uint32_t history) const;

    /** Counts for @p history; zeros if never observed. */
    HistoryCounts counts(uint32_t history) const;

    /** Number of distinct histories observed. */
    size_t distinctHistories() const { return table_.size(); }

    /** Total observations across all histories. */
    uint64_t totalObservations() const { return total_; }

    /**
     * Approximate heap footprint of the sparse table, bytes (buckets
     * plus nodes). Feeds the autofsm_profile_table_bytes gauge.
     */
    size_t
    approxTableBytes() const
    {
        // Node-based map: one bucket pointer per bucket plus, per entry,
        // the payload pair and roughly two pointers of node overhead.
        return table_.bucket_count() * sizeof(void *) +
            table_.size() *
            (sizeof(std::pair<const uint32_t, HistoryCounts>) +
             2 * sizeof(void *));
    }

    /**
     * Merge another model of the same order into this one.
     * @throws std::invalid_argument when the orders differ (the tables
     *         would mix history widths); this model is left unchanged.
     */
    void merge(const MarkovModel &other);

    /** Read-only view of the sparse table. */
    const std::unordered_map<uint32_t, HistoryCounts> &
    table() const
    {
        return table_;
    }

  private:
    int order_;
    uint64_t total_ = 0;
    std::unordered_map<uint32_t, HistoryCounts> table_;
};

/**
 * Publish the autofsm_profile_distinct_histories and
 * autofsm_profile_table_bytes gauges for @p model, making profiling
 * memory visible in the metrics export. Implemented in profile.cc
 * (where the profiling telemetry lives); called by merge() and by the
 * multi-order profiler when it finishes a table.
 */
void publishMarkovTableGauges(const MarkovModel &model);

} // namespace autofsm

#endif // AUTOFSM_FSMGEN_MARKOV_HH
