/**
 * @file
 * Single-pass multi-order trace profiling (the fast path of Section 4.2).
 *
 * `MarkovModel::train` walks a `std::vector<int>` doing one hash-map
 * lookup per outcome, and an order sweep (figure2/figure4/figure5 train
 * orders 2-10) re-walks the same trace once per order. This engine
 * collapses that cost along two axes:
 *
 *  - **Flat counting kernels.** For order N <= kMaxFlatOrder the counts
 *    live in a dense `2^N` array of `HistoryCounts` indexed by the packed
 *    sliding window, so the hot loop is an array increment: no hashing,
 *    no node allocation, and the window can be extracted directly from
 *    packed 64-outcomes-per-word streams without expanding to a
 *    `vector<int>`. Orders above the cap fall back to the sparse map.
 *
 *  - **Fold-derived order sweeps.** One pass counts at the maximum order
 *    Nmax; every lower order k is then obtained by marginalizing out the
 *    oldest history bit (`counts[h] += counts[h | 1 << (k-1)]`). The fold
 *    identity holds for every position i >= Nmax (whenever the order-Nmax
 *    window is warm, so is every shorter window); the handful of
 *    positions k <= i < Nmax that only the shorter windows observe are
 *    recorded during the pass and replayed exactly in `finish`, so the
 *    derived tables are bit-identical to per-order training.
 *
 * The public `MarkovModel` API (sparse `table()` view included) is
 * unchanged: profiling produces ordinary models, it just builds them
 * faster.
 */

#ifndef AUTOFSM_FSMGEN_PROFILE_HH
#define AUTOFSM_FSMGEN_PROFILE_HH

#include <cstdint>
#include <vector>

#include "fsmgen/markov.hh"
#include "support/bits.hh"

namespace autofsm
{

/** Largest order counted into a dense 2^N array (16 MiB at N = 20). */
constexpr int kMaxFlatOrder = 20;

/** How one profile was built and where its time went. */
struct ProfileBuildStats
{
    double countMillis = 0.0;  ///< counting pass(es) over the trace
    double foldMillis = 0.0;   ///< marginalization down the order ladder
    double replayMillis = 0.0; ///< warm-up edge replay
    bool flat = false;         ///< dense kernel (vs sparse fallback)
    uint64_t observations = 0;       ///< max-order (foldable) observations
    uint64_t warmupObservations = 0; ///< recorded warm-up edge outcomes
};

/**
 * The trained models of one multi-order profiling pass, one per
 * requested order, each bit-identical to `MarkovModel::train` at that
 * order over the same stream(s).
 */
class MultiOrderProfile
{
  public:
    MultiOrderProfile() = default;

    /** The distinct orders available, in decreasing order. */
    const std::vector<int> &orders() const { return orders_; }

    /** The trained model for @p order; asserts it was requested. */
    const MarkovModel &model(int order) const;

    /** Move the model for @p order out of the profile. */
    MarkovModel takeModel(int order);

    const ProfileBuildStats &stats() const { return stats_; }

  private:
    friend class MultiOrderCounter;

    size_t indexOf(int order) const;

    std::vector<int> orders_;
    std::vector<MarkovModel> models_;
    ProfileBuildStats stats_;
};

/**
 * Accumulates outcome streams at a maximum order, then derives the
 * table of every requested lower order by folding.
 *
 * Feed it either whole streams (`consume` / `consumeWords`) or
 * individual outcomes (`observe`, for interleaved streams such as the
 * per-entry correctness histories of the confidence trainer), then call
 * `finish` once. Multiple streams accumulate like training one model on
 * each stream and merging: every stream warms up independently.
 */
class MultiOrderCounter
{
  public:
    /**
     * @param max_order The top of the order ladder, in [1, 24].
     * @throws std::invalid_argument for an order outside that range.
     */
    explicit MultiOrderCounter(int max_order);

    int maxOrder() const { return maxOrder_; }

    /**
     * Record one outcome whose preceding stream history is @p history
     * (packed, bit 0 = most recent) of which @p seen outcomes are real
     * (saturate seen at maxOrder()). Outcomes with seen < maxOrder()
     * are warm-up edges: only orders <= seen observe them, so they are
     * kept aside and replayed per order in finish().
     */
    void
    observe(uint32_t history, int seen, int outcome)
    {
        if (seen >= maxOrder_) {
            HistoryCounts &entry = flat_
                ? dense_[history & mask_]
                : sparse_[history & mask_];
            entry.total += 1;
            entry.ones += static_cast<uint64_t>(outcome);
            ++observations_;
        } else if (seen > 0) {
            warmup_.push_back({history & lowMask(seen),
                               static_cast<uint8_t>(seen),
                               static_cast<uint8_t>(outcome)});
        }
    }

    /** Count one whole stream given as 0/1 ints. */
    void consume(const std::vector<int> &bits);

    /**
     * Count one whole stream given packed 64 outcomes per word, bit
     * (i & 63) of word (i >> 6) being outcome i (a `PackedTrace`'s
     * `takenWords()` layout). This is the no-expansion hot path.
     */
    void consumeWords(const uint64_t *words, size_t bits);

    /**
     * Credit @p millis of counting time: the caller's timed walk of
     * observe() calls. A walk that feeds several counters is credited
     * to one of them, so the count stage is reported once per walk.
     */
    void
    creditCountMillis(double millis)
    {
        countMillis_ += millis;
        countTimed_ = true;
    }

    /**
     * Fold the accumulated counts down to every order of @p orders
     * (each in [1, maxOrder()]; duplicates collapse) and replay the
     * warm-up edges. Terminal: the counter's counts are consumed.
     * The count stage is observed only when it was timed (consume,
     * consumeWords or creditCountMillis ran).
     */
    MultiOrderProfile finish(const std::vector<int> &orders);

  private:
    struct WarmupEntry
    {
        uint32_t history; ///< packed, already masked to `seen` bits
        uint8_t seen;     ///< real outcomes preceding this one
        uint8_t outcome;  ///< 0 or 1
    };

    int maxOrder_;
    uint32_t mask_;
    bool flat_;
    uint64_t observations_ = 0;
    double countMillis_ = 0.0;
    bool countTimed_ = false;
    std::vector<HistoryCounts> dense_;
    std::unordered_map<uint32_t, HistoryCounts> sparse_;
    std::vector<WarmupEntry> warmup_;
};

/**
 * One-call sweep: profile @p bits once at max(orders) and return the
 * per-order models (each bit-identical to training that order alone).
 */
MultiOrderProfile profileBits(const std::vector<int> &bits,
                              const std::vector<int> &orders);

/** One-call sweep over a packed outcome stream (takenWords layout). */
MultiOrderProfile profileWords(const uint64_t *words, size_t bits,
                               const std::vector<int> &orders);

/**
 * Flat-kernel replacement for `MarkovModel(order).train(trace)`:
 * returns a bit-identical model, counted through the dense kernel.
 */
MarkovModel trainMarkovModel(const std::vector<int> &trace, int order);

/** Flat-kernel single-order training over a packed outcome stream. */
MarkovModel trainMarkovModelWords(const uint64_t *words, size_t bits,
                                  int order);

} // namespace autofsm

#endif // AUTOFSM_FSMGEN_PROFILE_HH
