/**
 * @file
 * Branch behavior traces.
 *
 * The unit of exchange between workload models and the branch-prediction
 * simulators: a time-ordered sequence of (pc, outcome) records, the same
 * information an ATOM/Pin-style instrumentation pass would deliver. It
 * is held in one structure-of-arrays form from generation to replay: a
 * contiguous pc array plus outcomes packed 64 per machine word. A full
 * 400k-branch trace takes ~3.3 MB, and the outcome stream alone - all a
 * custom FSM replay needs - ~50 KB.
 */

#ifndef AUTOFSM_TRACE_PACKED_TRACE_HH
#define AUTOFSM_TRACE_PACKED_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace autofsm
{

/** One dynamic conditional branch. */
struct BranchRecord
{
    uint64_t pc = 0;  ///< static branch address
    bool taken = false;
};

/**
 * Immutable view of one dynamic branch trace.
 *
 * The arrays live behind a shared owner, so the view is cheap to copy
 * and can borrow storage it did not build: PackedTraceBuilder hands
 * over fresh arrays, while the trace cache's disk tier wraps an mmap'd
 * store container in place - a disk load is zero-copy.
 */
class PackedTrace
{
  public:
    /** Sequential access, one BranchRecord by value per step. */
    class Iterator
    {
      public:
        Iterator(const uint64_t *pcs, const uint64_t *taken_words,
                 size_t index)
            : pcs_(pcs), taken_(taken_words), index_(index)
        {
        }

        BranchRecord
        operator*() const
        {
            return {pcs_[index_],
                    ((taken_[index_ >> 6] >> (index_ & 63)) & 1ULL) != 0};
        }

        Iterator &
        operator++()
        {
            ++index_;
            return *this;
        }

        bool operator!=(const Iterator &other) const
        {
            return index_ != other.index_;
        }

      private:
        const uint64_t *pcs_;
        const uint64_t *taken_;
        size_t index_;
    };

    PackedTrace() = default;

    /**
     * Borrow @p pcs and @p taken_words (takenWords() layout, sized for
     * pcs.size() records) without copying; @p owner keeps them alive
     * for this view's lifetime.
     */
    PackedTrace(std::span<const uint64_t> pcs,
                std::span<const uint64_t> taken_words,
                std::shared_ptr<const void> owner)
        : pcs_(pcs), taken_(taken_words), owner_(std::move(owner))
    {
    }

    size_t size() const { return pcs_.size(); }
    bool empty() const { return pcs_.empty(); }

    uint64_t pc(size_t i) const { return pcs_[i]; }

    /** Outcome of record @p i (true = taken). */
    bool
    taken(size_t i) const
    {
        return (taken_[i >> 6] >> (i & 63)) & 1ULL;
    }

    Iterator begin() const { return {pcs_.data(), taken_.data(), 0}; }
    Iterator end() const { return {pcs_.data(), taken_.data(), size()}; }

    /** The contiguous pc array (size() entries). */
    std::span<const uint64_t> pcs() const { return pcs_; }

    /**
     * The outcome bitvector: bit (i & 63) of word (i >> 6) is record
     * i's direction. Trailing bits of the last word are zero.
     */
    std::span<const uint64_t> takenWords() const { return taken_; }

  private:
    std::span<const uint64_t> pcs_;
    std::span<const uint64_t> taken_;
    /** Whatever keeps the spans alive (builder arrays or a mapping). */
    std::shared_ptr<const void> owner_;
};

/**
 * The one way to write a PackedTrace: reserve, push records in program
 * order, finish. Workload generation and hand-written test traces both
 * go through it.
 */
class PackedTraceBuilder
{
  public:
    /** Reserve room for @p records records up front. */
    explicit PackedTraceBuilder(size_t records = 0);

    void
    push(uint64_t pc, bool taken)
    {
        const size_t i = pcs_.size();
        pcs_.push_back(pc);
        if ((i & 63) == 0)
            taken_.push_back(0);
        taken_.back() |= uint64_t{taken ? 1U : 0U} << (i & 63);
    }

    size_t size() const { return pcs_.size(); }

    /** Hand the records over as an immutable trace (the builder empties). */
    PackedTrace finish();

  private:
    std::vector<uint64_t> pcs_;
    std::vector<uint64_t> taken_;
};

/**
 * An outcome stream without its pcs: @c bits outcomes in
 * PackedTrace::takenWords layout; @c owner keeps @c words alive. It is
 * all a Markov profile or a custom-FSM replay reads of a trace.
 */
struct OutcomeWords
{
    std::span<const uint64_t> words;
    size_t bits = 0;
    std::shared_ptr<const void> owner;
};

/** Per-static-branch execution summary. */
struct BranchProfileEntry
{
    uint64_t executions = 0;
    uint64_t taken = 0;
};

/** Static-branch profile: pc -> summary, ordered by pc. */
using BranchProfile = std::map<uint64_t, BranchProfileEntry>;

/** Summarize @p trace per static branch. */
BranchProfile profileTrace(const PackedTrace &trace);

} // namespace autofsm

#endif // AUTOFSM_TRACE_PACKED_TRACE_HH
