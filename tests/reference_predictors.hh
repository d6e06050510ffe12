/**
 * @file
 * Plain reference implementations of the Figure 5 baseline predictors,
 * used only as the test oracle.
 *
 * These are the straightforward forms: one SudCounter object per 2-bit
 * counter, separate local/global/chooser tables, and predict/update as
 * two independent calls. The production classes in src/bpred pack the
 * same state into bytes and fuse predict+update into one `step`; the
 * tests require both to agree on every decision, name, area and BTB
 * tally.
 */

#ifndef AUTOFSM_TESTS_REFERENCE_PREDICTORS_HH
#define AUTOFSM_TESTS_REFERENCE_PREDICTORS_HH

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "bpred/btb.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/predictor.hh"
#include "support/bits.hh"
#include "support/sud_counter.hh"
#include "synth/area.hh"

namespace autofsm::reference
{

/** Direct-mapped BTB with a 2-bit counter per entry. */
class XScaleBtb final : public BranchPredictor
{
  public:
    explicit XScaleBtb(const BtbConfig &config = {},
                       const AreaCosts &costs = {})
        : config_(config), costs_(costs),
          entries_(static_cast<size_t>(config.entries))
    {
        assert(config.entries > 0 &&
               (config.entries & (config.entries - 1)) == 0);
    }

    bool
    predict(uint64_t pc) const override
    {
        lookups_.fetch_add(1, std::memory_order_relaxed);
        const Entry &entry = entries_[indexOf(pc)];
        if (!entry.valid || entry.tag != tagOf(pc))
            return false; // BTB miss: predict not-taken
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry.counter.predict();
    }

    void
    update(uint64_t pc, bool taken) override
    {
        Entry &entry = entries_[indexOf(pc)];
        if (entry.valid && entry.tag == tagOf(pc)) {
            entry.counter.update(taken);
            return;
        }
        // Allocate on first contact (or conflict): bias towards the
        // observed direction, starting from the weak state.
        entry.valid = true;
        entry.tag = tagOf(pc);
        entry.counter = SudCounter(SudConfig::twoBit(), taken ? 2 : 1);
    }

    double
    area() const override
    {
        return tableArea(
            static_cast<double>(config_.tagBits + config_.targetBits + 2) *
                config_.entries,
            costs_);
    }

    std::string
    name() const override
    {
        return "xscale-btb" + std::to_string(config_.entries);
    }

    uint64_t
    lookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }

    uint64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        SudCounter counter{SudConfig::twoBit(), 1};
    };

    size_t
    indexOf(uint64_t pc) const
    {
        // Branches are 4-byte aligned in the synthetic traces.
        return static_cast<size_t>(
            (pc >> 2) & static_cast<uint64_t>(config_.entries - 1));
    }

    uint64_t
    tagOf(uint64_t pc) const
    {
        const int index_bits =
            ceilLog2(static_cast<uint32_t>(config_.entries));
        return (pc >> (2 + index_bits)) & lowMask(config_.tagBits);
    }

    BtbConfig config_;
    AreaCosts costs_;
    std::vector<Entry> entries_;
    mutable std::atomic<uint64_t> lookups_{0};
    mutable std::atomic<uint64_t> hits_{0};
};

/** Gshare: 2-bit counters indexed by PC XOR global history. */
class Gshare final : public BranchPredictor
{
  public:
    explicit Gshare(const GshareConfig &config = {},
                    const AreaCosts &costs = {})
        : config_(config), costs_(costs)
    {
        assert(config.log2Entries >= 1 && config.log2Entries <= 24);
        assert(config.historyBits >= 0 &&
               config.historyBits <= config.log2Entries);
        table_.assign(1ULL << config.log2Entries,
                      SudCounter(SudConfig::twoBit(), 1));
    }

    bool
    predict(uint64_t pc) const override
    {
        return table_[indexOf(pc)].predict();
    }

    void
    update(uint64_t pc, bool taken) override
    {
        table_[indexOf(pc)].update(taken);
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    double
    area() const override
    {
        const double counter_bits =
            2.0 * static_cast<double>(table_.size());
        return tableArea(counter_bits + config_.btbBits, costs_);
    }

    std::string
    name() const override
    {
        return "gshare-2^" + std::to_string(config_.log2Entries);
    }

  private:
    size_t
    indexOf(uint64_t pc) const
    {
        const uint64_t mask = (1ULL << config_.log2Entries) - 1;
        const uint64_t hist =
            history_ & ((1ULL << config_.historyBits) - 1);
        return static_cast<size_t>(((pc >> 2) ^ hist) & mask);
    }

    GshareConfig config_;
    AreaCosts costs_;
    std::vector<SudCounter> table_;
    uint64_t history_ = 0;
};

/** Local/global predictor pair with a meta chooser. */
class LocalGlobalChooser final : public BranchPredictor
{
  public:
    explicit LocalGlobalChooser(const LgcConfig &config = {},
                                const AreaCosts &costs = {})
        : config_(config), costs_(costs)
    {
        assert(config.log2Entries >= 1 && config.log2Entries <= 20);
        const size_t n = 1ULL << config.log2Entries;
        localHistory_.assign(n, 0);
        localTable_.assign(n, SudCounter(SudConfig::twoBit(), 1));
        globalTable_.assign(n, SudCounter(SudConfig::twoBit(), 1));
        chooser_.assign(n, SudCounter(SudConfig::twoBit(), 1));
    }

    bool
    predict(uint64_t pc) const override
    {
        return chooser_[globalIndex()].predict() ? globalPredict()
                                                 : localPredict(pc);
    }

    void
    update(uint64_t pc, bool taken) override
    {
        const bool local_pred = localPredict(pc);
        const bool global_pred = globalPredict();

        // Chooser trains only when the components disagree.
        if (local_pred != global_pred)
            chooser_[globalIndex()].update(global_pred == taken);

        const uint64_t mask = (1ULL << config_.log2Entries) - 1;
        const uint64_t local_hist = localHistory_[pcIndex(pc)] & mask;
        localTable_[static_cast<size_t>(local_hist)].update(taken);
        globalTable_[globalIndex()].update(taken);

        localHistory_[pcIndex(pc)] =
            ((local_hist << 1) | (taken ? 1 : 0)) & mask;
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    double
    area() const override
    {
        const double n = static_cast<double>(1ULL << config_.log2Entries);
        // LHT (history bits per entry) + three 2-bit counter tables.
        const double bits =
            n * config_.log2Entries + 3.0 * 2.0 * n + config_.btbBits;
        return tableArea(bits, costs_);
    }

    std::string
    name() const override
    {
        return "lgc-2^" + std::to_string(config_.log2Entries);
    }

  private:
    size_t
    pcIndex(uint64_t pc) const
    {
        return static_cast<size_t>((pc >> 2) &
                                   ((1ULL << config_.log2Entries) - 1));
    }

    size_t
    globalIndex() const
    {
        return static_cast<size_t>(history_ &
                                   ((1ULL << config_.log2Entries) - 1));
    }

    bool
    localPredict(uint64_t pc) const
    {
        const uint64_t hist = localHistory_[pcIndex(pc)] &
            ((1ULL << config_.log2Entries) - 1);
        return localTable_[static_cast<size_t>(hist)].predict();
    }

    bool globalPredict() const { return globalTable_[globalIndex()].predict(); }

    LgcConfig config_;
    AreaCosts costs_;
    std::vector<uint64_t> localHistory_;
    std::vector<SudCounter> localTable_;
    std::vector<SudCounter> globalTable_;
    /** Chooser: high value selects the global prediction. */
    std::vector<SudCounter> chooser_;
    uint64_t history_ = 0;
};

} // namespace autofsm::reference

#endif // AUTOFSM_TESTS_REFERENCE_PREDICTORS_HH
