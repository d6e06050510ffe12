#include "bpred/trainer.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "flow/batch.hh"
#include "support/history.hh"

namespace autofsm
{

namespace
{

/**
 * pc -> selected-branch slot for the model-building walk, which looks
 * up every record: linear probing over a power-of-two table at most a
 * quarter full, so a lookup is a multiply, a shift and (almost always)
 * one or two probes instead of an unordered_map's modulo and chain.
 */
class SlotTable
{
  public:
    static constexpr size_t kNone = ~size_t{0};

    explicit SlotTable(size_t count)
    {
        while (capacity_ < 4 * count)
            capacity_ *= 2;
        keys_.assign(capacity_, 0);
        slots_.assign(capacity_, kNone);
    }

    void
    insert(uint64_t pc, size_t slot)
    {
        size_t i = home(pc);
        while (slots_[i] != kNone)
            i = (i + 1) & (capacity_ - 1);
        keys_[i] = pc;
        slots_[i] = slot;
    }

    size_t
    find(uint64_t pc) const
    {
        for (size_t i = home(pc);; i = (i + 1) & (capacity_ - 1)) {
            if (slots_[i] == kNone || keys_[i] == pc)
                return slots_[i];
        }
    }

  private:
    size_t
    home(uint64_t pc) const
    {
        return static_cast<size_t>((pc * 0x9e3779b97f4a7c15ULL) >> 32) &
            (capacity_ - 1);
    }

    size_t capacity_ = 16;
    std::vector<uint64_t> keys_;
    std::vector<size_t> slots_;
};

} // anonymous namespace

std::vector<std::pair<uint64_t, uint64_t>>
profileBaselineMisses(const PackedTrace &trace, const BtbConfig &baseline,
                      BaselineBtbProfile *profile)
{
    // The fused step makes the same decisions and tallies as
    // predict+update over one entry load.
    XScaleBtb btb(baseline);
    std::unordered_map<uint64_t, uint64_t> misses;
    uint64_t total = 0;
    for (const BranchRecord record : trace) {
        if (btb.step(record.pc, record.taken)) {
            ++misses[record.pc];
            ++total;
        }
    }
    if (profile) {
        profile->valid = true;
        profile->mispredicts = total;
        profile->lookups = btb.lookups();
        profile->hits = btb.hits();
        profile->area = btb.area();
        profile->name = btb.name();
    }

    std::vector<std::pair<uint64_t, uint64_t>> ranked(misses.begin(),
                                                      misses.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first; // deterministic tie-break
              });
    return ranked;
}

std::vector<BranchModelSweep>
collectBranchModelSweeps(const PackedTrace &trace,
                         const std::vector<int> &orders,
                         const CustomTrainingOptions &options,
                         BaselineBtbProfile *profile)
{
    if (orders.empty())
        throw std::invalid_argument("collectBranchModelSweeps: no orders");
    if (options.maxCustomBranches < 0) {
        throw std::invalid_argument(
            "collectBranchModelSweeps: negative maxCustomBranches " +
            std::to_string(options.maxCustomBranches));
    }
    const int max_order =
        *std::max_element(orders.begin(), orders.end());

    const auto ranked =
        profileBaselineMisses(trace, options.baseline, profile);
    const size_t count = std::min(
        ranked.size(), static_cast<size_t>(options.maxCustomBranches));

    // Second pass: one flat counter per selected branch, fed with the
    // global history register content at each execution of that branch.
    // One walk counts at max_order; finish() folds out every lower
    // order. The same pass records where each selected branch executes
    // - the sweep engine replays machines at exactly these positions.
    SlotTable slots(count);
    std::vector<MultiOrderCounter> counters;
    std::vector<std::vector<uint32_t>> positions(count);
    counters.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        slots.insert(ranked[i].first, i);
        counters.emplace_back(max_order);
    }

    const auto walk_start = std::chrono::steady_clock::now();
    HistoryRegister global(max_order);
    int pushes = 0; // global outcomes seen, saturating at max_order
    uint32_t index = 0;
    for (const BranchRecord record : trace) {
        const size_t slot = slots.find(record.pc);
        if (slot != SlotTable::kNone) {
            positions[slot].push_back(index);
            counters[slot].observe(global.value(), pushes,
                                   record.taken ? 1 : 0);
        }
        global.push(record.taken ? 1 : 0);
        if (pushes < max_order)
            ++pushes;
        ++index;
    }
    // The walk counted for every selected branch at once; credit it to
    // the first counter so the count stage is reported once.
    if (count > 0) {
        counters.front().creditCountMillis(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - walk_start)
                .count());
    }

    std::vector<BranchModelSweep> sweeps;
    sweeps.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        BranchModelSweep sweep;
        sweep.pc = ranked[i].first;
        sweep.baselineMisses = ranked[i].second;
        sweep.profile = counters[i].finish(orders);
        sweep.positions = std::move(positions[i]);
        sweeps.push_back(std::move(sweep));
    }
    return sweeps;
}

std::vector<BranchModel>
collectBranchModels(const PackedTrace &trace,
                    const CustomTrainingOptions &options,
                    BaselineBtbProfile *profile)
{
    std::vector<BranchModelSweep> sweeps = collectBranchModelSweeps(
        trace, {options.historyLength}, options, profile);

    std::vector<BranchModel> candidates;
    candidates.reserve(sweeps.size());
    for (BranchModelSweep &sweep : sweeps) {
        BranchModel candidate;
        candidate.pc = sweep.pc;
        candidate.baselineMisses = sweep.baselineMisses;
        candidate.model = sweep.profile.takeModel(options.historyLength);
        candidate.positions = std::move(sweep.positions);
        candidates.push_back(std::move(candidate));
    }
    return candidates;
}

std::vector<TrainedBranch>
trainCustomPredictors(const PackedTrace &trace,
                      const CustomTrainingOptions &options,
                      BaselineBtbProfile *profile)
{
    std::vector<BranchModel> candidates =
        collectBranchModels(trace, options, profile);

    FsmDesignOptions design;
    design.order = options.historyLength;
    design.patterns = options.patterns;
    design.minimizer = options.minimizer;

    std::vector<MarkovModel> models;
    models.reserve(candidates.size());
    for (const auto &candidate : candidates)
        models.push_back(candidate.model);

    BatchOptions batch_options;
    batch_options.threads = options.threads;
    BatchDesigner designer(design, batch_options);
    std::vector<BatchItemResult> designed = designer.designAll(models);

    std::vector<TrainedBranch> trained;
    trained.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        if (!designed[i].ok) {
            // The models are built in-process at the right order, so a
            // failure here is a programming error, not bad input.
            throw std::runtime_error("custom predictor design failed for pc " +
                                     std::to_string(candidates[i].pc) +
                                     ": " + designed[i].error);
        }
        TrainedBranch branch;
        branch.pc = candidates[i].pc;
        branch.baselineMisses = candidates[i].baselineMisses;
        branch.design = std::move(designed[i].flow.design);
        branch.trace = std::move(designed[i].flow.trace);
        branch.fsmArea = estimateFsmArea(branch.design.fsm);
        branch.trainPositions = std::move(candidates[i].positions);
        trained.push_back(std::move(branch));
    }
    return trained;
}

} // namespace autofsm
