#include "sim/sweep.hh"

#include "obs/metrics.hh"
#include "sim/bitsliced.hh"
#include "support/thread_pool.hh"

namespace autofsm
{

namespace
{

obs::Histogram &
sweepPointHistogram()
{
    static obs::Histogram histogram = obs::globalMetrics().histogram(
        "autofsm_sweep_point_millis",
        "Kernel time of one sweep point (one predictor's replay, the "
        "baseline BTB chain or one batched custom-machine replay).",
        obs::defaultLatencyBucketsMillis());
    return histogram;
}

} // anonymous namespace

SweepPointTimer::SweepPointTimer()
{
    if (obs::globalMetrics().enabled()) {
        active_ = true;
        start_ = std::chrono::steady_clock::now();
    }
}

SweepPointTimer::~SweepPointTimer()
{
    if (!active_)
        return;
    sweepPointHistogram().observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count());
}

CustomReplayCounts
replayCustomMachines(const std::vector<CustomSweepMachine> &machines,
                     const PackedTrace &trace, const BtbConfig &btb_config,
                     const AreaCosts &costs, unsigned threads,
                     size_t shards)
{
    CustomReplayCounts counts;
    const size_t k = machines.size();
    counts.btbMisses.assign(k, 0);
    counts.fsmMisses.assign(k, 0);

    XScaleBtb btb(btb_config, costs);
    counts.btbArea = btb.area();
    counts.btbName = btb.name();

    // The machine set is tiny (a dozen worst branches), so pc -> machine
    // resolution uses a flat power-of-two probe table instead of an
    // unordered_map: one multiply-hash and usually one (empty) slot read
    // per record, no bucket pointer chase.
    size_t slots = 16;
    while (slots < k * 4)
        slots *= 2;
    const size_t slot_mask = slots - 1;
    std::vector<uint64_t> slot_pc(slots, 0);
    std::vector<int32_t> slot_machine(slots, -1);
    const auto slotOf = [slot_mask](uint64_t pc) {
        return static_cast<size_t>(((pc >> 2) * 0x9e3779b97f4a7c15ULL) &
                                   slot_mask);
    };
    for (size_t m = 0; m < k; ++m) {
        size_t s = slotOf(machines[m].pc);
        while (slot_machine[s] >= 0)
            s = (s + 1) & slot_mask;
        slot_pc[s] = machines[m].pc;
        slot_machine[s] = static_cast<int32_t>(m);
    }

    // Baseline pass: the BTB is one stateful chain, so this stays
    // serial; it doubles as the collection pass for each machine's
    // branch positions so the parallel replays need no pc lookups.
    std::vector<std::vector<uint32_t>> positions(k);
    const size_t n = trace.size();
    const uint64_t *pcs = trace.pcs().data();
    const uint64_t *words = trace.takenWords().data();
    {
        SweepPointTimer timer;
        for (size_t i = 0; i < n; ++i) {
            const bool taken = (words[i >> 6] >> (i & 63)) & 1ULL;
            if (i + detail::kPrefetchDistance < n)
                btb.prefetch(pcs[i + detail::kPrefetchDistance]);
            const bool wrong = btb.step(pcs[i], taken);
            counts.btbMissesTotal += static_cast<uint64_t>(wrong);
            for (size_t s = slotOf(pcs[i]); slot_machine[s] >= 0;
                 s = (s + 1) & slot_mask) {
                if (slot_pc[s] != pcs[i])
                    continue;
                const auto m = static_cast<size_t>(slot_machine[s]);
                counts.btbMisses[m] += static_cast<uint64_t>(wrong);
                positions[m].push_back(static_cast<uint32_t>(i));
                break;
            }
        }
    }
    publishBtbMetrics(btb.name(), btb.lookups(), btb.hits());
    counts.btbLookups = btb.lookups();
    counts.btbHits = btb.hits();

    {
        SweepPointTimer timer;
        std::vector<BitslicedMachine> sliced(k);
        for (size_t m = 0; m < k; ++m)
            sliced[m] = BitslicedMachine{machines[m].fsm, &positions[m]};
        BitslicedOptions options;
        options.threads = threads;
        options.shards = shards;
        counts.fsmMisses =
            replayMachinesBitsliced(sliced, words, n, options);
    }

    return counts;
}

CustomReplayCounts
replayCustomMachines(const std::vector<CustomSweepMachine> &machines,
                     const PackedTrace &trace,
                     const CustomBaselineProfile &baseline, unsigned threads,
                     size_t shards)
{
    CustomReplayCounts counts;
    const size_t k = machines.size();
    counts.btbMissesTotal = baseline.btbMissesTotal;
    counts.btbMisses = baseline.btbMisses;
    counts.btbMisses.resize(k, 0);
    counts.fsmMisses.assign(k, 0);
    counts.btbArea = baseline.btbArea;
    counts.btbName = baseline.btbName;
    counts.btbLookups = baseline.btbLookups;
    counts.btbHits = baseline.btbHits;
    // Telemetry parity with the pass-driven overload, which publishes
    // its BTB tallies after the (here skipped) baseline chain.
    publishBtbMetrics(baseline.btbName, baseline.btbLookups,
                      baseline.btbHits);

    const size_t n = trace.size();
    const uint64_t *words = trace.takenWords().data();
    static const std::vector<uint32_t> no_positions;
    {
        SweepPointTimer timer;
        std::vector<BitslicedMachine> sliced(k);
        for (size_t m = 0; m < k; ++m) {
            // An absent positions list means "this machine never
            // predicts" (sparse-empty), not dense mode.
            const std::vector<uint32_t> *positions =
                m < baseline.positions.size() && baseline.positions[m]
                    ? baseline.positions[m]
                    : &no_positions;
            sliced[m] = BitslicedMachine{machines[m].fsm, positions};
        }
        BitslicedOptions options;
        options.threads = threads;
        options.shards = shards;
        counts.fsmMisses =
            replayMachinesBitsliced(sliced, words, n, options);
    }

    return counts;
}

} // namespace autofsm
