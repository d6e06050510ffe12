#include "synth/area.hh"

#include <cassert>
#include <chrono>

#include "logicmin/espresso.hh"
#include "obs/metrics.hh"
#include "support/bits.hh"

namespace autofsm
{

std::vector<TruthTable>
fsmLogicTables(const Dfa &fsm)
{
    std::vector<TruthTable> tables;
    const int n = fsm.numStates();
    if (n <= 1)
        return tables;

    // Next-state logic: k functions of (k state bits + 1 input bit).
    // Input encoding: bits [0, k) = current state code, bit k = din.
    // Codes >= n never occur and are don't-cares for every function.
    const int k = ceilLog2(static_cast<uint32_t>(n));
    for (int bit = 0; bit < k; ++bit) {
        TruthTable table(k + 1);
        for (int s = 0; s < (1 << k); ++s) {
            for (int din = 0; din < 2; ++din) {
                const uint32_t row = static_cast<uint32_t>(s) |
                    (static_cast<uint32_t>(din) << k);
                if (s >= n) {
                    table.addDontCare(row);
                } else if (bitOf(static_cast<uint32_t>(fsm.next(s, din)),
                                 bit)) {
                    table.addOn(row);
                }
            }
        }
        tables.push_back(std::move(table));
    }

    // Moore output: one function of the k state bits.
    TruthTable output(k);
    for (int s = 0; s < (1 << k); ++s) {
        if (s >= n)
            output.addDontCare(static_cast<uint32_t>(s));
        else if (fsm.output(s))
            output.addOn(static_cast<uint32_t>(s));
    }
    tables.push_back(std::move(output));
    return tables;
}

AreaEstimate
estimateFsmArea(const Dfa &fsm, const AreaCosts &costs)
{
    const bool timed = obs::globalMetrics().enabled();
    const auto start = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};

    // A constant predictor has no tables: a wire, no sequential logic.
    AreaEstimate est;
    est.states = fsm.numStates();
    est.flops = fsm.numStates() <= 1
        ? 0
        : ceilLog2(static_cast<uint32_t>(fsm.numStates()));
    EspressoOptions quick;
    quick.maxIterations = 2; // area estimation favors speed
    for (const TruthTable &table : fsmLogicTables(fsm)) {
        const Cover cover = minimizeEspresso(table, quick);
        est.terms += static_cast<int>(cover.size());
        est.literals += cover.literalCount();
    }
    est.area = costs.flop * est.flops + costs.term * est.terms +
        costs.literal * est.literals + costs.output;

    if (timed) {
        static obs::Histogram millis = obs::globalMetrics().histogram(
            "autofsm_synth_area_millis",
            "Wall-clock of one estimateFsmArea call.",
            obs::defaultLatencyBucketsMillis());
        millis.observe(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    }
    return est;
}

double
tableArea(double bits, const AreaCosts &costs)
{
    assert(bits >= 0.0);
    return bits * costs.sramBit;
}

LineFit
fitAreaLine(const std::vector<AreaEstimate> &samples)
{
    std::vector<double> xs, ys;
    xs.reserve(samples.size());
    ys.reserve(samples.size());
    for (const auto &sample : samples) {
        xs.push_back(static_cast<double>(sample.states));
        ys.push_back(sample.area);
    }
    return fitLine(xs, ys);
}

} // namespace autofsm
