#include "workloads/value_workloads.hh"

#include <cassert>
#include <chrono>
#include <stdexcept>

#include "support/rng.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{

namespace
{

/** Value-behavior archetypes for one static load site. */
enum class LoadKind
{
    /** Always the same value: trivially predictable. */
    Constant,
    /** Arithmetic sequence with a fixed stride. */
    Stride,
    /**
     * Strided, but the stride changes to a new random value every
     * `phase` executions: bursts of hits separated by short miss runs.
     */
    PhasedStride,
    /**
     * Repeating non-arithmetic value cycle: a two-delta predictor hits
     * and misses in a fixed periodic pattern - structure a history FSM
     * can learn but a counting estimator cannot.
     */
    Cycle,
    /** Value replaced by a fresh random one with probability `churn`. */
    RandomWalk,
};

struct LoadSpec
{
    LoadKind kind;
    int repeat = 1;            ///< executions per program round
    uint64_t base = 0;         ///< Constant/Stride/PhasedStride start
    int64_t stride = 0;        ///< Stride
    int phase = 32;            ///< PhasedStride
    std::vector<uint64_t> cycle; ///< Cycle values
    double churn = 1.0;        ///< RandomWalk
};

struct LoadState
{
    uint64_t value = 0;
    int64_t stride = 0;
    int phase_pos = 0;
    size_t cycle_pos = 0;
    bool init = false;
};

class ValueProgramModel
{
  public:
    ValueProgramModel(std::vector<LoadSpec> sites, uint64_t seed)
        : sites_(std::move(sites)), states_(sites_.size()), rng_(seed)
    {}

    ValueTrace
    generate(size_t approx_loads)
    {
        ValueTrace trace;
        trace.reserve(approx_loads + 64);
        while (trace.size() < approx_loads) {
            for (size_t i = 0; i < sites_.size(); ++i) {
                for (int r = 0; r < sites_[i].repeat; ++r)
                    executeSite(i, trace);
            }
        }
        return trace;
    }

  private:
    void
    executeSite(size_t idx, ValueTrace &trace)
    {
        const LoadSpec &spec = sites_[idx];
        LoadState &state = states_[idx];
        const uint64_t pc = 0x140000000ULL + 16 * idx;

        if (!state.init) {
            state.value = spec.base;
            state.stride = spec.stride;
            state.init = true;
        }

        uint64_t value = 0;
        switch (spec.kind) {
          case LoadKind::Constant:
            value = spec.base;
            break;
          case LoadKind::Stride:
            value = state.value;
            state.value += static_cast<uint64_t>(spec.stride);
            break;
          case LoadKind::PhasedStride:
            value = state.value;
            state.value += static_cast<uint64_t>(state.stride);
            if (++state.phase_pos >= spec.phase) {
                state.phase_pos = 0;
                // New data region: new base-ish value and stride.
                state.stride = static_cast<int64_t>(rng_.below(64)) + 1;
                state.value += rng_.below(1 << 20);
            }
            break;
          case LoadKind::Cycle:
            value = spec.cycle[state.cycle_pos];
            state.cycle_pos = (state.cycle_pos + 1) % spec.cycle.size();
            break;
          case LoadKind::RandomWalk:
            if (rng_.chance(spec.churn))
                state.value = rng_.next();
            value = state.value;
            break;
        }
        trace.push_back({pc, value});
    }

    std::vector<LoadSpec> sites_;
    std::vector<LoadState> states_;
    Rng rng_;
};

LoadSpec
constantLoad(uint64_t base, int repeat = 1)
{
    LoadSpec spec;
    spec.kind = LoadKind::Constant;
    spec.base = base;
    spec.repeat = repeat;
    return spec;
}

LoadSpec
strideLoad(uint64_t base, int64_t stride, int repeat = 1)
{
    LoadSpec spec;
    spec.kind = LoadKind::Stride;
    spec.base = base;
    spec.stride = stride;
    spec.repeat = repeat;
    return spec;
}

LoadSpec
phasedLoad(uint64_t base, int phase, int repeat = 1)
{
    LoadSpec spec;
    spec.kind = LoadKind::PhasedStride;
    spec.base = base;
    spec.stride = 8;
    spec.phase = phase;
    spec.repeat = repeat;
    return spec;
}

LoadSpec
cycleLoad(std::vector<uint64_t> cycle, int repeat = 1)
{
    LoadSpec spec;
    spec.kind = LoadKind::Cycle;
    spec.cycle = std::move(cycle);
    spec.repeat = repeat;
    return spec;
}

LoadSpec
randomLoad(double churn, int repeat = 1)
{
    LoadSpec spec;
    spec.kind = LoadKind::RandomWalk;
    spec.churn = churn;
    spec.repeat = repeat;
    return spec;
}

/**
 * Benchmark mixes. All five share archetypes (programs share idioms -
 * this is what makes cross-training work) but differ in proportions and
 * parameters, giving each its own accuracy/coverage frontier.
 */
std::vector<LoadSpec>
buildLoads(const std::string &name)
{
    if (name == "gcc") {
        // Large working set: moderate predictability, many phase
        // changes, some pointer chasing.
        return {
            constantLoad(0x1000, 3),
            strideLoad(0x2000, 4, 3),
            phasedLoad(0x40000, 24, 4),
            cycleLoad({5, 5, 5, 9}, 3),
            cycleLoad({100, 200, 100, 350}, 2),
            randomLoad(0.8, 4),
            randomLoad(0.3, 2),
        };
    }
    if (name == "go") {
        // Notoriously unpredictable: heavy random component, short
        // phases.
        return {
            constantLoad(0x77, 2),
            phasedLoad(0x9000, 10, 3),
            cycleLoad({1, 2, 4, 8, 1, 3}, 2),
            randomLoad(0.9, 6),
            randomLoad(0.5, 3),
            strideLoad(0x100, 16, 1),
        };
    }
    if (name == "groff") {
        // Text processing: highly regular, long strided runs,
        // repeating token cycles.
        return {
            constantLoad(0x20, 4),
            strideLoad(0x8000, 1, 4),
            strideLoad(0xA000, 12, 2),
            cycleLoad({10, 20, 10, 20, 30}, 3),
            phasedLoad(0x30000, 48, 2),
            randomLoad(0.7, 2),
        };
    }
    if (name == "li") {
        // Lisp interpreter: cons-cell cycles and constants, bursty
        // pointer churn.
        return {
            constantLoad(0xC0DE, 4),
            cycleLoad({8, 8, 24}, 4),
            cycleLoad({3, 1, 4, 1, 5}, 2),
            phasedLoad(0x50000, 16, 2),
            randomLoad(0.6, 3),
            strideLoad(0x600, 8, 1),
        };
    }
    if (name == "perl") {
        // String/hash heavy: medium phases, mixed cycles, some noise.
        return {
            constantLoad(0x5EA1, 3),
            strideLoad(0x7000, 2, 2),
            cycleLoad({42, 42, 7, 42}, 3),
            phasedLoad(0x60000, 32, 3),
            randomLoad(0.85, 3),
            randomLoad(0.2, 2),
        };
    }
    throw std::invalid_argument("unknown value benchmark: " + name);
}

} // anonymous namespace

const std::vector<std::string> &
valueBenchmarkNames()
{
    static const std::vector<std::string> names = {
        "gcc", "go", "groff", "li", "perl",
    };
    return names;
}

ValueTrace
makeValueTrace(const std::string &name, size_t approx_loads)
{
    uint64_t seed = 0xA11CE;
    for (char c : name)
        seed = seed * 131 + static_cast<unsigned char>(c);
    const auto start = std::chrono::steady_clock::now();
    ValueProgramModel model(buildLoads(name), seed);
    ValueTrace trace = model.generate(approx_loads);
    observeTraceBuildMillis(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    return trace;
}

} // namespace autofsm
