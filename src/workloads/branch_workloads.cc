#include "workloads/branch_workloads.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "support/history.hh"
#include "support/rng.hh"

namespace autofsm
{

namespace
{

/** Behavior archetypes for one static branch site. */
enum class SiteKind
{
    /** Taken with fixed probability `bias`. */
    Biased,
    /**
     * Loop-exit branch: taken (trip-1) times then not-taken once per
     * loop instance; `trips` cycles per instance (data-dependent trip
     * counts).
     */
    Loop,
    /**
     * Globally-correlated branch: outcome = XOR of the global-history
     * bits at `taps` (1 = the most recent branch outcome), optionally
     * inverted, flipped with probability `noise`.
     */
    GlobalXor,
    /** Repeating local pattern, each bit flipped with `noise`. */
    LocalPattern,
};

/** Static description of one branch site in the program model. */
struct SiteSpec
{
    SiteKind kind;
    /** How many times the site appears per program round. */
    int repeat = 1;
    double bias = 0.5;        ///< Biased
    double noise = 0.0;       ///< GlobalXor / LocalPattern
    std::vector<int> trips;   ///< Loop: trip-count cycle
    std::vector<int> taps;    ///< GlobalXor
    bool invert = false;      ///< GlobalXor
    std::vector<int> pattern; ///< LocalPattern
};

/** Mutable per-site execution state. */
struct SiteState
{
    size_t trip_pos = 0;    // index into trips
    size_t pattern_pos = 0; // index into pattern
};

/**
 * Round-based program model: one "round" executes every site in order
 * (loops expanding to a full loop instance), which gives the global
 * history the kind of repeatable cross-branch structure real programs
 * have.
 */
class ProgramModel
{
  public:
    ProgramModel(std::vector<SiteSpec> sites, uint64_t seed)
        : sites_(std::move(sites)), states_(sites_.size()), rng_(seed),
          global_(16)
    {
        // Pre-warm the global history so GlobalXor sites are well
        // defined from the first round.
        for (int i = 0; i < 16; ++i)
            global_.push(static_cast<int>(rng_.below(2)));
    }

    PackedTrace
    generate(size_t approx_branches)
    {
        // The last round may overshoot the target by up to one round;
        // reserving for it means the arrays never grow through a
        // transient copy.
        PackedTraceBuilder trace(approx_branches + maxRoundLength());
        while (trace.size() < approx_branches) {
            for (size_t i = 0; i < sites_.size(); ++i) {
                for (int r = 0; r < sites_[i].repeat; ++r)
                    executeSite(i, trace);
            }
        }
        return trace.finish();
    }

  private:
    /** Records one round emits at most (loops at their longest trip). */
    size_t
    maxRoundLength() const
    {
        size_t records = 0;
        for (const SiteSpec &spec : sites_) {
            const int per_visit = spec.kind == SiteKind::Loop
                ? *std::max_element(spec.trips.begin(), spec.trips.end())
                : 1;
            records += static_cast<size_t>(spec.repeat * per_visit);
        }
        return records;
    }

    void
    emit(uint64_t pc, bool taken, PackedTraceBuilder &trace)
    {
        trace.push(pc, taken);
        global_.push(taken ? 1 : 0);
    }

    void
    executeSite(size_t idx, PackedTraceBuilder &trace)
    {
        const SiteSpec &spec = sites_[idx];
        SiteState &state = states_[idx];
        // Synthetic text addresses: 16-byte spaced branch sites.
        const uint64_t pc = 0x120000000ULL + 16 * idx;

        switch (spec.kind) {
          case SiteKind::Biased:
            emit(pc, rng_.chance(spec.bias), trace);
            break;
          case SiteKind::Loop: {
            const int trip = spec.trips[state.trip_pos];
            state.trip_pos = (state.trip_pos + 1) % spec.trips.size();
            for (int t = 0; t < trip - 1; ++t)
                emit(pc, true, trace);
            emit(pc, false, trace);
            break;
          }
          case SiteKind::GlobalXor: {
            int outcome = spec.invert ? 1 : 0;
            for (int tap : spec.taps)
                outcome ^= bitOf(global_.value(), tap - 1);
            if (spec.noise > 0.0 && rng_.chance(spec.noise))
                outcome ^= 1;
            emit(pc, outcome != 0, trace);
            break;
          }
          case SiteKind::LocalPattern: {
            int outcome = spec.pattern[state.pattern_pos];
            state.pattern_pos =
                (state.pattern_pos + 1) % spec.pattern.size();
            if (spec.noise > 0.0 && rng_.chance(spec.noise))
                outcome ^= 1;
            emit(pc, outcome != 0, trace);
            break;
          }
        }
    }

    std::vector<SiteSpec> sites_;
    std::vector<SiteState> states_;
    Rng rng_;
    HistoryRegister global_;
};

SiteSpec
biased(double bias, int repeat = 1)
{
    SiteSpec spec;
    spec.kind = SiteKind::Biased;
    spec.bias = bias;
    spec.repeat = repeat;
    return spec;
}

SiteSpec
loop(std::vector<int> trips, int repeat = 1)
{
    SiteSpec spec;
    spec.kind = SiteKind::Loop;
    spec.trips = std::move(trips);
    spec.repeat = repeat;
    return spec;
}

SiteSpec
globalXor(std::vector<int> taps, double noise, bool invert = false,
          int repeat = 1)
{
    SiteSpec spec;
    spec.kind = SiteKind::GlobalXor;
    spec.taps = std::move(taps);
    spec.noise = noise;
    spec.invert = invert;
    spec.repeat = repeat;
    return spec;
}

SiteSpec
localPattern(std::vector<int> pattern, double noise, int repeat = 1)
{
    SiteSpec spec;
    spec.kind = SiteKind::LocalPattern;
    spec.pattern = std::move(pattern);
    spec.noise = noise;
    spec.repeat = repeat;
    return spec;
}

/**
 * Benchmark program models. The archetype mixes target the qualitative
 * per-program profiles of Figure 5 (see DESIGN.md); `test` varies the
 * data-dependent parameters (seeds, some trip counts) while keeping the
 * program structure, mirroring a different program input.
 */
std::vector<SiteSpec>
buildSites(const std::string &name, bool test)
{
    if (name == "compress") {
        // One dominant, hard branch (data-dependent local pattern with
        // noise; consecutive instances so local and global history
        // coincide) plus noisy compare branches that keep the baseline
        // miss rate high.
        return {
            localPattern({1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0}, 0.10, 6),
            biased(0.60, 2),
            biased(0.45, 1),
            loop(test ? std::vector<int>{9, 9, 8} :
                        std::vector<int>{8, 9, 9}),
            biased(0.88, 4),
            biased(0.96, 6),
        };
    }
    if (name == "ijpeg") {
        // DCT/quantization-style branches strongly correlated with the
        // branch two back (the Figure 6 machine), with little local
        // structure. LGC gains nothing over gshare here.
        return {
            globalXor({2}, 0.02, false, 6),
            globalXor({2}, 0.03, true, 3),
            globalXor({3}, 0.04, false, 3),
            biased(0.92, 4),
            loop({64}),
            biased(0.50, 2),
        };
    }
    if (name == "vortex") {
        // Database-style: nearly every branch is a deterministic
        // function of recent global outcomes; per-branch 2-bit counters
        // see 50/50 chaos, global predictors see near-perfect structure.
        return {
            globalXor({1}, 0.005, false, 3),
            globalXor({2}, 0.005, true, 3),
            globalXor({1, 2}, 0.01, false, 3),
            globalXor({3}, 0.005, false, 2),
            globalXor({2, 4}, 0.01, true, 2),
            biased(0.97, 6),
            loop({16}),
        };
    }
    if (name == "gsm") {
        // Speech transcoding: deep global correlation (window lookback
        // of 4-7 branches) that small gshare tables dilute.
        return {
            globalXor({4}, 0.02, false, 4),
            globalXor({5}, 0.02, true, 3),
            globalXor({4, 7}, 0.03, false, 3),
            globalXor({6}, 0.02, false, 2),
            biased(0.88, 4),
            loop({40}),
            biased(0.50, 1),
        };
    }
    if (name == "g721") {
        // ADPCM decode: mostly strongly biased branches the XScale
        // already predicts well; one correlated branch is the remaining
        // headroom.
        return {
            biased(0.95, 6),
            biased(0.93, 4),
            biased(0.05, 3),
            globalXor({2}, 0.03, false, 2),
            loop(test ? std::vector<int>{25} : std::vector<int>{24}),
            biased(0.60, 1),
        };
    }
    if (name == "gs") {
        // Postscript interpreter: highly predictable overall; the
        // headroom is in a couple of branches perfectly correlated with
        // a data-dependent branch a few slots back (the Figure 7 shape:
        // 50/50 to a counter, deterministic given global history).
        return {
            biased(0.97, 8),
            biased(0.03, 4),
            biased(0.50, 1), // "data" branch the next two key off
            globalXor({1}, 0.02, false, 1),
            globalXor({2}, 0.02, true, 1),
            loop({24}),
            biased(0.93, 2),
            biased(0.98, 12),
        };
    }
    throw std::invalid_argument("unknown branch benchmark: " + name);
}

} // anonymous namespace

const std::vector<std::string> &
branchBenchmarkNames()
{
    static const std::vector<std::string> names = {
        "compress", "ijpeg", "vortex", "gsm", "g721", "gs",
    };
    return names;
}

PackedTrace
makeBranchTrace(const std::string &name, WorkloadInput input,
                size_t approx_branches)
{
    const bool test = input == WorkloadInput::Test;
    // Distinct, fixed seeds per (benchmark, input).
    uint64_t seed = 0x5eed0000ULL + (test ? 0x100 : 0);
    for (char c : name)
        seed = seed * 131 + static_cast<unsigned char>(c);

    ProgramModel model(buildSites(name, test), seed);
    return model.generate(approx_branches);
}

} // namespace autofsm
