/**
 * @file
 * Profile-guided training of custom per-branch FSM predictors
 * (Section 7.3).
 *
 * Step 1: profile the application with the baseline XScale predictor to
 * find the branches causing the most mispredictions. Step 2: for each
 * such branch, build a Markov model over the *global* history register
 * as seen right before the branch executes. Step 3: run the Section 4
 * design flow per branch.
 */

#ifndef AUTOFSM_BPRED_TRAINER_HH
#define AUTOFSM_BPRED_TRAINER_HH

#include <cstdint>
#include <vector>

#include "bpred/btb.hh"
#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "fsmgen/profile.hh"
#include "synth/area.hh"
#include "trace/packed_trace.hh"

namespace autofsm
{

/** Knobs of the custom-predictor training flow. */
struct CustomTrainingOptions
{
    /** Global history length; the paper uses 9 throughout. */
    int historyLength = 9;
    /** How many of the worst branches to build FSMs for. */
    int maxCustomBranches = 12;
    /** Pattern knobs (threshold 0.5, 1% don't-care mass by default). */
    PatternOptions patterns;
    /** Logic minimizer selection. */
    MinimizeAlgo minimizer = MinimizeAlgo::Auto;
    /** Baseline used for the misprediction profile. */
    BtbConfig baseline;
    /**
     * Worker threads for the per-branch design fan-out (0 = one per
     * hardware core). Results are deterministic for any value.
     */
    unsigned threads = 0;
};

/**
 * Whole-trace tallies of the baseline profiling pass (step 1). The
 * sweep engine's custom-same curve replays the training trace against
 * the same baseline the profiler already simulated, so recording the
 * pass here lets that curve skip the BTB chain entirely.
 */
struct BaselineBtbProfile
{
    /** True once a profiling pass has filled the struct. */
    bool valid = false;
    /** Baseline mispredictions over the whole training trace. */
    uint64_t mispredicts = 0;
    /** Lookup/hit tallies of the pass (telemetry parity). */
    uint64_t lookups = 0;
    uint64_t hits = 0;
    /** The baseline's area (default AreaCosts) and name. */
    double area = 0.0;
    std::string name;
};

/** One candidate branch with its trained global-history Markov model. */
struct BranchModel
{
    uint64_t pc = 0;
    /** Baseline mispredictions in the profiling run (ranking key). */
    uint64_t baselineMisses = 0;
    MarkovModel model{1};
    /** Record indices in the training trace where this branch executes. */
    std::vector<uint32_t> positions;
};

/** One trained branch: who it is, how bad it was, and its machine. */
struct TrainedBranch
{
    uint64_t pc = 0;
    /** Baseline mispredictions in the profiling run (ranking key). */
    uint64_t baselineMisses = 0;
    /** Full design-flow artifacts, including the final FSM. */
    FsmDesignResult design;
    /** Per-stage wall-clock and state counts of this branch's design. */
    FlowTrace trace;
    /**
     * Synthesis estimate of the final FSM (default AreaCosts), computed
     * once here so curve assembly and sampling never re-synthesize the
     * machine.
     */
    AreaEstimate fsmArea;
    /**
     * Record indices in the training trace where this branch executes,
     * recorded during model building. With a BaselineBtbProfile these
     * let the custom-same replay skip its baseline pass.
     */
    std::vector<uint32_t> trainPositions;
};

/**
 * One candidate branch carrying a whole order sweep: its models at
 * every requested history length, derived from a single profiling pass
 * (fsmgen/profile.hh fold sweeps).
 */
struct BranchModelSweep
{
    uint64_t pc = 0;
    /** Baseline mispredictions in the profiling run (ranking key). */
    uint64_t baselineMisses = 0;
    /** Per-order models, each bit-identical to training that order. */
    MultiOrderProfile profile;
    /** Record indices in the training trace where this branch executes. */
    std::vector<uint32_t> positions;
};

/**
 * Profiling + model-building front half of the training flow: rank
 * branches by baseline mispredictions and train one global-history
 * Markov model per selected branch (steps 1-2 of Section 7.3).
 *
 * @return Candidate branches sorted by decreasing baseline
 *         mispredictions, each carrying its trained model and its
 *         record positions in @p trace. When @p profile is non-null it
 *         receives the baseline pass's whole-trace tallies.
 */
std::vector<BranchModel>
collectBranchModels(const PackedTrace &trace,
                    const CustomTrainingOptions &options = {},
                    BaselineBtbProfile *profile = nullptr);

/**
 * Sweep form of collectBranchModels: one baseline profiling pass and
 * one trace walk produce, for every selected branch, its Markov model
 * at *every* order of @p orders (counted once at max(orders), lower
 * orders fold-derived — see fsmgen/profile.hh). Each model is
 * bit-identical to what collectBranchModels yields with
 * options.historyLength set to that order. options.historyLength is
 * ignored here; everything else (baseline geometry, branch budget)
 * applies unchanged.
 */
std::vector<BranchModelSweep>
collectBranchModelSweeps(const PackedTrace &trace,
                         const std::vector<int> &orders,
                         const CustomTrainingOptions &options = {},
                         BaselineBtbProfile *profile = nullptr);

/**
 * Profile @p trace with the baseline predictor and design one FSM per
 * worst branch. The per-branch designs are fanned out across
 * options.threads workers via BatchDesigner; the result is bit-identical
 * to the serial flow for any thread count.
 *
 * @return Trained branches sorted by decreasing baseline mispredictions
 *         (the order in which Figure 5 adds custom entries). When
 *         @p profile is non-null it receives the baseline pass's
 *         whole-trace tallies; together with each branch's
 *         trainPositions these let evaluateFigure5's custom-same curve
 *         reuse the profiling pass instead of re-simulating the BTB.
 */
std::vector<TrainedBranch>
trainCustomPredictors(const PackedTrace &trace,
                      const CustomTrainingOptions &options = {},
                      BaselineBtbProfile *profile = nullptr);

/**
 * Per-branch baseline misprediction counts for @p trace under a fresh
 * XScale BTB of @p baseline geometry (exposed for tests and benches).
 */
std::vector<std::pair<uint64_t, uint64_t>>
profileBaselineMisses(const PackedTrace &trace,
                      const BtbConfig &baseline = {},
                      BaselineBtbProfile *profile = nullptr);

} // namespace autofsm

#endif // AUTOFSM_BPRED_TRAINER_HH
