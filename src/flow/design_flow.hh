/**
 * @file
 * Stage-oriented view of the Section 4 design flow.
 *
 * `DesignFlow` is the one implementation of the pipeline. It decomposes
 * it into named, individually observable stages: markov (when starting
 * from a raw trace), patterns, minimize, regex, subset construction
 * (nfa->dfa), Hopcroft and start-state reduction. Each run yields the usual
 * `FsmDesignResult` plus a `FlowTrace` carrying per-stage wall-clock time
 * and a stage-specific size metric, so benches and the batch designer can
 * report where time and states go without instrumenting the flow
 * themselves.
 */

#ifndef AUTOFSM_FLOW_DESIGN_FLOW_HH
#define AUTOFSM_FLOW_DESIGN_FLOW_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fsmgen/designer.hh"
#include "fsmgen/markov.hh"

namespace autofsm
{

/** The pipeline stages, in execution order. */
enum class FlowStage
{
    Markov,      ///< train the Nth-order model (trace entry point only)
    Patterns,    ///< partition histories into 1 / 0 / don't-care sets
    Minimize,    ///< two-level logic minimization of the predict-1 set
    Regex,       ///< cover -> (0|1)*(t1|...|tk) regular expression
    Subset,      ///< Thompson NFA + subset construction (nfa->dfa)
    Hopcroft,    ///< DFA minimization
    StartReduce, ///< start-state (transient start-up) reduction
};

/** Stable lower-case name of @p stage (used in reports and JSON). */
const char *flowStageName(FlowStage stage);

/** Inverse of flowStageName; nullopt for an unknown name. */
std::optional<FlowStage> flowStageFromName(std::string_view name);

/**
 * Observe @p millis into `autofsm_flow_stage_millis{stage}`, for a stage
 * run outside DesignFlow (the batch engine's model resolution is its
 * markov stage).
 */
void observeFlowStageMillis(FlowStage stage, double millis);

/** One executed stage: how long it took and how big its product is. */
struct StageRecord
{
    FlowStage stage = FlowStage::Patterns;
    /** Wall-clock time of the stage, milliseconds. */
    double millis = 0.0;
    /** Stage-specific size metric (see metricName). */
    int64_t metric = 0;
    /** What the metric counts: "states", "cubes", "histories", ... */
    const char *metricName = "";
};

/**
 * The per-stage observations of one design-flow run.
 *
 * Since the telemetry subsystem landed this is a thin per-run view over
 * the span tree: each record's wall-clock is the measured duration of
 * the corresponding `obs::SpanScope` the flow opened for that stage
 * (spans also stream into `obs::currentTracer()` when tracing is on).
 * The trace itself stays a plain value so results remain comparable and
 * serializable with telemetry compiled out.
 */
class FlowTrace
{
  public:
    void
    add(FlowStage stage, double millis, int64_t metric,
        const char *metric_name)
    {
        stages_.push_back({stage, millis, metric, metric_name});
    }

    const std::vector<StageRecord> &stages() const { return stages_; }

    /**
     * Record that a degraded path was taken, as "stage:kind" (e.g.
     * "minimize:exact", "subset:saturating-counter"). Appended in
     * execution order by the flow's fallback ladders.
     */
    void
    noteFallback(std::string fallback)
    {
        fallbacks_.push_back(std::move(fallback));
    }

    /** True when any fallback path was taken during this run. */
    bool degraded() const { return !fallbacks_.empty(); }

    /** The fallback paths taken, in execution order (usually empty). */
    const std::vector<std::string> &fallbacks() const { return fallbacks_; }

    /** Record for @p stage, or nullptr if the stage did not run. */
    const StageRecord *find(FlowStage stage) const;

    /** Total wall-clock across all recorded stages, milliseconds. */
    double totalMillis() const;

    /** Emit as a JSON array of {stage, millis, metric, metricName}. */
    void renderJson(std::ostream &out) const;
    std::string toJson() const;

  private:
    std::vector<StageRecord> stages_;
    std::vector<std::string> fallbacks_;
};

/** One run's artifacts plus its stage observations. */
struct FlowResult
{
    FsmDesignResult design;
    FlowTrace trace;
    /**
     * True when the minimize->...->reduce tail was served from the
     * design-stage memo (flow/design_memo.hh). The artifacts are
     * bit-identical to a computed tail; the tail's stage records carry
     * zero wall-clock, like the empty-cover short-circuit.
     */
    bool tailFromMemo = false;
};

/**
 * The redesigned front door of the FSM design pipeline.
 *
 * A `DesignFlow` is an immutable configuration object; `run` /
 * `runOnTrace` may be called concurrently from many threads on the same
 * instance (the flow itself holds no mutable state).
 *
 * **Resilience.** The flow enforces the resource budgets carried in
 * `options().budget` (flow/budget.hh) and degrades gracefully instead of
 * failing where a cheaper product exists:
 *
 *  - minimizer failure or budget overrun falls back espresso ->
 *    Quine-McCluskey -> unminimized minterm cover;
 *  - automata failure or budget overrun (NFA/DFA state budgets) falls
 *    back to the classic 2-bit saturating-counter machine
 *    (`Dfa::saturatingCounter`), the paper's baseline predictor.
 *
 * Every taken fallback is recorded in the run's `FlowTrace`
 * (`degraded()` / `fallbacks()`) and counted in
 * `autofsm_flow_fallbacks_total{stage,kind}`. Only deadline expiry
 * (`FlowError` with `DeadlineExceeded`) and pre-flight input validation
 * propagate out of `run`; `BatchDesigner` classifies those into
 * retryable vs terminal failures. With a default (unlimited) budget and
 * no failpoints configured the flow's behavior and output are
 * bit-identical to the non-degrading pipeline.
 */
class DesignFlow
{
  public:
    explicit DesignFlow(FsmDesignOptions options = {})
        : options_(options)
    {
    }

    const FsmDesignOptions &options() const { return options_; }

    /**
     * Run the flow on a pre-built Markov model.
     *
     * @throws std::invalid_argument if the model's order does not match
     *         options().order (throwing lets the batch designer isolate
     *         poisoned items).
     */
    FlowResult run(const MarkovModel &model) const;

    /**
     * Train a model on @p trace with the flat profiler
     * (trainMarkovModel, recorded as the markov stage), then run.
     */
    FlowResult runOnTrace(const std::vector<int> &trace) const;

  private:
    FlowResult runStages(const MarkovModel &model, FlowTrace trace,
                         const Deadline &deadline) const;
    void minimizeFallback(const TruthTable &table,
                          const MinimizeLimits &limits,
                          FsmDesignResult &result, FlowTrace &trace) const;
    void automataFallback(FsmDesignResult &result, FlowTrace &trace) const;

    FsmDesignOptions options_;
};

} // namespace autofsm

#endif // AUTOFSM_FLOW_DESIGN_FLOW_HH
