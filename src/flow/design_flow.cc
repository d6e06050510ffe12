#include "flow/design_flow.hh"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "automata/regex.hh"
#include "flow/design_memo.hh"
#include "fsmgen/profile.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "support/failpoint.hh"
#include "support/json.hh"

namespace autofsm
{

namespace
{

constexpr FlowStage kAllStages[] = {
    FlowStage::Markov,   FlowStage::Patterns, FlowStage::Minimize,
    FlowStage::Regex,    FlowStage::Subset,   FlowStage::Hopcroft,
    FlowStage::StartReduce,
};
constexpr size_t kStageCount = std::size(kAllStages);

/** Global per-stage instrumentation, registered once. */
struct FlowTelemetry
{
    obs::Counter runs;
    obs::Histogram stageMillis[kStageCount];
    obs::Counter stageMetric[kStageCount];
};

FlowTelemetry &
flowTelemetry()
{
    static FlowTelemetry telemetry = [] {
        obs::MetricsRegistry &registry = obs::globalMetrics();
        FlowTelemetry t;
        t.runs = registry.counter("autofsm_flow_runs_total",
                                  "Design-flow pipeline executions.");
        for (size_t i = 0; i < kStageCount; ++i) {
            const obs::Labels labels = {
                {"stage", flowStageName(kAllStages[i])}};
            t.stageMillis[i] = registry.histogram(
                "autofsm_flow_stage_millis",
                "Wall-clock of one design-flow stage.",
                obs::defaultLatencyBucketsMillis(), labels);
            t.stageMetric[i] = registry.counter(
                "autofsm_flow_stage_metric_total",
                "Sum of the stage size metric (states/cubes/...) "
                "across runs.",
                labels);
        }
        return t;
    }();
    return telemetry;
}

/**
 * Record a taken fallback path: in the run's FlowTrace (as
 * "stage:kind") and in the process-wide fallback counter. Fallbacks are
 * rare, so the per-call counter registration (a lookup under the
 * registry mutex) is fine here.
 */
void
recordFallback(FlowTrace &trace, const char *stage, const char *kind)
{
    trace.noteFallback(std::string(stage) + ':' + kind);
    obs::globalMetrics()
        .counter("autofsm_flow_fallbacks_total",
                 "Degraded design-flow paths taken, by failing stage "
                 "and fallback kind.",
                 {{"stage", stage}, {"kind", kind}})
        .inc();
}

/**
 * Close @p span and publish the stage everywhere it is observed: the
 * per-run FlowTrace (whose millis are exactly the span's duration) and
 * the global per-stage histogram/counter pair.
 */
void
recordStage(FlowTrace &trace, FlowStage stage, obs::SpanScope &span,
            int64_t metric, const char *metric_name)
{
    const double millis = span.finishMillis();
    trace.add(stage, millis, metric, metric_name);
    observeFlowStageMillis(stage, millis);
    if (metric > 0)
        flowTelemetry().stageMetric[static_cast<size_t>(stage)].inc(
            static_cast<uint64_t>(metric));
}

} // anonymous namespace

const char *
flowStageName(FlowStage stage)
{
    switch (stage) {
      case FlowStage::Markov: return "markov";
      case FlowStage::Patterns: return "patterns";
      case FlowStage::Minimize: return "minimize";
      case FlowStage::Regex: return "regex";
      case FlowStage::Subset: return "subset";
      case FlowStage::Hopcroft: return "hopcroft";
      case FlowStage::StartReduce: return "start-reduce";
    }
    return "?";
}

std::optional<FlowStage>
flowStageFromName(std::string_view name)
{
    for (const FlowStage stage : kAllStages) {
        if (name == flowStageName(stage))
            return stage;
    }
    return std::nullopt;
}

void
observeFlowStageMillis(FlowStage stage, double millis)
{
    flowTelemetry().stageMillis[static_cast<size_t>(stage)].observe(millis);
}

const StageRecord *
FlowTrace::find(FlowStage stage) const
{
    for (const auto &record : stages_) {
        if (record.stage == stage)
            return &record;
    }
    return nullptr;
}

double
FlowTrace::totalMillis() const
{
    double total = 0.0;
    for (const auto &record : stages_)
        total += record.millis;
    return total;
}

void
FlowTrace::renderJson(std::ostream &out) const
{
    JsonWriter json(out);
    json.beginArray();
    for (const auto &record : stages_) {
        json.beginObject();
        json.key("stage").value(flowStageName(record.stage));
        json.key("millis").value(record.millis);
        json.key("metric").value(record.metric);
        json.key("metricName").value(record.metricName);
        json.endObject();
    }
    json.endArray();
}

std::string
FlowTrace::toJson() const
{
    std::ostringstream out;
    renderJson(out);
    return out.str();
}

FlowResult
DesignFlow::run(const MarkovModel &model) const
{
    obs::SpanScope root(obs::currentTracer(), "flow.run");
    const Deadline deadline(options_.budget.deadlineMillis);
    return runStages(model, FlowTrace(), deadline);
}

template <typename Train>
FlowResult
DesignFlow::runTrained(const Train &train) const
{
    obs::SpanScope root(obs::currentTracer(), "flow.run");
    const Deadline deadline(options_.budget.deadlineMillis);
    obs::SpanScope span(obs::currentTracer(), "flow.markov");
    AUTOFSM_FAILPOINT("flow.markov");
    const MarkovModel model = train();
    FlowTrace flow_trace;
    recordStage(flow_trace, FlowStage::Markov, span,
                static_cast<int64_t>(model.distinctHistories()),
                "histories");
    return runStages(model, std::move(flow_trace), deadline);
}

FlowResult
DesignFlow::runOnTrace(const std::vector<int> &trace) const
{
    return runTrained(
        [&] { return trainMarkovModel(trace, options_.order); });
}

FlowResult
DesignFlow::runOnWords(const uint64_t *words, size_t bits) const
{
    return runTrained(
        [&] { return trainMarkovModelWords(words, bits, options_.order); });
}

/**
 * The minimize-stage fallback ladder, entered after the configured
 * engine failed or exceeded its budget: try exact Quine-McCluskey, and
 * if that also fails (or the minterm budget rules it out too) settle
 * for the unminimized minterm cover, which is exact and always
 * constructible. Deadline expiry is not absorbed: a run that is out of
 * wall-clock must fail fast, not keep minimizing.
 */
void
DesignFlow::minimizeFallback(const TruthTable &table,
                             const MinimizeLimits &limits,
                             FsmDesignResult &result,
                             FlowTrace &trace) const
{
    try {
        result.cover = minimize(table, MinimizeAlgo::Exact, limits);
        recordFallback(trace, "minimize", "exact");
        return;
    } catch (const FlowError &e) {
        if (e.kind() == ErrorKind::DeadlineExceeded)
            throw;
    } catch (const std::exception &) {
        // fall through to the unminimized cover
    }
    result.cover = unminimizedCover(table);
    recordFallback(trace, "minimize", "unminimized");
}

/**
 * The automata-half fallback: when the regex/subset/Hopcroft/reduce
 * stages fail or blow the state budgets, the degraded — but always
 * available — answer is the paper's baseline, the 2-bit saturating
 * counter. Stage records are filled in for any stage that did not run
 * so every FlowTrace keeps the same shape.
 */
void
DesignFlow::automataFallback(FsmDesignResult &result,
                             FlowTrace &trace) const
{
    const char *failed = "regex";
    constexpr std::pair<FlowStage, const char *> kAutomataStages[] = {
        {FlowStage::Regex, "terms"},
        {FlowStage::Subset, "states"},
        {FlowStage::Hopcroft, "states"},
        {FlowStage::StartReduce, "states"},
    };
    for (const auto &[stage, metric] : kAutomataStages) {
        if (trace.find(stage) == nullptr) {
            failed = flowStageName(stage);
            break;
        }
    }

    const Dfa counter = Dfa::saturatingCounter(2);
    result.beforeReduction = counter;
    result.fsm = counter;
    result.statesSubset = counter.numStates();
    result.statesHopcroft = counter.numStates();
    result.statesFinal = counter.numStates();
    if (result.regexText.empty())
        result.regexText = "(degraded)";
    for (const auto &[stage, metric_name] : kAutomataStages) {
        if (trace.find(stage) == nullptr)
            trace.add(stage, 0.0, counter.numStates(), metric_name);
    }
    recordFallback(trace, failed, "saturating-counter");
}

FlowResult
DesignFlow::runStages(const MarkovModel &model, FlowTrace trace,
                      const Deadline &deadline) const
{
    if (model.order() != options_.order) {
        throw std::invalid_argument(
            "DesignFlow: model order " + std::to_string(model.order()) +
            " does not match options order " +
            std::to_string(options_.order));
    }

    obs::Tracer *tracer = obs::currentTracer();
    flowTelemetry().runs.inc();

    FlowResult out;
    out.trace = std::move(trace);
    FsmDesignResult &result = out.design;

    {
        deadline.check("patterns");
        obs::SpanScope span(tracer, "flow.patterns");
        AUTOFSM_FAILPOINT("flow.patterns");
        result.patterns = definePatterns(model, options_.patterns);
        recordStage(out.trace, FlowStage::Patterns, span,
                    static_cast<int64_t>(
                        result.patterns.predictOne.size() +
                        result.patterns.predictZero.size()),
                    "specified");
    }

    // Cross-item stage memo: identical partitions share one tail
    // execution. Eligibility requires an unlimited budget (finite
    // budgets can change the tail's products) and no armed failpoint (a
    // hit would mask the fault a test is injecting downstream). The
    // failpoint evaluates before the armed() bypass so it can itself be
    // driven.
    AUTOFSM_FAILPOINT("flow.designmemo");
    std::optional<DesignMemoKey> memo_key;
    if (options_.budget.unlimited() && !failpoint::armed()) {
        memo_key = designMemoKey(result.patterns, options_.minimizer,
                                 options_.keepStartupStates);
        if (const auto entry = designMemoLookup(*memo_key)) {
            result.cover = entry->cover;
            result.regexText = entry->regexText;
            result.beforeReduction = entry->beforeReduction;
            result.fsm = entry->fsm;
            result.statesSubset = entry->statesSubset;
            result.statesHopcroft = entry->statesHopcroft;
            result.statesFinal = entry->statesFinal;
            // Keep the FlowTrace shape of a computed run; the tail cost
            // zero wall-clock, like the empty-cover short-circuit.
            out.trace.add(FlowStage::Minimize, 0.0,
                          static_cast<int64_t>(result.cover.size()),
                          "cubes");
            out.trace.add(FlowStage::Regex, 0.0,
                          static_cast<int64_t>(result.cover.size()),
                          "terms");
            out.trace.add(FlowStage::Subset, 0.0, result.statesSubset,
                          "states");
            out.trace.add(FlowStage::Hopcroft, 0.0,
                          result.statesHopcroft, "states");
            out.trace.add(FlowStage::StartReduce, 0.0,
                          result.statesFinal, "states");
            out.tailFromMemo = true;
            return out;
        }
    }

    {
        deadline.check("minimize");
        obs::SpanScope span(tracer, "flow.minimize");
        const TruthTable table = result.patterns.toTruthTable();
        MinimizeLimits limits;
        limits.maxEspressoIterations =
            options_.budget.maxEspressoIterations;
        limits.maxMinterms = options_.budget.maxMinterms;
        try {
            AUTOFSM_FAILPOINT("flow.minimize");
            result.cover = minimize(table, options_.minimizer, limits);
        } catch (const FlowError &e) {
            if (e.kind() == ErrorKind::DeadlineExceeded)
                throw;
            minimizeFallback(table, limits, result, out.trace);
        } catch (const std::exception &) {
            minimizeFallback(table, limits, result, out.trace);
        }
        recordStage(out.trace, FlowStage::Minimize, span,
                    static_cast<int64_t>(result.cover.size()), "cubes");
    }

    if (result.cover.empty()) {
        // Nothing to predict 1 on: the constant machine. (Hopcroft would
        // reduce the general pipeline to this anyway, and the empty
        // language has no regex.) The automata stages are still recorded
        // so every FlowTrace has the same shape and the state counts
        // stay inspectable.
        result.regexText = "(empty)";
        result.beforeReduction = Dfa::constant(0);
        result.fsm = result.beforeReduction;
        result.statesSubset = 1;
        result.statesHopcroft = 1;
        result.statesFinal = 1;
        out.trace.add(FlowStage::Regex, 0.0, 0, "terms");
        out.trace.add(FlowStage::Subset, 0.0, 1, "states");
        out.trace.add(FlowStage::Hopcroft, 0.0, 1, "states");
        out.trace.add(FlowStage::StartReduce, 0.0, 1, "states");
        return out;
    }

    try {
        {
            deadline.check("regex");
            obs::SpanScope span(tracer, "flow.regex");
            AUTOFSM_FAILPOINT("flow.regex");
            result.regexText = regexText(result.cover);
            recordStage(out.trace, FlowStage::Regex, span,
                        static_cast<int64_t>(result.cover.size()),
                        "terms");
        }

        {
            deadline.check("subset");
            obs::SpanScope span(tracer, "flow.subset");
            AUTOFSM_FAILPOINT("flow.subset");
            options_.budget.checkThompsonStates(
                thompsonStateCount(result.cover));
            result.beforeReduction =
                Dfa::fromCover(result.cover, options_.budget.maxDfaStates);
            result.statesSubset = result.beforeReduction.numStates();
            recordStage(out.trace, FlowStage::Subset, span,
                        result.statesSubset, "states");
        }

        {
            deadline.check("hopcroft");
            obs::SpanScope span(tracer, "flow.hopcroft");
            AUTOFSM_FAILPOINT("flow.hopcroft");
            result.beforeReduction =
                result.beforeReduction.minimizeHopcroft();
            result.statesHopcroft = result.beforeReduction.numStates();
            recordStage(out.trace, FlowStage::Hopcroft, span,
                        result.statesHopcroft, "states");
        }

        {
            deadline.check("start-reduce");
            obs::SpanScope span(tracer, "flow.start-reduce");
            AUTOFSM_FAILPOINT("flow.start-reduce");
            if (options_.keepStartupStates) {
                result.fsm = result.beforeReduction;
            } else {
                result.fsm = result.beforeReduction.steadyStateReduce();
            }
            result.statesFinal = result.fsm.numStates();
            recordStage(out.trace, FlowStage::StartReduce, span,
                        result.statesFinal, "states");
        }
    } catch (const FlowError &e) {
        // Budget overruns degrade to the saturating counter; an expired
        // deadline means the whole run is out of time and must fail.
        if (e.kind() == ErrorKind::DeadlineExceeded)
            throw;
        automataFallback(result, out.trace);
    } catch (const std::exception &) {
        automataFallback(result, out.trace);
    }
    // Only clean, fully computed tails are worth sharing: a degraded
    // result reflects this run's failures, not the key's true product.
    if (memo_key && !out.trace.degraded()) {
        auto entry = std::make_shared<DesignMemoEntry>();
        entry->cover = result.cover;
        entry->regexText = result.regexText;
        entry->beforeReduction = result.beforeReduction;
        entry->fsm = result.fsm;
        entry->statesSubset = result.statesSubset;
        entry->statesHopcroft = result.statesHopcroft;
        entry->statesFinal = result.statesFinal;
        for (const StageRecord &stage : out.trace.stages()) {
            entry->stageMillis.emplace_back(flowStageName(stage.stage),
                                            stage.millis);
        }
        designMemoStore(std::move(*memo_key), std::move(entry));
    }
    return out;
}

} // namespace autofsm
