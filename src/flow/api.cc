#include "flow/api.hh"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>

#include "automata/dfa_io.hh"
#include "fsmgen/profile.hh"
#include "sim/bitsliced.hh"
#include "support/failpoint.hh"
#include "support/json.hh"

namespace autofsm
{

namespace
{

std::atomic<TraceRefResolver> g_traceResolver{nullptr};

/** Resolve request.traceRef through the installed resolver. */
std::shared_ptr<const PackedTrace>
resolveTraceRef(const DesignRequest &request)
{
    const TraceRefResolver resolver =
        g_traceResolver.load(std::memory_order_acquire);
    if (resolver == nullptr) {
        throw std::invalid_argument(
            "DesignRequest: traceRef '" + request.traceRef +
            "' given but no trace resolver is installed");
    }
    return resolver(request.traceRef, request.traceBranches);
}

constexpr int kMinOrder = 1;
constexpr int kMaxOrder = 24; // MarkovModel's packed-history ceiling
constexpr uint64_t kMaxTraceBranches = 100u * 1000 * 1000;

const char *
minimizeAlgoName(MinimizeAlgo algo)
{
    switch (algo) {
      case MinimizeAlgo::Auto: return "auto";
      case MinimizeAlgo::Exact: return "exact";
      case MinimizeAlgo::Heuristic: return "heuristic";
    }
    return "?";
}

MinimizeAlgo
minimizeAlgoFromName(const std::string &name)
{
    if (name == "auto")
        return MinimizeAlgo::Auto;
    if (name == "exact")
        return MinimizeAlgo::Exact;
    if (name == "heuristic")
        return MinimizeAlgo::Heuristic;
    throw std::invalid_argument("unknown minimizer '" + name + "'");
}

/** Throw for any member of @p value outside @p known. */
void
rejectUnknownFields(const JsonValue &value,
                    std::initializer_list<std::string_view> known,
                    const char *what)
{
    for (const auto &[key, member] : value.members()) {
        (void)member;
        if (std::find(known.begin(), known.end(), key) == known.end()) {
            throw std::invalid_argument(std::string(what) +
                                        ": unknown field '" + key + "'");
        }
    }
}

void
renderBudget(JsonWriter &json, const FlowBudget &budget)
{
    json.beginObject();
    json.key("deadlineMillis").value(budget.deadlineMillis);
    json.key("maxNfaStates").value(budget.maxNfaStates);
    json.key("maxDfaStates").value(budget.maxDfaStates);
    json.key("maxEspressoIterations").value(budget.maxEspressoIterations);
    json.key("maxMinterms").value(static_cast<uint64_t>(budget.maxMinterms));
    json.endObject();
}

void
renderOptions(JsonWriter &json, const FsmDesignOptions &options)
{
    json.beginObject();
    json.key("order").value(options.order);
    json.key("minimizer").value(minimizeAlgoName(options.minimizer));
    json.key("keepStartupStates").value(options.keepStartupStates);
    json.key("patterns");
    json.beginObject();
    json.key("threshold").value(options.patterns.threshold);
    json.key("dontCareMass").value(options.patterns.dontCareMass);
    json.key("unseenAreDontCare").value(options.patterns.unseenAreDontCare);
    json.endObject();
    json.key("budget");
    renderBudget(json, options.budget);
    json.endObject();
}

void
renderModel(JsonWriter &json, const MarkovModel &model)
{
    // The sparse table iterates in hash order; sort by history so equal
    // models serialize to equal bytes (the repo-wide determinism rule).
    std::vector<std::pair<uint32_t, HistoryCounts>> entries(
        model.table().begin(), model.table().end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    json.beginObject();
    json.key("order").value(model.order());
    json.key("entries");
    json.beginArray();
    for (const auto &[history, counts] : entries) {
        json.beginArray();
        json.value(static_cast<uint64_t>(history));
        json.value(counts.ones);
        json.value(counts.total);
        json.endArray();
    }
    json.endArray();
    json.endObject();
}

MarkovModel
modelFromJson(const JsonValue &value)
{
    rejectUnknownFields(value, {"order", "entries"}, "model");
    const JsonValue *order = value.find("order");
    if (order == nullptr)
        throw std::invalid_argument("model: missing 'order'");
    const int64_t n = order->asInt();
    if (n < kMinOrder || n > kMaxOrder) {
        throw std::invalid_argument("model: order " + std::to_string(n) +
                                    " out of [1, 24]");
    }
    MarkovModel model(static_cast<int>(n));
    if (const JsonValue *entries = value.find("entries")) {
        for (const JsonValue &entry : entries->items()) {
            const auto &triple = entry.items();
            if (triple.size() != 3) {
                throw std::invalid_argument(
                    "model: entry is not a [history, ones, total] triple");
            }
            const uint64_t history = triple[0].asUint();
            const uint64_t ones = triple[1].asUint();
            const uint64_t total = triple[2].asUint();
            if (n < 32 && history >= (uint64_t{1} << n)) {
                throw std::invalid_argument(
                    "model: history " + std::to_string(history) +
                    " does not fit order " + std::to_string(n));
            }
            if (ones > total) {
                throw std::invalid_argument(
                    "model: ones > total for history " +
                    std::to_string(history));
            }
            model.addCounts(static_cast<uint32_t>(history), ones, total);
        }
    }
    return model;
}

void
renderStageSummaries(JsonWriter &json, const std::vector<StageSummary> &stages)
{
    json.beginArray();
    for (const StageSummary &stage : stages) {
        json.beginObject();
        json.key("stage").value(stage.stage);
        json.key("millis").value(stage.millis);
        json.key("metric").value(stage.metric);
        json.key("metricName").value(stage.metricName);
        json.endObject();
    }
    json.endArray();
}

StageSummary
stageSummaryFromJson(const JsonValue &value)
{
    rejectUnknownFields(value, {"stage", "millis", "metric", "metricName"},
                        "stage");
    StageSummary stage;
    if (const JsonValue *v = value.find("stage"))
        stage.stage = v->asString();
    if (const JsonValue *v = value.find("millis"))
        stage.millis = v->asNumber();
    if (const JsonValue *v = value.find("metric"))
        stage.metric = v->asInt();
    if (const JsonValue *v = value.find("metricName"))
        stage.metricName = v->asString();
    return stage;
}

} // anonymous namespace

const char *
requestClassName(RequestClass klass)
{
    switch (klass) {
      case RequestClass::Interactive: return "interactive";
      case RequestClass::Batch: return "batch";
      case RequestClass::Bulk: return "bulk";
    }
    return "?";
}

std::optional<RequestClass>
requestClassFromName(std::string_view name)
{
    if (name == "interactive")
        return RequestClass::Interactive;
    if (name == "batch")
        return RequestClass::Batch;
    if (name == "bulk")
        return RequestClass::Bulk;
    return std::nullopt;
}

FlowBudget
budgetForClass(RequestClass klass)
{
    FlowBudget budget; // all-zero: unlimited
    switch (klass) {
      case RequestClass::Interactive:
        budget.deadlineMillis = 2000.0;
        budget.maxNfaStates = 4096;
        budget.maxDfaStates = 8192;
        budget.maxEspressoIterations = 64;
        budget.maxMinterms = size_t{1} << 16;
        break;
      case RequestClass::Batch:
        budget.deadlineMillis = 15000.0;
        budget.maxNfaStates = 16384;
        budget.maxDfaStates = 65536;
        budget.maxEspressoIterations = 256;
        budget.maxMinterms = size_t{1} << 20;
        break;
      case RequestClass::Bulk:
        break; // unlimited; bulk pays in queue priority, not budget
    }
    return budget;
}

void
DesignRequest::validate() const
{
    const int sources = (traceRef.empty() ? 0 : 1) +
        (outcomes.empty() ? 0 : 1) + (model.has_value() ? 1 : 0);
    if (sources != 1) {
        throw std::invalid_argument(
            "DesignRequest: exactly one of traceRef / outcomes / model "
            "must be set (got " +
            std::to_string(sources) + ")");
    }
    if (options.order < kMinOrder || options.order > kMaxOrder) {
        throw std::invalid_argument(
            "DesignRequest: order " + std::to_string(options.order) +
            " out of [1, 24]");
    }
    if (options.patterns.threshold < 0.0 ||
        options.patterns.threshold > 1.0) {
        throw std::invalid_argument(
            "DesignRequest: patterns.threshold out of [0, 1]");
    }
    if (options.patterns.dontCareMass < 0.0 ||
        options.patterns.dontCareMass > 1.0) {
        throw std::invalid_argument(
            "DesignRequest: patterns.dontCareMass out of [0, 1]");
    }
    if (!traceRef.empty() &&
        (traceBranches == 0 || traceBranches > kMaxTraceBranches)) {
        throw std::invalid_argument(
            "DesignRequest: traceBranches " +
            std::to_string(traceBranches) + " out of [1, " +
            std::to_string(kMaxTraceBranches) + "]");
    }
    for (const int outcome : outcomes) {
        if (outcome != 0 && outcome != 1) {
            throw std::invalid_argument(
                "DesignRequest: outcome " + std::to_string(outcome) +
                " is not a 0/1 bit");
        }
    }
    if (evaluate && model.has_value()) {
        throw std::invalid_argument(
            "DesignRequest: evaluate requires an outcome-bearing source "
            "(traceRef or outcomes); a pre-trained model carries no "
            "stream to replay");
    }
}

void
setTraceRefResolver(TraceRefResolver resolver)
{
    g_traceResolver.store(resolver, std::memory_order_release);
}

TraceRefResolver
traceRefResolver()
{
    return g_traceResolver.load(std::memory_order_acquire);
}

MarkovModel
resolveRequestModel(const DesignRequest &request)
{
    request.validate();
    if (request.model)
        return *request.model;
    if (!request.traceRef.empty()) {
        const std::shared_ptr<const PackedTrace> trace =
            resolveTraceRef(request);
        return trainMarkovModelWords(trace->takenWords().data(),
                                     trace->size(), request.options.order);
    }
    return trainMarkovModel(request.outcomes, request.options.order);
}

OutcomeWords
resolveRequestOutcomes(const DesignRequest &request)
{
    if (!request.outcomes.empty()) {
        auto words = std::make_shared<const std::vector<uint64_t>>(
            packOutcomeWords(request.outcomes));
        return {*words, request.outcomes.size(), words};
    }
    if (request.traceRef.empty()) {
        throw std::invalid_argument(
            "DesignRequest: no outcome stream to evaluate (source is a "
            "pre-trained model)");
    }
    std::shared_ptr<const PackedTrace> trace = resolveTraceRef(request);
    return {trace->takenWords(), trace->size(), std::move(trace)};
}

FlowResult
runDesignRequest(const DesignRequest &request)
{
    request.validate();
    const DesignFlow flow(request.options);
    if (request.model)
        return flow.run(*request.model);
    if (!request.outcomes.empty())
        return flow.runOnTrace(request.outcomes);
    const std::shared_ptr<const PackedTrace> trace = resolveTraceRef(request);
    return flow.runOnWords(trace->takenWords().data(), trace->size());
}

DesignResponse
designResponseFromFlow(const DesignRequest &request, const FlowResult &flow)
{
    DesignResponse response;
    response.id = request.id;
    response.ok = true;
    response.artifact = dfaToText(flow.design.fsm);
    response.statesSubset = flow.design.statesSubset;
    response.statesHopcroft = flow.design.statesHopcroft;
    response.statesFinal = flow.design.statesFinal;
    response.coverCubes = static_cast<int64_t>(flow.design.cover.size());
    response.designMillis = flow.trace.totalMillis();
    response.fromMemo = flow.tailFromMemo;
    response.degraded = flow.trace.degraded();
    response.fallbacks = flow.trace.fallbacks();
    for (const StageRecord &record : flow.trace.stages()) {
        StageSummary stage;
        stage.stage = flowStageName(record.stage);
        stage.millis = record.millis;
        stage.metric = record.metric;
        stage.metricName = record.metricName;
        response.stages.push_back(std::move(stage));
    }
    return response;
}

DesignResponse
designService(const DesignRequest &request)
{
    DesignResponse response;
    response.id = request.id;
    try {
        const FlowResult flow = runDesignRequest(request);
        response = designResponseFromFlow(request, flow);
        if (request.evaluate) {
            // Single-request evaluation path; the batch engine groups
            // shared-stream requests into one multi-lane replay instead.
            const OutcomeWords stream = resolveRequestOutcomes(request);
            const std::vector<BitslicedMachine> machines = {
                {&flow.design.fsm, nullptr}};
            const std::vector<uint64_t> misses = replayMachinesBitsliced(
                machines, stream.words.data(), stream.bits);
            response.evaluated = true;
            response.evalBranches = stream.bits;
            response.evalMisses = misses[0];
        }
        return response;
    } catch (const FlowError &e) {
        response.error = {e.stage(), errorKindName(e.kind()), e.detail()};
    } catch (const InjectedFault &e) {
        response.error = {e.site(), errorKindName(ErrorKind::Injected),
                          e.what()};
    } catch (const std::invalid_argument &e) {
        response.error = {"api", errorKindName(ErrorKind::InvalidInput),
                          e.what()};
    } catch (const std::exception &e) {
        response.error = {"api", errorKindName(ErrorKind::Internal),
                          e.what()};
    }
    return response;
}

// --- JSON serialization ------------------------------------------------

std::string
toJson(const FlowBudget &budget)
{
    std::ostringstream out;
    JsonWriter json(out);
    renderBudget(json, budget);
    return out.str();
}

std::string
toJson(const FsmDesignOptions &options)
{
    std::ostringstream out;
    JsonWriter json(out);
    renderOptions(json, options);
    return out.str();
}

std::string
toJson(const DesignRequest &request)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("id").value(request.id);
    json.key("tenant").value(request.tenant);
    json.key("class").value(requestClassName(request.requestClass));
    if (!request.traceRef.empty()) {
        json.key("traceRef").value(request.traceRef);
        json.key("traceBranches").value(request.traceBranches);
    }
    if (!request.outcomes.empty()) {
        json.key("outcomes");
        json.beginArray();
        for (const int outcome : request.outcomes)
            json.value(outcome);
        json.endArray();
    }
    if (request.model) {
        json.key("model");
        renderModel(json, *request.model);
    }
    json.key("options");
    renderOptions(json, request.options);
    // Emitted only when set so pre-tracing servers keep accepting the
    // common case under their strict parsers.
    if (request.trace)
        json.key("trace").value(true);
    // Same compatibility rule as trace: only opted-in requests carry it.
    if (request.evaluate)
        json.key("evaluate").value(true);
    json.endObject();
    return out.str();
}

std::string
toJson(const DesignResponse &response)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("id").value(response.id);
    json.key("ok").value(response.ok);
    json.key("artifact").value(response.artifact);
    json.key("statesSubset").value(response.statesSubset);
    json.key("statesHopcroft").value(response.statesHopcroft);
    json.key("statesFinal").value(response.statesFinal);
    json.key("coverCubes").value(response.coverCubes);
    json.key("designMillis").value(response.designMillis);
    json.key("attempts").value(response.attempts);
    json.key("fromMemo").value(response.fromMemo);
    json.key("fromCache").value(response.fromCache);
    json.key("degraded").value(response.degraded);
    json.key("fallbacks");
    json.beginArray();
    for (const std::string &fallback : response.fallbacks)
        json.value(fallback);
    json.endArray();
    json.key("stages");
    renderStageSummaries(json, response.stages);
    if (!response.trace.empty()) {
        json.key("trace");
        json.beginArray();
        for (const obs::SpanRecord &span : response.trace) {
            json.beginObject();
            json.key("id").value(span.id);
            json.key("parent").value(span.parent);
            json.key("name").value(span.name);
            json.key("startMillis").value(span.startMillis);
            json.key("millis").value(span.durationMillis);
            json.key("thread").value(span.thread);
            json.endObject();
        }
        json.endArray();
    }
    // Emitted only when the evaluation stage ran, so pre-evaluation
    // clients keep accepting common responses under strict parsing.
    if (response.evaluated) {
        json.key("evaluated").value(true);
        json.key("evalBranches").value(response.evalBranches);
        json.key("evalMisses").value(response.evalMisses);
    }
    if (!response.ok) {
        json.key("error");
        json.beginObject();
        json.key("stage").value(response.error.stage);
        json.key("kind").value(response.error.kind);
        json.key("detail").value(response.error.detail);
        json.endObject();
    }
    json.endObject();
    return out.str();
}

FlowBudget
flowBudgetFromJson(const JsonValue &value)
{
    rejectUnknownFields(value,
                        {"deadlineMillis", "maxNfaStates", "maxDfaStates",
                         "maxEspressoIterations", "maxMinterms"},
                        "budget");
    FlowBudget budget;
    if (const JsonValue *v = value.find("deadlineMillis")) {
        budget.deadlineMillis = v->asNumber();
        if (budget.deadlineMillis < 0.0)
            throw std::invalid_argument("budget: negative deadlineMillis");
    }
    auto intLimit = [&value](const char *key, int &out) {
        if (const JsonValue *v = value.find(key)) {
            const int64_t limit = v->asInt();
            if (limit < 0 || limit > INT32_MAX) {
                throw std::invalid_argument(std::string("budget: ") + key +
                                            " out of range");
            }
            out = static_cast<int>(limit);
        }
    };
    intLimit("maxNfaStates", budget.maxNfaStates);
    intLimit("maxDfaStates", budget.maxDfaStates);
    intLimit("maxEspressoIterations", budget.maxEspressoIterations);
    if (const JsonValue *v = value.find("maxMinterms"))
        budget.maxMinterms = static_cast<size_t>(v->asUint());
    return budget;
}

FsmDesignOptions
fsmDesignOptionsFromJson(const JsonValue &value)
{
    rejectUnknownFields(value,
                        {"order", "minimizer", "keepStartupStates",
                         "patterns", "budget"},
                        "options");
    FsmDesignOptions options;
    if (const JsonValue *v = value.find("order")) {
        const int64_t order = v->asInt();
        if (order < kMinOrder || order > kMaxOrder) {
            throw std::invalid_argument("options: order " +
                                        std::to_string(order) +
                                        " out of [1, 24]");
        }
        options.order = static_cast<int>(order);
    }
    if (const JsonValue *v = value.find("minimizer"))
        options.minimizer = minimizeAlgoFromName(v->asString());
    if (const JsonValue *v = value.find("keepStartupStates"))
        options.keepStartupStates = v->asBool();
    if (const JsonValue *v = value.find("patterns")) {
        rejectUnknownFields(
            *v, {"threshold", "dontCareMass", "unseenAreDontCare"},
            "patterns");
        if (const JsonValue *t = v->find("threshold")) {
            options.patterns.threshold = t->asNumber();
            if (options.patterns.threshold < 0.0 ||
                options.patterns.threshold > 1.0) {
                throw std::invalid_argument(
                    "patterns: threshold out of [0, 1]");
            }
        }
        if (const JsonValue *t = v->find("dontCareMass")) {
            options.patterns.dontCareMass = t->asNumber();
            if (options.patterns.dontCareMass < 0.0 ||
                options.patterns.dontCareMass > 1.0) {
                throw std::invalid_argument(
                    "patterns: dontCareMass out of [0, 1]");
            }
        }
        if (const JsonValue *t = v->find("unseenAreDontCare"))
            options.patterns.unseenAreDontCare = t->asBool();
    }
    if (const JsonValue *v = value.find("budget"))
        options.budget = flowBudgetFromJson(*v);
    return options;
}

DesignRequest
designRequestFromJson(const JsonValue &value)
{
    rejectUnknownFields(value,
                        {"id", "tenant", "class", "traceRef",
                         "traceBranches", "outcomes", "model", "options",
                         "trace", "evaluate"},
                        "DesignRequest");
    DesignRequest request;
    if (const JsonValue *v = value.find("id"))
        request.id = v->asUint();
    if (const JsonValue *v = value.find("tenant"))
        request.tenant = v->asString();
    if (const JsonValue *v = value.find("class")) {
        const auto klass = requestClassFromName(v->asString());
        if (!klass) {
            throw std::invalid_argument(
                "DesignRequest: unknown class '" + v->asString() + "'");
        }
        request.requestClass = *klass;
    }
    if (const JsonValue *v = value.find("traceRef"))
        request.traceRef = v->asString();
    if (const JsonValue *v = value.find("traceBranches"))
        request.traceBranches = v->asUint();
    if (const JsonValue *v = value.find("outcomes")) {
        request.outcomes.reserve(v->items().size());
        for (const JsonValue &outcome : v->items()) {
            const int64_t bit = outcome.asInt();
            if (bit != 0 && bit != 1) {
                throw std::invalid_argument(
                    "DesignRequest: outcome is not a 0/1 bit");
            }
            request.outcomes.push_back(static_cast<int>(bit));
        }
    }
    if (const JsonValue *v = value.find("model"))
        request.model = modelFromJson(*v);
    if (const JsonValue *v = value.find("options"))
        request.options = fsmDesignOptionsFromJson(*v);
    if (const JsonValue *v = value.find("trace"))
        request.trace = v->asBool();
    if (const JsonValue *v = value.find("evaluate"))
        request.evaluate = v->asBool();
    request.validate();
    return request;
}

DesignResponse
designResponseFromJson(const JsonValue &value)
{
    rejectUnknownFields(value,
                        {"id", "ok", "artifact", "statesSubset",
                         "statesHopcroft", "statesFinal", "coverCubes",
                         "designMillis", "attempts", "fromMemo",
                         "fromCache", "degraded", "fallbacks", "stages",
                         "trace", "error", "evaluated", "evalBranches",
                         "evalMisses"},
                        "DesignResponse");
    DesignResponse response;
    if (const JsonValue *v = value.find("id"))
        response.id = v->asUint();
    if (const JsonValue *v = value.find("ok"))
        response.ok = v->asBool();
    if (const JsonValue *v = value.find("artifact"))
        response.artifact = v->asString();
    if (const JsonValue *v = value.find("statesSubset"))
        response.statesSubset = static_cast<int>(v->asInt());
    if (const JsonValue *v = value.find("statesHopcroft"))
        response.statesHopcroft = static_cast<int>(v->asInt());
    if (const JsonValue *v = value.find("statesFinal"))
        response.statesFinal = static_cast<int>(v->asInt());
    if (const JsonValue *v = value.find("coverCubes"))
        response.coverCubes = v->asInt();
    if (const JsonValue *v = value.find("designMillis"))
        response.designMillis = v->asNumber();
    if (const JsonValue *v = value.find("attempts"))
        response.attempts = static_cast<int>(v->asInt());
    if (const JsonValue *v = value.find("fromMemo"))
        response.fromMemo = v->asBool();
    if (const JsonValue *v = value.find("fromCache"))
        response.fromCache = v->asBool();
    if (const JsonValue *v = value.find("degraded"))
        response.degraded = v->asBool();
    if (const JsonValue *v = value.find("fallbacks")) {
        for (const JsonValue &fallback : v->items())
            response.fallbacks.push_back(fallback.asString());
    }
    if (const JsonValue *v = value.find("stages")) {
        for (const JsonValue &stage : v->items())
            response.stages.push_back(stageSummaryFromJson(stage));
    }
    if (const JsonValue *v = value.find("trace")) {
        for (const JsonValue &span : v->items()) {
            rejectUnknownFields(span,
                                {"id", "parent", "name", "startMillis",
                                 "millis", "thread"},
                                "trace span");
            obs::SpanRecord record;
            if (const JsonValue *s = span.find("id"))
                record.id = s->asUint();
            if (const JsonValue *s = span.find("parent"))
                record.parent = s->asUint();
            if (const JsonValue *s = span.find("name"))
                record.name = s->asString();
            if (const JsonValue *s = span.find("startMillis"))
                record.startMillis = s->asNumber();
            if (const JsonValue *s = span.find("millis"))
                record.durationMillis = s->asNumber();
            if (const JsonValue *s = span.find("thread"))
                record.thread = static_cast<uint32_t>(s->asUint());
            response.trace.push_back(std::move(record));
        }
    }
    if (const JsonValue *v = value.find("evaluated"))
        response.evaluated = v->asBool();
    if (const JsonValue *v = value.find("evalBranches"))
        response.evalBranches = v->asUint();
    if (const JsonValue *v = value.find("evalMisses"))
        response.evalMisses = v->asUint();
    if (const JsonValue *v = value.find("error")) {
        rejectUnknownFields(*v, {"stage", "kind", "detail"}, "error");
        if (const JsonValue *e = v->find("stage"))
            response.error.stage = e->asString();
        if (const JsonValue *e = v->find("kind"))
            response.error.kind = e->asString();
        if (const JsonValue *e = v->find("detail"))
            response.error.detail = e->asString();
    }
    return response;
}

DesignRequest
designRequestFromJson(std::string_view text)
{
    return designRequestFromJson(JsonValue::parse(text));
}

DesignResponse
designResponseFromJson(std::string_view text)
{
    return designResponseFromJson(JsonValue::parse(text));
}

std::vector<DesignRequest>
designRequestsFromJson(std::string_view text)
{
    const JsonValue doc = JsonValue::parse(text);
    std::vector<DesignRequest> requests;
    requests.reserve(doc.items().size());
    for (const JsonValue &item : doc.items())
        requests.push_back(designRequestFromJson(item));
    return requests;
}

} // namespace autofsm
