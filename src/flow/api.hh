/**
 * @file
 * The unified request/response API of the design pipeline.
 *
 * `DesignRequest` names everything a caller can ask of the flow — where
 * the behavior comes from (a named workload trace, inline outcomes, or a
 * pre-trained Markov model), the design knobs (`FsmDesignOptions`), and
 * the serving metadata (tenant, request class) — and `DesignResponse`
 * carries everything a caller gets back: the serialized FSM artifact
 * (automata/dfa_io text), per-stage timings, degradation flags, and the
 * structured error taxonomy of flow/budget.hh.
 *
 * `runDesignRequest` is the validating entry point over `DesignFlow`,
 * `BatchDesigner` carries DesignRequests internally, and the
 * autofsm-serve daemon speaks exactly this schema as JSON over its
 * framed socket protocol — the wire format and the in-process API are
 * the same thing.
 *
 * Request classes follow "Prediction with Restricted Resources and
 * Finite Automata" (PAPERS.md, arXiv 0812.1949): each class names a
 * resource envelope, realized as a `FlowBudget` by `budgetForClass` and
 * applied by the daemon's admission controller.
 */

#ifndef AUTOFSM_FLOW_API_HH
#define AUTOFSM_FLOW_API_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "obs/trace_context.hh"
#include "support/json_parse.hh"
#include "trace/packed_trace.hh"

namespace autofsm
{

/** Admission classes a request can be submitted under. */
enum class RequestClass
{
    Interactive, ///< low-latency: tight deadline and state budgets
    Batch,       ///< relaxed deadline, generous state budgets
    Bulk,        ///< throughput: unlimited budget, lowest priority
};

/** Stable lower-case name of @p klass ("interactive", ...). */
const char *requestClassName(RequestClass klass);

/** Inverse of requestClassName; nullopt for an unknown name. */
std::optional<RequestClass> requestClassFromName(std::string_view name);

/**
 * The FlowBudget a request of @p klass runs under when its own budget is
 * unlimited (the admission-control mapping; see serve/server.hh).
 * Interactive is tight, batch generous, bulk unlimited.
 */
FlowBudget budgetForClass(RequestClass klass);

/**
 * One design request. Exactly one behavior source must be set:
 *
 *  - `traceRef`: a named workload trace, resolved through the installed
 *    TraceRefResolver (the daemon and benches install the synthetic
 *    branch-workload resolver; see setTraceRefResolver);
 *  - `outcomes`: the binary behavior stream inline;
 *  - `model`: a pre-trained Markov model (the in-process fast path;
 *    also serializable for wire clients that profile locally).
 */
struct DesignRequest
{
    /** Caller-chosen correlation id, echoed in the response. */
    uint64_t id = 0;
    /** Tenant label for per-tenant serving metrics. */
    std::string tenant = "anonymous";
    RequestClass requestClass = RequestClass::Interactive;

    /** Workload name (branchBenchmarkNames()) when non-empty. */
    std::string traceRef;
    /** Approximate trace length a traceRef resolves to. */
    uint64_t traceBranches = 100000;

    /** Inline behavior outcomes (each 0 or 1) when non-empty. */
    std::vector<int> outcomes;

    /** Pre-trained model (its order must match options.order). */
    std::optional<MarkovModel> model;

    FsmDesignOptions options;

    /**
     * Opt into span tracing: the response carries the request's span
     * tree in DesignResponse::trace. Traced requests are never deduped
     * against identical batch items (their stages must actually run).
     */
    bool trace = false;

    /**
     * Opt into evaluation: after a successful design, replay the
     * designed machine over the request's own behavior stream (dense —
     * predicting every record) through replayMachines
     * (fsmgen/suffix_table.hh) and report evalBranches/evalMisses in the
     * response. Requires an outcome-bearing source (traceRef or inline
     * outcomes); a pre-trained model carries no stream to replay.
     * Requests sharing a (traceRef, traceBranches) stream are evaluated
     * together in one replay call by the batch engine.
     */
    bool evaluate = false;

    /**
     * The request's observability identity, minted at admission by the
     * serve daemon. In-process metadata — never serialized; wire
     * requests always start with a fresh context.
     */
    obs::TraceContext obsContext;

    /**
     * Check structural validity: exactly one source, outcome values in
     * {0,1}, order in [1,24], pattern knobs in range, plausible
     * traceBranches.
     *
     * @throws std::invalid_argument (classified invalid-input) on any
     *         violation.
     */
    void validate() const;
};

/** One FlowTrace stage record in serializable form. */
struct StageSummary
{
    std::string stage;
    double millis = 0.0;
    int64_t metric = 0;
    std::string metricName;
};

/** Structured failure of a request ({stage, kind, detail} triple). */
struct DesignError
{
    std::string stage;  ///< flow stage or serve site ("serve.admit")
    std::string kind;   ///< errorKindName of the classified failure
    std::string detail;
};

/** Everything a design request yields. */
struct DesignResponse
{
    /** Echo of DesignRequest::id. */
    uint64_t id = 0;
    /** True when an artifact was produced (possibly degraded). */
    bool ok = false;

    /** The designed machine, in automata/dfa_io text form. */
    std::string artifact;

    /** @name Design statistics. */
    /// @{
    int statesSubset = 0;
    int statesHopcroft = 0;
    int statesFinal = 0;
    int64_t coverCubes = 0;
    /// @}

    /** Total wall-clock across recorded stages, milliseconds. */
    double designMillis = 0.0;
    /** Flow attempts consumed (retry policy). */
    int attempts = 1;
    /** Tail served from the process-wide design-stage memo. */
    bool fromMemo = false;
    /** Result reused from an identical earlier item (batch memo). */
    bool fromCache = false;
    /** A degraded fallback path was taken (see fallbacks). */
    bool degraded = false;
    /** Fallback chain, "stage:kind" in execution order. */
    std::vector<std::string> fallbacks;
    /** Per-stage wall-clock and size metrics. */
    std::vector<StageSummary> stages;

    /**
     * The request's span tree (flat records, parent-linked) when the
     * request opted in with DesignRequest::trace. Feed to
     * obs::renderTraceEvents for the Chrome trace-event form.
     */
    std::vector<obs::SpanRecord> trace;

    /** @name Evaluation stage (set when the request asked to evaluate).
     * The designed machine's dense replay over the request's stream:
     * evalMisses mispredictions across evalBranches records.
     */
    /// @{
    bool evaluated = false;
    uint64_t evalBranches = 0;
    uint64_t evalMisses = 0;
    /// @}

    /** The classified failure when !ok. */
    DesignError error;
};

/**
 * Resolver for DesignRequest::traceRef, mapping (name, approx branches)
 * to the referenced trace's outcome stream (OutcomeWords,
 * trace/packed_trace.hh): the flow profiles and replays directions
 * only, so a resolver need not hold any pcs. The returned @c owner
 * keeps @c words alive and names the stream's identity: as long as a
 * resolver hands back the same owner for a (ref, branches) pair, the
 * stream is taken to be unchanged, and resolveRequestModel may reuse
 * the model it profiled from it. A resolver must therefore return a
 * new owner whenever the content may have changed (an owner-less
 * stream is never memoized). A plain function pointer so installation
 * is a single atomic store; the default (none installed) makes
 * traceRef requests fail invalid-input.
 * serve::installWorkloadTraceResolver() installs the synthetic
 * branch-workload resolver over the trace cache's outcome-only entries
 * (cachedBranchOutcomes).
 */
using TraceRefResolver = OutcomeWords (*)(const std::string &ref,
                                          uint64_t approxBranches);

/** Install @p resolver process-wide (nullptr uninstalls). */
void setTraceRefResolver(TraceRefResolver resolver);

/** The currently installed resolver, or nullptr. */
TraceRefResolver traceRefResolver();

/**
 * Resolve the request's behavior source to a Markov model at
 * options.order: pass a pre-trained model through, or train on inline
 * outcomes (trainMarkovModel) or a resolved traceRef's outcome words
 * (trainMarkovModelWords, no unpacking). Used by the batch pipeline so
 * identical behaviors dedupe before design.
 *
 * Trace-ref models are memoized process-wide by (traceRef,
 * traceBranches, order). The ref is resolved on every call, and an
 * entry is used only while the resolver returns the owner it was
 * profiled from (see TraceRefResolver), so clearing the trace cache or
 * installing another resolver forces a fresh profile. The memo's
 * tables are capped at a fixed total size.
 *
 * @throws std::invalid_argument on validation failure or unknown ref.
 */
std::shared_ptr<const MarkovModel>
resolveRequestModel(const DesignRequest &request);

/**
 * Resolve the request's outcome stream: the inline outcomes packed, or
 * the resolved traceRef's outcome words borrowed in place. This is what
 * the evaluation stage replays the designed machine against.
 *
 * @throws std::invalid_argument when the request's source is a
 *         pre-trained model (it carries no stream) or the ref cannot
 *         be resolved.
 */
OutcomeWords resolveRequestOutcomes(const DesignRequest &request);

/**
 * The single throwing entry point: validate, resolve the source, run
 * the design flow under request.options. The artifacts are exactly
 * DesignFlow(request.options).run / runOnTrace / runOnWords's.
 *
 * @throws FlowError / std::invalid_argument as the flow does.
 */
FlowResult runDesignRequest(const DesignRequest &request);

/**
 * The non-throwing service entry point: runDesignRequest with every
 * failure classified into DesignResponse::error (the daemon's per-item
 * behavior, usable in-process).
 */
DesignResponse designService(const DesignRequest &request);

/** Build the response for a successful flow run (ok = true). */
DesignResponse designResponseFromFlow(const DesignRequest &request,
                                      const FlowResult &flow);

/** @name JSON serialization (deterministic, support/json.hh format).
 * The from-JSON parsers are strict: unknown fields, out-of-range orders
 * and malformed values are rejected with std::invalid_argument. The
 * same schema is used verbatim by the daemon protocol, BatchDesigner
 * request replay, and the bench --request-file flag.
 */
/// @{
std::string toJson(const FlowBudget &budget);
std::string toJson(const FsmDesignOptions &options);
std::string toJson(const DesignRequest &request);
std::string toJson(const DesignResponse &response);

FlowBudget flowBudgetFromJson(const JsonValue &value);
FsmDesignOptions fsmDesignOptionsFromJson(const JsonValue &value);
DesignRequest designRequestFromJson(const JsonValue &value);
DesignResponse designResponseFromJson(const JsonValue &value);

DesignRequest designRequestFromJson(std::string_view text);
DesignResponse designResponseFromJson(std::string_view text);

/** Parse a JSON array of requests (the --request-file format). */
std::vector<DesignRequest> designRequestsFromJson(std::string_view text);
/// @}

} // namespace autofsm

#endif // AUTOFSM_FLOW_API_HH
