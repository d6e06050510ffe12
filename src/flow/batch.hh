/**
 * @file
 * Thread-pool-driven batch execution of the design flow.
 *
 * `BatchDesigner` takes N Markov models (or DesignRequests) — e.g. every
 * hot branch of a Figure 5 benchmark, or all benchmarks of Figure 4 — and
 * designs them concurrently. Guarantees:
 *
 *  - **Determinism**: results come back in input order and each machine is
 *    bit-identical to what a serial `DesignFlow::run` produces, regardless of
 *    thread count (the flow itself is single-threaded per item; threads
 *    only partition items).
 *  - **Memoization**: items with identical Markov model content (and the
 *    batch shares one `FsmDesignOptions`) are designed once; duplicates
 *    reuse the minimized DFA and are flagged `fromCache`.
 *  - **Failure isolation**: an item that throws reports its error in its
 *    own slot; the rest of the batch completes normally.
 */

#ifndef AUTOFSM_FLOW_BATCH_HH
#define AUTOFSM_FLOW_BATCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "flow/api.hh"
#include "flow/design_flow.hh"

namespace autofsm
{

/**
 * Order-independent content hash of a model (table entries, order,
 * totals). Equal models hash equal on every platform and run; unequal
 * models collide only with ordinary 64-bit-hash probability, and the
 * batch designer confirms every hash match with markovEqual before
 * reusing a result.
 */
uint64_t markovContentHash(const MarkovModel &model);

/** Exact content equality of two models. */
bool markovEqual(const MarkovModel &a, const MarkovModel &b);

/**
 * Per-item retry policy of a batch run.
 *
 * A failing item is retried only when its error is *retryable*
 * (`errorKindRetryable`): budget and deadline overruns — which a bigger
 * budget can fix — and injected faults, which model transient
 * infrastructure errors. Invalid input and internal failures are
 * terminal and never retried. Each retry runs under the item's budget
 * escalated by `budgetEscalation` (compounding per attempt).
 */
struct RetryPolicy
{
    /** Total attempts per item (1 = no retries). */
    int maxAttempts = 1;
    /** Finite budget limits are multiplied by this per retry. */
    double budgetEscalation = 2.0;
};

/** Execution knobs of a batch run. */
struct BatchOptions
{
    /**
     * Cap on the threads designing this batch's items, the calling
     * thread included; 0 means ThreadPool::defaultThreadCount() and 1
     * runs every item inline, in order. Items run on the process-wide
     * shared pool (support/thread_pool.hh).
     */
    unsigned threads = 0;
    /** Design identical models only once (content-hash memo cache). */
    bool memoize = true;
    /** Per-item retry policy (default: no retries). */
    RetryPolicy retry;
};

/** Outcome of one batch item. */
struct BatchItemResult
{
    /** False when the flow threw for this item; see error. */
    bool ok = false;
    /** True when the result was reused from an identical earlier item. */
    bool fromCache = false;
    /** True when the flow succeeded via a degraded fallback path. */
    bool degraded = false;
    /** Flow attempts consumed (1 unless the retry policy kicked in). */
    int attempts = 1;
    /** Comma-joined fallback chain when degraded ("minimize:exact"). */
    std::string fallback;
    /** what() of the captured exception when !ok (the last attempt's). */
    std::string error;
    /** errorKindName of the failure when !ok and classifiable, "" else. */
    std::string errorKind;
    /** Failing flow stage when !ok ("minimize", ...), "api" otherwise. */
    std::string errorStage;
    /** @name Evaluation stage (when the request set evaluate and ok).
     * Dense replay of the designed machine over the request's own
     * stream; see DesignRequest::evaluate.
     */
    /// @{
    bool evaluated = false;
    uint64_t evalBranches = 0;
    uint64_t evalMisses = 0;
    /// @}
    /** Design artifacts and stage observations (valid when ok). */
    FlowResult flow;
};

/** Aggregate counters of the most recent batch run. */
struct BatchStats
{
    size_t items = 0;     ///< batch size
    size_t designed = 0;  ///< flow executions actually run
    size_t cacheHits = 0; ///< items served from the memo cache
    size_t failures = 0;  ///< items whose flow threw terminally
    size_t retries = 0;   ///< extra attempts consumed by the retry policy
    size_t degraded = 0;  ///< items that succeeded via a fallback path
    size_t evaluated = 0; ///< items whose evaluation replay ran
};

/** Parallel batch front end over DesignFlow. */
class BatchDesigner
{
  public:
    explicit BatchDesigner(FsmDesignOptions design = {},
                           BatchOptions options = {})
        : flow_(design), options_(options)
    {
    }

    const FsmDesignOptions &designOptions() const
    {
        return flow_.options();
    }

    const BatchOptions &batchOptions() const { return options_; }

    /** Counters of the most recent designAll/designRequests call. */
    const BatchStats &stats() const { return stats_; }

    /**
     * Design every request of @p requests concurrently. This is the
     * batch engine proper — designAll wraps it — and what the serve
     * daemon's dispatcher feeds.
     *
     * Each request is resolved to a Markov model (resolveRequestModel;
     * a resolution failure is isolated to its own slot; an
     * outcome-bearing request's resolution is observed as its markov
     * stage in autofsm_flow_stage_millis), deduplicated
     * against requests with identical model content *and* identical
     * design options, and designed under its own `options` with the
     * retry policy.
     *
     * Requests with `evaluate` set additionally replay their designed
     * machine over their own behavior stream (dense) after design.
     * Equal model content does not imply an equal stream, so every
     * evaluating request replays its own source; requests naming the
     * same (traceRef, traceBranches) share one stream resolve and one
     * multi-lane bit-sliced replay (sim/bitsliced.hh).
     *
     * @return One result per input, in input order.
     */
    std::vector<BatchItemResult>
    designRequests(const std::vector<DesignRequest> &requests);

    /**
     * Design every model of @p models under designOptions().
     *
     * @return One result per input, in input order.
     */
    std::vector<BatchItemResult>
    designAll(const std::vector<MarkovModel> &models);

  private:
    DesignFlow flow_;
    BatchOptions options_;
    BatchStats stats_;
};

/**
 * Render one batch item as a DesignResponse (the serve daemon's and the
 * bench replay's response path): a successful item through
 * designResponseFromFlow plus the batch-level attempts/fromCache flags,
 * a failed one with its classified {stage, kind, detail}.
 */
DesignResponse designResponseFromItem(const DesignRequest &request,
                                      const BatchItemResult &item);

} // namespace autofsm

#endif // AUTOFSM_FLOW_BATCH_HH
