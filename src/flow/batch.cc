#include "flow/batch.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <unordered_map>

#include "flow/budget.hh"
#include "fsmgen/suffix_table.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"
#include "support/failpoint.hh"
#include "support/thread_pool.hh"

namespace autofsm
{

namespace
{

/** splitmix64 finalizer: a cheap, well-mixed 64-bit hash step. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Batch-level instrumentation, registered once. */
struct BatchTelemetry
{
    obs::Counter items;
    obs::Counter designed;
    obs::Counter cacheHits;
    obs::Counter failures;
    obs::Counter retries;
    obs::Counter retrySuccesses;
    obs::Counter degraded;
    obs::Counter evaluated;
    obs::Histogram queueWait;
    obs::Histogram itemMillis;
};

BatchTelemetry &
batchTelemetry()
{
    static BatchTelemetry telemetry = [] {
        obs::MetricsRegistry &registry = obs::globalMetrics();
        BatchTelemetry t;
        t.items = registry.counter("autofsm_batch_items_total",
                                   "Items submitted to BatchDesigner.");
        t.designed = registry.counter(
            "autofsm_batch_designed_total",
            "Flow executions actually run (memo-cache misses).");
        t.cacheHits = registry.counter(
            "autofsm_batch_cache_hits_total",
            "Items served from the content-hash memo cache.");
        t.failures = registry.counter("autofsm_batch_failures_total",
                                      "Items whose design flow threw.");
        t.retries = registry.counter(
            "autofsm_batch_retries_total",
            "Extra flow attempts consumed by the retry policy.");
        t.retrySuccesses = registry.counter(
            "autofsm_batch_retry_successes_total",
            "Items that succeeded on a retry attempt.");
        t.degraded = registry.counter(
            "autofsm_batch_degraded_total",
            "Items that completed via a degraded fallback path.");
        t.evaluated = registry.counter(
            "autofsm_batch_evaluated_total",
            "Items whose designed machine was replayed over its stream "
            "by the evaluation stage.");
        t.queueWait = registry.histogram(
            "autofsm_batch_queue_wait_millis",
            "Delay between batch start and an item starting to design.",
            obs::defaultLatencyBucketsMillis());
        t.itemMillis = registry.histogram(
            "autofsm_batch_item_millis",
            "Wall-clock of one designed (non-cached) batch item.",
            obs::defaultLatencyBucketsMillis());
        return t;
    }();
    return telemetry;
}

/**
 * Classify a failed attempt: record error/errorKind on @p slot and
 * decide whether the retry policy may try again.
 */
bool
classifyFailure(BatchItemResult &slot, std::exception_ptr error)
{
    slot.errorStage = "api";
    try {
        std::rethrow_exception(error);
    } catch (const FlowError &e) {
        slot.error = e.what();
        slot.errorKind = errorKindName(e.kind());
        slot.errorStage = e.stage();
        return errorKindRetryable(e.kind());
    } catch (const InjectedFault &e) {
        // Injected faults model transient infrastructure errors.
        slot.error = e.what();
        slot.errorKind = errorKindName(ErrorKind::Injected);
        slot.errorStage = e.site();
        return true;
    } catch (const std::invalid_argument &e) {
        slot.error = e.what();
        slot.errorKind = errorKindName(ErrorKind::InvalidInput);
        return false;
    } catch (const std::exception &e) {
        slot.error = e.what();
        slot.errorKind = errorKindName(ErrorKind::Internal);
        return false;
    } catch (...) {
        slot.error = "unknown exception in design flow";
        slot.errorKind = errorKindName(ErrorKind::Internal);
        return false;
    }
}

} // anonymous namespace

uint64_t
markovContentHash(const MarkovModel &model)
{
    // The table is an unordered_map, so per-entry hashes are combined
    // with a commutative sum to stay independent of iteration order.
    uint64_t entries = 0;
    for (const auto &[history, counts] : model.table()) {
        uint64_t h = mix64(history);
        h = mix64(h ^ counts.ones);
        h = mix64(h ^ counts.total);
        entries += h;
    }
    uint64_t hash = mix64(static_cast<uint64_t>(model.order()));
    hash = mix64(hash ^ model.totalObservations());
    hash = mix64(hash ^ static_cast<uint64_t>(model.distinctHistories()));
    return mix64(hash ^ entries);
}

bool
markovEqual(const MarkovModel &a, const MarkovModel &b)
{
    if (a.order() != b.order() ||
        a.totalObservations() != b.totalObservations() ||
        a.distinctHistories() != b.distinctHistories()) {
        return false;
    }
    for (const auto &[history, counts] : a.table()) {
        const HistoryCounts other = b.counts(history);
        if (other.ones != counts.ones || other.total != counts.total)
            return false;
    }
    return true;
}

std::vector<BatchItemResult>
BatchDesigner::designRequests(const std::vector<DesignRequest> &requests)
{
    stats_ = BatchStats();
    stats_.items = requests.size();

    // The caller's tracer (the daemon's private one under a
    // TracerBinding, globalTracer() otherwise). Pool workers do not
    // inherit the caller's thread-local binding, so each fanned-out
    // lambda re-binds it explicitly.
    obs::Tracer *const tracer = obs::currentTracer();

    auto runParallel = [this](size_t count, auto &&fn) {
        parallelFor(count, fn, options_.threads);
    };

    // Phase 1: resolve every behavior source to a Markov model. A
    // request whose source cannot be resolved (unknown traceRef, bad
    // outcomes) fails in its own slot and skips the design phase.
    // Resolving an outcome-bearing source is that request's markov
    // stage (trace resolution plus profiling), so it is observed into
    // the flow's markov histogram; a pre-trained model ran none.
    std::vector<BatchItemResult> results(requests.size());
    std::vector<std::shared_ptr<const MarkovModel>> models(requests.size());
    runParallel(requests.size(), [&](size_t i) {
        obs::TracerBinding bind(tracer);
        obs::TraceContextScope context(requests[i].obsContext);
        std::optional<obs::SpanScope> span;
        if (requests[i].obsContext.sampled) {
            span.emplace(tracer, "batch.resolve",
                         requests[i].obsContext.rootSpan);
        }
        const auto start = std::chrono::steady_clock::now();
        try {
            models[i] = resolveRequestModel(requests[i]);
            if (!requests[i].model) {
                observeFlowStageMillis(
                    FlowStage::Markov,
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
            }
        } catch (...) {
            classifyFailure(results[i], std::current_exception());
        }
    });

    // Phase 2: group identical work up front: representative[i] is the
    // index of the first resolvable item with equal model content AND
    // equal design options (requests carry their own options, so the
    // model alone is not the memo key). Grouping serially keeps the
    // representative choice (and thus the output) deterministic.
    std::vector<std::string> optionKeys(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        if (models[i])
            optionKeys[i] = toJson(requests[i].options);
    }
    std::vector<size_t> representative(requests.size());
    std::vector<size_t> unique;
    unique.reserve(requests.size());
    if (options_.memoize) {
        std::unordered_map<uint64_t, std::vector<size_t>> byHash;
        for (size_t i = 0; i < requests.size(); ++i) {
            representative[i] = i;
            if (!models[i])
                continue; // resolution failed; nothing to design
            if (requests[i].trace) {
                // A traced item must execute its own flow stages (its
                // spans are the deliverable), so it neither reuses a
                // representative nor serves as one.
                unique.push_back(i);
                continue;
            }
            const uint64_t hash = markovContentHash(*models[i]) ^
                mix64(std::hash<std::string>{}(optionKeys[i]));
            auto &bucket = byHash[hash];
            size_t rep = i;
            for (const size_t j : bucket) {
                if (optionKeys[i] == optionKeys[j] &&
                    markovEqual(*models[i], *models[j])) {
                    rep = j;
                    break;
                }
            }
            representative[i] = rep;
            if (rep == i) {
                bucket.push_back(i);
                unique.push_back(i);
            }
        }
    } else {
        for (size_t i = 0; i < requests.size(); ++i) {
            representative[i] = i;
            if (models[i])
                unique.push_back(i);
        }
    }

    obs::SpanScope batch_span(tracer, "batch.designAll");
    const uint64_t batch_span_id = batch_span.id();
    const auto batch_start = std::chrono::steady_clock::now();

    // Phase 3: design the unique items, each under its request's own
    // options, with the retry policy.
    runParallel(unique.size(), [&](size_t u) {
        const size_t i = unique[u];
        obs::TracerBinding bind(tracer);
        obs::TraceContextScope context(requests[i].obsContext);
        // Items fan out across pool threads, so the per-item span
        // names its parent explicitly: the owning request's root span
        // when one exists, else the shared batch root.
        const uint64_t request_root = requests[i].obsContext.rootSpan;
        obs::SpanScope item_span(
            tracer, "batch.item",
            request_root != 0 ? request_root : batch_span_id);
        batchTelemetry().queueWait.observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - batch_start)
                .count());
        BatchItemResult &slot = results[i];
        const int max_attempts = std::max(1, options_.retry.maxAttempts);
        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
            slot.attempts = attempt;
            try {
                AUTOFSM_FAILPOINT("batch.item");
                // Retries run under an escalated budget: each retry
                // multiplies finite limits again.
                FsmDesignOptions opts = requests[i].options;
                double factor = 1.0;
                for (int r = 1; r < attempt; ++r)
                    factor *= options_.retry.budgetEscalation;
                opts.budget = opts.budget.escalated(factor);
                slot.flow = DesignFlow(opts).run(*models[i]);
                slot.ok = true;
                slot.error.clear();
                slot.errorKind.clear();
                slot.errorStage.clear();
                if (attempt > 1)
                    batchTelemetry().retrySuccesses.inc();
                break;
            } catch (...) {
                const bool retryable =
                    classifyFailure(slot, std::current_exception());
                if (!retryable || attempt == max_attempts)
                    break;
                batchTelemetry().retries.inc();
            }
        }
        if (slot.ok && slot.flow.trace.degraded()) {
            slot.degraded = true;
            std::string joined;
            for (const std::string &f : slot.flow.trace.fallbacks()) {
                if (!joined.empty())
                    joined += ',';
                joined += f;
            }
            slot.fallback = std::move(joined);
        }
        batchTelemetry().itemMillis.observe(item_span.finishMillis());
    });

    // Serve duplicates from their representative (including its failure,
    // if any: an identical request would fail identically).
    for (size_t i = 0; i < requests.size(); ++i) {
        const size_t rep = representative[i];
        if (rep == i)
            continue;
        results[i] = results[rep];
        results[i].fromCache = true;
        ++stats_.cacheHits;
    }

    // Phase 4: evaluation. Runs after duplicates are served so cached
    // items carry their machine too. Equal model content does not imply
    // an equal stream, so every evaluating request replays its OWN
    // source; requests naming the same (traceRef, traceBranches) stream
    // share one resolve and one replayMachines call. Groups run
    // serially here.
    {
        std::vector<std::vector<size_t>> groups;
        std::unordered_map<std::string, size_t> by_stream;
        for (size_t i = 0; i < requests.size(); ++i) {
            if (!requests[i].evaluate || !results[i].ok)
                continue;
            if (requests[i].traceRef.empty()) {
                // Inline outcomes: every request is its own stream.
                groups.push_back({i});
                continue;
            }
            const std::string key = requests[i].traceRef + '\x1f' +
                std::to_string(requests[i].traceBranches);
            const auto [it, inserted] =
                by_stream.emplace(key, groups.size());
            if (inserted)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
        for (const std::vector<size_t> &group : groups) {
            obs::SpanScope eval_span(tracer, "batch.evaluate",
                                     batch_span_id);
            try {
                const OutcomeWords stream =
                    resolveRequestOutcomes(requests[group.front()]);
                std::vector<ReplayMachine> machines(group.size());
                for (size_t m = 0; m < group.size(); ++m) {
                    machines[m] = ReplayMachine{
                        &results[group[m]].flow.design.fsm, nullptr};
                }
                const std::vector<uint64_t> misses = replayMachines(
                    machines, stream.words.data(), stream.bits);
                for (size_t m = 0; m < group.size(); ++m) {
                    BatchItemResult &slot = results[group[m]];
                    slot.evaluated = true;
                    slot.evalBranches = stream.bits;
                    slot.evalMisses = misses[m];
                }
            } catch (...) {
                // An unevaluable stream fails the whole group: the
                // caller asked for numbers this engine cannot produce,
                // and an ok response with silently-missing evaluation
                // would misreport that.
                for (const size_t i : group) {
                    classifyFailure(results[i],
                                    std::current_exception());
                    results[i].ok = false;
                    results[i].errorStage = "evaluate";
                }
            }
        }
    }

    stats_.designed = unique.size();
    for (const auto &result : results) {
        stats_.failures += !result.ok;
        stats_.degraded += result.degraded;
        stats_.evaluated += result.evaluated;
        if (!result.fromCache && result.attempts > 1)
            stats_.retries += static_cast<size_t>(result.attempts) - 1;
    }

    BatchTelemetry &telemetry = batchTelemetry();
    telemetry.items.inc(stats_.items);
    telemetry.designed.inc(stats_.designed);
    telemetry.cacheHits.inc(stats_.cacheHits);
    telemetry.failures.inc(stats_.failures);
    telemetry.degraded.inc(stats_.degraded);
    telemetry.evaluated.inc(stats_.evaluated);
    return results;
}

std::vector<BatchItemResult>
BatchDesigner::designAll(const std::vector<MarkovModel> &models)
{
    // Wrap each model as a DesignRequest under the shared design
    // options; the request engine's dedup and retry semantics are
    // exactly the historical designAll ones when all options are equal.
    std::vector<DesignRequest> requests(models.size());
    for (size_t i = 0; i < models.size(); ++i) {
        requests[i].id = i;
        requests[i].model = models[i];
        requests[i].options = flow_.options();
    }
    return designRequests(requests);
}

DesignResponse
designResponseFromItem(const DesignRequest &request,
                       const BatchItemResult &item)
{
    if (item.ok) {
        DesignResponse response =
            designResponseFromFlow(request, item.flow);
        response.attempts = item.attempts;
        response.fromCache = item.fromCache;
        response.evaluated = item.evaluated;
        response.evalBranches = item.evalBranches;
        response.evalMisses = item.evalMisses;
        return response;
    }
    DesignResponse response;
    response.id = request.id;
    response.attempts = item.attempts;
    response.fromCache = item.fromCache;
    response.error = {item.errorStage.empty() ? "api" : item.errorStage,
                      item.errorKind, item.error};
    return response;
}

} // namespace autofsm
