/**
 * @file
 * Benchmarks the parallel batch design pipeline on the Figure 5
 * workload: every hot branch of every branch benchmark is collected into
 * one batch, designed serially (one DesignFlow run per item) and then via
 * BatchDesigner at several thread counts. Verifies that every parallel
 * result is bit-identical to the serial one, reports the wall-clock
 * speedups, the memo-cache behavior, and the aggregate per-stage time
 * breakdown from the FlowTraces.
 *
 * With --request-file=FILE the synthetic workload is replaced by a
 * replay: the file's JSON array of DesignRequests (the flow/api.hh
 * schema the serve daemon speaks) is run through the same
 * BatchDesigner::designRequests engine the daemon dispatches to, with
 * the workload trace resolver installed so traceRef requests resolve.
 * Adding --trace-out=FILE records the replay's spans and writes them as
 * Chrome trace-event JSON.
 *
 * The synthetic run also measures the tracing tax and writes it to
 * [json_out] (default BENCH_serve.json) for the CI gate: one batch with
 * the tracer off vs on, plus a microbenchmark of the disabled-SpanScope
 * cost — `offOverheadFraction` estimates what the recorded span count
 * costs a tracing-off run, which the acceptance bar holds at <= 2%.
 *
 * Usage: bench_flow_batch [branches_per_run] [max_branches_per_benchmark]
 *                         [json_out]
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "bpred/trainer.hh"
#include "flow/batch.hh"
#include "obs/export.hh"
#include "obs/span.hh"
#include "serve/server.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Replay a --request-file through the daemon's batch engine. */
int
replayRequestFile(const bench::BenchOptions &args)
{
    std::ifstream in(args.requestFile);
    if (!in) {
        std::cerr << "cannot open " << args.requestFile << "\n";
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<DesignRequest> requests;
    try {
        requests = designRequestsFromJson(text.str());
    } catch (const std::exception &e) {
        std::cerr << args.requestFile << ": " << e.what() << "\n";
        return 1;
    }

    serve::installWorkloadTraceResolver();
    if (!args.traceOut.empty()) {
        obs::globalTracer().clear();
        obs::globalTracer().enable(true);
    }
    BatchOptions batch;
    batch.threads = args.threads;
    BatchDesigner designer({}, batch);
    const auto start = std::chrono::steady_clock::now();
    const auto results = designer.designRequests(requests);
    const double wall_ms = millisSince(start);
    if (!args.traceOut.empty()) {
        obs::globalTracer().enable(false);
        const std::vector<obs::SpanRecord> spans =
            obs::globalTracer().drain();
        std::ofstream trace_out(args.traceOut);
        if (!trace_out) {
            std::cerr << "cannot write " << args.traceOut << "\n";
            return 1;
        }
        obs::renderTraceEvents(trace_out, spans);
        trace_out << "\n";
        std::cout << spans.size() << " spans -> " << args.traceOut
                  << "\n";
    }

    size_t failures = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const DesignResponse response =
            designResponseFromItem(requests[i], results[i]);
        if (response.ok) {
            std::cout << "id=" << response.id << " ok states="
                      << response.statesFinal
                      << (response.fromCache ? " cached" : "")
                      << (response.degraded ? " degraded" : "") << "\n";
        } else {
            ++failures;
            std::cout << "id=" << response.id << " FAILED ["
                      << response.error.stage << " " << response.error.kind
                      << "] " << response.error.detail << "\n";
        }
    }
    std::cout << "replayed " << results.size() << " requests in "
              << std::fixed << std::setprecision(1) << wall_ms << " ms ("
              << designer.stats().designed << " designed, "
              << designer.stats().cacheHits << " cached, " << failures
              << " failed)\n";
    bench::exportMetricsIfRequested(args);
    return failures == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(
        argc, argv,
        "[branches_per_run] [max_branches_per_benchmark] [json_out]");
    if (!args.requestFile.empty())
        return replayRequestFile(args);
    const size_t branches_per_run =
        static_cast<size_t>(args.positionalOr(0, 400000));
    const int max_branches = static_cast<int>(args.positionalOr(1, 12));
    const std::string json_out = args.positionalOr(2, "BENCH_serve.json");

    CustomTrainingOptions training;
    training.maxCustomBranches = max_branches;

    // --- Collect the Figure 5 workload: all hot branches, all programs.
    std::vector<MarkovModel> models;
    std::cout << "Figure 5 batch workload (" << branches_per_run
              << " branches/run, up to " << max_branches
              << " hot branches per benchmark):\n";
    for (const std::string &name : branchBenchmarkNames()) {
        const auto trace = cachedBranchTrace(
            name, WorkloadInput::Train, branches_per_run);
        const auto candidates = collectBranchModels(*trace, training);
        for (const auto &candidate : candidates)
            models.push_back(candidate.model);
        std::cout << "  " << name << ": " << candidates.size()
                  << " hot branches\n";
    }
    std::cout << "total batch size: " << models.size() << " machines, "
              << ThreadPool::defaultThreadCount()
              << " hardware threads\n\n";

    FsmDesignOptions design;
    design.order = training.historyLength;
    design.patterns = training.patterns;
    design.minimizer = training.minimizer;

    // --- Serial baseline: the legacy one-at-a-time path.
    const auto serial_start = std::chrono::steady_clock::now();
    std::vector<FsmDesignResult> serial;
    serial.reserve(models.size());
    for (const auto &model : models)
        serial.push_back(DesignFlow(design).run(model).design);
    const double serial_ms = millisSince(serial_start);
    std::cout << std::fixed << std::setprecision(1);
    std::cout << "serial DesignFlow loop: " << serial_ms << " ms\n\n";

    // --- Batch runs at increasing thread counts.
    std::cout << std::setw(8) << "threads" << std::setw(10) << "memo"
              << std::setw(12) << "wall ms" << std::setw(10) << "speedup"
              << std::setw(10) << "designed" << std::setw(10) << "cached"
              << std::setw(12) << "identical" << "\n";

    std::vector<BatchItemResult> last_results;
    for (const bool memoize : {false, true}) {
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            BatchOptions batch;
            batch.threads = threads;
            batch.memoize = memoize;
            BatchDesigner designer(design, batch);

            const auto start = std::chrono::steady_clock::now();
            const auto results = designer.designAll(models);
            const double batch_ms = millisSince(start);

            bool identical = results.size() == serial.size();
            for (size_t i = 0; identical && i < results.size(); ++i) {
                identical = results[i].ok &&
                    results[i].flow.design.fsm.identical(serial[i].fsm);
            }

            std::cout << std::setw(8) << threads << std::setw(10)
                      << (memoize ? "on" : "off") << std::setw(12)
                      << batch_ms << std::setw(9) << std::setprecision(2)
                      << serial_ms / (batch_ms > 0.0 ? batch_ms : 1.0)
                      << "x" << std::setprecision(1) << std::setw(10)
                      << designer.stats().designed << std::setw(10)
                      << designer.stats().cacheHits << std::setw(12)
                      << (identical ? "yes" : "NO") << "\n";

            if (!identical) {
                std::cerr << "FATAL: batch output diverged from the "
                             "serial pipeline\n";
                return 1;
            }
            last_results = results;
        }
    }

    // --- Aggregate per-stage breakdown from the FlowTraces.
    std::map<std::string, double> stage_ms;
    std::map<std::string, int64_t> stage_metric;
    for (const auto &result : last_results) {
        for (const auto &stage : result.flow.trace.stages()) {
            stage_ms[flowStageName(stage.stage)] += stage.millis;
            stage_metric[flowStageName(stage.stage)] += stage.metric;
        }
    }
    std::cout << "\nper-stage totals across the batch (designed items):\n";
    for (const auto &[name, ms] : stage_ms) {
        std::cout << "  " << std::setw(14) << std::left << name
                  << std::right << std::setw(10) << std::setprecision(1)
                  << ms << " ms   metric sum " << stage_metric[name]
                  << "\n";
    }

    // --- Per-item latency spread (stage times from the FlowTraces).
    std::vector<double> item_ms;
    item_ms.reserve(last_results.size());
    for (const auto &result : last_results)
        item_ms.push_back(result.flow.trace.totalMillis());
    const Quantiles q = quantilesOf(item_ms);
    std::cout << "\nper-item design time: p50 " << std::setprecision(2)
              << q.p50 << " ms, p90 " << q.p90 << " ms, p99 " << q.p99
              << " ms over " << item_ms.size() << " items\n";

    // --- Tracing tax: one batch with the tracer off, one with it on.
    obs::Tracer &tracer = obs::globalTracer();
    tracer.enable(false);
    tracer.clear();
    BatchOptions overhead_batch;
    overhead_batch.threads = 4;
    overhead_batch.memoize = false;

    // Medians under --repeat: the on/off delta is small relative to
    // scheduler noise, so one cold shot routinely reported a negative
    // "tax".
    std::vector<BatchItemResult> off_results;
    const double off_ms = bench::medianRunMillis(args, [&] {
        off_results = BatchDesigner(design, overhead_batch).designAll(models);
    });

    tracer.enable(true);
    std::vector<BatchItemResult> on_results;
    const double on_ms = bench::medianRunMillis(args, [&] {
        // Keep only the final run's spans so the per-span projection
        // and the --trace-out export see one batch, not --repeat many.
        tracer.clear();
        on_results = BatchDesigner(design, overhead_batch).designAll(models);
    });
    tracer.enable(false);
    const std::vector<obs::SpanRecord> spans = tracer.drain();
    if (!args.traceOut.empty()) {
        std::ofstream trace_out(args.traceOut);
        if (!trace_out) {
            std::cerr << "cannot write " << args.traceOut << "\n";
            return 1;
        }
        obs::renderTraceEvents(trace_out, spans);
        trace_out << "\n";
        std::cout << spans.size() << " spans -> " << args.traceOut
                  << "\n";
    }

    bool overhead_identical =
        off_results.size() == serial.size() &&
        on_results.size() == serial.size();
    for (size_t i = 0; overhead_identical && i < serial.size(); ++i) {
        overhead_identical = off_results[i].ok && on_results[i].ok &&
            off_results[i].flow.design.fsm.identical(serial[i].fsm) &&
            on_results[i].flow.design.fsm.identical(serial[i].fsm);
    }

    // What tracing-off actually costs per instrumentation site: a
    // disabled SpanScope still reads the clock twice. Amortize it over
    // many iterations on a private, disabled tracer.
    obs::Tracer disabled;
    constexpr int kSpanIterations = 1000000;
    const auto span_start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSpanIterations; ++i)
        obs::SpanScope scope(&disabled, "bench.disabled");
    const double disabled_span_nanos =
        millisSince(span_start) * 1e6 / kSpanIterations;

    // Projected tracing-off tax on this batch: every span the traced
    // run recorded corresponds to one disabled SpanScope in the off
    // run.
    const double off_overhead_fraction = off_ms > 0.0
        ? static_cast<double>(spans.size()) * disabled_span_nanos /
            (off_ms * 1e6)
        : 0.0;
    const double trace_overhead =
        off_ms > 0.0 ? (on_ms - off_ms) / off_ms : 0.0;

    std::cout << "\ntracing tax: off " << std::setprecision(1) << off_ms
              << " ms, on " << on_ms << " ms (" << std::setprecision(2)
              << trace_overhead * 100.0 << "% recording), "
              << spans.size() << " spans, disabled span "
              << disabled_span_nanos << " ns => off-path overhead "
              << off_overhead_fraction * 100.0 << "%\n";

    std::ofstream report(json_out);
    if (!report) {
        std::cerr << "FATAL: cannot write " << json_out << "\n";
        return 1;
    }
    JsonWriter json(report);
    json.beginObject();
    json.key("bench").value("flow-batch-trace");
    json.key("offMs").value(off_ms);
    json.key("onMs").value(on_ms);
    json.key("traceOverhead").value(trace_overhead);
    json.key("spans").value(static_cast<uint64_t>(spans.size()));
    json.key("disabledSpanNanos").value(disabled_span_nanos);
    json.key("offOverheadFraction").value(off_overhead_fraction);
    json.key("identical").value(overhead_identical);
    json.endObject();
    report << "\n";
    if (!overhead_identical) {
        std::cerr << "FATAL: tracing on/off runs diverged from the "
                     "serial pipeline\n";
        return 1;
    }

    bench::exportMetricsIfRequested(args);
    return 0;
}
