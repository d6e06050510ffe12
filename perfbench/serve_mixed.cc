/**
 * @file
 * The serve-mixed workload: an in-process serve::Server over a fresh
 * store directory, driven in a closed loop by synchronous serve::Clients
 * (one connection each) through a request stream generated from --seed.
 *
 * After the timed phase every distinct non-degraded artifact is checked
 * against in-process designService output under the same class-mapped
 * budget. The traced run measures an untraced phase and then a traced
 * one, each on a fresh server, store and set of process caches.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "flow/api.hh"
#include "flow/design_memo.hh"
#include "harness.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/packed_trace.hh"
#include "store/store.hh"
#include "workloads/trace_cache.hh"

namespace perfbench
{

using namespace autofsm;

namespace
{

constexpr unsigned kClients = 4;

/** One generated request plus the digest of its content. */
struct StreamEntry
{
    DesignRequest request;
    std::string key;
};

/**
 * The request stream of @p seed: trace-ref designs over the six branch
 * benchmarks (train and test inputs), orders 2-10 and thresholds
 * 0.50-0.90, in classes interactive 50% / batch 30% / bulk 20%. About 30%
 * of requests repeat one of a small hot set, and 10% carry their behavior
 * stream inline. Orders and classes follow fixed cycles, so every stretch
 * of the stream has the same mix and run-to-run cost does not hinge on
 * the seed's draws; the seed picks everything else.
 */
std::vector<StreamEntry>
generateStream(uint64_t seed, size_t count, bool tiny)
{
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
    auto below = [&](uint64_t n) { return rng() % n; };
    const std::vector<std::string> &names = branchBenchmarkNames();
    const double thresholds[] = {0.50, 0.60, 0.70, 0.80, 0.90};
    const uint64_t trace_branches = tiny ? 10000 : 100000;

    auto trace_ref_request = [&](int order) {
        DesignRequest request;
        request.traceRef = names[below(names.size())] +
            (below(2) ? ":test" : ":train");
        request.traceBranches = trace_branches;
        request.options.order = order;
        request.options.patterns.threshold = thresholds[below(5)];
        return request;
    };
    // Three hot requests per order, so the hot set's cost (which grows
    // with the order) is the same for every seed.
    std::vector<DesignRequest> hot;
    for (int order = 2; order <= 10; ++order) {
        for (int i = 0; i < 3; ++i)
            hot.push_back(trace_ref_request(order));
    }

    // Ten-slot class cycle: 5 interactive, 3 batch, 2 bulk.
    const RequestClass I = RequestClass::Interactive;
    const RequestClass B = RequestClass::Batch;
    const RequestClass K = RequestClass::Bulk;
    const RequestClass classes[] = {I, B, I, K, I, B, I, B, I, K};

    std::vector<StreamEntry> stream;
    stream.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        const int order = 2 + static_cast<int>(i % 9);
        const uint64_t source = below(100);
        DesignRequest request;
        if (source < 30) {
            request = hot[below(hot.size())];
        } else if (source < 40) {
            // A periodic behavior with 5% noise, the shape of a loop
            // branch, large enough that frames carry real payloads.
            const size_t length =
                (tiny ? 200 : 1000) + below(tiny ? 300 : 3000);
            const uint64_t period = 2 + below(14);
            const uint64_t pattern = rng();
            request.outcomes.resize(length);
            for (size_t k = 0; k < length; ++k) {
                request.outcomes[k] =
                    static_cast<int>(((pattern >> (k % period)) & 1) ^
                                     (below(100) < 5 ? 1 : 0));
            }
            request.options.order = order;
            request.options.patterns.threshold = thresholds[below(5)];
        } else {
            request = trace_ref_request(order);
        }
        request.tenant = "perfbench";
        request.requestClass = classes[i % 10];
        std::string key = digest(toJson(request));
        stream.push_back({std::move(request), std::move(key)});
    }
    return stream;
}

/** One request as the client saw it. */
struct Sample
{
    size_t entry = 0;
    double latencyMillis = 0.0;
    /** Completion time since the phase started. */
    double doneMillis = 0.0;
    bool answered = false; ///< a response arrived (no client error)
    bool ok = false;
    bool degraded = false;
    bool fromMemo = false;
    bool fromCache = false;
    double designMillis = 0.0;
    double subsetMillis = 0.0;
    std::string artifact; ///< digest of the artifact text
};

/** Sum of every sample of a Prometheus series across its label sets. */
double
scrapeTotal(const std::string &text, const std::string &series)
{
    double total = 0.0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.compare(0, series.size(), series) != 0 ||
            line.size() <= series.size() ||
            (line[series.size()] != '{' && line[series.size()] != ' '))
            continue;
        const size_t space = line.rfind(' ');
        total += std::stod(line.substr(space + 1));
    }
    return total;
}

/** Mean milliseconds of a seconds-histogram between two scrapes. */
double
histogramMeanMillis(const std::string &before, const std::string &after,
                    const std::string &histogram)
{
    const double sum = scrapeTotal(after, histogram + "_sum") -
        scrapeTotal(before, histogram + "_sum");
    const double count = scrapeTotal(after, histogram + "_count") -
        scrapeTotal(before, histogram + "_count");
    return count > 0.0 ? 1e3 * sum / count : 0.0;
}

/** What one closed-loop phase measured. */
struct Phase
{
    double setupSeconds = 0.0;
    double wallMillis = 0.0;
    double peakRss = 0.0;
    std::vector<Sample> samples;
    /** Client-thread time outside request spans, summed over clients. */
    double clientIdleMillis = 0.0;
    std::string metricsBefore;
    std::string metricsAfter;
    BranchTraceCacheStats traces;
    DesignMemoStats memo;
    store::StoreStats store;
    std::vector<obs::SpanRecord> spans;
};

/** Process caches and the disk tier start empty in every phase. */
void
resetProcessState()
{
    store::setGlobalStore(nullptr);
    clearBranchTraceCache();
    clearPackedTraceCache();
    clearDesignMemo();
}

Phase
runPhase(const Options &options, const std::vector<StreamEntry> &stream,
         obs::Tracer *tracer, double seconds)
{
    resetProcessState();
    const std::string store_dir = options.outDir + "/serve-store";
    std::filesystem::remove_all(store_dir);

    serve::ServeOptions serve_options;
    serve_options.storeDir = store_dir;
    serve::Server server(serve_options);
    server.start();
    serve::ClientOptions client_options;
    client_options.connectAttempts = 5;
    client_options.timeoutMs = 60000;
    std::vector<std::unique_ptr<serve::Client>> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<serve::Client>(
            "127.0.0.1", server.port(), client_options));
    }

    Phase phase;
    phase.metricsBefore = clients.front()->fetchMetrics();
    phase.setupSeconds = setupSeconds(options);
    if (options.setupOnly)
        return phase;

    if (tracer) {
        tracer->clear();
        tracer->enable(true);
    }
    std::atomic<size_t> next{0};
    std::vector<std::vector<Sample>> per_client(kClients);
    std::vector<double> idle(kClients, 0.0);
    const auto start = Clock::now();
    const auto end = start +
        std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
    auto client_loop = [&](unsigned c) {
        obs::SpanScope loop(tracer, "serve.client");
        double in_requests = 0.0;
        while (Clock::now() < end) {
            const size_t index = next.fetch_add(1);
            DesignRequest request = stream[index % stream.size()].request;
            request.id = index + 1;
            Sample sample;
            sample.entry = index % stream.size();
            obs::SpanScope span(tracer, "serve.request");
            try {
                const DesignResponse response =
                    clients[c]->design(request);
                sample.latencyMillis = span.finishMillis();
                sample.answered = true;
                sample.ok = response.ok;
                sample.degraded = response.degraded;
                sample.fromMemo = response.fromMemo;
                sample.fromCache = response.fromCache;
                sample.designMillis = response.designMillis;
                for (const StageSummary &stage : response.stages) {
                    if (stage.stage == "subset")
                        sample.subsetMillis += stage.millis;
                }
                if (response.ok)
                    sample.artifact = digest(response.artifact);
            } catch (const std::exception &e) {
                sample.latencyMillis = span.finishMillis();
                std::cerr << "serve-mixed: request " << request.id
                          << " failed: " << e.what() << "\n";
            }
            in_requests += sample.latencyMillis;
            sample.doneMillis = millisSince(start);
            per_client[c].push_back(std::move(sample));
        }
        idle[c] = loop.finishMillis() - in_requests;
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c)
        threads.emplace_back(client_loop, c);
    for (std::thread &thread : threads)
        thread.join();
    phase.wallMillis = millisSince(start);
    if (tracer) {
        tracer->enable(false);
        phase.spans = tracer->snapshot();
        tracer->clear();
    }
    phase.peakRss = peakRssMb();

    phase.metricsAfter = clients.front()->fetchMetrics();
    phase.traces = branchTraceCacheStats();
    phase.memo = designMemoStats();
    if (const auto disk = store::globalStore())
        phase.store = disk->stats();
    for (unsigned c = 0; c < kClients; ++c) {
        phase.clientIdleMillis += idle[c];
        for (Sample &sample : per_client[c])
            phase.samples.push_back(std::move(sample));
    }
    std::sort(phase.samples.begin(), phase.samples.end(),
              [](const Sample &a, const Sample &b) {
                  return a.doneMillis < b.doneMillis;
              });
    clients.clear();
    server.shutdown();
    store::setGlobalStore(nullptr);
    std::filesystem::remove_all(store_dir);
    return phase;
}

/**
 * Count every sample of @p phase into @p result: a request fails when it
 * got no response, the response is not ok, or its (non-degraded)
 * artifact differs from in-process designService output under the same
 * class-mapped budget. Each distinct request content is designed once,
 * on kClients threads, with the design memo and disk tier cleared so the
 * reference is computed afresh.
 */
void
verifyPhase(const std::vector<StreamEntry> &stream, const Phase &phase,
            Result &result)
{
    resetProcessState();
    std::map<std::string, size_t> reference_of; // content key -> entry
    for (const Sample &sample : phase.samples) {
        if (sample.ok && !sample.degraded)
            reference_of.emplace(stream[sample.entry].key, sample.entry);
    }
    std::vector<std::pair<std::string, size_t>> work(reference_of.begin(),
                                                     reference_of.end());
    std::vector<std::string> expected(work.size());
    std::atomic<size_t> next{0};
    auto verifier = [&] {
        for (size_t i = next.fetch_add(1); i < work.size();
             i = next.fetch_add(1)) {
            DesignRequest request = stream[work[i].second].request;
            if (request.options.budget.unlimited())
                request.options.budget = budgetForClass(request.requestClass);
            const DesignResponse response = designService(request);
            if (response.ok && !response.degraded)
                expected[i] = digest(response.artifact);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t)
        threads.emplace_back(verifier);
    for (std::thread &thread : threads)
        thread.join();

    std::map<std::string, std::string> expected_of;
    for (size_t i = 0; i < work.size(); ++i)
        expected_of.emplace(work[i].first, expected[i]);
    size_t mismatches = 0;
    for (const Sample &sample : phase.samples) {
        bool ok = sample.answered && sample.ok;
        if (ok && !sample.degraded &&
            expected_of[stream[sample.entry].key] != sample.artifact) {
            ok = false;
            ++mismatches;
        }
        result.count(ok);
    }
    if (mismatches)
        std::cout << "serve-mixed: " << mismatches
                  << " artifacts differ from in-process designService\n";
}

double
fraction(size_t part, size_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

/** Median time to complete each successive block of requests, seconds. */
double
blockSeconds(const Phase &phase)
{
    const size_t n = phase.samples.size();
    const size_t block = std::max<size_t>(1, std::min<size_t>(256, n / 4));
    std::vector<double> durations;
    double previous = 0.0;
    for (size_t end = block; end <= n; end += block) {
        const double done = phase.samples[end - 1].doneMillis;
        durations.push_back(done - previous);
        previous = done;
    }
    return median(durations) / 1e3;
}

void
reportEndToEnd(const Options &options, const Phase &phase, Result &result)
{
    std::vector<double> latencies;
    for (const Sample &sample : phase.samples)
        latencies.push_back(sample.latencyMillis);
    const double p50 = quantile(latencies, 0.50);
    const double p99 = quantile(latencies, 0.99);
    const size_t above_p99 = static_cast<size_t>(
        std::count_if(latencies.begin(), latencies.end(),
                      [&](double ms) { return ms > p99; }));
    std::cout << "serve-mixed: " << phase.samples.size() << " requests in "
              << phase.wallMillis / 1e3 << " s from " << kClients
              << " closed-loop clients; latency p50 " << p50 << " ms, p99 "
              << p99 << " ms (" << above_p99 << " samples above p99)\n";

    result.set("setup_s", phase.setupSeconds, "s");
    result.set("peak_rss_mb", phase.peakRss, "MB");
    result.set("pass_s", blockSeconds(phase), "s");
    result.set("req_per_s",
               static_cast<double>(phase.samples.size()) /
                   (phase.wallMillis / 1e3),
               "1/s");
    result.set("latency_p50_ms", p50, "ms");
    result.set("latency_p99_ms", p99, "ms");
    result.set("fig5_custom_diff_miss_pct", fig5CustomDiffMissPct(options),
               "%");
    result.set("fig2_fsm_cov80_pct", fig2FsmCov80Pct(options), "%");
}

double
meanLatency(const Phase &phase)
{
    double sum = 0.0;
    for (const Sample &sample : phase.samples)
        sum += sample.latencyMillis;
    return phase.samples.empty() ? 0.0 : sum / phase.samples.size();
}

void
reportLayers(const Phase &plain, const Phase &traced, Result &result)
{
    const size_t requests = traced.samples.size();
    size_t ok = 0, degraded = 0, dedup = 0, machines = 0;
    double design_ms = 0.0, machine_ms = 0.0, outside_ms = 0.0,
           subset_ms = 0.0;
    for (const Sample &sample : traced.samples) {
        subset_ms += sample.subsetMillis;
        if (!sample.ok)
            continue;
        ++ok;
        degraded += sample.degraded ? 1 : 0;
        dedup += sample.fromCache ? 1 : 0;
        design_ms += sample.designMillis;
        outside_ms += sample.latencyMillis - sample.designMillis;
        if (!sample.fromMemo && !sample.fromCache) {
            ++machines;
            machine_ms += sample.designMillis;
        }
    }
    const auto per = [](double total, size_t n) {
        return n ? total / static_cast<double>(n) : 0.0;
    };
    const uint64_t trace_lookups = traced.traces.hits + traced.traces.misses;
    const uint64_t memo_lookups = traced.memo.hits + traced.memo.misses;

    for (const char *idle_layer :
         {"bpred.profile_ms", "synth.area_ms", "sim.pack_ms",
          "sim.evaluate_ms", "vpred.sud_sim_ms", "vpred.fsm_sim_ms",
          "vpred.collect_ms", "workloads.trace_ms"})
        result.set(idle_layer, 0.0, "ms");
    result.set("sim.records_per_s", 0.0, "1/s");
    result.set("vpred.loads_per_s", 0.0, "1/s");
    result.set("workloads.trace_cache_hit_ratio",
               fraction(traced.traces.hits, trace_lookups), "ratio");
    result.set("workloads.trace_cache_lookups",
               static_cast<double>(trace_lookups), "count");
    result.set("flow.design_ms", per(machine_ms, machines), "ms");
    result.set("flow.machines", static_cast<double>(machines), "count");
    result.set("flow.subset_ms", per(subset_ms, requests), "ms");
    result.set("flow.memo_hit_ratio", fraction(traced.memo.hits, memo_lookups),
               "ratio");
    result.set("flow.memo_lookups", static_cast<double>(memo_lookups),
               "count");
    result.set("flow.batch_dedup", fraction(dedup, ok), "ratio");
    result.set("flow.batch_items", static_cast<double>(ok), "count");
    result.set("serve.design_ms", per(design_ms, ok), "ms");
    result.set("serve.outside_design_ms", per(outside_ms, ok), "ms");
    result.set("serve.queue_ms",
               histogramMeanMillis(traced.metricsBefore, traced.metricsAfter,
                                   "autofsm_serve_request_queue_seconds"),
               "ms");
    result.set("serve.service_ms",
               histogramMeanMillis(traced.metricsBefore, traced.metricsAfter,
                                   "autofsm_serve_request_service_seconds"),
               "ms");
    result.set("serve.requests", static_cast<double>(requests), "count");
    result.set("store.writes", static_cast<double>(traced.store.writes),
               "count");
    result.set("store.write_failures",
               static_cast<double>(traced.store.writeFailures), "count");
    result.set("store.bytes", static_cast<double>(traced.store.bytes),
               "bytes");
    result.set("unattributed_ms", per(traced.clientIdleMillis, requests),
               "ms");
    result.set("trace_overhead_frac",
               meanLatency(traced) / meanLatency(plain) - 1.0, "ratio");
    result.set("failed_frac", fraction(result.failed, result.attempted),
               "ratio");
    result.set("degraded_frac", fraction(degraded, ok), "ratio");
}

} // anonymous namespace

Result
runServeMixed(const Options &options)
{
    serve::installWorkloadTraceResolver();
    const std::vector<StreamEntry> stream =
        generateStream(options.seed, options.tiny ? 64 : 8192, options.tiny);

    Result result;
    if (!options.trace) {
        const Phase phase = runPhase(options, stream, nullptr,
                                     options.seconds);
        if (options.setupOnly) {
            result.set("setup_s", phase.setupSeconds, "s");
            return result;
        }
        verifyPhase(stream, phase, result);
        reportEndToEnd(options, phase, result);
        return result;
    }

    const Phase plain =
        runPhase(options, stream, nullptr, options.seconds / 2);
    verifyPhase(stream, plain, result);
    obs::Tracer &tracer = obs::globalTracer();
    const Phase traced =
        runPhase(options, stream, &tracer, options.seconds / 2);
    verifyPhase(stream, traced, result);
    writeTraceEvents(options.outDir + "/trace-serve-mixed.json",
                     traced.spans);
    reportLayers(plain, traced, result);
    return result;
}

} // namespace perfbench
