/**
 * @file
 * Telemetry subsystem tests: registry semantics (including the
 * 8-thread concurrent-snapshot consistency check from the PR's
 * acceptance criteria), golden bytes for both exporters, and the span
 * tracer's hierarchy rules.
 *
 * Registry/tracer *behavior* tests skip under -DAUTOFSM_NO_TELEMETRY
 * (writes compile to no-ops there, by design). The exporter goldens
 * build their MetricsSnapshot/SpanRecord inputs by hand, so they pin
 * the byte format in every build mode.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/trace_context.hh"
#include "support/json_parse.hh"

using namespace autofsm;
using namespace autofsm::obs;

#ifdef AUTOFSM_NO_TELEMETRY
#define SKIP_IF_NO_TELEMETRY() \
    GTEST_SKIP() << "built with AUTOFSM_NO_TELEMETRY"
#else
#define SKIP_IF_NO_TELEMETRY() (void)0
#endif

namespace
{

const MetricValue *
findMetric(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const MetricValue &metric : snapshot.metrics) {
        if (metric.name == name)
            return &metric;
    }
    return nullptr;
}

} // anonymous namespace

TEST(MetricsRegistryTest, CounterAccumulatesAcrossHandles)
{
    SKIP_IF_NO_TELEMETRY();
    MetricsRegistry registry;
    Counter a = registry.counter("ops_total", "Operations.");
    Counter b = registry.counter("ops_total"); // same metric, new handle
    a.inc();
    a.inc(4);
    b.inc(2);
    const MetricsSnapshot snapshot = registry.snapshot();
    const MetricValue *metric = findMetric(snapshot, "ops_total");
    ASSERT_NE(metric, nullptr);
    EXPECT_EQ(metric->kind, MetricKind::Counter);
    EXPECT_EQ(metric->count, 7u);
    EXPECT_EQ(metric->help, "Operations.");
}

TEST(MetricsRegistryTest, LabelsDistinguishInstances)
{
    SKIP_IF_NO_TELEMETRY();
    MetricsRegistry registry;
    registry.counter("x_total", "", {{"k", "a"}}).inc(1);
    registry.counter("x_total", "", {{"k", "b"}}).inc(2);
    const MetricsSnapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.metrics.size(), 2u);
    // Sorted by (name, labels): k=a before k=b.
    EXPECT_EQ(snapshot.metrics[0].count, 1u);
    EXPECT_EQ(snapshot.metrics[1].count, 2u);
}

TEST(MetricsRegistryTest, KindMismatchThrows)
{
    MetricsRegistry registry;
    registry.counter("thing");
    EXPECT_THROW(registry.gauge("thing"), std::invalid_argument);
    registry.histogram("hist", "", {1.0, 2.0});
    EXPECT_THROW(registry.counter("hist"), std::invalid_argument);
    // Same name, different bounds: also a conflict.
    EXPECT_THROW(registry.histogram("hist", "", {1.0, 3.0}),
                 std::invalid_argument);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd)
{
    SKIP_IF_NO_TELEMETRY();
    MetricsRegistry registry;
    Gauge gauge = registry.gauge("level");
    gauge.set(2.0);
    gauge.add(0.5);
    const MetricsSnapshot snapshot = registry.snapshot();
    const MetricValue *metric = findMetric(snapshot, "level");
    ASSERT_NE(metric, nullptr);
    EXPECT_DOUBLE_EQ(metric->value, 2.5);
}

TEST(MetricsRegistryTest, HistogramBucketsCountAndSum)
{
    SKIP_IF_NO_TELEMETRY();
    MetricsRegistry registry;
    Histogram hist = registry.histogram("lat", "", {1.0, 10.0});
    hist.observe(0.5);  // bucket le=1
    hist.observe(1.0);  // boundary lands in le=1 (value > bound fails)
    hist.observe(5.0);  // bucket le=10
    hist.observe(99.0); // +Inf overflow
    const MetricsSnapshot snapshot = registry.snapshot();
    const MetricValue *metric = findMetric(snapshot, "lat");
    ASSERT_NE(metric, nullptr);
    const HistogramValue &value = metric->histogram;
    ASSERT_EQ(value.bucketCounts.size(), 3u);
    EXPECT_EQ(value.bucketCounts[0], 2u);
    EXPECT_EQ(value.bucketCounts[1], 1u);
    EXPECT_EQ(value.bucketCounts[2], 1u);
    EXPECT_EQ(value.count, 4u);
    EXPECT_DOUBLE_EQ(value.sum, 105.5);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsWrites)
{
    SKIP_IF_NO_TELEMETRY();
    MetricsRegistry registry;
    Counter counter = registry.counter("ops_total");
    registry.enable(false);
    counter.inc(100);
    const MetricsSnapshot off = registry.snapshot();
    EXPECT_EQ(findMetric(off, "ops_total")->count, 0u);
    registry.enable(true);
    counter.inc(3);
    const MetricsSnapshot on = registry.snapshot();
    EXPECT_EQ(findMetric(on, "ops_total")->count, 3u);
}

TEST(MetricsRegistryTest, ResetZeroesValuesKeepsRegistrations)
{
    SKIP_IF_NO_TELEMETRY();
    MetricsRegistry registry;
    Counter counter = registry.counter("ops_total");
    Gauge gauge = registry.gauge("level");
    Histogram hist = registry.histogram("lat", "", {1.0});
    counter.inc(5);
    gauge.set(7.0);
    hist.observe(0.5);
    registry.reset();
    const MetricsSnapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.metrics.size(), 3u);
    EXPECT_EQ(findMetric(snapshot, "ops_total")->count, 0u);
    EXPECT_DOUBLE_EQ(findMetric(snapshot, "level")->value, 0.0);
    EXPECT_EQ(findMetric(snapshot, "lat")->histogram.count, 0u);
    counter.inc(2); // handles stay live after reset
    const MetricsSnapshot after = registry.snapshot();
    EXPECT_EQ(findMetric(after, "ops_total")->count, 2u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByNameThenLabels)
{
    MetricsRegistry registry;
    registry.counter("zz_total");
    registry.gauge("aa");
    registry.counter("mm_total", "", {{"b", "2"}});
    registry.counter("mm_total", "", {{"b", "1"}});
    const MetricsSnapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.metrics.size(), 4u);
    EXPECT_EQ(snapshot.metrics[0].name, "aa");
    EXPECT_EQ(snapshot.metrics[1].name, "mm_total");
    EXPECT_EQ(snapshot.metrics[1].labels[0].second, "1");
    EXPECT_EQ(snapshot.metrics[2].labels[0].second, "2");
    EXPECT_EQ(snapshot.metrics[3].name, "zz_total");
}

/**
 * The acceptance-criteria test: snapshots taken while 8 writer threads
 * hammer the registry are internally consistent (counter totals only
 * grow and never exceed what was written), and the final merged total
 * equals the serial ground truth exactly.
 */
TEST(MetricsRegistryTest, ConcurrentSnapshotConsistency)
{
    SKIP_IF_NO_TELEMETRY();
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 100000;

    MetricsRegistry registry;
    Counter counter = registry.counter("ops_total");
    Histogram hist =
        registry.histogram("lat_millis", "", {1.0, 10.0, 100.0});

    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (uint64_t i = 0; i < kPerThread; ++i) {
                counter.inc();
                if ((i & 1023u) == 0)
                    hist.observe(static_cast<double>(t) + 0.5);
            }
        });
    }
    go.store(true, std::memory_order_release);

    uint64_t previous = 0;
    for (int s = 0; s < 50; ++s) {
        const MetricsSnapshot snapshot = registry.snapshot();
        const MetricValue *metric = findMetric(snapshot, "ops_total");
        ASSERT_NE(metric, nullptr);
        EXPECT_GE(metric->count, previous);
        EXPECT_LE(metric->count, kThreads * kPerThread);
        previous = metric->count;
    }
    for (std::thread &worker : workers)
        worker.join();

    const MetricsSnapshot final_snapshot = registry.snapshot();
    EXPECT_EQ(findMetric(final_snapshot, "ops_total")->count,
              kThreads * kPerThread);
    // Each thread observes at i = 0, 1024, ..., i.e. ceil(N/1024) times.
    const uint64_t observes_per_thread = (kPerThread + 1023) / 1024;
    const HistogramValue &value =
        findMetric(final_snapshot, "lat_millis")->histogram;
    EXPECT_EQ(value.count, kThreads * observes_per_thread);
    uint64_t bucket_total = 0;
    for (const uint64_t count : value.bucketCounts)
        bucket_total += count;
    EXPECT_EQ(bucket_total, value.count);
}

/**
 * Regression: registerMetric used to return a reference into the
 * registry's metric vector that was read after the mutex was released,
 * so a concurrent registration reallocating the vector was a
 * use-after-free (caught by TSan/ASan here). Threads register fresh
 * labelled metrics — forcing reallocation — while using the returned
 * handles immediately; every handle must stay valid and land its writes.
 */
TEST(MetricsRegistryTest, ConcurrentRegistrationYieldsValidHandles)
{
    SKIP_IF_NO_TELEMETRY();
    constexpr int kThreads = 8;
    constexpr int kMetricsPerThread = 64;

    MetricsRegistry registry;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int m = 0; m < kMetricsPerThread; ++m) {
                const Labels labels = {
                    {"thread", std::to_string(t)},
                    {"metric", std::to_string(m)},
                };
                Counter counter =
                    registry.counter("reg_race_total", "", labels);
                counter.inc(3);
                Gauge gauge = registry.gauge("reg_race_gauge", "", labels);
                gauge.set(1.5);
                Histogram hist = registry.histogram(
                    "reg_race_millis", "", {1.0, 10.0}, labels);
                hist.observe(0.5);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &worker : workers)
        worker.join();

    const MetricsSnapshot snapshot = registry.snapshot();
    int counters = 0, gauges = 0, histograms = 0;
    for (const MetricValue &metric : snapshot.metrics) {
        if (metric.name == "reg_race_total") {
            ++counters;
            EXPECT_EQ(metric.count, 3u);
        } else if (metric.name == "reg_race_gauge") {
            ++gauges;
            EXPECT_EQ(metric.value, 1.5);
        } else if (metric.name == "reg_race_millis") {
            ++histograms;
            EXPECT_EQ(metric.histogram.count, 1u);
        }
    }
    EXPECT_EQ(counters, kThreads * kMetricsPerThread);
    EXPECT_EQ(gauges, kThreads * kMetricsPerThread);
    EXPECT_EQ(histograms, kThreads * kMetricsPerThread);
}

/**
 * Regression: every thread that wrote a metric used to keep a 4096-slot
 * shard in the registry forever, so a process spawning short-lived
 * threads (per-pass pools, per-connection readers) grew without bound.
 * Exiting threads now retire their shards into the registry's totals:
 * the snapshot stays exact and the live shard count stays bounded.
 */
TEST(MetricsRegistryTest, ShortLivedThreadsRetireTheirShards)
{
    SKIP_IF_NO_TELEMETRY();
    constexpr int kThreads = 256;
    constexpr int kWave = 8;

    MetricsRegistry registry;
    Counter counter = registry.counter("retire_total");
    Histogram hist =
        registry.histogram("retire_millis", "", {0.3, 0.6});
    size_t peak_live = 0;
    for (int first = 0; first < kThreads; first += kWave) {
        std::vector<std::thread> wave;
        for (int t = first; t < first + kWave; ++t) {
            wave.emplace_back([&, t] {
                counter.inc(static_cast<uint64_t>(t) + 1);
                // Quarter steps are exact doubles, so the sum does not
                // depend on the order shards are folded in.
                hist.observe(0.25 * (t % 4));
            });
        }
        for (std::thread &thread : wave)
            thread.join();
        peak_live = std::max(peak_live, registry.liveShardCount());
    }
    EXPECT_EQ(registry.liveShardCount(), 0u);
    EXPECT_EQ(peak_live, 0u);

    // A live thread's shard is merged alongside the retired totals.
    counter.inc(1000);
    EXPECT_EQ(registry.liveShardCount(), 1u);

    const MetricsSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(findMetric(snapshot, "retire_total")->count,
              uint64_t{kThreads} * (kThreads + 1) / 2 + 1000);
    const HistogramValue &value =
        findMetric(snapshot, "retire_millis")->histogram;
    EXPECT_EQ(value.count, static_cast<uint64_t>(kThreads));
    // t % 4 cycles 0, 1, 2, 3: 0.0 and 0.25 land in the first bucket,
    // 0.5 in the second, 0.75 in +Inf.
    EXPECT_EQ(value.bucketCounts,
              (std::vector<uint64_t>{kThreads / 2, kThreads / 4,
                                     kThreads / 4}));
    EXPECT_EQ(value.sum, 1.5 * (kThreads / 4));

    // reset() zeroes retired totals along with live shards.
    registry.reset();
    const MetricsSnapshot cleared = registry.snapshot();
    EXPECT_EQ(findMetric(cleared, "retire_total")->count, 0u);
    EXPECT_EQ(findMetric(cleared, "retire_millis")->histogram.count, 0u);
    EXPECT_EQ(findMetric(cleared, "retire_millis")->histogram.sum, 0.0);
}

/** A thread that outlives the registry it wrote to retires its shard
 *  into memory the thread still co-owns (ASan flags any misstep). */
TEST(MetricsRegistryTest, ThreadOutlivingRegistryRetiresSafely)
{
    SKIP_IF_NO_TELEMETRY();
    auto registry = std::make_unique<MetricsRegistry>();
    Counter counter = registry->counter("orphan_total");
    std::atomic<int> phase{0};
    std::thread writer([&] {
        counter.inc();
        phase.store(1, std::memory_order_release);
        while (phase.load(std::memory_order_acquire) != 2) {
        }
    });
    while (phase.load(std::memory_order_acquire) != 1) {
    }
    EXPECT_EQ(registry->liveShardCount(), 1u);
    registry.reset();
    phase.store(2, std::memory_order_release);
    writer.join();
}

/**
 * Regression: the internal dedup key joins components with \x1f; label
 * text containing that byte must not make distinct label sets alias
 * one metric (or trick re-registration checks into a kind mismatch).
 */
TEST(MetricsRegistryTest, SeparatorBytesInLabelsDoNotCollide)
{
    SKIP_IF_NO_TELEMETRY();
    MetricsRegistry registry;
    // Same flattened byte stream with the naive key: a | b\x1fc  vs
    // a\x1fb | c.
    Counter first =
        registry.counter("sep_total", "", {{"a", "b\x1f"
                                                 "c"}});
    Counter second = registry.counter("sep_total", "",
                                      {{"a\x1f"
                                        "b",
                                        "c"}});
    first.inc(1);
    second.inc(10);
    const MetricsSnapshot snapshot = registry.snapshot();
    std::vector<uint64_t> totals;
    for (const MetricValue &metric : snapshot.metrics) {
        if (metric.name == "sep_total")
            totals.push_back(metric.count);
    }
    ASSERT_EQ(totals.size(), 2u);
    EXPECT_EQ(totals[0] + totals[1], 11u);
}

// --- exporter goldens (hand-built snapshots; run in every build mode) --

namespace
{

MetricsSnapshot
goldenSnapshot()
{
    MetricsSnapshot snapshot;

    MetricValue counter;
    counter.name = "autofsm_demo_total";
    counter.help = "Demo counter.";
    counter.labels = {{"stage", "markov"}};
    counter.kind = MetricKind::Counter;
    counter.count = 3;
    snapshot.metrics.push_back(counter);

    MetricValue gauge;
    gauge.name = "autofsm_gauge";
    gauge.help = "A gauge.";
    gauge.kind = MetricKind::Gauge;
    gauge.value = 2.5;
    snapshot.metrics.push_back(gauge);

    MetricValue hist;
    hist.name = "autofsm_lat_millis";
    hist.help = "Latency.";
    hist.kind = MetricKind::Histogram;
    hist.histogram.upperBounds = {1.0, 2.0};
    hist.histogram.bucketCounts = {1, 2, 1};
    hist.histogram.count = 4;
    hist.histogram.sum = 5.5;
    snapshot.metrics.push_back(hist);

    return snapshot;
}

} // anonymous namespace

TEST(MetricsExportTest, PrometheusGolden)
{
    EXPECT_EQ(metricsToPrometheus(goldenSnapshot()),
              "# HELP autofsm_demo_total Demo counter.\n"
              "# TYPE autofsm_demo_total counter\n"
              "autofsm_demo_total{stage=\"markov\"} 3\n"
              "# HELP autofsm_gauge A gauge.\n"
              "# TYPE autofsm_gauge gauge\n"
              "autofsm_gauge 2.5\n"
              "# HELP autofsm_lat_millis Latency.\n"
              "# TYPE autofsm_lat_millis histogram\n"
              "autofsm_lat_millis_bucket{le=\"1\"} 1\n"
              "autofsm_lat_millis_bucket{le=\"2\"} 3\n"
              "autofsm_lat_millis_bucket{le=\"+Inf\"} 4\n"
              "autofsm_lat_millis_sum 5.5\n"
              "autofsm_lat_millis_count 4\n");
}

TEST(MetricsExportTest, PrometheusEscapesLabelValues)
{
    MetricsSnapshot snapshot;
    MetricValue counter;
    counter.name = "esc_total";
    counter.kind = MetricKind::Counter;
    counter.labels = {{"k", "a\"b\\c\nd"}};
    counter.count = 1;
    snapshot.metrics.push_back(counter);
    EXPECT_EQ(metricsToPrometheus(snapshot),
              "# TYPE esc_total counter\n"
              "esc_total{k=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(MetricsExportTest, JsonGolden)
{
    EXPECT_EQ(
        metricsToJson(goldenSnapshot()),
        "{\"metrics\":["
        "{\"name\":\"autofsm_demo_total\",\"kind\":\"counter\","
        "\"help\":\"Demo counter.\",\"labels\":{\"stage\":\"markov\"},"
        "\"value\":3},"
        "{\"name\":\"autofsm_gauge\",\"kind\":\"gauge\","
        "\"help\":\"A gauge.\",\"value\":2.5},"
        "{\"name\":\"autofsm_lat_millis\",\"kind\":\"histogram\","
        "\"help\":\"Latency.\",\"count\":4,\"sum\":5.5,"
        "\"p50\":1.5,\"p90\":2,\"p99\":2,"
        "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":2,\"count\":2},"
        "{\"le\":null,\"count\":1}]}"
        "]}");
}

TEST(MetricsExportTest, ExportersAreDeterministic)
{
    const MetricsSnapshot snapshot = goldenSnapshot();
    EXPECT_EQ(metricsToJson(snapshot), metricsToJson(snapshot));
    EXPECT_EQ(metricsToPrometheus(snapshot),
              metricsToPrometheus(snapshot));
}

TEST(SpansExportTest, JsonGoldenNestsChildrenAndOrphans)
{
    std::vector<SpanRecord> spans;
    spans.push_back({1, 0, "root", 0.0, 5.0});
    spans.push_back({2, 1, "child-a", 1.0, 1.5});
    spans.push_back({3, 1, "child-b", 2.5, 2.0});
    spans.push_back({4, 99, "orphan", 0.5, 0.25}); // absent parent
    EXPECT_EQ(
        spansToJson(spans),
        "{\"spans\":["
        "{\"id\":1,\"name\":\"root\",\"startMillis\":0,\"millis\":5,"
        "\"children\":["
        "{\"id\":2,\"name\":\"child-a\",\"startMillis\":1,"
        "\"millis\":1.5},"
        "{\"id\":3,\"name\":\"child-b\",\"startMillis\":2.5,"
        "\"millis\":2}]},"
        "{\"id\":4,\"name\":\"orphan\",\"startMillis\":0.5,"
        "\"millis\":0.25}"
        "]}");
}

// --- tracer behavior ---------------------------------------------------

TEST(TracerTest, NestedSpansLinkToStackParent)
{
    SKIP_IF_NO_TELEMETRY();
    Tracer tracer;
    tracer.enable(true);
    {
        SpanScope outer(&tracer, "outer");
        EXPECT_EQ(tracer.currentSpan(), outer.id());
        {
            SpanScope inner(&tracer, "inner");
            EXPECT_EQ(tracer.currentSpan(), inner.id());
        }
        EXPECT_EQ(tracer.currentSpan(), outer.id());
    }
    EXPECT_EQ(tracer.currentSpan(), 0u);

    const std::vector<SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Sorted by id = start order: outer first.
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].name, "inner");
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_GE(spans[0].durationMillis, spans[1].durationMillis);
}

TEST(TracerTest, ExplicitParentConnectsAcrossThreads)
{
    SKIP_IF_NO_TELEMETRY();
    Tracer tracer;
    tracer.enable(true);
    uint64_t root_id = 0;
    {
        SpanScope root(&tracer, "batch");
        root_id = root.id();
        std::thread worker([&] {
            SpanScope item(&tracer, "item", root_id);
            (void)item;
        });
        worker.join();
    }
    const std::vector<SpanRecord> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "batch");
    EXPECT_EQ(spans[1].name, "item");
    EXPECT_EQ(spans[1].parent, root_id);
}

TEST(TracerTest, ClearDropsRecordedSpans)
{
    SKIP_IF_NO_TELEMETRY();
    Tracer tracer;
    tracer.enable(true);
    { SpanScope span(&tracer, "a"); }
    ASSERT_EQ(tracer.snapshot().size(), 1u);
    tracer.clear();
    EXPECT_TRUE(tracer.snapshot().empty());
    { SpanScope span(&tracer, "b"); }
    EXPECT_EQ(tracer.snapshot().size(), 1u);
}

TEST(TracerTest, DisabledTracerStillTimes)
{
    // Works in every build mode: a SpanScope over a disabled (or null)
    // tracer is a stopwatch, which FlowTrace depends on.
    Tracer tracer; // disabled by default
    SpanScope span(&tracer, "timed");
    EXPECT_EQ(span.id(), 0u);
    const double first = span.finishMillis();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(span.finishMillis(), first); // idempotent
    EXPECT_TRUE(tracer.snapshot().empty());

    SpanScope null_span(nullptr, "timed");
    EXPECT_GE(null_span.finishMillis(), 0.0);
}

/**
 * Regression for the incremental drain path: each drain() returns
 * exactly the spans recorded since the previous drain, sorted by id,
 * and consumes them (they stop appearing in snapshot()).
 */
TEST(TracerTest, DrainConsumesOnlyNewSpansInIdOrder)
{
    SKIP_IF_NO_TELEMETRY();
    Tracer tracer;
    tracer.enable(true);
    { SpanScope span(&tracer, "first"); }
    { SpanScope span(&tracer, "second"); }

    const std::vector<SpanRecord> batch1 = tracer.drain();
    ASSERT_EQ(batch1.size(), 2u);
    EXPECT_EQ(batch1[0].name, "first");
    EXPECT_EQ(batch1[1].name, "second");
    EXPECT_LT(batch1[0].id, batch1[1].id);
    EXPECT_TRUE(tracer.snapshot().empty()); // drained = consumed

    { SpanScope span(&tracer, "third"); }
    const std::vector<SpanRecord> batch2 = tracer.drain();
    ASSERT_EQ(batch2.size(), 1u);
    EXPECT_EQ(batch2[0].name, "third");
    EXPECT_GT(batch2[0].id, batch1[1].id); // ids keep increasing

    EXPECT_TRUE(tracer.drain().empty());
}

TEST(TracerTest, OpenCloseSpanCrossesThreads)
{
    SKIP_IF_NO_TELEMETRY();
    Tracer tracer;
    tracer.enable(true);

    // A request-lifetime span: opened on the admission thread, children
    // recorded from a worker, closed from a third thread.
    const uint64_t root = tracer.openSpan("serve.request");
    ASSERT_NE(root, 0u);
    std::thread worker([&] {
        SpanScope item(&tracer, "batch.item", root);
        (void)item;
    });
    worker.join();
    std::thread closer([&] { tracer.closeSpan(root); });
    closer.join();

    tracer.closeSpan(0);   // no-op
    tracer.closeSpan(999); // unknown id: no-op

    const std::vector<SpanRecord> spans = tracer.drain();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].id, root);
    EXPECT_EQ(spans[0].name, "serve.request");
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_GE(spans[0].durationMillis, 0.0);
    EXPECT_EQ(spans[1].name, "batch.item");
    EXPECT_EQ(spans[1].parent, root);
    // The request span must cover its child's whole lifetime.
    EXPECT_GE(spans[0].startMillis + spans[0].durationMillis,
              spans[1].startMillis + spans[1].durationMillis);
}

TEST(TracerTest, DisabledOpenSpanReturnsZero)
{
    Tracer tracer; // disabled
    EXPECT_EQ(tracer.openSpan("nope"), 0u);
    tracer.closeSpan(0);
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(TracerTest, CurrentTracerDefaultsToGlobalAndBindingOverrides)
{
    EXPECT_EQ(currentTracer(), &globalTracer());
    Tracer mine;
    {
        TracerBinding binding(&mine);
        EXPECT_EQ(currentTracer(), &mine);
        // The binding is thread-local: a fresh thread sees the global.
        Tracer *seen = nullptr;
        std::thread other([&] { seen = currentTracer(); });
        other.join();
        EXPECT_EQ(seen, &globalTracer());
        {
            Tracer inner;
            TracerBinding nested(&inner);
            EXPECT_EQ(currentTracer(), &inner);
        }
        EXPECT_EQ(currentTracer(), &mine); // nested scope restores
    }
    EXPECT_EQ(currentTracer(), &globalTracer());
}

/**
 * The cross-thread parentage acceptance test: two "requests" fanned
 * across a pool of workers must come out as two connected, disjoint
 * span trees — every span walks up to its own request's root, none to
 * the other's, and no parent id is missing.
 */
TEST(TracerTest, PoolFannedRequestsYieldConnectedDisjointTrees)
{
    SKIP_IF_NO_TELEMETRY();
    constexpr int kRequests = 2;
    constexpr int kItemsPerRequest = 4;

    Tracer tracer;
    tracer.enable(true);
    uint64_t roots[kRequests];
    for (int r = 0; r < kRequests; ++r)
        roots[r] = tracer.openSpan("serve.request");

    std::vector<std::thread> workers;
    for (int r = 0; r < kRequests; ++r) {
        for (int i = 0; i < kItemsPerRequest; ++i) {
            workers.emplace_back([&, r] {
                TracerBinding binding(&tracer);
                SpanScope item(currentTracer(),
                               r == 0 ? "item.0" : "item.1", roots[r]);
                // Stack parentage inside the item, as the flow stages do.
                SpanScope stage(currentTracer(), "flow.run");
            });
        }
    }
    for (std::thread &worker : workers)
        worker.join();
    for (int r = 0; r < kRequests; ++r)
        tracer.closeSpan(roots[r]);

    const std::vector<SpanRecord> spans = tracer.drain();
    ASSERT_EQ(spans.size(),
              kRequests * (1 + 2 * kItemsPerRequest));

    std::map<uint64_t, const SpanRecord *> byId;
    for (const SpanRecord &span : spans)
        byId[span.id] = &span;
    for (const SpanRecord &span : spans) {
        if (span.parent == 0) {
            EXPECT_EQ(span.name, "serve.request");
            continue;
        }
        ASSERT_TRUE(byId.count(span.parent))
            << "orphan: " << span.name << " parent " << span.parent;
        // Walk to the root; it must be the right request's root.
        uint64_t at = span.id;
        while (byId[at]->parent != 0)
            at = byId[at]->parent;
        if (span.name == "item.0")
            EXPECT_EQ(at, roots[0]);
        else if (span.name == "item.1")
            EXPECT_EQ(at, roots[1]);
        else
            EXPECT_TRUE(at == roots[0] || at == roots[1]);
    }
}

/**
 * Each span carries the root of the request bound on its thread when it
 * opened, so spans drained while their request root is still open (the
 * serve daemon drains one tracer from concurrent batches) stay
 * attributable without their parents.
 */
TEST(TracerTest, SpansCarryTheRootOfTheirBoundContext)
{
    SKIP_IF_NO_TELEMETRY();
    Tracer tracer;
    tracer.enable(true);
    uint64_t roots[2];
    for (uint64_t &root : roots)
        root = tracer.openSpan("serve.request");

    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            TraceContext context;
            context.requestId = static_cast<uint64_t>(r) + 1;
            context.sampled = true;
            context.rootSpan = roots[r];
            TraceContextScope scope(context);
            const std::string suffix(1, static_cast<char>('0' + r));
            SpanScope item(&tracer, "item." + suffix, roots[r]);
            SpanScope stage(&tracer, "stage." + suffix); // stack parent
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    {
        // No bound context: a parentless span roots its own tree, and
        // its child belongs to no request.
        SpanScope loose(&tracer, "batch.designAll");
        SpanScope child(&tracer, "batch.evaluate");
    }

    const std::vector<SpanRecord> children = tracer.drain();
    ASSERT_EQ(children.size(), 6u);
    for (const SpanRecord &span : children) {
        if (span.name == "batch.designAll") {
            EXPECT_EQ(span.root, span.id);
        } else if (span.name == "batch.evaluate") {
            EXPECT_EQ(span.root, 0u);
        } else {
            const int r = span.name.back() - '0';
            EXPECT_EQ(span.root, roots[r]) << span.name;
        }
    }
    for (const uint64_t root : roots)
        tracer.closeSpan(root);
    const std::vector<SpanRecord> closed = tracer.drain();
    ASSERT_EQ(closed.size(), 2u);
    for (const SpanRecord &span : closed)
        EXPECT_EQ(span.root, span.id);
}

TEST(TraceEventsExportTest, ChromeGoldenAndStrictJson)
{
    // Hand-built spans, so this pins the byte format in every build
    // mode: complete "X" events, microsecond ts/dur, tid = the
    // tracer-local thread ordinal, span ids in args.
    std::vector<SpanRecord> spans;
    spans.push_back({1, 0, "root", 0.0, 2.5, 0});
    spans.push_back({2, 1, "child", 0.5, 1.0, 1});
    const std::string json = traceEventsToJson(spans);
    EXPECT_EQ(json,
              "{\"traceEvents\":["
              "{\"name\":\"root\",\"cat\":\"autofsm\",\"ph\":\"X\","
              "\"ts\":0,\"dur\":2500,\"pid\":1,\"tid\":0,"
              "\"args\":{\"id\":1,\"parent\":0}},"
              "{\"name\":\"child\",\"cat\":\"autofsm\",\"ph\":\"X\","
              "\"ts\":500,\"dur\":1000,\"pid\":1,\"tid\":1,"
              "\"args\":{\"id\":2,\"parent\":1}}"
              "],\"displayTimeUnit\":\"ms\"}");
    // And the repo's strict parser accepts it (what the smoke job runs).
    const JsonValue parsed = JsonValue::parse(json);
    ASSERT_NE(parsed.find("traceEvents"), nullptr);
    EXPECT_EQ(parsed.find("traceEvents")->items().size(), 2u);
}

// --- structured logger -------------------------------------------------

TEST(LogTest, StrictJsonLineWithTypedFields)
{
    SKIP_IF_NO_TELEMETRY();
    Logger logger;
    std::ostringstream sink;
    logger.setSink(&sink);
    logger.log(LogLevel::Info, "test.site", "hello",
               {{"s", "x\"y"},
                {"i", int64_t{-3}},
                {"u", uint64_t{7}},
                {"r", 1.5},
                {"b", true}});

    std::string line = sink.str();
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    const JsonValue parsed = JsonValue::parse(line); // strict: one object
    EXPECT_EQ(parsed.find("level")->asString(), "info");
    EXPECT_EQ(parsed.find("site")->asString(), "test.site");
    EXPECT_EQ(parsed.find("msg")->asString(), "hello");
    EXPECT_GT(parsed.find("ts")->asInt(), 0);
    EXPECT_EQ(parsed.find("s")->asString(), "x\"y");
    EXPECT_EQ(parsed.find("i")->asInt(), -3);
    EXPECT_EQ(parsed.find("u")->asInt(), 7);
    EXPECT_DOUBLE_EQ(parsed.find("r")->asNumber(), 1.5);
    EXPECT_TRUE(parsed.find("b")->asBool());
    // No request context bound: no correlation keys.
    EXPECT_EQ(parsed.find("requestId"), nullptr);
    EXPECT_EQ(parsed.find("suppressed"), nullptr);
}

TEST(LogTest, MinLevelFiltersDebugByDefault)
{
    SKIP_IF_NO_TELEMETRY();
    Logger logger;
    std::ostringstream sink;
    logger.setSink(&sink);
    logger.log(LogLevel::Debug, "test.site", "dropped");
    EXPECT_TRUE(sink.str().empty());
    logger.setMinLevel(LogLevel::Debug);
    logger.log(LogLevel::Debug, "test.site", "kept");
    EXPECT_NE(sink.str().find("\"kept\""), std::string::npos);
}

TEST(LogTest, RateLimitSuppressesCountsAndErrorsBypass)
{
    SKIP_IF_NO_TELEMETRY();
    Logger logger;
    std::ostringstream sink;
    logger.setSink(&sink);
    logger.setRateLimitPerSecond(2);

    for (int i = 0; i < 5; ++i)
        logger.log(LogLevel::Info, "noisy.site", "spam");
    // Errors are never suppressed, even on an exhausted site.
    logger.log(LogLevel::Error, "noisy.site", "boom");

    std::istringstream lines(sink.str());
    std::string line;
    size_t count = 0;
    while (std::getline(lines, line))
        ++count;
    EXPECT_EQ(count, 3u); // 2 info + the error
    EXPECT_EQ(logger.suppressedLines(), 3u);
    EXPECT_NE(sink.str().find("\"boom\""), std::string::npos);
}

TEST(LogTest, SuppressedCountRidesOnNextEmittedLine)
{
    SKIP_IF_NO_TELEMETRY();
    Logger logger;
    std::ostringstream sink;
    logger.setSink(&sink);
    logger.setRateLimitPerSecond(1);
    logger.log(LogLevel::Info, "bursty.site", "first");
    logger.log(LogLevel::Info, "bursty.site", "dropped-1");
    logger.log(LogLevel::Info, "bursty.site", "dropped-2");
    // Next window: the first line through carries the dropped count.
    std::this_thread::sleep_for(std::chrono::milliseconds(1050));
    logger.log(LogLevel::Info, "bursty.site", "second");

    std::istringstream lines(sink.str());
    std::string line, last;
    while (std::getline(lines, line))
        last = line;
    const JsonValue parsed = JsonValue::parse(last);
    EXPECT_EQ(parsed.find("msg")->asString(), "second");
    ASSERT_NE(parsed.find("suppressed"), nullptr);
    EXPECT_EQ(parsed.find("suppressed")->asInt(), 2);
}

TEST(LogTest, RequestCorrelationFromBoundContext)
{
    SKIP_IF_NO_TELEMETRY();
    Logger logger;
    std::ostringstream sink;
    logger.setSink(&sink);

    TraceContext context;
    context.requestId = 7;
    context.tenant = "smoke";
    context.requestClass = "interactive";
    context.sampled = true;
    {
        TraceContextScope scope(context);
        logger.log(LogLevel::Warn, "serve.slow", "late");
    }
    logger.log(LogLevel::Warn, "serve.slow", "outside");

    std::istringstream lines(sink.str());
    std::string inside, outside;
    std::getline(lines, inside);
    std::getline(lines, outside);
    const JsonValue bound = JsonValue::parse(inside);
    EXPECT_EQ(bound.find("requestId")->asInt(), 7);
    EXPECT_EQ(bound.find("tenant")->asString(), "smoke");
    EXPECT_EQ(bound.find("class")->asString(), "interactive");
    // Outside the scope the correlation keys disappear again.
    const JsonValue unbound = JsonValue::parse(outside);
    EXPECT_EQ(unbound.find("requestId"), nullptr);
}

// --- slow-request ring -------------------------------------------------

TEST(SlowRingTest, EvictsOldestCountsDroppedAndJsonParses)
{
    // The ring is plain data, functional in every build mode.
    SlowRequestRing ring(2);
    for (uint64_t id = 1; id <= 3; ++id) {
        SlowRequestCapture capture;
        capture.requestId = id;
        capture.tenant = "t";
        capture.requestClass = "interactive";
        capture.outcome = id == 3 ? "error" : "ok";
        capture.totalMillis = 10.0 * static_cast<double>(id);
        capture.deadlineMillis = 5.0;
        if (id == 3) {
            capture.errorStage = "flow.subset";
            capture.errorKind = "budget-exceeded";
            capture.errorDetail = "too big";
            capture.fallbacks.push_back("flow.minimize:degraded");
        }
        capture.spans.push_back({id, 0, "serve.request", 0.0, 1.0, 0});
        ring.add(std::move(capture));
    }

    const std::vector<SlowRequestCapture> kept = ring.snapshot();
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].requestId, 2u); // oldest (id 1) evicted
    EXPECT_EQ(kept[1].requestId, 3u);
    EXPECT_EQ(ring.dropped(), 1u);

    const std::string json =
        slowRequestsToJson(kept, ring.capacity(), ring.dropped());
    const JsonValue parsed = JsonValue::parse(json); // strict
    ASSERT_NE(parsed.find("slowRequests"), nullptr);
    ASSERT_EQ(parsed.find("slowRequests")->items().size(), 2u);
    EXPECT_EQ(parsed.find("capacity")->asInt(), 2);
    EXPECT_EQ(parsed.find("dropped")->asInt(), 1);
    const JsonValue &errored = parsed.find("slowRequests")->items()[1];
    EXPECT_EQ(errored.find("outcome")->asString(), "error");
    ASSERT_NE(errored.find("error"), nullptr);
    EXPECT_EQ(errored.find("error")->find("kind")->asString(),
              "budget-exceeded");
    ASSERT_NE(errored.find("spans"), nullptr);
    EXPECT_EQ(errored.find("spans")->items().size(), 1u);
}

TEST(SlowRingTest, ZeroCapacityRefusesEverything)
{
    SlowRequestRing ring(0);
    ring.add(SlowRequestCapture{});
    EXPECT_TRUE(ring.snapshot().empty());
    EXPECT_EQ(ring.dropped(), 1u);
}
