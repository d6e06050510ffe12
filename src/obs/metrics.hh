/**
 * @file
 * Process-wide metrics registry: counters, gauges and fixed-bucket
 * histograms with Prometheus-style names and labels.
 *
 * Design goals, in order:
 *
 *  - **Cheap hot path.** Counter/histogram writes land in a per-thread
 *    shard, so an increment is one relaxed atomic add on a cache line no
 *    other thread writes (the atomic only orders the snapshot reader;
 *    there is never write contention). `snapshot()` merges the shards.
 *    A thread's shard is retired when the thread exits: its totals
 *    fold into a registry-level accumulator and its memory is freed,
 *    so short-lived threads do not grow the registry.
 *  - **Zero when off.** A disabled registry short-circuits before
 *    touching thread-local state, and compiling with
 *    `-DAUTOFSM_NO_TELEMETRY` removes the instrumentation entirely
 *    (handles become inert, empty structs drive no code).
 *  - **Determinism.** Snapshots are sorted by (name, labels) and the
 *    exporters (obs/export.hh) format them with the same fixed rules as
 *    the rest of the repo's JSON, so equal totals yield equal bytes.
 *
 * Handles (`Counter`, `Gauge`, `Histogram`) are small value types that
 * stay valid for the registry's lifetime; registering the same
 * (name, labels) twice returns a handle to the same metric.
 */

#ifndef AUTOFSM_OBS_METRICS_HH
#define AUTOFSM_OBS_METRICS_HH

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace autofsm::obs
{

/** Label key/value pairs attached to one metric instance. */
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/** Stable lower-case name of @p kind ("counter", "gauge", "histogram"). */
const char *metricKindName(MetricKind kind);

/** Point-in-time value of one histogram. */
struct HistogramValue
{
    /** Finite bucket upper bounds, ascending; an implicit +Inf bucket
     *  follows the last bound. */
    std::vector<double> upperBounds;
    /** Per-bucket (non-cumulative) counts; size upperBounds.size() + 1,
     *  the last entry being the +Inf overflow bucket. */
    std::vector<uint64_t> bucketCounts;
    uint64_t count = 0;
    double sum = 0.0;
};

/** Point-in-time value of one metric instance. */
struct MetricValue
{
    std::string name;
    std::string help;
    Labels labels;
    MetricKind kind = MetricKind::Counter;
    /** Counter total (exact). */
    uint64_t count = 0;
    /** Gauge value. */
    double value = 0.0;
    /** Histogram state (kind == Histogram only). */
    HistogramValue histogram;
};

/** A merged, deterministic view of every registered metric. */
struct MetricsSnapshot
{
    /** Sorted by (name, rendered labels). */
    std::vector<MetricValue> metrics;
};

class MetricsRegistry;

/** Monotone counter handle. Value type; default-constructed is inert. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p n; a single relaxed add on this thread's shard. */
    inline void inc(uint64_t n = 1);

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *registry, uint32_t slot)
        : registry_(registry), slot_(slot)
    {
    }

    MetricsRegistry *registry_ = nullptr;
    uint32_t slot_ = 0;
};

/** Last-write-wins gauge handle. */
class Gauge
{
  public:
    Gauge() = default;

    inline void set(double value);

    /** Atomic add (CAS loop; gauges are not hot-path). */
    inline void add(double delta);

  private:
    friend class MetricsRegistry;
    Gauge(MetricsRegistry *registry, std::atomic<uint64_t> *cell)
        : registry_(registry), cell_(cell)
    {
    }

    MetricsRegistry *registry_ = nullptr;
    std::atomic<uint64_t> *cell_ = nullptr;
};

/** Fixed-bucket histogram handle. */
class Histogram
{
  public:
    Histogram() = default;

    /** Record one observation (bucket count + count + sum). */
    inline void observe(double value);

  private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry *registry, uint32_t slot,
              std::shared_ptr<const std::vector<double>> bounds)
        : registry_(registry), slot_(slot), bounds_(std::move(bounds))
    {
    }

    MetricsRegistry *registry_ = nullptr;
    /** First bucket slot; layout: buckets..., +Inf bucket, count, sum. */
    uint32_t slot_ = 0;
    std::shared_ptr<const std::vector<double>> bounds_;
};

/**
 * The registry proper. One global instance (globalMetrics()) serves the
 * whole process; tests may create private instances freely.
 *
 * Thread-safety: registration and snapshot take a mutex; handle writes
 * are lock-free (per-thread shards). A snapshot taken while writers run
 * is internally consistent per metric (each slot is an atomic read) and
 * never observes more than has been written.
 */
class MetricsRegistry
{
  public:
    /** Scalar slots available per shard; registrations beyond this throw. */
    static constexpr size_t kShardSlots = 4096;

    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Runtime switch; a disabled registry makes every write a no-op. */
    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    bool
    enabled() const
    {
#ifdef AUTOFSM_NO_TELEMETRY
        return false;
#else
        return enabled_.load(std::memory_order_relaxed);
#endif
    }

    /**
     * Register (or look up) a counter. Re-registering the same
     * (name, labels) returns a handle to the same metric; registering it
     * with a different kind throws std::invalid_argument.
     */
    Counter counter(std::string_view name, std::string_view help = {},
                    Labels labels = {});

    /** Register (or look up) a gauge. */
    Gauge gauge(std::string_view name, std::string_view help = {},
                Labels labels = {});

    /**
     * Register (or look up) a histogram over the given finite bucket
     * upper bounds (ascending; an +Inf bucket is appended implicitly).
     * Re-registering with different bounds throws.
     */
    Histogram histogram(std::string_view name, std::string_view help,
                        std::vector<double> upperBounds, Labels labels = {});

    /** Merge every shard into a deterministic, sorted snapshot. */
    MetricsSnapshot snapshot() const;

    /** Zero every value (registrations stay). For tests and benches. */
    void reset();

    /** Shards of threads still alive that have written to this
     *  registry (retired shards excluded). For tests. */
    size_t liveShardCount() const;

  private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;

    struct Shard
    {
        explicit Shard(size_t slots) : slots(slots) {}
        /** Written only by the owning thread; read by snapshot(). */
        std::vector<std::atomic<uint64_t>> slots;
    };

    /**
     * The live shards plus what retired ones left behind. Jointly owned
     * by the registry and every thread holding a shard in it, so a
     * thread that exits after the registry died still retires into
     * valid memory.
     */
    struct ShardSet
    {
        /** A new shard, owned by the set until retire(). */
        Shard *add();
        /** Fold @p shard's slots into the retired totals and free it. */
        void retire(Shard *shard);

        std::mutex mutex;
        std::vector<std::unique_ptr<Shard>> live;
        /** Per-slot totals of retired shards, summed both as integers
         *  (counts) and as bit-cast doubles (histogram sums), exactly as
         *  snapshot() merges live shards. Empty until a retirement. */
        std::vector<uint64_t> retiredCounts;
        std::vector<double> retiredSums;
    };

    /** This thread's shards across registries; retires them on exit. */
    struct ThreadShards;

    struct MetricInfo
    {
        std::string name;
        std::string help;
        Labels labels;
        MetricKind kind = MetricKind::Counter;
        /** First shard slot (counter/histogram) or gauge cell index. */
        uint32_t slot = 0;
        std::shared_ptr<const std::vector<double>> bounds;
    };

    /** Fields a handle needs, copied out of MetricInfo while mutex_ is
     *  held — returning a reference into metrics_ would dangle as soon
     *  as a concurrent registration grows the vector. */
    struct RegisteredMetric
    {
        uint32_t slot = 0;
        std::atomic<uint64_t> *gaugeCell = nullptr;
        std::shared_ptr<const std::vector<double>> bounds;
    };

    /** This thread's shard for this registry (created on first use). */
    Shard *shardForThread();

    RegisteredMetric registerMetric(std::string_view name,
                                    std::string_view help, Labels labels,
                                    MetricKind kind, size_t slots,
                                    std::vector<double> bounds);

    std::atomic<bool> enabled_{true};
    const uint64_t id_;

    mutable std::mutex mutex_;
    std::vector<MetricInfo> metrics_;
    std::unordered_map<std::string, size_t> byKey_;
    size_t nextSlot_ = 0;
    const std::shared_ptr<ShardSet> shards_;
    /** Gauge cells; pointers stay stable across growth (unique_ptr). */
    std::vector<std::unique_ptr<std::atomic<uint64_t>>> gauges_;
};

/** The process-wide registry every subsystem reports into; it lives
 *  until the process ends (it is never destroyed). */
MetricsRegistry &globalMetrics();

/**
 * The shared latency bucket ladder (milliseconds) used by every
 * duration histogram in the repo, so exported timings line up across
 * subsystems.
 */
inline std::vector<double>
defaultLatencyBucketsMillis()
{
    return {0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,
            5.0,  10.0,  25.0, 50.0, 100.0, 250.0, 1000.0, 5000.0};
}

/**
 * The request-level bucket ladder (seconds), Prometheus-convention
 * units for the serve SLO histograms (`*_seconds` families). Spans the
 * sub-millisecond fast path out to the bulk-class tail.
 */
inline std::vector<double>
defaultLatencyBucketsSeconds()
{
    return {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
            0.1,    0.25,  0.5,    1.0,   2.5,  5.0,   15.0};
}

// --- hot-path implementations ------------------------------------------

inline void
Counter::inc(uint64_t n)
{
#ifdef AUTOFSM_NO_TELEMETRY
    (void)n;
#else
    if (registry_ == nullptr || !registry_->enabled())
        return;
    MetricsRegistry::Shard *shard = registry_->shardForThread();
    shard->slots[slot_].fetch_add(n, std::memory_order_relaxed);
#endif
}

inline void
Gauge::set(double value)
{
#ifdef AUTOFSM_NO_TELEMETRY
    (void)value;
#else
    if (registry_ == nullptr || !registry_->enabled())
        return;
    cell_->store(std::bit_cast<uint64_t>(value),
                 std::memory_order_relaxed);
#endif
}

inline void
Gauge::add(double delta)
{
#ifdef AUTOFSM_NO_TELEMETRY
    (void)delta;
#else
    if (registry_ == nullptr || !registry_->enabled())
        return;
    uint64_t bits = cell_->load(std::memory_order_relaxed);
    while (!cell_->compare_exchange_weak(
        bits, std::bit_cast<uint64_t>(std::bit_cast<double>(bits) + delta),
        std::memory_order_relaxed)) {
    }
#endif
}

inline void
Histogram::observe(double value)
{
#ifdef AUTOFSM_NO_TELEMETRY
    (void)value;
#else
    if (registry_ == nullptr || !registry_->enabled())
        return;
    MetricsRegistry::Shard *shard = registry_->shardForThread();
    const std::vector<double> &bounds = *bounds_;
    size_t bucket = 0;
    while (bucket < bounds.size() && value > bounds[bucket])
        ++bucket;
    shard->slots[slot_ + bucket].fetch_add(1, std::memory_order_relaxed);
    const uint32_t count_slot =
        slot_ + static_cast<uint32_t>(bounds.size()) + 1;
    shard->slots[count_slot].fetch_add(1, std::memory_order_relaxed);
    // The sum slot holds a bit-cast double. The shard is single-writer
    // (it belongs to this thread), so a plain load+store cannot lose
    // updates; the atomic only serves the concurrent snapshot reader.
    std::atomic<uint64_t> &sum = shard->slots[count_slot + 1];
    const double old =
        std::bit_cast<double>(sum.load(std::memory_order_relaxed));
    sum.store(std::bit_cast<uint64_t>(old + value),
              std::memory_order_relaxed);
#endif
}

} // namespace autofsm::obs

#endif // AUTOFSM_OBS_METRICS_HH
