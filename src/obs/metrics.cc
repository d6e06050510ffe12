#include "obs/metrics.hh"

#include <algorithm>
#include <stdexcept>

namespace autofsm::obs
{

namespace
{

/** Process-unique registry ids; never reused, so a stale thread-local
 *  cache entry can never alias a newer registry at the same address. */
std::atomic<uint64_t> next_registry_id{1};

/** Append @p s to @p key with the \x1f separator and the \x1e escape
 *  byte escaped, so arbitrary label text cannot forge a separator. */
void
appendKeyComponent(std::string &key, std::string_view s)
{
    for (const char c : s) {
        if (c == '\x1f' || c == '\x1e')
            key += '\x1e';
        key += c;
    }
}

/** Canonical text form of (name, labels), used as the dedup key and as
 *  the deterministic sort key of snapshots. */
std::string
metricKey(std::string_view name, const Labels &labels)
{
    std::string key;
    appendKeyComponent(key, name);
    for (const auto &[k, v] : labels) {
        key += '\x1f';
        appendKeyComponent(key, k);
        key += '\x1f';
        appendKeyComponent(key, v);
    }
    return key;
}

} // anonymous namespace

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

MetricsRegistry::Shard *
MetricsRegistry::ShardSet::add()
{
    auto shard = std::make_unique<Shard>(kShardSlots);
    Shard *const raw = shard.get();
    std::lock_guard<std::mutex> lock(mutex);
    live.push_back(std::move(shard));
    return raw;
}

void
MetricsRegistry::ShardSet::retire(Shard *shard)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (retiredCounts.empty()) {
        retiredCounts.assign(kShardSlots, 0);
        retiredSums.assign(kShardSlots, 0.0);
    }
    for (size_t i = 0; i < kShardSlots; ++i) {
        const uint64_t raw =
            shard->slots[i].load(std::memory_order_relaxed);
        retiredCounts[i] += raw;
        retiredSums[i] += std::bit_cast<double>(raw);
    }
    const auto it = std::find_if(
        live.begin(), live.end(),
        [shard](const auto &s) { return s.get() == shard; });
    *it = std::move(live.back());
    live.pop_back();
}

struct MetricsRegistry::ThreadShards
{
    struct Entry
    {
        std::shared_ptr<ShardSet> set;
        Shard *shard = nullptr;
    };

    ~ThreadShards()
    {
        retired = true;
        cachedId = 0;
        cachedShard = nullptr;
        for (auto &[id, entry] : byRegistry)
            entry.set->retire(entry.shard);
    }

    // One-entry cache of shardForThread(): almost every process uses
    // exactly one registry (globalMetrics()), so the common case is two
    // loads and a compare. Trivially destructible, so still usable
    // while the thread exits.
    static thread_local uint64_t cachedId;
    static thread_local Shard *cachedShard;
    /** Set once this thread's shards have been retired. */
    static thread_local bool retired;

    std::unordered_map<uint64_t, Entry> byRegistry;
};

thread_local uint64_t MetricsRegistry::ThreadShards::cachedId = 0;
thread_local MetricsRegistry::Shard *
    MetricsRegistry::ThreadShards::cachedShard = nullptr;
thread_local bool MetricsRegistry::ThreadShards::retired = false;

MetricsRegistry::MetricsRegistry()
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      shards_(std::make_shared<ShardSet>())
{
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard *
MetricsRegistry::shardForThread()
{
    if (ThreadShards::cachedId == id_)
        return ThreadShards::cachedShard;

    Shard *shard = nullptr;
    if (ThreadShards::retired) {
        // A write from another thread-local's destructor after this
        // thread retired its shards: the new shard stays in the set
        // (never retired) until the set itself dies.
        shard = shards_->add();
    } else {
        // Slow path: find or create this thread's shard for this
        // registry.
        thread_local ThreadShards mine;
        ThreadShards::Entry &entry = mine.byRegistry[id_];
        if (entry.shard == nullptr) {
            entry.set = shards_;
            entry.shard = shards_->add();
        }
        shard = entry.shard;
    }
    ThreadShards::cachedId = id_;
    ThreadShards::cachedShard = shard;
    return shard;
}

MetricsRegistry::RegisteredMetric
MetricsRegistry::registerMetric(std::string_view name, std::string_view help,
                                Labels labels, MetricKind kind, size_t slots,
                                std::vector<double> bounds)
{
    if (name.empty())
        throw std::invalid_argument("metric name must not be empty");
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string key = metricKey(name, labels);
    const auto it = byKey_.find(key);
    if (it != byKey_.end()) {
        const MetricInfo &existing = metrics_[it->second];
        if (existing.kind != kind) {
            throw std::invalid_argument(
                "metric '" + std::string(name) +
                "' re-registered with a different kind");
        }
        if (kind == MetricKind::Histogram &&
            *existing.bounds != bounds) {
            throw std::invalid_argument(
                "histogram '" + std::string(name) +
                "' re-registered with different buckets");
        }
        RegisteredMetric out;
        out.slot = existing.slot;
        if (kind == MetricKind::Gauge)
            out.gaugeCell = gauges_[existing.slot].get();
        out.bounds = existing.bounds;
        return out;
    }

    if (kind == MetricKind::Gauge) {
        MetricInfo info;
        info.name = std::string(name);
        info.help = std::string(help);
        info.labels = std::move(labels);
        info.kind = kind;
        info.slot = static_cast<uint32_t>(gauges_.size());
        gauges_.push_back(std::make_unique<std::atomic<uint64_t>>(
            std::bit_cast<uint64_t>(0.0)));
        byKey_.emplace(key, metrics_.size());
        metrics_.push_back(std::move(info));
        RegisteredMetric out;
        out.slot = metrics_.back().slot;
        out.gaugeCell = gauges_.back().get();
        return out;
    }

    if (nextSlot_ + slots > kShardSlots) {
        throw std::length_error(
            "MetricsRegistry: shard slot capacity exhausted");
    }
    MetricInfo info;
    info.name = std::string(name);
    info.help = std::string(help);
    info.labels = std::move(labels);
    info.kind = kind;
    info.slot = static_cast<uint32_t>(nextSlot_);
    if (kind == MetricKind::Histogram) {
        info.bounds = std::make_shared<const std::vector<double>>(
            std::move(bounds));
    }
    nextSlot_ += slots;
    byKey_.emplace(key, metrics_.size());
    metrics_.push_back(std::move(info));
    RegisteredMetric out;
    out.slot = metrics_.back().slot;
    out.bounds = metrics_.back().bounds;
    return out;
}

Counter
MetricsRegistry::counter(std::string_view name, std::string_view help,
                         Labels labels)
{
    const RegisteredMetric info = registerMetric(
        name, help, std::move(labels), MetricKind::Counter, 1, {});
    return Counter(this, info.slot);
}

Gauge
MetricsRegistry::gauge(std::string_view name, std::string_view help,
                       Labels labels)
{
    const RegisteredMetric info = registerMetric(
        name, help, std::move(labels), MetricKind::Gauge, 0, {});
    return Gauge(this, info.gaugeCell);
}

Histogram
MetricsRegistry::histogram(std::string_view name, std::string_view help,
                           std::vector<double> upperBounds, Labels labels)
{
    if (!std::is_sorted(upperBounds.begin(), upperBounds.end())) {
        throw std::invalid_argument(
            "histogram '" + std::string(name) +
            "' bucket bounds must be ascending");
    }
    // Layout: one slot per finite bucket, +Inf bucket, count, sum.
    const size_t slots = upperBounds.size() + 3;
    const RegisteredMetric info =
        registerMetric(name, help, std::move(labels),
                       MetricKind::Histogram, slots, std::move(upperBounds));
    return Histogram(this, info.slot, info.bounds);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Merge the retired totals and every live shard once into a flat
    // slot image.
    std::vector<uint64_t> merged(nextSlot_, 0);
    std::vector<double> merged_sums(nextSlot_, 0.0);
    std::lock_guard<std::mutex> shards_lock(shards_->mutex);
    if (!shards_->retiredCounts.empty()) {
        std::copy_n(shards_->retiredCounts.begin(), nextSlot_,
                    merged.begin());
        std::copy_n(shards_->retiredSums.begin(), nextSlot_,
                    merged_sums.begin());
    }
    for (const auto &shard : shards_->live) {
        for (size_t i = 0; i < nextSlot_; ++i) {
            const uint64_t raw =
                shard->slots[i].load(std::memory_order_relaxed);
            merged[i] += raw;
            merged_sums[i] += std::bit_cast<double>(raw);
        }
    }

    MetricsSnapshot out;
    out.metrics.reserve(metrics_.size());
    for (const MetricInfo &info : metrics_) {
        MetricValue value;
        value.name = info.name;
        value.help = info.help;
        value.labels = info.labels;
        value.kind = info.kind;
        switch (info.kind) {
          case MetricKind::Counter:
            value.count = merged[info.slot];
            value.value = static_cast<double>(merged[info.slot]);
            break;
          case MetricKind::Gauge:
            value.value = std::bit_cast<double>(
                gauges_[info.slot]->load(std::memory_order_relaxed));
            break;
          case MetricKind::Histogram: {
            const std::vector<double> &bounds = *info.bounds;
            value.histogram.upperBounds = bounds;
            value.histogram.bucketCounts.resize(bounds.size() + 1);
            for (size_t b = 0; b <= bounds.size(); ++b)
                value.histogram.bucketCounts[b] = merged[info.slot + b];
            value.histogram.count = merged[info.slot + bounds.size() + 1];
            value.histogram.sum = merged_sums[info.slot + bounds.size() + 2];
            value.count = value.histogram.count;
            break;
          }
        }
        out.metrics.push_back(std::move(value));
    }

    std::sort(out.metrics.begin(), out.metrics.end(),
              [](const MetricValue &a, const MetricValue &b) {
                  if (a.name != b.name)
                      return a.name < b.name;
                  return metricKey(a.name, a.labels) <
                      metricKey(b.name, b.labels);
              });
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    {
        std::lock_guard<std::mutex> shards_lock(shards_->mutex);
        for (const auto &shard : shards_->live) {
            for (auto &slot : shard->slots)
                slot.store(0, std::memory_order_relaxed);
        }
        shards_->retiredCounts.clear();
        shards_->retiredSums.clear();
    }
    for (const auto &gauge : gauges_)
        gauge->store(std::bit_cast<uint64_t>(0.0),
                     std::memory_order_relaxed);
}

size_t
MetricsRegistry::liveShardCount() const
{
    std::lock_guard<std::mutex> lock(shards_->mutex);
    return shards_->live.size();
}

MetricsRegistry &
globalMetrics()
{
    // Never destroyed: the shared pool's workers (support/thread_pool.hh)
    // outlive static destruction and may still record a finished job.
    static MetricsRegistry *const registry = new MetricsRegistry;
    return *registry;
}

} // namespace autofsm::obs
