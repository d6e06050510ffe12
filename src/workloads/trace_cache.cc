#include "workloads/trace_cache.hh"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "store/store.hh"
#include "support/failpoint.hh"

namespace autofsm
{

namespace
{

using TracePtr = std::shared_ptr<const PackedTrace>;

/** One entry's product: a whole trace, or only its outcome words. */
struct Cached
{
    TracePtr trace;
    OutcomeWords outcomes;

    size_t
    branches() const
    {
        return trace ? trace->size() : outcomes.bits;
    }
};

struct TraceCache
{
    struct Entry
    {
        std::shared_future<Cached> future;
        /** Logical clock of the last lookup, for LRU eviction. */
        uint64_t lastUse = 0;
    };

    std::mutex mutex;
    /** Futures, not values: a key's first caller installs the future,
     *  builds outside the lock, and fulfills it; concurrent callers of
     *  the same key wait instead of rebuilding. */
    std::unordered_map<std::string, Entry> entries;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t clock = 0;
    size_t capacity = 64;
    /** Bumped by every clear; read without the lock by
     *  workloadTraceGeneration(). */
    std::atomic<uint64_t> generation{0};
};

/**
 * Drop LRU *completed* entries until the map fits @p capacity. Caller
 * holds the lock. In-flight builds are never evicted (their waiters
 * and the dedup contract depend on the entry), so the map can
 * transiently exceed the cap while many builds race; it shrinks on the
 * next insertion after they complete.
 */
template <typename Map>
size_t
evictOverCap(Map &entries, size_t capacity, uint64_t &evictions)
{
    size_t dropped = 0;
    while (capacity != 0 && entries.size() > capacity) {
        auto victim = entries.end();
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            if (it->second.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                continue;
            }
            if (victim == entries.end() ||
                it->second.lastUse < victim->second.lastUse) {
                victim = it;
            }
        }
        if (victim == entries.end())
            break; // everything over the cap is still building
        entries.erase(victim);
        ++evictions;
        ++dropped;
    }
    return dropped;
}

TraceCache &
cache()
{
    static TraceCache instance;
    return instance;
}

void
publishEvictions(size_t dropped)
{
    obs::MetricsRegistry &registry = obs::globalMetrics();
    if (dropped == 0 || !registry.enabled())
        return;
    registry
        .counter("autofsm_tracecache_evictions_total",
                 "Completed entries dropped by the LRU cap of the "
                 "process-wide branch-trace cache.")
        .inc(dropped);
}

void
publishCacheCounters(bool hit)
{
    obs::MetricsRegistry &registry = obs::globalMetrics();
    if (!registry.enabled())
        return;
    if (hit) {
        registry
            .counter("autofsm_trace_cache_hits_total",
                     "Trace-cache lookups served from the cache.")
            .inc();
    } else {
        registry
            .counter("autofsm_trace_cache_misses_total",
                     "Trace-cache lookups that built a new entry.")
            .inc();
    }
}

std::string
cacheKey(const std::string &name, WorkloadInput input,
         size_t approx_branches)
{
    return name + '\x1f' +
        std::to_string(static_cast<int>(input)) + '\x1f' +
        std::to_string(approx_branches);
}

/**
 * Disk-tier read-through: wrap a stored trace's mapping in place, no
 * copy. Any store failure (including an injected read fault) is a
 * clean miss — the caller falls back to generating the trace.
 */
TracePtr
loadTraceFromStore(const std::string &key)
{
    const std::shared_ptr<store::ArtifactStore> disk = store::globalStore();
    if (!disk)
        return nullptr;
    std::optional<store::TraceBlob> blob;
    try {
        blob = disk->loadTrace(key);
    } catch (...) {
        return nullptr;
    }
    if (!blob)
        return nullptr;
    return std::make_shared<const PackedTrace>(blob->pcs, blob->takenWords,
                                               std::move(blob->owner));
}

/** Best-effort write-through of a freshly built trace. */
void
saveTraceToStore(const std::string &key, const PackedTrace &trace)
{
    const std::shared_ptr<store::ArtifactStore> disk = store::globalStore();
    if (!disk)
        return;
    try {
        disk->putTrace(key, trace.pcs(), trace.takenWords(), trace.size());
    } catch (...) {
        // Injected mid-commit crash or real IO failure: already logged
        // and counted by the store; the in-memory trace stands.
    }
}

/**
 * The one lookup path of both entry kinds: a hit touches the entry's
 * LRU clock; a miss installs a future, runs @p build outside the lock
 * and fulfills it, so concurrent callers of @p key share one build.
 */
template <typename Build>
Cached
lookup(const std::string &key, const Build &build)
{
    TraceCache &c = cache();
    std::shared_future<Cached> future;
    std::promise<Cached> promise;
    bool creator = false;
    size_t dropped = 0;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        const auto it = c.entries.find(key);
        if (it != c.entries.end()) {
            it->second.lastUse = ++c.clock;
            future = it->second.future;
            ++c.hits;
        } else {
            future = promise.get_future().share();
            c.entries.emplace(key,
                              TraceCache::Entry{future, ++c.clock});
            dropped = evictOverCap(c.entries, c.capacity, c.evictions);
            creator = true;
            ++c.misses;
        }
    }
    publishCacheCounters(!creator);
    publishEvictions(dropped);

    if (creator) {
        try {
            AUTOFSM_FAILPOINT("workloads.trace_build");
            promise.set_value(build());
        } catch (...) {
            // Don't cache the failure: the entry must be erased BEFORE
            // the promise is fulfilled. In the other order a concurrent
            // caller can find the entry after set_exception and latch
            // the already-failed future instead of getting the fresh
            // attempt this policy promises.
            {
                std::lock_guard<std::mutex> lock(c.mutex);
                c.entries.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

/**
 * The whole trace of @p key's triple. Disk tier first: a persisted
 * trace skips the workload model entirely. Misses (and any store
 * failure) generate, timed, then spill best-effort for next time.
 */
TracePtr
loadOrGenerate(const std::string &key, const std::string &name,
               WorkloadInput input, size_t approx_branches)
{
    if (TracePtr stored = loadTraceFromStore(key))
        return stored;
    const auto start = std::chrono::steady_clock::now();
    auto trace = std::make_shared<const PackedTrace>(
        makeBranchTrace(name, input, approx_branches));
    observeTraceBuildMillis(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    saveTraceToStore(key, *trace);
    return trace;
}

/** A private copy of @p words, so the caller can drop their owner. */
OutcomeWords
copyOutcomes(std::span<const uint64_t> words, size_t bits)
{
    auto owned = std::make_shared<const std::vector<uint64_t>>(
        words.begin(), words.end());
    return {*owned, bits, owned};
}

} // anonymous namespace

std::shared_ptr<const PackedTrace>
cachedBranchTrace(const std::string &name, WorkloadInput input,
                  size_t approx_branches)
{
    const std::string key = cacheKey(name, input, approx_branches);
    return lookup(key, [&] {
               return Cached{loadOrGenerate(key, name, input, approx_branches),
                             {}};
           })
        .trace;
}

OutcomeWords
cachedBranchOutcomes(const std::string &name, WorkloadInput input,
                     size_t approx_branches)
{
    const std::string key = cacheKey(name, input, approx_branches);
    return lookup(key + "\x1foutcomes", [&] {
               // The store keeps one trace format, so a miss loads or
               // generates the whole trace and keeps a copy of its
               // outcome words. The copy is taken even off a stored
               // mapping, whose pc pages were read (checksummed) and
               // would otherwise stay resident.
               const TracePtr trace =
                   loadOrGenerate(key, name, input, approx_branches);
               return Cached{nullptr,
                             copyOutcomes(trace->takenWords(), trace->size())};
           })
        .outcomes;
}

BranchTraceCacheStats
branchTraceCacheStats()
{
    TraceCache &c = cache();
    BranchTraceCacheStats stats;
    std::lock_guard<std::mutex> lock(c.mutex);
    stats.hits = c.hits;
    stats.misses = c.misses;
    stats.entries = c.entries.size();
    stats.evictions = c.evictions;
    stats.capacity = c.capacity;
    for (const auto &[key, entry] : c.entries) {
        if (entry.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            // Completed builds only; in-flight entries count as zero.
            try {
                const Cached &cached = entry.future.get();
                stats.cachedBranches += cached.branches();
                stats.outcomeEntries += cached.trace ? 0 : 1;
            } catch (...) {
                // A failing entry is being erased by its creator.
            }
        }
    }
    return stats;
}

size_t
setBranchTraceCacheCapacity(size_t capacity)
{
    TraceCache &c = cache();
    size_t dropped = 0;
    size_t previous = 0;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        previous = c.capacity;
        c.capacity = capacity;
        dropped = evictOverCap(c.entries, c.capacity, c.evictions);
    }
    publishEvictions(dropped);
    return previous;
}

void
clearBranchTraceCache()
{
    TraceCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
    c.hits = 0;
    c.misses = 0;
    c.evictions = 0;
    ++c.generation;
}

uint64_t
workloadTraceGeneration()
{
    return cache().generation.load();
}

void
observeTraceBuildMillis(double millis)
{
    static obs::Histogram histogram = obs::globalMetrics().histogram(
        "autofsm_trace_build_millis",
        "Generation time of one synthetic workload trace.",
        obs::defaultLatencyBucketsMillis());
    histogram.observe(millis);
}

} // namespace autofsm
