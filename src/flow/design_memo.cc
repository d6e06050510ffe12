#include "flow/design_memo.hh"

#include <algorithm>
#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "automata/regex.hh"
#include "obs/metrics.hh"
#include "store/store.hh"

namespace autofsm
{

namespace
{

/** splitmix64 finalizer (same mixing step the batch memo uses). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Sequential hash of a sorted set (order is canonical, so keep it). */
uint64_t
hashSet(uint64_t seed, const std::vector<uint32_t> &values)
{
    uint64_t h = mix64(seed ^ values.size());
    for (const uint32_t v : values)
        h = mix64(h ^ v);
    return h;
}

uint64_t
hashKey(const DesignMemoKey &key)
{
    uint64_t h = mix64(static_cast<uint64_t>(key.order));
    h = mix64(h ^ static_cast<uint64_t>(key.minimizer));
    h = mix64(h ^ static_cast<uint64_t>(key.keepStartupStates));
    h = hashSet(h, key.predictOne);
    return hashSet(h, key.dontCare);
}

struct MemoTelemetry
{
    obs::Counter hits;
    obs::Counter misses;
    obs::Gauge entries;
};

MemoTelemetry &
memoTelemetry()
{
    static MemoTelemetry telemetry = [] {
        obs::MetricsRegistry &registry = obs::globalMetrics();
        MemoTelemetry t;
        t.hits = registry.counter(
            "autofsm_designmemo_hits_total",
            "Design-flow tails served from the cross-item stage memo.");
        t.misses = registry.counter(
            "autofsm_designmemo_misses_total",
            "Memo-eligible design-flow tails that had to be computed.");
        t.entries = registry.gauge(
            "autofsm_designmemo_entries",
            "Entries currently held by the design-stage memo.");
        return t;
    }();
    return telemetry;
}

/**
 * The process-wide memo: hash buckets with exact-key confirmation over
 * one recency list (front = most recently used), so a full memo evicts
 * its coldest entry instead of refusing new ones.
 */
struct Memo
{
    struct Record
    {
        DesignMemoKey key;
        uint64_t hash = 0;
        std::shared_ptr<const DesignMemoEntry> entry;
    };
    using Lru = std::list<Record>;

    std::mutex mutex;
    Lru lru;
    std::unordered_map<uint64_t, std::vector<Lru::iterator>> buckets;
    size_t capacity = 4096;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;

    /** The record holding @p key, or lru.end(). Caller holds the lock. */
    Lru::iterator
    find(const DesignMemoKey &key, uint64_t hash)
    {
        const auto it = buckets.find(hash);
        if (it != buckets.end()) {
            for (const Lru::iterator record : it->second) {
                if (record->key == key)
                    return record;
            }
        }
        return lru.end();
    }

    /** Drop least-recently-used records until at most @p cap remain.
     *  Caller holds the lock. */
    void
    shrinkTo(size_t cap)
    {
        while (lru.size() > cap) {
            const Lru::iterator victim = std::prev(lru.end());
            auto &bucket = buckets[victim->hash];
            bucket.erase(std::find(bucket.begin(), bucket.end(), victim));
            if (bucket.empty())
                buckets.erase(victim->hash);
            lru.erase(victim);
            ++evictions;
        }
    }
};

Memo &
memo()
{
    static Memo instance;
    return instance;
}

/** Memory entry -> persistent artifact (key embedded for re-check). */
store::DesignArtifact
toArtifact(const DesignMemoKey &key, const DesignMemoEntry &entry)
{
    store::DesignArtifact artifact;
    artifact.order = key.order;
    artifact.minimizer = key.minimizer;
    artifact.keepStartupStates = key.keepStartupStates;
    artifact.predictOne = key.predictOne;
    artifact.dontCare = key.dontCare;
    artifact.cover = entry.cover;
    artifact.regexText = entry.regexText;
    artifact.beforeReduction = entry.beforeReduction;
    artifact.fsm = entry.fsm;
    artifact.statesSubset = entry.statesSubset;
    artifact.statesHopcroft = entry.statesHopcroft;
    artifact.statesFinal = entry.statesFinal;
    artifact.stageMillis = entry.stageMillis;
    return artifact;
}

/**
 * Disk-tier read-through: load the artifact addressed by @p key's hash
 * and confirm its embedded canonical key is *exactly* @p key — the file
 * name is only a 64-bit address, so a collision must read as a miss.
 * Any store failure (including injected read faults) is a miss too.
 */
std::shared_ptr<const DesignMemoEntry>
loadFromStore(const DesignMemoKey &key, uint64_t hash)
{
    const std::shared_ptr<store::ArtifactStore> disk = store::globalStore();
    if (!disk)
        return nullptr;
    std::optional<store::DesignArtifact> artifact;
    try {
        artifact = disk->loadDesign(hash);
    } catch (...) {
        return nullptr;
    }
    if (!artifact)
        return nullptr;
    if (artifact->order != key.order ||
        artifact->minimizer != key.minimizer ||
        artifact->keepStartupStates != key.keepStartupStates ||
        artifact->predictOne != key.predictOne ||
        artifact->dontCare != key.dontCare) {
        return nullptr; // hash collision: not our key
    }
    auto entry = std::make_shared<DesignMemoEntry>();
    entry->cover = std::move(artifact->cover);
    entry->regexText = std::move(artifact->regexText);
    entry->beforeReduction = std::move(artifact->beforeReduction);
    entry->fsm = std::move(artifact->fsm);
    entry->statesSubset = artifact->statesSubset;
    entry->statesHopcroft = artifact->statesHopcroft;
    entry->statesFinal = artifact->statesFinal;
    entry->stageMillis = std::move(artifact->stageMillis);
    return entry;
}

/** Best-effort write-through; never fails the caller. */
void
writeToStore(const DesignMemoKey &key, uint64_t hash,
             const DesignMemoEntry &entry)
{
    const std::shared_ptr<store::ArtifactStore> disk = store::globalStore();
    if (!disk)
        return;
    try {
        disk->putDesign(hash, toArtifact(key, entry));
    } catch (...) {
        // Injected mid-commit crash or real IO failure: the store has
        // already logged and counted it; the design result stands.
    }
}

} // anonymous namespace

uint64_t
designMemoKeyHash(const DesignMemoKey &key)
{
    return hashKey(key);
}

DesignMemoKey
designMemoKey(const PatternSets &patterns, MinimizeAlgo minimizer,
              bool keep_startup_states)
{
    DesignMemoKey key;
    key.order = patterns.order;
    key.minimizer = static_cast<int>(minimizer);
    key.keepStartupStates = keep_startup_states;
    key.predictOne = patterns.predictOne;
    key.dontCare = patterns.dontCare;
    return key;
}

namespace
{

/**
 * Insert into the memory tier only (shared by store and promotion),
 * evicting the least-recently-used entry when the memo is full.
 */
void
insertMemory(DesignMemoKey key, uint64_t hash,
             std::shared_ptr<const DesignMemoEntry> entry)
{
    Memo &m = memo();
    size_t entries;
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        if (m.capacity == 0 || m.find(key, hash) != m.lru.end())
            return; // tier disabled, or first store wins (equivalent)
        m.shrinkTo(m.capacity - 1);
        m.lru.push_front({std::move(key), hash, std::move(entry)});
        m.buckets[hash].push_back(m.lru.begin());
        ++m.insertions;
        entries = m.lru.size();
    }
    memoTelemetry().entries.set(static_cast<double>(entries));
}

/**
 * Whether @p entry answers a run under @p budget: what computing it
 * used fits every finite limit, so a fresh run under that budget would
 * not have tripped any of them and would have produced the entry.
 */
bool
fitsBudget(const DesignMemoKey &key, const DesignMemoEntry &entry,
           const FlowBudget &budget)
{
    const size_t minterms = key.predictOne.size() + key.dontCare.size();
    if (budget.maxMinterms > 0 && minterms > budget.maxMinterms)
        return false;
    if (budget.maxNfaStates > 0 &&
        thompsonStateCount(entry.cover) > budget.maxNfaStates)
        return false;
    return budget.maxDfaStates <= 0 ||
        entry.statesSubset <= budget.maxDfaStates;
}

} // anonymous namespace

std::shared_ptr<const DesignMemoEntry>
designMemoLookup(const DesignMemoKey &key, const FlowBudget &budget)
{
    const uint64_t hash = hashKey(key);
    Memo &m = memo();
    std::shared_ptr<const DesignMemoEntry> found;
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        const Memo::Lru::iterator record = m.find(key, hash);
        if (record != m.lru.end()) {
            m.lru.splice(m.lru.begin(), m.lru, record);
            found = record->entry;
        }
    }
    if (!found) {
        // Memory miss: read through to the disk tier and promote, so
        // the next lookup for this key is a memory hit.
        found = loadFromStore(key, hash);
        if (found)
            insertMemory(key, hash, found);
    }
    // An entry too big for this budget is a miss: the caller computes
    // and degrades exactly as a run without the memo would.
    if (found && !fitsBudget(key, *found, budget))
        found = nullptr;
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        if (found)
            ++m.hits;
        else
            ++m.misses;
    }
    if (found)
        memoTelemetry().hits.inc();
    else
        memoTelemetry().misses.inc();
    return found;
}

void
designMemoStore(DesignMemoKey key,
                std::shared_ptr<const DesignMemoEntry> entry)
{
    const uint64_t hash = hashKey(key);
    writeToStore(key, hash, *entry);
    insertMemory(std::move(key), hash, std::move(entry));
}

DesignMemoStats
designMemoStats()
{
    Memo &m = memo();
    std::lock_guard<std::mutex> lock(m.mutex);
    DesignMemoStats stats;
    stats.hits = m.hits;
    stats.misses = m.misses;
    stats.insertions = m.insertions;
    stats.evictions = m.evictions;
    stats.entries = m.lru.size();
    stats.capacity = m.capacity;
    return stats;
}

void
clearDesignMemo()
{
    Memo &m = memo();
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        m.buckets.clear();
        m.lru.clear();
        m.hits = 0;
        m.misses = 0;
        m.insertions = 0;
        m.evictions = 0;
    }
    memoTelemetry().entries.set(0.0);
}

void
designMemoSetCapacity(size_t capacity)
{
    Memo &m = memo();
    size_t entries;
    {
        std::lock_guard<std::mutex> lock(m.mutex);
        m.capacity = capacity;
        m.shrinkTo(capacity);
        entries = m.lru.size();
    }
    memoTelemetry().entries.set(static_cast<double>(entries));
}

} // namespace autofsm
