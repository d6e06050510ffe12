/**
 * @file
 * Crash-safe, content-addressed persistence tier under the in-memory
 * caches: packed traces and designed-FSM artifacts survive process
 * restarts and are shared between daemon replicas pointed at one
 * directory.
 *
 * Two artifact kinds share one container format (see store.cc for the
 * byte layout): a versioned header carrying the kind, the key hash and
 * a header CRC, a section table, and 8-byte-aligned payload sections
 * each protected by its own CRC32. `PackedTrace` blobs keep their SoA
 * layout on disk so a load is a zero-copy `mmap`; designed-FSM
 * artifacts serialize the reduced `Dfa` (and the run's intermediate
 * products) through the existing text formats.
 *
 * Robustness contract:
 *
 *  - Every write commits temp-file -> fsync -> atomic rename, so a
 *    reader can never observe a torn entry; a writer dying at any
 *    instant leaves either the old state or the new state plus at most
 *    a stale `*.tmp` file, which the next open sweeps away.
 *  - Every read validates magic, version, lengths and every CRC. A
 *    corrupt or truncated entry is *quarantined* — renamed into
 *    `quarantine/`, counted in `autofsm_store_quarantined_total`, and
 *    logged — never returned and never re-read.
 *  - A size-capped LRU eviction scan (oldest mtime first) runs on open
 *    and after `evictScanBytes` of writes.
 *  - All IO sites carry failpoints (`store.write`, `store.fsync`,
 *    `store.rename`, `store.load`, `store.mmap`). The write sites
 *    propagate `InjectedFault` — simulating the writer dying
 *    mid-commit, with on-disk state exactly as a crash would leave it —
 *    while the read sites degrade to a clean miss. The cache tiers
 *    that call the store treat any store failure as a miss.
 */

#ifndef AUTOFSM_STORE_STORE_HH
#define AUTOFSM_STORE_STORE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "automata/dfa.hh"
#include "logicmin/cover.hh"

namespace autofsm::store
{

/** Disk-tier knobs. */
struct StoreOptions
{
    /** Root directory (created on open, with its subdirectories). */
    std::string dir;
    /** Total payload cap across entries; 0 = unlimited. */
    uint64_t maxBytes = 0;
    /** Bytes written between size/eviction rescans. */
    uint64_t evictScanBytes = 8 * 1024 * 1024;
};

/** What a container file holds (header byte; part of the format). */
enum class ArtifactKind : uint8_t
{
    PackedTrace = 1,
    Design = 2,
};

/**
 * A designed-FSM artifact: everything the design memo caches, plus the
 * full canonical key (verified on load — the file name's 64-bit hash is
 * only an address) and the computing run's stage timings.
 */
struct DesignArtifact
{
    // The canonical-pattern-set key (flow/design_memo.hh semantics).
    int order = 0;
    int minimizer = 0;
    bool keepStartupStates = false;
    std::vector<uint32_t> predictOne;
    std::vector<uint32_t> dontCare;

    // The memoized tail products.
    Cover cover = Cover::forInputs(1);
    std::string regexText;
    Dfa beforeReduction;
    Dfa fsm;
    int statesSubset = 0;
    int statesHopcroft = 0;
    int statesFinal = 0;

    /** Stage timings of the run that computed this artifact (name,
     *  milliseconds). Informational: reloads report them unchanged. */
    std::vector<std::pair<std::string, double>> stageMillis;
};

/**
 * A zero-copy view of a stored PackedTrace: spans point straight into
 * the mmap'd file, kept alive by @c owner. The branch-trace cache's
 * disk tier (workloads/trace_cache.cc) wraps this into a borrowed-
 * storage PackedTrace.
 */
struct TraceBlob
{
    std::span<const uint64_t> pcs;
    std::span<const uint64_t> takenWords;
    uint64_t count = 0;
    std::shared_ptr<const void> owner;
};

/** Point-in-time tallies of one store instance. */
struct StoreStats
{
    uint64_t writes = 0;
    uint64_t writeFailures = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** Hits on entries that already existed when this store opened —
     *  work inherited from a previous process (the warm-start rate). */
    uint64_t warmHits = 0;
    uint64_t quarantined = 0;
    uint64_t evictions = 0;
    /** Stale temp files swept by the open-time recovery pass. */
    uint64_t recoveredTemps = 0;
    uint64_t bytes = 0;
    size_t entries = 0;
};

/** 64-bit content hash of @p bytes (splitmix64-mixed FNV-style). */
uint64_t hashBytes(std::string_view bytes);

class ArtifactStore
{
  public:
    /**
     * Open (creating directories as needed) and run the recovery pass:
     * sweep stale temp files, validate every entry — quarantining
     * corrupt ones — and run the eviction scan. Entries that survive
     * form the warm set for `StoreStats::warmHits`.
     *
     * @throws std::runtime_error when the directory cannot be created.
     */
    explicit ArtifactStore(StoreOptions options);

    const StoreOptions &options() const { return options_; }

    /**
     * Persist @p trace under @p keyText (the trace cache's key string;
     * embedded and verified on load). Returns false on IO failure
     * (logged, counted — never throws for real IO errors).
     *
     * @throws InjectedFault from the store.{write,fsync,rename}
     *         failpoints, leaving disk state as a mid-commit crash
     *         would.
     */
    bool putTrace(std::string_view keyText,
                  std::span<const uint64_t> pcs,
                  std::span<const uint64_t> takenWords, uint64_t count);

    /**
     * Load the packed trace stored under @p keyText; nullopt on miss,
     * on any validation failure (the entry is quarantined), or on an
     * injected store.{load,mmap} fault (a clean miss).
     */
    std::optional<TraceBlob> loadTrace(std::string_view keyText);

    /** Persist @p artifact under @p keyHash (same contract as putTrace). */
    bool putDesign(uint64_t keyHash, const DesignArtifact &artifact);

    /**
     * Load the design artifact addressed by @p keyHash; nullopt on
     * miss/quarantine/injected fault. The caller must still compare the
     * embedded canonical key against its own (hash collisions read as
     * misses, not as wrong answers).
     */
    std::optional<DesignArtifact> loadDesign(uint64_t keyHash);

    /** Tallies since open (includes the open-time recovery pass). */
    StoreStats stats() const;

    /** Re-run the size scan, evicting past maxBytes (tests). */
    void rescan();

  private:
    struct LoadedFile;

    std::string tracePath(uint64_t hash) const;
    std::string designPath(uint64_t hash) const;
    bool commitFile(const std::string &finalPath, std::string_view bytes);
    std::shared_ptr<LoadedFile> loadFile(const std::string &path,
                                         ArtifactKind kind,
                                         uint64_t keyHash, bool wantMmap);
    void quarantine(const std::string &path, const std::string &reason);
    void scan(bool validateAll);

    StoreOptions options_;
    mutable std::mutex mutex_;
    StoreStats stats_;
    /** Entry file names present when the store opened (warm set). */
    std::unordered_set<std::string> warmSet_;
    uint64_t bytesSinceScan_ = 0;
    uint64_t quarantineSeq_ = 0;
};

/**
 * The process-wide disk tier the cache layers consult (design memo,
 * trace cache); nullptr (the default) means no persistence. The serve
 * daemon installs one for --store-dir; tests attach and detach their
 * own. Thread-safe.
 */
std::shared_ptr<ArtifactStore> globalStore();
void setGlobalStore(std::shared_ptr<ArtifactStore> store);

} // namespace autofsm::store

#endif // AUTOFSM_STORE_STORE_HH
