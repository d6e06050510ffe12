/**
 * @file
 * Tests of the persistent artifact store: container round-trip
 * bit-identity for packed traces and designed-FSM artifacts, the
 * quarantine policy (corruption, truncation, misfiled entries), the
 * crash-recovery open pass (stale temp sweep), warm-start accounting,
 * the size-capped LRU eviction scan, and the read-through/write-through
 * wiring of the design memo and the workloads trace cache.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "automata/dfa_io.hh"
#include "flow/design_flow.hh"
#include "flow/design_memo.hh"
#include "store/store.hh"
#include "support/failpoint.hh"
#include "support/rng.hh"
#include "trace/packed_trace.hh"
#include "workloads/branch_workloads.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{
namespace
{

namespace fs = std::filesystem;

/** Fresh store directory per test, removed on teardown. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        failpoint::registry().clearAll();
        std::string tmpl =
            (fs::temp_directory_path() / "autofsm-store-XXXXXX").string();
        dir_ = ::mkdtemp(tmpl.data());
        ASSERT_FALSE(dir_.empty());
    }

    void
    TearDown() override
    {
        failpoint::registry().clearAll();
        store::setGlobalStore(nullptr);
        clearDesignMemo();
        clearBranchTraceCache();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    store::StoreOptions
    options(uint64_t maxBytes = 0) const
    {
        store::StoreOptions opts;
        opts.dir = dir_;
        opts.maxBytes = maxBytes;
        return opts;
    }

    /** The single entry file under traces/ or designs/ (or empty). */
    std::string
    onlyEntry(const char *sub) const
    {
        for (const auto &entry : fs::directory_iterator(
                 fs::path(dir_) / sub)) {
            return entry.path().string();
        }
        return {};
    }

    size_t
    countFiles(const char *sub) const
    {
        size_t n = 0;
        for ([[maybe_unused]] const auto &entry :
             fs::directory_iterator(fs::path(dir_) / sub)) {
            ++n;
        }
        return n;
    }

    std::string dir_;
};

/** A deterministic trace with non-trivial pc and outcome structure. */
PackedTrace
syntheticBranchTrace(size_t n, uint64_t seed)
{
    Rng rng(0x570E ^ seed);
    PackedTraceBuilder trace(n);
    for (size_t i = 0; i < n; ++i) {
        trace.push(0x400000 + (i % 17) * 4,
                   rng.uniform() < 0.6 || (i % 7) == 0);
    }
    return trace.finish();
}

/** SoA form of @p trace (what the cache tier spills). */
void
packTrace(const PackedTrace &trace, std::vector<uint64_t> &pcs,
          std::vector<uint64_t> &words)
{
    const size_t n = trace.size();
    pcs.assign(n, 0);
    words.assign((n + 63) / 64, 0);
    for (size_t i = 0; i < n; ++i) {
        pcs[i] = trace.pc(i);
        if (trace.taken(i))
            words[i >> 6] |= 1ULL << (i & 63);
    }
}

/**
 * The file backing the mapping that contains @p address, read from
 * /proc/self/maps; empty when the address is not file-mapped.
 */
std::string
mappedFileOf(const void *address)
{
    const auto target = reinterpret_cast<uintptr_t>(address);
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        std::istringstream fields(line);
        std::string range, perms, offset, device, inode, path;
        fields >> range >> perms >> offset >> device >> inode >> path;
        const size_t dash = range.find('-');
        const uintptr_t begin = std::stoull(range.substr(0, dash), nullptr, 16);
        const uintptr_t end = std::stoull(range.substr(dash + 1), nullptr, 16);
        if (target >= begin && target < end)
            return path;
    }
    return {};
}

/** A real designed artifact (runs the flow on a synthetic stream). */
store::DesignArtifact
syntheticArtifact()
{
    std::vector<int> outcomes;
    for (size_t i = 0; i < 200; ++i)
        outcomes.push_back(static_cast<int>((i / 3) & 1));
    FsmDesignOptions options;
    options.order = 3;
    const FsmDesignResult design =
        DesignFlow(options).runOnTrace(outcomes).design;

    store::DesignArtifact artifact;
    artifact.order = design.patterns.order;
    artifact.minimizer = 1;
    artifact.keepStartupStates = false;
    artifact.predictOne = design.patterns.predictOne;
    artifact.dontCare = design.patterns.dontCare;
    artifact.cover = design.cover;
    artifact.regexText = design.regexText;
    artifact.beforeReduction = design.beforeReduction;
    artifact.fsm = design.fsm;
    artifact.statesSubset = design.statesSubset;
    artifact.statesHopcroft = design.statesHopcroft;
    artifact.statesFinal = design.statesFinal;
    artifact.stageMillis = {{"minimize", 1.25}, {"subset", 0.5}};
    return artifact;
}

TEST_F(StoreTest, TraceRoundTripIsBitIdentical)
{
    const PackedTrace trace = syntheticBranchTrace(1000, 1);
    std::vector<uint64_t> pcs, words;
    packTrace(trace, pcs, words);

    store::ArtifactStore store(options());
    ASSERT_TRUE(store.putTrace("trace-key", pcs, words, trace.size()));

    const auto blob = store.loadTrace("trace-key");
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(blob->count, trace.size());
    ASSERT_EQ(blob->pcs.size(), pcs.size());
    ASSERT_EQ(blob->takenWords.size(), words.size());
    EXPECT_TRUE(std::equal(pcs.begin(), pcs.end(), blob->pcs.begin()));
    EXPECT_TRUE(std::equal(words.begin(), words.end(),
                           blob->takenWords.begin()));

    // The zero-copy PackedTrace over the mapping replays identically to
    // a freshly packed one — same pcs, same outcome bits, record by
    // record.
    const PackedTrace fromDisk(blob->pcs, blob->takenWords, blob->owner);
    const PackedTrace &fromMemory = trace;
    ASSERT_EQ(fromDisk.size(), fromMemory.size());
    for (size_t i = 0; i < fromDisk.size(); ++i) {
        ASSERT_EQ(fromDisk.pc(i), fromMemory.pc(i)) << "record " << i;
        ASSERT_EQ(fromDisk.taken(i), fromMemory.taken(i)) << "record " << i;
    }

    const store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.quarantined, 0u);
}

TEST_F(StoreTest, TraceBlobOutlivesTheStore)
{
    std::vector<uint64_t> pcs, words;
    packTrace(syntheticBranchTrace(300, 2), pcs, words);

    std::optional<store::TraceBlob> blob;
    {
        store::ArtifactStore store(options());
        ASSERT_TRUE(store.putTrace("k", pcs, words, 300));
        blob = store.loadTrace("k");
        ASSERT_TRUE(blob.has_value());
    }
    // The mapping is owned by the blob, not the store object.
    EXPECT_TRUE(std::equal(pcs.begin(), pcs.end(), blob->pcs.begin()));
}

TEST_F(StoreTest, DesignRoundTripIsBitIdentical)
{
    const store::DesignArtifact artifact = syntheticArtifact();
    const uint64_t key = 0x1234abcd5678ef01ULL;

    store::ArtifactStore store(options());
    ASSERT_TRUE(store.putDesign(key, artifact));
    const auto loaded = store.loadDesign(key);
    ASSERT_TRUE(loaded.has_value());

    EXPECT_EQ(loaded->order, artifact.order);
    EXPECT_EQ(loaded->minimizer, artifact.minimizer);
    EXPECT_EQ(loaded->keepStartupStates, artifact.keepStartupStates);
    EXPECT_EQ(loaded->predictOne, artifact.predictOne);
    EXPECT_EQ(loaded->dontCare, artifact.dontCare);
    EXPECT_EQ(dfaToText(loaded->fsm), dfaToText(artifact.fsm));
    EXPECT_EQ(dfaToText(loaded->beforeReduction),
              dfaToText(artifact.beforeReduction));
    EXPECT_EQ(loaded->regexText, artifact.regexText);
    EXPECT_EQ(loaded->statesSubset, artifact.statesSubset);
    EXPECT_EQ(loaded->statesHopcroft, artifact.statesHopcroft);
    EXPECT_EQ(loaded->statesFinal, artifact.statesFinal);
    EXPECT_EQ(loaded->stageMillis, artifact.stageMillis);
    ASSERT_EQ(loaded->cover.size(), artifact.cover.size());
    EXPECT_EQ(loaded->cover.numVars(), artifact.cover.numVars());
    for (size_t i = 0; i < artifact.cover.size(); ++i) {
        EXPECT_EQ(loaded->cover.cubes()[i].toPattern(
                      artifact.cover.numVars()),
                  artifact.cover.cubes()[i].toPattern(
                      artifact.cover.numVars()));
    }
}

TEST_F(StoreTest, MissingEntryIsAMiss)
{
    store::ArtifactStore store(options());
    EXPECT_FALSE(store.loadTrace("nobody-wrote-this").has_value());
    EXPECT_FALSE(store.loadDesign(42).has_value());
    const store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.quarantined, 0u);
}

TEST_F(StoreTest, CorruptPayloadIsQuarantinedNotServed)
{
    std::vector<uint64_t> pcs, words;
    packTrace(syntheticBranchTrace(256, 3), pcs, words);
    store::ArtifactStore store(options());
    ASSERT_TRUE(store.putTrace("k", pcs, words, 256));

    // Flip one payload byte past the header.
    const std::string path = onlyEntry("traces");
    ASSERT_FALSE(path.empty());
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(200);
        char byte = 0;
        f.seekg(200);
        f.get(byte);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(200);
        f.put(byte);
    }

    EXPECT_FALSE(store.loadTrace("k").has_value());
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_EQ(countFiles("traces"), 0u);
    EXPECT_EQ(countFiles("quarantine"), 1u);
    // Quarantine is terminal: the entry is gone, later loads just miss.
    EXPECT_FALSE(store.loadTrace("k").has_value());
    EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST_F(StoreTest, TruncatedEntryIsQuarantined)
{
    std::vector<uint64_t> pcs, words;
    packTrace(syntheticBranchTrace(256, 4), pcs, words);
    store::ArtifactStore store(options());
    ASSERT_TRUE(store.putTrace("k", pcs, words, 256));

    const std::string path = onlyEntry("traces");
    const uintmax_t size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    EXPECT_FALSE(store.loadTrace("k").has_value());
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_EQ(countFiles("quarantine"), 1u);
}

TEST_F(StoreTest, MisfiledEntryFailsTheKeyHashCheck)
{
    std::vector<uint64_t> pcs, words;
    packTrace(syntheticBranchTrace(64, 5), pcs, words);
    store::ArtifactStore store(options());
    ASSERT_TRUE(store.putTrace("key-a", pcs, words, 64));

    // File it under a different key's address: the embedded hash no
    // longer matches the file name, so serving it would be a lie.
    const std::string path = onlyEntry("traces");
    const std::string target =
        (fs::path(path).parent_path() /
         (std::string(16, 'f') + ".af")).string();
    fs::rename(path, target);

    EXPECT_FALSE(store.loadTrace("key-a").has_value());
}

TEST_F(StoreTest, OpenSweepsStaleTempsAndQuarantinesCorruptEntries)
{
    std::vector<uint64_t> pcs, words;
    packTrace(syntheticBranchTrace(128, 6), pcs, words);
    {
        store::ArtifactStore store(options());
        ASSERT_TRUE(store.putTrace("good", pcs, words, 128));
    }
    // A writer died mid-commit: leftover temp plus a corrupt entry.
    std::ofstream(fs::path(dir_) / "traces/deadbeef.af.tmp42.7")
        << "partial";
    std::ofstream(fs::path(dir_) / "designs" /
                  (std::string(16, '0') + ".af"))
        << "garbage";

    store::ArtifactStore reopened(options());
    const store::StoreStats stats = reopened.stats();
    EXPECT_EQ(stats.recoveredTemps, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.entries, 1u);
    // The committed entry still loads, bit-identical.
    const auto blob = reopened.loadTrace("good");
    ASSERT_TRUE(blob.has_value());
    EXPECT_TRUE(std::equal(pcs.begin(), pcs.end(), blob->pcs.begin()));
}

TEST_F(StoreTest, WarmHitsCountOnlyInheritedEntries)
{
    std::vector<uint64_t> pcs, words;
    packTrace(syntheticBranchTrace(64, 7), pcs, words);
    {
        store::ArtifactStore store(options());
        ASSERT_TRUE(store.putTrace("inherited", pcs, words, 64));
        // Hits in the writing process are not warm.
        ASSERT_TRUE(store.loadTrace("inherited").has_value());
        EXPECT_EQ(store.stats().warmHits, 0u);
    }

    store::ArtifactStore reopened(options());
    ASSERT_TRUE(reopened.loadTrace("inherited").has_value());
    EXPECT_EQ(reopened.stats().warmHits, 1u);
    // An entry this process wrote is a plain hit.
    ASSERT_TRUE(reopened.putTrace("fresh", pcs, words, 64));
    ASSERT_TRUE(reopened.loadTrace("fresh").has_value());
    const store::StoreStats stats = reopened.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.warmHits, 1u);
}

TEST_F(StoreTest, EvictionDropsOldestPastTheCap)
{
    std::vector<uint64_t> pcs, words;
    packTrace(syntheticBranchTrace(512, 8), pcs, words);

    store::ArtifactStore store(options(/*maxBytes=*/1));
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(store.putTrace("k" + std::to_string(i), pcs, words,
                                   512));
    }
    store.rescan();
    const store::StoreStats stats = store.stats();
    EXPECT_GE(stats.evictions, 3u);
    EXPECT_LE(stats.entries, 1u);
}

TEST_F(StoreTest, DesignMemoWritesThroughAndReadsBack)
{
    // Build the artifact BEFORE installing the store: the design flow
    // itself memo-stores, which would write through and double-count.
    const store::DesignArtifact artifact = syntheticArtifact();
    store::setGlobalStore(
        std::make_shared<store::ArtifactStore>(options()));
    clearDesignMemo();
    DesignMemoKey key;
    key.order = artifact.order;
    key.minimizer = artifact.minimizer;
    key.keepStartupStates = artifact.keepStartupStates;
    key.predictOne = artifact.predictOne;
    key.dontCare = artifact.dontCare;

    auto entry = std::make_shared<DesignMemoEntry>();
    entry->cover = artifact.cover;
    entry->regexText = artifact.regexText;
    entry->beforeReduction = artifact.beforeReduction;
    entry->fsm = artifact.fsm;
    entry->statesSubset = artifact.statesSubset;
    entry->statesHopcroft = artifact.statesHopcroft;
    entry->statesFinal = artifact.statesFinal;
    entry->stageMillis = artifact.stageMillis;
    designMemoStore(key, entry);
    EXPECT_EQ(countFiles("designs"), 1u);

    // Wipe the memory tier: the next lookup must come from disk and be
    // bit-identical to what was stored.
    clearDesignMemo();
    const auto fromDisk = designMemoLookup(key);
    ASSERT_TRUE(fromDisk != nullptr);
    EXPECT_EQ(dfaToText(fromDisk->fsm), dfaToText(entry->fsm));
    EXPECT_EQ(fromDisk->regexText, entry->regexText);
    EXPECT_EQ(fromDisk->statesFinal, entry->statesFinal);
    EXPECT_EQ(fromDisk->stageMillis, entry->stageMillis);

    // The disk hit was promoted: a second lookup is a pure memory hit
    // (disk hit count unchanged).
    const uint64_t diskHits = store::globalStore()->stats().hits;
    const auto again = designMemoLookup(key);
    ASSERT_TRUE(again != nullptr);
    EXPECT_EQ(store::globalStore()->stats().hits, diskHits);
}

TEST_F(StoreTest, TraceCacheSpillsAndReloads)
{
    store::setGlobalStore(
        std::make_shared<store::ArtifactStore>(options()));
    clearBranchTraceCache();

    const auto built = cachedBranchTrace("compress", WorkloadInput::Test,
                                         4000);
    ASSERT_TRUE(built != nullptr);
    EXPECT_EQ(countFiles("traces"), 1u);

    // Wipe the memory tier: the rebuild must come from disk and agree
    // record for record with the generated trace.
    clearBranchTraceCache();
    const uint64_t diskHitsBefore = store::globalStore()->stats().hits;
    const auto reloaded = cachedBranchTrace("compress",
                                            WorkloadInput::Test, 4000);
    ASSERT_TRUE(reloaded != nullptr);
    EXPECT_GT(store::globalStore()->stats().hits, diskHitsBefore);
    ASSERT_EQ(reloaded->size(), built->size());
    for (size_t i = 0; i < built->size(); ++i) {
        ASSERT_EQ(reloaded->pc(i), built->pc(i)) << "record " << i;
        ASSERT_EQ(reloaded->taken(i), built->taken(i))
            << "record " << i;
    }
}

// The disk tier hands out the stored container itself: the reloaded
// trace's arrays live inside the store file's mapping (no copy), and
// its records are the generator's, word for word.
TEST_F(StoreTest, DiskTierTraceIsAZeroCopyViewOfTheStoreFile)
{
    store::setGlobalStore(
        std::make_shared<store::ArtifactStore>(options()));
    clearBranchTraceCache();
    ASSERT_TRUE(cachedBranchTrace("gsm", WorkloadInput::Train, 3000) !=
                nullptr);
    const std::string entry = onlyEntry("traces");
    ASSERT_FALSE(entry.empty());

    clearBranchTraceCache();
    const auto loaded = cachedBranchTrace("gsm", WorkloadInput::Train, 3000);
    ASSERT_TRUE(loaded != nullptr);
    const std::string stored = fs::canonical(entry).string();
    EXPECT_EQ(mappedFileOf(loaded->pcs().data()), stored);
    EXPECT_EQ(mappedFileOf(loaded->takenWords().data()), stored);

    const PackedTrace generated =
        makeBranchTrace("gsm", WorkloadInput::Train, 3000);
    ASSERT_EQ(loaded->size(), generated.size());
    EXPECT_TRUE(std::equal(loaded->pcs().begin(), loaded->pcs().end(),
                           generated.pcs().begin()));
    ASSERT_EQ(loaded->takenWords().size(), generated.takenWords().size());
    EXPECT_TRUE(std::equal(loaded->takenWords().begin(),
                           loaded->takenWords().end(),
                           generated.takenWords().begin()));
}

TEST_F(StoreTest, CacheTiersSurviveACorruptStoreEntry)
{
    store::setGlobalStore(
        std::make_shared<store::ArtifactStore>(options()));
    clearBranchTraceCache();
    ASSERT_TRUE(cachedBranchTrace("compress", WorkloadInput::Test, 2000) !=
                nullptr);
    const std::string path = onlyEntry("traces");
    ASSERT_FALSE(path.empty());
    fs::resize_file(path, fs::file_size(path) - 5);

    // The corrupt spill is quarantined and the trace is rebuilt.
    clearBranchTraceCache();
    const auto rebuilt = cachedBranchTrace("compress",
                                           WorkloadInput::Test, 2000);
    ASSERT_TRUE(rebuilt != nullptr);
    EXPECT_EQ(rebuilt->size(),
              cachedBranchTrace("compress", WorkloadInput::Test, 2000)
                  ->size());
    EXPECT_GE(store::globalStore()->stats().quarantined, 1u);
}

} // namespace
} // namespace autofsm
