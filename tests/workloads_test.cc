/**
 * @file
 * Tests for the synthetic workload substrate: determinism, scale,
 * and the structural properties each benchmark model promises.
 */

#include <gtest/gtest.h>

#include <set>
#include <span>

#include "support/history.hh"
#include "trace/packed_trace.hh"
#include "workloads/branch_workloads.hh"
#include "workloads/value_workloads.hh"

namespace autofsm
{
namespace
{

TEST(BranchWorkloadTest, SixBenchmarks)
{
    const auto &names = branchBenchmarkNames();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_EQ(names[0], "compress");
    EXPECT_EQ(names[5], "gs");
}

TEST(BranchWorkloadTest, Deterministic)
{
    const PackedTrace a =
        makeBranchTrace("ijpeg", WorkloadInput::Train, 5000);
    const PackedTrace b =
        makeBranchTrace("ijpeg", WorkloadInput::Train, 5000);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.pc(i), b.pc(i));
        EXPECT_EQ(a.taken(i), b.taken(i));
    }
}

TEST(BranchWorkloadTest, InputsDiffer)
{
    const PackedTrace train =
        makeBranchTrace("ijpeg", WorkloadInput::Train, 5000);
    const PackedTrace test =
        makeBranchTrace("ijpeg", WorkloadInput::Test, 5000);
    size_t diffs = 0;
    const size_t n = std::min(train.size(), test.size());
    for (size_t i = 0; i < n; ++i)
        diffs += train.taken(i) != test.taken(i);
    EXPECT_GT(diffs, n / 100); // data differs...
    // ...but the program structure (branch sites) is shared.
    const BranchProfile p1 = profileTrace(train);
    const BranchProfile p2 = profileTrace(test);
    EXPECT_EQ(p1.size(), p2.size());
}

/** FNV-1a over the bytes (little-endian) of @p words, continuing @p h. */
uint64_t
fnv1a(uint64_t h, std::span<const uint64_t> words)
{
    for (const uint64_t word : words) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

// Digests (pcs, then outcome words) recorded from the record-list
// generator that preceded PackedTraceBuilder: generation must keep
// reproducing every record of every benchmark, both inputs, short and
// full size.
TEST(BranchWorkloadTest, GeneratorMatchesRecordedDigests)
{
    struct Golden
    {
        const char *name;
        WorkloadInput input;
        size_t approx;
        size_t size;
        uint64_t digest;
    };
    constexpr WorkloadInput kTrain = WorkloadInput::Train;
    constexpr WorkloadInput kTest = WorkloadInput::Test;
    const Golden goldens[] = {
        {"compress", kTrain, 20000, 20003, 0x26e7f92c8752c93dULL},
        {"compress", kTest, 20000, 20003, 0x26dc44396a1fd55eULL},
        {"ijpeg", kTrain, 20000, 20008, 0x45c6920676577e66ULL},
        {"ijpeg", kTest, 20000, 20008, 0xe8da658e96691658ULL},
        {"vortex", kTrain, 20000, 20020, 0x3f49c087a768ff6bULL},
        {"vortex", kTest, 20000, 20020, 0x2ee2e015fe43f6e5ULL},
        {"gsm", kTrain, 20000, 20007, 0x96e691241a468bb3ULL},
        {"gsm", kTest, 20000, 20007, 0x79a321157e6f7649ULL},
        {"g721", kTrain, 20000, 20000, 0x18ccd0b813d314ddULL},
        {"g721", kTest, 20000, 20008, 0xd77addcad42ecde7ULL},
        {"gs", kTrain, 20000, 20034, 0xcaf1717ce772d148ULL},
        {"gs", kTest, 20000, 20034, 0xca4addc8bd051db6ULL},
        {"compress", kTrain, 400000, 400004, 0xfa71f0f9bc083c7bULL},
        {"compress", kTest, 400000, 400005, 0x3e0151d9bca6e21eULL},
        {"ijpeg", kTrain, 400000, 400078, 0x2c7caae2ca8cfe0fULL},
        {"ijpeg", kTest, 400000, 400078, 0xd15b5ca4e3dda297ULL},
        {"vortex", kTrain, 400000, 400015, 0xe2cc8f552b146652ULL},
        {"vortex", kTest, 400000, 400015, 0xd1d80c643c88ae29ULL},
        {"gsm", kTrain, 400000, 400026, 0x5d6c6acf9f8731b3ULL},
        {"gsm", kTest, 400000, 400026, 0x3ae36a575c728c17ULL},
        {"g721", kTrain, 400000, 400000, 0x31787f5eb26e6ab6ULL},
        {"g721", kTest, 400000, 400037, 0xc9c3032ef1db57b1ULL},
        {"gs", kTrain, 400000, 400044, 0x9abfc7284ecc0498ULL},
        {"gs", kTest, 400000, 400044, 0x329a7de496389974ULL},
    };
    for (const Golden &golden : goldens) {
        const PackedTrace trace =
            makeBranchTrace(golden.name, golden.input, golden.approx);
        const uint64_t digest = fnv1a(
            fnv1a(0xcbf29ce484222325ULL, trace.pcs()), trace.takenWords());
        EXPECT_EQ(trace.size(), golden.size)
            << golden.name << " " << golden.approx;
        EXPECT_EQ(digest, golden.digest)
            << golden.name << " " << golden.approx;
    }
}

TEST(BranchWorkloadTest, ReachesRequestedLength)
{
    for (const auto &name : branchBenchmarkNames()) {
        const PackedTrace trace =
            makeBranchTrace(name, WorkloadInput::Train, 20000);
        EXPECT_GE(trace.size(), 20000u) << name;
        EXPECT_LT(trace.size(), 21000u) << name; // one round of slack
    }
}

TEST(BranchWorkloadTest, EveryBenchmarkHasMultipleSites)
{
    for (const auto &name : branchBenchmarkNames()) {
        const PackedTrace trace =
            makeBranchTrace(name, WorkloadInput::Train, 20000);
        const BranchProfile profile = profileTrace(trace);
        EXPECT_GE(profile.size(), 5u) << name;
        // Mixed directions overall (loop-heavy benchmarks run taken-
        // biased, like real embedded codes, but never monotone).
        uint64_t taken = 0;
        for (const auto &r : trace)
            taken += r.taken;
        EXPECT_GT(taken, trace.size() / 20) << name;
        EXPECT_LT(taken, trace.size() * 19 / 20) << name;
    }
}

TEST(BranchWorkloadTest, VortexIsGloballyPredictable)
{
    // The vortex model's claim: branch outcomes are near-deterministic
    // functions of the global history. Measure the best achievable
    // accuracy of an oracle keyed by (pc, 8-bit global history).
    const PackedTrace trace =
        makeBranchTrace("vortex", WorkloadInput::Train, 40000);

    // First pass: majority vote per (pc, history) key.
    std::map<std::pair<uint64_t, uint32_t>, std::pair<uint64_t, uint64_t>>
        votes;
    HistoryRegister global(8);
    for (const auto &r : trace) {
        auto &v = votes[{r.pc, global.value()}];
        v.first += r.taken;
        v.second += 1;
        global.push(r.taken ? 1 : 0);
    }
    // Second pass: oracle accuracy.
    global.reset();
    uint64_t correct = 0;
    for (const auto &r : trace) {
        const auto &v = votes[{r.pc, global.value()}];
        const bool majority = v.first * 2 >= v.second;
        correct += majority == r.taken;
        global.push(r.taken ? 1 : 0);
    }
    EXPECT_GT(static_cast<double>(correct) /
                  static_cast<double>(trace.size()),
              0.95);
}

TEST(BranchWorkloadTest, UnknownBenchmarkThrows)
{
    EXPECT_THROW(makeBranchTrace("spice", WorkloadInput::Train, 100),
                 std::invalid_argument);
}

TEST(ValueWorkloadTest, FiveBenchmarks)
{
    const auto &names = valueBenchmarkNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "gcc");
    EXPECT_EQ(names[4], "perl");
}

TEST(ValueWorkloadTest, DeterministicAndSized)
{
    const ValueTrace a = makeValueTrace("li", 10000);
    const ValueTrace b = makeValueTrace("li", 10000);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GE(a.size(), 10000u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].value, b[i].value);
    }
}

TEST(ValueWorkloadTest, BenchmarksDiffer)
{
    const ValueTrace a = makeValueTrace("gcc", 5000);
    const ValueTrace b = makeValueTrace("go", 5000);
    size_t diffs = 0;
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i)
        diffs += a[i].value != b[i].value;
    EXPECT_GT(diffs, n / 4);
}

TEST(ValueWorkloadTest, MultipleLoadSites)
{
    const ValueTrace trace = makeValueTrace("perl", 5000);
    std::set<uint64_t> pcs;
    for (const auto &r : trace)
        pcs.insert(r.pc);
    EXPECT_GE(pcs.size(), 5u);
}

TEST(ValueWorkloadTest, UnknownBenchmarkThrows)
{
    EXPECT_THROW(makeValueTrace("vortex", 100), std::invalid_argument);
}

TEST(TraceProfileTest, CountsPerBranch)
{
    PackedTraceBuilder trace;
    for (const BranchRecord record : {BranchRecord{0x10, true},
                                      BranchRecord{0x10, false},
                                      BranchRecord{0x20, true},
                                      BranchRecord{0x10, true}})
        trace.push(record.pc, record.taken);
    const BranchProfile profile = profileTrace(trace.finish());
    ASSERT_EQ(profile.size(), 2u);
    EXPECT_EQ(profile.at(0x10).executions, 3u);
    EXPECT_EQ(profile.at(0x10).taken, 2u);
    EXPECT_EQ(profile.at(0x20).executions, 1u);
}

} // anonymous namespace
} // namespace autofsm
