/**
 * @file
 * Tests for the cache substrate: LRU set-associative cache semantics,
 * reuse feedback, bypass predictors and the end-to-end bypass flow.
 */

#include <gtest/gtest.h>

#include "cache/bypass.hh"
#include "cache/cache.hh"
#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "workloads/memory_workloads.hh"

namespace autofsm
{
namespace
{

CacheConfig
tinyCache()
{
    CacheConfig config;
    config.sets = 2;
    config.ways = 2;
    config.blockBytes = 32;
    return config;
}

TEST(CacheTest, ColdMissThenHit)
{
    SetAssocCache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1, 0x1000).hit);
    EXPECT_TRUE(cache.access(0x1, 0x1000).hit);
    // Same block, different byte offset: still a hit.
    EXPECT_TRUE(cache.access(0x1, 0x101f).hit);
    // Next block: miss.
    EXPECT_FALSE(cache.access(0x1, 0x1020).hit);
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheTest, LruEvictsOldest)
{
    SetAssocCache cache(tinyCache());
    // Three blocks mapping to set 0 (addresses differing in bit 7+).
    const uint64_t a = 0x0000, b = 0x0100, c = 0x0200;
    cache.access(0x1, a);
    cache.access(0x1, b);
    cache.access(0x1, a); // refresh a: b is now LRU
    const CacheAccessResult r = cache.access(0x1, c);
    EXPECT_TRUE(r.evicted);
    EXPECT_TRUE(cache.access(0x1, a).hit);  // a survived
    EXPECT_FALSE(cache.access(0x1, b).hit); // b was evicted
}

TEST(CacheTest, EvictionReportsFillPcAndReuse)
{
    SetAssocCache cache(tinyCache());
    const uint64_t a = 0x0000, b = 0x0100, c = 0x0200;
    cache.access(0xAA, a);
    cache.access(0xBB, b);
    cache.access(0xAA, a); // reuse a
    // c evicts b (LRU), which was never reused.
    const CacheAccessResult r1 = cache.access(0xCC, c);
    EXPECT_TRUE(r1.evicted);
    EXPECT_EQ(r1.victimFillPc, 0xBBu);
    EXPECT_FALSE(r1.victimWasReused);
    // A fourth block now evicts a (c is newer), which WAS reused.
    const CacheAccessResult r2 = cache.access(0xDD, 0x0300);
    EXPECT_TRUE(r2.evicted);
    EXPECT_EQ(r2.victimFillPc, 0xAAu);
    EXPECT_TRUE(r2.victimWasReused);
}

TEST(CacheTest, FirstReuseReportedOnce)
{
    SetAssocCache cache(tinyCache());
    cache.access(0xAA, 0x0000);
    const CacheAccessResult first = cache.access(0xAA, 0x0000);
    EXPECT_TRUE(first.firstReuse);
    EXPECT_EQ(first.reusedFillPc, 0xAAu);
    const CacheAccessResult second = cache.access(0xAA, 0x0000);
    EXPECT_FALSE(second.firstReuse);
}

TEST(CacheTest, BypassDoesNotAllocate)
{
    SetAssocCache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1, 0x40, /*fill_on_miss=*/false).hit);
    // Still a miss: nothing was filled.
    EXPECT_FALSE(cache.access(0x1, 0x40).hit);
    // Now it was filled, so it hits.
    EXPECT_TRUE(cache.access(0x1, 0x40).hit);
}

TEST(CacheTest, MissRateAccounting)
{
    SetAssocCache cache(tinyCache());
    cache.access(0x1, 0);
    cache.access(0x1, 0);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
}

TEST(BypassPredictorTest, NeverBypassIsConventional)
{
    NeverBypass never;
    EXPECT_FALSE(never.shouldBypass(0x123));
}

TEST(BypassPredictorTest, SudStartsFillingThenLearns)
{
    SudBypass bypass(6, SudConfig::twoBit());
    const uint64_t pc = 0x100;
    EXPECT_FALSE(bypass.shouldBypass(pc)); // optimistic start
    for (int i = 0; i < 4; ++i)
        bypass.update(pc, false);
    EXPECT_TRUE(bypass.shouldBypass(pc));
    for (int i = 0; i < 2; ++i)
        bypass.update(pc, true);
    EXPECT_FALSE(bypass.shouldBypass(pc));
}

TEST(BypassPredictorTest, FsmBankIsPerEntry)
{
    Dfa last;
    const int s0 = last.addState(0);
    const int s1 = last.addState(1);
    last.setEdge(s0, 0, s0);
    last.setEdge(s0, 1, s1);
    last.setEdge(s1, 0, s0);
    last.setEdge(s1, 1, s1);
    last.setStart(s1); // optimistic: fill until proven useless

    FsmBypass bypass(6, last);
    EXPECT_FALSE(bypass.shouldBypass(0x100));
    bypass.update(0x100, false);
    EXPECT_TRUE(bypass.shouldBypass(0x100));
    EXPECT_FALSE(bypass.shouldBypass(0x104)); // other entry untouched
}

TEST(MemoryWorkloadTest, NamesAndDeterminism)
{
    ASSERT_EQ(memoryWorkloadNames().size(), 3u);
    const ValueTrace a = makeMemoryTrace("stream_mix", 5000);
    const ValueTrace b = makeMemoryTrace("stream_mix", 5000);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_THROW(makeMemoryTrace("spec", 100), std::invalid_argument);
}

TEST(BypassSimTest, SamplingFillsKeepFeedbackAlive)
{
    /// Predictor that always wants to bypass.
    class AlwaysBypass : public BypassPredictor
    {
      public:
        bool shouldBypass(uint64_t) const override { return true; }
        void
        update(uint64_t, bool) override
        {
            ++updates;
        }
        mutable int updates = 0;
    };

    const ValueTrace trace = makeMemoryTrace("stream_mix", 20000);
    AlwaysBypass always;
    BypassSimOptions options;
    options.sampleEvery = 8;
    const BypassSimResult r =
        simulateBypass(trace, CacheConfig{}, always, options);
    // Sampling forces roughly 1/8 of wished bypasses to fill...
    EXPECT_LT(r.bypasses, r.misses);
    // ...and those fills produce training feedback.
    EXPECT_GT(always.updates, 0);
}

TEST(BypassSimTest, EndToEndFsmRescuesThrashingCache)
{
    // stream_mix thrashes a conventional 16 KiB cache (~100% misses);
    // a cross-trained FSM bypass must recover a large fraction.
    const CacheConfig cache;
    MarkovModel model(4);
    for (const char *other : {"stencil", "hash_walk"}) {
        SudBypass baseline(8, SudConfig::twoBit());
        collectReuseModel(makeMemoryTrace(other, 60000), cache, 8, model,
                          baseline);
    }
    FsmDesignOptions design;
    design.order = 4;
    const FsmDesignResult designed = DesignFlow(design).run(model).design;

    const ValueTrace own = makeMemoryTrace("stream_mix", 60000);
    NeverBypass never;
    const double base = simulateBypass(own, cache, never).missRate();
    FsmBypass fsm(8, designed.fsm);
    const double fsm_rate = simulateBypass(own, cache, fsm).missRate();

    EXPECT_GT(base, 0.95);
    EXPECT_LT(fsm_rate, 0.75);
}

} // anonymous namespace
} // namespace autofsm
