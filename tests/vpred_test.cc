/**
 * @file
 * Tests for the value-prediction substrate: the two-delta stride
 * predictor, SUD/FSM confidence estimators and the combined simulation,
 * plus the differential suite checking the correctness-stream
 * confidence engine against the per-estimator reference loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "automata/dfa.hh"
#include "flow/api.hh"
#include "flow/design_flow.hh"
#include "flow/design_memo.hh"
#include "fsmgen/designer.hh"
#include "logicmin/cover.hh"
#include "obs/metrics.hh"
#include "sim/figure2.hh"
#include "support/rng.hh"
#include "vpred/conf_sim.hh"
#include "vpred/confidence.hh"
#include "vpred/context_predictor.hh"
#include "vpred/hybrid_predictor.hh"
#include "vpred/last_value.hh"
#include "vpred/stride_predictor.hh"
#include "workloads/trace_cache.hh"
#include "workloads/value_workloads.hh"

namespace autofsm
{
namespace
{

TEST(StridePredictorTest, AllocationIsNotAPrediction)
{
    TwoDeltaStridePredictor predictor;
    const StrideOutcome outcome = predictor.executeLoad(0x100, 42);
    EXPECT_FALSE(outcome.predicted);
    EXPECT_FALSE(outcome.correct);
}

TEST(StridePredictorTest, ConstantValueLocksOn)
{
    TwoDeltaStridePredictor predictor;
    predictor.executeLoad(0x100, 7);
    for (int i = 0; i < 5; ++i) {
        const StrideOutcome outcome = predictor.executeLoad(0x100, 7);
        EXPECT_TRUE(outcome.predicted);
        EXPECT_TRUE(outcome.correct);
    }
}

TEST(StridePredictorTest, TwoDeltaNeedsStrideTwice)
{
    TwoDeltaStridePredictor predictor;
    // Values 10, 14, 18, 22: stride 4 seen at 14 (once) and 18 (twice).
    predictor.executeLoad(0x100, 10);
    EXPECT_FALSE(predictor.executeLoad(0x100, 14).correct); // pred 10
    EXPECT_FALSE(predictor.executeLoad(0x100, 18).correct); // pred 14
    // Stride now adopted: next prediction is 18 + 4 = 22.
    EXPECT_TRUE(predictor.executeLoad(0x100, 22).correct);
    EXPECT_TRUE(predictor.executeLoad(0x100, 26).correct);
}

TEST(StridePredictorTest, TransientStrideDoesNotDisturb)
{
    TwoDeltaStridePredictor predictor;
    // Lock onto stride 0 (constant 5), then a one-off jump to 9 and
    // back: the two-delta filter keeps the stride at 0.
    for (uint64_t v : {5u, 5u, 5u, 5u})
        predictor.executeLoad(0x100, v);
    EXPECT_FALSE(predictor.executeLoad(0x100, 9).correct);
    // Prediction is 9 + 0 = 9 (stride still 0), actual 5: wrong.
    EXPECT_FALSE(predictor.executeLoad(0x100, 5).correct);
    // Back to constant 5: correct again.
    EXPECT_TRUE(predictor.executeLoad(0x100, 5).correct);
}

TEST(StridePredictorTest, CyclePatternIsPeriodicallyWrong)
{
    // The 5,5,5,9 cycle: correctness pattern (after warm-up) must be
    // exactly (1,1,0,0) repeating - the structure FsmConfidence learns.
    TwoDeltaStridePredictor predictor;
    std::vector<int> correctness;
    const uint64_t cycle[4] = {5, 5, 5, 9};
    for (int i = 0; i < 40; ++i) {
        const StrideOutcome outcome =
            predictor.executeLoad(0x200, cycle[i % 4]);
        if (i >= 8)
            correctness.push_back(outcome.correct);
    }
    // Phase: recording starts at a cycle boundary (i = 8), where the
    // two-delta predictor mispredicts the 9 and the 5 after it, then
    // hits the two repeated 5s: (0,1,1,0) from the recording origin.
    for (size_t i = 0; i < correctness.size(); ++i) {
        const int expected = (i % 4 == 1 || i % 4 == 2) ? 1 : 0;
        EXPECT_EQ(correctness[i], expected) << i;
    }
}

TEST(StridePredictorTest, TagConflictReallocates)
{
    StrideConfig config;
    config.entries = 4;
    TwoDeltaStridePredictor predictor(config);
    const uint64_t pc_a = 0x100;
    const uint64_t pc_b = pc_a + 4 * 4; // same index, different tag
    predictor.executeLoad(pc_a, 7);
    predictor.executeLoad(pc_a, 7);
    EXPECT_TRUE(predictor.executeLoad(pc_a, 7).correct);
    // Conflicting load evicts.
    EXPECT_FALSE(predictor.executeLoad(pc_b, 3).predicted);
    EXPECT_FALSE(predictor.executeLoad(pc_a, 7).predicted);
}

TEST(ValuePredictorTest, RejectsBadGeometry)
{
    for (int entries : {0, -4, 3, 2047, 2049}) {
        const StrideConfig geometry{entries, 8};
        EXPECT_THROW(TwoDeltaStridePredictor{geometry}, std::invalid_argument)
            << entries;
        EXPECT_THROW(LastValuePredictor{geometry}, std::invalid_argument)
            << entries;
        FcmConfig fcm;
        fcm.level1 = geometry;
        EXPECT_THROW(FcmPredictor{fcm}, std::invalid_argument) << entries;
    }
    for (int order : {0, 4}) {
        FcmConfig fcm;
        fcm.order = order;
        EXPECT_THROW(FcmPredictor{fcm}, std::invalid_argument) << order;
    }
    for (int log2 : {3, 25, 64}) {
        FcmConfig fcm;
        fcm.log2Level2 = log2;
        EXPECT_THROW(FcmPredictor{fcm}, std::invalid_argument) << log2;
    }
    // Tag widths outside [0, 32] would reach lowMask as a shift of -1
    // or past the word.
    for (int tag_bits : {-1, -32, 33, 64}) {
        const StrideConfig geometry{2048, tag_bits};
        EXPECT_THROW(TwoDeltaStridePredictor{geometry}, std::invalid_argument)
            << tag_bits;
        EXPECT_THROW(LastValuePredictor{geometry}, std::invalid_argument)
            << tag_bits;
        FcmConfig fcm;
        fcm.level1 = geometry;
        EXPECT_THROW(FcmPredictor{fcm}, std::invalid_argument) << tag_bits;
        HybridConfig hybrid;
        hybrid.stride = geometry;
        EXPECT_THROW(HybridPredictor{hybrid}, std::invalid_argument)
            << tag_bits;
    }
    for (int tag_bits : {0, 32}) {
        const StrideConfig geometry{64, tag_bits};
        EXPECT_EQ(TwoDeltaStridePredictor(geometry).entries(), 64u);
        EXPECT_EQ(LastValuePredictor(geometry).entries(), 64u);
    }
    FcmConfig edges;
    edges.level1 = StrideConfig{1, 8};
    edges.order = 3;
    edges.log2Level2 = 4;
    EXPECT_EQ(FcmPredictor(edges).entries(), 1u);

    // Figure 2 rejects a zero-entry table instead of indexing into it.
    Fig2Options options;
    options.loadsPerBenchmark = 100;
    options.stride.entries = 0;
    EXPECT_THROW(runFigure2("gcc", options), std::invalid_argument);
    options.stride = StrideConfig{2048, -1};
    EXPECT_THROW(runFigure2("gcc", options), std::invalid_argument);
}

TEST(SudConfidenceTest, PerEntryIndependence)
{
    SudConfidence confidence(4, SudConfig{3, 1, 1, 2});
    confidence.update(0, true);
    confidence.update(0, true);
    EXPECT_TRUE(confidence.confident(0));
    EXPECT_FALSE(confidence.confident(1));
}

TEST(FsmConfidenceTest, SharedTablePerEntryState)
{
    // Machine: confident iff last outcome was correct.
    Dfa dfa;
    const int s0 = dfa.addState(0);
    const int s1 = dfa.addState(1);
    dfa.setEdge(s0, 0, s0);
    dfa.setEdge(s0, 1, s1);
    dfa.setEdge(s1, 0, s0);
    dfa.setEdge(s1, 1, s1);
    dfa.setStart(s0);

    FsmConfidence confidence(3, dfa, "last-correct");
    confidence.update(1, true);
    EXPECT_FALSE(confidence.confident(0));
    EXPECT_TRUE(confidence.confident(1));
    EXPECT_EQ(confidence.numStates(), 2);
    EXPECT_EQ(confidence.name(), "last-correct");
}

TEST(ConfSimTest, AccuracyAndCoverageDefinitions)
{
    ConfidenceResult result;
    result.loads = 100;
    result.correct = 50;
    result.confident = 25;
    result.confidentCorrect = 20;
    EXPECT_DOUBLE_EQ(result.accuracy(), 0.8);
    EXPECT_DOUBLE_EQ(result.coverage(), 0.4);

    ConfidenceResult empty;
    EXPECT_DOUBLE_EQ(empty.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(empty.coverage(), 0.0);
}

TEST(ConfSimTest, AlwaysConfidentHasFullCoverage)
{
    /// Degenerate estimator: always confident.
    class AlwaysConfident : public ConfidenceEstimator
    {
      public:
        bool confident(size_t) const override { return true; }
        void update(size_t, bool) override {}
        std::string name() const override { return "always"; }
    };

    const ValueTrace trace = makeValueTrace("groff", 5000);
    AlwaysConfident estimator;
    const ConfidenceResult result =
        simulateConfidence(trace, StrideConfig{}, estimator);
    EXPECT_EQ(result.confident, result.loads);
    EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
    // Accuracy equals the raw value-predictor hit rate.
    EXPECT_NEAR(result.accuracy(),
                static_cast<double>(result.correct) /
                    static_cast<double>(result.loads),
                1e-12);
}

TEST(ConfSimTest, SudTradeoffMovesWithThreshold)
{
    const ValueTrace trace = makeValueTrace("gcc", 30000);
    SudConfidence loose(2048, SudConfig{10, 1, 1, 2});
    SudConfidence strict(2048, SudConfig{10, 1, 10, 9});
    const ConfidenceResult loose_r =
        simulateConfidence(trace, StrideConfig{}, loose);
    const ConfidenceResult strict_r =
        simulateConfidence(trace, StrideConfig{}, strict);
    EXPECT_GT(strict_r.accuracy(), loose_r.accuracy());
    EXPECT_LT(strict_r.coverage(), loose_r.coverage());
}

TEST(ConfSimTest, FsmLearnsCyclePatternConfidence)
{
    // Train on the (1,1,0,0) correctness cycle, then verify the FSM
    // confidence achieves near-perfect accuracy AND coverage, which no
    // SUD counter can do on this stream.
    ValueTrace trace;
    const uint64_t cycle[4] = {5, 5, 5, 9};
    for (int i = 0; i < 20000; ++i)
        trace.push_back({0x300, cycle[i % 4]});

    MarkovModel model(4);
    collectConfidenceModels(trace, StrideConfig{}, {&model});

    FsmDesignOptions design;
    design.order = 4;
    design.patterns.threshold = 0.9;
    const FsmDesignResult designed = DesignFlow(design).run(model).design;

    FsmConfidence fsm(2048, designed.fsm);
    const ConfidenceResult fsm_r =
        simulateConfidence(trace, StrideConfig{}, fsm);
    EXPECT_GT(fsm_r.accuracy(), 0.98);
    EXPECT_GT(fsm_r.coverage(), 0.90);

    // Best-effort SUD comparison: every configuration leaves coverage
    // or accuracy far below the FSM on this stream.
    bool sud_matches = false;
    for (int max : {3, 10, 20}) {
        for (int threshold : {1, max / 2, max - 1}) {
            if (threshold < 1)
                continue;
            SudConfidence sud(2048, SudConfig{max, 1, 1, threshold});
            const ConfidenceResult r =
                simulateConfidence(trace, StrideConfig{}, sud);
            if (r.accuracy() > 0.98 && r.coverage() > 0.90)
                sud_matches = true;
        }
    }
    EXPECT_FALSE(sud_matches);
}

TEST(ConfSimTest, CollectModelsMatchesRuntimeView)
{
    // The Markov model built by collectConfidenceModels must reflect
    // the deterministic (1,1,0,0) correctness cycle.
    ValueTrace trace;
    const uint64_t cycle[4] = {5, 5, 5, 9};
    for (int i = 0; i < 4000; ++i)
        trace.push_back({0x300, cycle[i % 4]});

    MarkovModel model(2);
    collectConfidenceModels(trace, StrideConfig{}, {&model});

    // After (correct=1, correct=1) the next is wrong; history "11"->0.
    EXPECT_LT(model.probabilityOne(fromBinary("11")), 0.05);
    // After (wrong, wrong) the next is correct; history "00"->1.
    EXPECT_GT(model.probabilityOne(fromBinary("00")), 0.95);
}

// --- Confidence engine vs. the simulateConfidence reference ---------------

/**
 * Seeded random value trace: @p pcs load sites (enough to alias in a
 * small table), each following its own stride with a per-site
 * regularity of 50%, 90% or 99%; irregular steps jump to a random value
 * or switch stride. Regular sites give the long correct runs that drive
 * wide counters to saturation, irregular ones the mispredictions.
 */
ValueTrace
randomValueTrace(uint64_t seed, size_t loads, size_t pcs = 300)
{
    Rng rng(seed);
    const double regularity[3] = {0.5, 0.9, 0.99};
    std::vector<uint64_t> last(pcs, 0);
    std::vector<uint64_t> stride(pcs, 0);
    std::vector<double> regular(pcs, 0.0);
    for (size_t k = 0; k < pcs; ++k) {
        stride[k] = rng.below(4);
        regular[k] = regularity[rng.below(3)];
    }
    ValueTrace trace;
    trace.reserve(loads);
    for (size_t i = 0; i < loads; ++i) {
        const size_t k = static_cast<size_t>(rng.below(pcs));
        if (rng.chance(regular[k]))
            last[k] += stride[k];
        else if (rng.chance(0.7))
            last[k] = rng.below(8);
        else
            stride[k] = rng.below(4);
        trace.push_back({0x1000 + 4 * k, last[k]});
    }
    return trace;
}

using PredictorFactory = std::function<std::unique_ptr<ValuePredictor>()>;

/** Every value predictor over a small, conflict-heavy geometry. */
std::vector<std::pair<std::string, PredictorFactory>>
allPredictors()
{
    const StrideConfig geometry{256, 8};
    FcmConfig fcm;
    fcm.level1 = geometry;
    fcm.log2Level2 = 10;
    HybridConfig hybrid;
    hybrid.stride = geometry;
    hybrid.fcm = fcm;
    return {
        {"stride",
         [=] { return std::make_unique<TwoDeltaStridePredictor>(geometry); }},
        {"last-value",
         [=] { return std::make_unique<LastValuePredictor>(geometry); }},
        {"fcm", [=] { return std::make_unique<FcmPredictor>(fcm); }},
        {"hybrid", [=] { return std::make_unique<HybridPredictor>(hybrid); }},
    };
}

/** The Figure 2 SUD sweep, in runFigure2's order. */
std::vector<SudConfig>
figure2SudConfigs()
{
    const Fig2Options options;
    std::vector<SudConfig> configs;
    for (int max : options.sudMax) {
        for (int dec : options.sudDecrement) {
            for (double frac : options.sudThresholdFrac) {
                configs.push_back(
                    {max, 1, dec < 0 ? max + 1 : dec,
                     std::max(1, static_cast<int>(frac * max + 0.5))});
            }
        }
    }
    return configs;
}

/** Figure 2 sweep plus edge configurations (> 64: two lane blocks). */
std::vector<SudConfig>
differentialSudConfigs()
{
    std::vector<SudConfig> configs = figure2SudConfigs();
    const std::vector<SudConfig> edges = {
        {3, 1, 1, 0},       // threshold 0: always confident
        {3, 1, 1, 4},       // threshold max + 1: never confident
        {5, 1, 6, 3},       // decrement max + 1: reset
        {5, 2, 1000, 5},    // decrement far beyond max
        {1, 1, 1, 1},       // one-bit counter
        {7, 9, 2, 6},       // increment beyond max
        {255, 1, 1, 128},   // widest counter
        {255, 3, 256, 255}, // widest resetting counter
        {255, 1, 1, 256},   // widest, never confident
        {255, 255, 255, 0}, // widest, saturating steps
        {255, 64, 1, 250},  // widest, saturates at the byte's top
        {40, 3, 7, 13},
    };
    configs.insert(configs.end(), edges.begin(), edges.end());
    return configs;
}

/** Random machine: every state total, random outputs and start. */
Dfa
randomDfa(Rng &rng, int states)
{
    Dfa dfa;
    for (int s = 0; s < states; ++s)
        dfa.addState(static_cast<int>(rng.below(2)));
    for (int s = 0; s < states; ++s) {
        for (int bit = 0; bit < 2; ++bit)
            dfa.setEdge(s, bit, static_cast<int>(rng.below(states)));
    }
    dfa.setStart(static_cast<int>(rng.below(states)));
    return dfa;
}

void
expectSameResult(const ConfidenceResult &engine,
                 const ConfidenceResult &reference, const std::string &what)
{
    EXPECT_EQ(engine.loads, reference.loads) << what;
    EXPECT_EQ(engine.correct, reference.correct) << what;
    EXPECT_EQ(engine.confident, reference.confident) << what;
    EXPECT_EQ(engine.confidentCorrect, reference.confidentCorrect) << what;
}

/** Lengths around the 255-load tally flush, the 64-bit word edge, etc. */
const std::vector<size_t> kDifferentialLengths = {0,   1,   63,  64,  65,
                                                  254, 255, 256, 509, 510,
                                                  511, 4099};

TEST(ConfidenceEngineTest, SudReplayMatchesReference)
{
    const std::vector<SudConfig> configs = differentialSudConfigs();
    ASSERT_GT(configs.size(), 64u);
    uint64_t seed = 1;
    for (const auto &[label, make] : allPredictors()) {
        for (size_t length : kDifferentialLengths) {
            const ValueTrace trace = randomValueTrace(seed++, length);
            const auto predictor = make();
            const CorrectnessStream stream =
                buildCorrectnessStream(trace, *predictor);
            ASSERT_EQ(stream.size(), length);
            const std::vector<ConfidenceResult> engine =
                replaySudConfidence(stream, configs);
            ASSERT_EQ(engine.size(), configs.size());
            for (size_t i = 0; i < configs.size(); ++i) {
                const auto reference_predictor = make();
                SudConfidence estimator(reference_predictor->entries(),
                                        configs[i]);
                expectSameResult(
                    engine[i],
                    simulateConfidence(trace, *reference_predictor,
                                       estimator),
                    label + " len=" + std::to_string(length) + " " +
                        estimator.name());
            }
        }
    }
}

TEST(ConfidenceEngineTest, FsmReplayMatchesReference)
{
    Rng rng(0xf5);
    std::vector<Dfa> machines;
    for (int states : {1, 2, 3, 7, 16, 60, 300})
        machines.push_back(randomDfa(rng, states));
    std::vector<FsmEstimator> estimators;
    for (size_t k = 0; k < machines.size(); ++k)
        estimators.push_back({&machines[k], "random" + std::to_string(k)});

    uint64_t seed = 100;
    for (const auto &[label, make] : allPredictors()) {
        for (size_t length : kDifferentialLengths) {
            const ValueTrace trace = randomValueTrace(seed++, length);
            const auto predictor = make();
            const std::vector<ConfidenceResult> engine = replayFsmConfidence(
                buildCorrectnessStream(trace, *predictor), estimators);
            ASSERT_EQ(engine.size(), machines.size());
            for (size_t k = 0; k < machines.size(); ++k) {
                const auto reference_predictor = make();
                FsmConfidence estimator(reference_predictor->entries(),
                                        machines[k]);
                expectSameResult(
                    engine[k],
                    simulateConfidence(trace, *reference_predictor,
                                       estimator),
                    label + " len=" + std::to_string(length) + " machine " +
                        std::to_string(k));
            }
        }
    }
}

TEST(ConfidenceEngineTest, LongStreamMatchesReference)
{
    // 65537 loads: past 2^16 and not a multiple of the flush interval
    // or the word size, on the paper's default geometry.
    const ValueTrace trace = randomValueTrace(77, 65537, 200);
    const CorrectnessStream stream =
        buildCorrectnessStream(trace, StrideConfig{});
    const std::vector<SudConfig> configs = differentialSudConfigs();
    const std::vector<ConfidenceResult> sud =
        replaySudConfidence(stream, configs);
    for (size_t i = 0; i < configs.size(); ++i) {
        SudConfidence estimator(stream.entries, configs[i]);
        expectSameResult(sud[i],
                         simulateConfidence(trace, StrideConfig{}, estimator),
                         estimator.name());
        // ~330 loads per site: the widest counters climb past 128.
        if (configs[i].max == 255 && configs[i].threshold == 128) {
            EXPECT_GT(sud[i].confident, 0u);
        }
    }

    Rng rng(65537);
    const Dfa machine = randomDfa(rng, 24);
    FsmConfidence estimator(stream.entries, machine);
    expectSameResult(replayFsmConfidence(stream, {{&machine}})[0],
                     simulateConfidence(trace, StrideConfig{}, estimator),
                     "fsm");
}

/** A random cube over @p n history bits, each specified with @p p. */
Cube
randomCube(Rng &rng, int n, double p)
{
    Cube cube;
    for (int bit = 0; bit < n; ++bit) {
        if (rng.chance(p)) {
            cube.mask |= 1U << bit;
            if (rng.chance(0.5))
                cube.value |= 1U << bit;
        }
    }
    return cube;
}

/**
 * The design tail's automaton stages over a random order-@p n cover: a
 * few random cubes plus one full minterm, so the last n outcomes decide
 * the output.
 */
Dfa
randomFlowMachine(Rng &rng, int n)
{
    Cover cover(n);
    cover.add(Cube::minterm(static_cast<uint32_t>(rng.below(1ULL << n)), n));
    const int k = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < k; ++i)
        cover.add(randomCube(rng, n, 0.8));
    return Dfa::fromCover(cover).minimizeHopcroft().steadyStateReduce();
}

#ifndef AUTOFSM_NO_TELEMETRY
/** FSM estimators replayed on @p path ("table" or "step") so far. */
uint64_t
fsmReplays(const std::string &path)
{
    for (const obs::MetricValue &metric :
         obs::globalMetrics().snapshot().metrics) {
        if (metric.name == "autofsm_vpred_fsm_replays_total" &&
            metric.labels == obs::Labels{{"path", path}})
            return metric.count;
    }
    return 0;
}
#endif

TEST(ConfidenceEngineTest, SuffixTableMatchesStepping)
{
    // Each machine with the path it must take once the stream pays for
    // its table (2^(order+1) loads): flow machines of order <= 16 and
    // one-state machines are definite; orders 17 and 24 and wider
    // saturating counters are stepped; a random DFA may go either way.
    enum class Path { Table, Step, Either };
    struct Case
    {
        Dfa fsm;
        int order; ///< the machine's history length, 0 if not definite
        Path path;
        std::string label;
    };
    Rng rng(0x5f71);
    std::vector<Case> cases;
    for (int n = 1; n <= 16; ++n)
        cases.push_back({randomFlowMachine(rng, n), n, Path::Table,
                         "flow N=" + std::to_string(n)});
    for (int n : {17, 24})
        cases.push_back({randomFlowMachine(rng, n), n, Path::Step,
                         "flow N=" + std::to_string(n)});
    // A one-bit counter holds the last outcome: it is 1-definite.
    cases.push_back({Dfa::saturatingCounter(1), 1, Path::Table, "counter 1"});
    for (int bits : {2, 3})
        cases.push_back({Dfa::saturatingCounter(bits), 0, Path::Step,
                         "counter " + std::to_string(bits)});
    for (int states : {2, 5, 40})
        cases.push_back({randomDfa(rng, states), 0, Path::Either,
                         "random " + std::to_string(states)});
    for (int output : {0, 1})
        cases.push_back({Dfa::constant(output), 0, Path::Table,
                         "constant " + std::to_string(output)});
    const size_t mixed = cases.size();
    for (int n = 2; n <= 10; ++n)
        cases.push_back({randomFlowMachine(rng, n), n, Path::Table,
                         "mixed N=" + std::to_string(n)});

    struct Stream
    {
        ValueTrace trace;
        StrideConfig geometry;
    };
    const StrideConfig sparse{2048, 8};
    const std::vector<Stream> streams = {
        {randomValueTrace(1, 0), StrideConfig{}},
        {randomValueTrace(2, 1), StrideConfig{}},
        {randomValueTrace(3, 1500), StrideConfig{256, 8}},
        // 2048 entries, ~3 loads each: most never leave warm-up.
        {randomValueTrace(4, 6000, 2048), sparse},
        {randomValueTrace(5, (size_t{1} << 18) + 3, 200), StrideConfig{}},
    };

    for (const Stream &input : streams) {
        const CorrectnessStream stream =
            buildCorrectnessStream(input.trace, input.geometry);
        const std::string where =
            " len=" + std::to_string(stream.size());
        std::vector<ConfidenceResult> oracle;
        std::vector<FsmEstimator> batch;
        for (const Case &c : cases) {
            FsmConfidence estimator(stream.entries, c.fsm, c.label);
            oracle.push_back(
                simulateConfidence(input.trace, input.geometry, estimator));
            batch.push_back({&c.fsm, c.label});
        }

        // One machine per call: each path checked on its own.
        for (size_t k = 0; k < cases.size(); ++k) {
            const Case &c = cases[k];
#ifndef AUTOFSM_NO_TELEMETRY
            const uint64_t table = fsmReplays("table");
            const uint64_t step = fsmReplays("step");
#endif
            expectSameResult(replayFsmConfidence(stream, {batch[k]})[0],
                             oracle[k], c.label + where);
#ifndef AUTOFSM_NO_TELEMETRY
            // The table pays for itself once 2^(order+1) <= length.
            const bool fits = (size_t{2} << c.order) <= stream.size();
            const uint64_t tabled = fsmReplays("table") - table;
            EXPECT_EQ(tabled + fsmReplays("step") - step, 1u) << c.label;
            if (c.path == Path::Table && fits) {
                EXPECT_EQ(tabled, 1u) << c.label << where;
            }
            if (c.path == Path::Step || !fits) {
                EXPECT_EQ(tabled, 0u) << c.label << where;
            }
#endif
        }

        // Every machine in one call, and the mixed-order batch alone:
        // the table is as deep as the deepest definite machine.
        const std::vector<ConfidenceResult> all =
            replayFsmConfidence(stream, batch);
        for (size_t k = 0; k < cases.size(); ++k)
            expectSameResult(all[k], oracle[k], "batch " + cases[k].label +
                                 where);
        const std::vector<ConfidenceResult> orders = replayFsmConfidence(
            stream, {batch.begin() + static_cast<std::ptrdiff_t>(mixed),
                     batch.end()});
        for (size_t k = mixed; k < cases.size(); ++k)
            expectSameResult(orders[k - mixed], oracle[k],
                             "mixed batch " + cases[k].label + where);
    }
}

TEST(ConfidenceEngineTest, StreamRecordsEveryVerdict)
{
    const ValueTrace trace = randomValueTrace(5, 1000);
    const CorrectnessStream stream =
        buildCorrectnessStream(trace, StrideConfig{256, 8});
    TwoDeltaStridePredictor predictor(StrideConfig{256, 8});
    uint64_t correct = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        const StrideOutcome outcome =
            predictor.executeLoad(trace[i].pc, trace[i].value);
        EXPECT_EQ(stream.entry[i], outcome.entry);
        EXPECT_EQ(stream.correctAt(i), outcome.correct);
        correct += outcome.correct;
    }
    EXPECT_EQ(stream.correct, correct);
    EXPECT_EQ(stream.entries, 256u);
    // The random traces exercise both verdicts in bulk.
    EXPECT_GT(correct, trace.size() / 5);
    EXPECT_LT(correct, trace.size() * 4 / 5);
}

bool
sameTables(const MarkovModel &a, const MarkovModel &b)
{
    if (a.table().size() != b.table().size())
        return false;
    for (const auto &[history, counts] : a.table()) {
        const auto it = b.table().find(history);
        if (it == b.table().end() || it->second.ones != counts.ones ||
            it->second.total != counts.total)
            return false;
    }
    return true;
}

TEST(ConfidenceEngineTest, StreamCollectMatchesPerEntryTraining)
{
    // Reference: each entry's correctness stream trained into its own
    // model, merged; the stream path must give the same tables.
    for (const auto &[label, make] : allPredictors()) {
        for (size_t length : {size_t{0}, size_t{1}, size_t{300},
                              size_t{5000}}) {
            const ValueTrace trace = randomValueTrace(length + 9, length);
            const auto predictor = make();
            std::vector<std::vector<int>> perEntry(predictor->entries());
            for (const LoadRecord &record : trace) {
                const StrideOutcome outcome =
                    predictor->executeLoad(record.pc, record.value);
                perEntry[outcome.entry].push_back(outcome.correct ? 1 : 0);
            }

            std::vector<MarkovModel> engine;
            std::vector<MarkovModel *> pointers;
            for (int order : {1, 3, 6, 10})
                engine.emplace_back(order);
            for (MarkovModel &model : engine)
                pointers.push_back(&model);
            const auto stream_predictor = make();
            collectConfidenceModels(
                buildCorrectnessStream(trace, *stream_predictor), pointers);

            for (const MarkovModel &model : engine) {
                MarkovModel reference(model.order());
                for (const std::vector<int> &bits : perEntry) {
                    MarkovModel one(model.order());
                    one.train(bits);
                    reference.merge(one);
                }
                EXPECT_TRUE(sameTables(model, reference))
                    << label << " len=" << length
                    << " order=" << model.order();
                EXPECT_EQ(model.totalObservations(),
                          reference.totalObservations());
            }
        }
    }
}

TEST(ConfidenceEngineTest, CollectTakesEmptyButNotNullModels)
{
    const ValueTrace trace = randomValueTrace(11, 500);
    const CorrectnessStream stream =
        buildCorrectnessStream(trace, StrideConfig{});
    EXPECT_NO_THROW(collectConfidenceModels(stream, {}));
    EXPECT_NO_THROW(collectConfidenceModels(trace, StrideConfig{}, {}));

    MarkovModel model(4);
    for (const std::vector<MarkovModel *> &models :
         {std::vector<MarkovModel *>{nullptr},
          std::vector<MarkovModel *>{&model, nullptr}}) {
        try {
            collectConfidenceModels(stream, models);
            ADD_FAILURE() << "a null model was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("collectConfidenceModels"),
                      std::string::npos)
                << e.what();
        }
    }
    // Nothing reached the valid model before the null one was found.
    EXPECT_EQ(model.totalObservations(), 0u);

    // Figure 2 with no FSM histories: the SUD panel alone.
    Fig2Options options;
    options.loadsPerBenchmark = 2000;
    options.histories = {};
    const Fig2Benchmark result = runFigure2("gcc", options);
    EXPECT_EQ(result.sudPoints.size(), 60u);
    EXPECT_TRUE(result.fsmCurves.empty());
}

TEST(ConfidenceEngineTest, RejectsUnrepresentableEstimators)
{
    const CorrectnessStream stream =
        buildCorrectnessStream(randomValueTrace(3, 100), StrideConfig{});
    for (const SudConfig &config :
         {SudConfig{256, 1, 1, 2}, SudConfig{0, 1, 1, 0},
          SudConfig{5, 0, 1, 2}, SudConfig{5, 1, 0, 2},
          SudConfig{5, 1, 1, 7}, SudConfig{5, 1, 1, -1}}) {
        EXPECT_THROW(replaySudConfidence(stream, {SudConfig{}, config}),
                     std::invalid_argument)
            << SudConfidence::label(config);
    }

    Dfa wide;
    for (int s = 0; s < 65536; ++s)
        wide.addState(s & 1);
    for (int s = 0; s < 65536; ++s) {
        wide.setEdge(s, 0, 0);
        wide.setEdge(s, 1, (s + 1) % 65536);
    }
    wide.setStart(0);
    EXPECT_THROW(replayFsmConfidence(stream, {{&wide}}),
                 std::invalid_argument);
    EXPECT_THROW(replayFsmConfidence(stream, {{nullptr}}),
                 std::invalid_argument);
}

// CorrectnessStream is a public aggregate, so a hand-built one reaches
// the engines unchecked by buildCorrectnessStream. Each entry point must
// reject an entry outside the bank and a short outcome-word vector
// before it indexes a per-entry row or an outcome word.
TEST(ConfidenceEngineTest, RejectsMalformedStreams)
{
    CorrectnessStream bad_entry;
    bad_entry.entries = 1;
    bad_entry.entry = {0, 7, 0};
    bad_entry.correctWords = {0b101};
    bad_entry.correct = 2;

    CorrectnessStream short_words;
    short_words.entries = 2;
    short_words.entry.assign(65, 1);
    short_words.correctWords = {~uint64_t{0}};
    short_words.correct = 65;

    Rng rng(0xbad);
    const Dfa constant = Dfa::constant(1);
    const Dfa stepped = randomDfa(rng, 7);
    MarkovModel model(4);
    for (const CorrectnessStream *stream : {&bad_entry, &short_words}) {
        EXPECT_THROW(replaySudConfidence(*stream, {SudConfig{}}),
                     std::invalid_argument);
        EXPECT_THROW(replayFsmConfidence(*stream, {{&constant}, {&stepped}}),
                     std::invalid_argument);
        EXPECT_THROW(collectConfidenceModels(*stream, {&model}),
                     std::invalid_argument);
        EXPECT_THROW(collectConfidenceModels(*stream, {}),
                     std::invalid_argument);
    }
    EXPECT_EQ(model.totalObservations(), 0u);

    // The boundaries themselves are well formed: the last entry of the
    // bank, exactly ceil(size / 64) words, and the empty stream.
    bad_entry.entry = {0, 0, 0};
    short_words.correctWords.push_back(1);
    CorrectnessStream empty;
    for (const CorrectnessStream *stream : {&bad_entry, &short_words, &empty}) {
        EXPECT_NO_THROW(replaySudConfidence(*stream, {SudConfig{}}));
        EXPECT_NO_THROW(
            replayFsmConfidence(*stream, {{&constant}, {&stepped}}));
        EXPECT_NO_THROW(collectConfidenceModels(*stream, {&model}));
    }
}

#ifndef AUTOFSM_NO_TELEMETRY

uint64_t
vpredCounter(const obs::MetricsSnapshot &snapshot, const std::string &name,
             const std::string &estimator)
{
    for (const obs::MetricValue &metric : snapshot.metrics) {
        if (metric.name != name)
            continue;
        for (const auto &[key, value] : metric.labels) {
            if (key == "estimator" && value == estimator)
                return metric.count;
        }
    }
    return 0;
}

uint64_t
stageCount(const obs::MetricsSnapshot &snapshot, const std::string &stage)
{
    for (const obs::MetricValue &metric : snapshot.metrics) {
        if (metric.name != "autofsm_vpred_stage_millis")
            continue;
        for (const auto &[key, value] : metric.labels) {
            if (key == "stage" && value == stage)
                return metric.histogram.count;
        }
    }
    return 0;
}

TEST(ConfidenceEngineTest, PublishesSameCountersAsReference)
{
    // Labels unique to this test, so each path's increments can be read
    // off the global registry as deltas.
    const std::vector<SudConfig> configs = {{37, 1, 3, 19}, {37, 2, 38, 30}};
    Rng rng(37);
    const Dfa machine = randomDfa(rng, 9);
    const std::string fsm_label = "metrics-parity-fsm";
    const ValueTrace trace = randomValueTrace(37, 3000);
    std::vector<std::string> labels;
    for (const SudConfig &config : configs)
        labels.push_back(SudConfidence::label(config));
    labels.push_back(fsm_label);
    const std::vector<std::string> names = {
        "autofsm_vpred_loads_total", "autofsm_vpred_correct_total",
        "autofsm_vpred_confident_total",
        "autofsm_vpred_confident_correct_total"};

    obs::MetricsRegistry &registry = obs::globalMetrics();
    const auto read = [&] {
        const obs::MetricsSnapshot snapshot = registry.snapshot();
        std::vector<uint64_t> values;
        for (const std::string &label : labels) {
            for (const std::string &name : names)
                values.push_back(vpredCounter(snapshot, name, label));
        }
        return values;
    };

    const std::vector<uint64_t> before = read();
    for (const SudConfig &config : configs) {
        SudConfidence estimator(2048, config);
        simulateConfidence(trace, StrideConfig{}, estimator);
    }
    FsmConfidence fsm(2048, machine, fsm_label);
    simulateConfidence(trace, StrideConfig{}, fsm);
    const std::vector<uint64_t> reference = read();

    const CorrectnessStream stream =
        buildCorrectnessStream(trace, StrideConfig{});
    replaySudConfidence(stream, configs);
    replayFsmConfidence(stream, {{&machine, fsm_label}});
    const std::vector<uint64_t> after = read();

    for (size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(after[i] - reference[i], reference[i] - before[i])
            << labels[i / names.size()] << " " << names[i % names.size()];
    }
    EXPECT_GT(reference[0] - before[0], 0u);
}

TEST(ConfidenceEngineTest, Figure2RunTimesEveryStage)
{
    // The paper's 35 estimators (histories 2-10, seven thresholds), on
    // enough loads to pay for the order-10 table and its definiteness
    // walk. Clearing the trace cache empties the model memo, so the
    // first call is cold whichever tests ran before.
    Fig2Options options;
    options.loadsPerBenchmark = 20000;
    clearBranchTraceCache();
    const obs::MetricsSnapshot before = obs::globalMetrics().snapshot();
    const uint64_t table = fsmReplays("table");
    const uint64_t step = fsmReplays("step");
    runFigure2("gcc", options);
    const obs::MetricsSnapshot after = obs::globalMetrics().snapshot();
    for (const char *stage : {"stream", "replay", "collect"})
        EXPECT_GT(stageCount(after, stage), stageCount(before, stage))
            << stage;
    // Cold: the own stream plus one per other benchmark, and one
    // collect per benchmark (the own one from the own stream).
    EXPECT_EQ(stageCount(after, "stream") - stageCount(before, "stream"), 5u);
    EXPECT_EQ(stageCount(after, "collect") - stageCount(before, "collect"),
              5u);
    // Every flow-designed estimator is replayed from the suffix table;
    // a fall-back to stepping would keep the results but lose the gain.
    EXPECT_EQ(fsmReplays("table") - table, 35u);
    EXPECT_EQ(fsmReplays("step") - step, 0u);

    // Warm: only the own stream the replays need, and no collect.
    runFigure2("gcc", options);
    const obs::MetricsSnapshot warm = obs::globalMetrics().snapshot();
    EXPECT_EQ(stageCount(warm, "stream") - stageCount(after, "stream"), 1u);
    EXPECT_EQ(stageCount(warm, "collect"), stageCount(after, "collect"));
}

#endif // AUTOFSM_NO_TELEMETRY

// --- Figure 2's leave-one-out model memo ---------------------------------

/** Small Figure 2 runs: three orders, three thresholds. */
Fig2Options
memoTestOptions()
{
    Fig2Options options;
    options.loadsPerBenchmark = 6000;
    options.histories = {2, 4, 8};
    options.thresholds = {0.6, 0.8, 0.95};
    return options;
}

/**
 * Leave-one-out training as it was before the memo: every call rebuilds
 * each other benchmark's trace and stream and collects them, in suite
 * order, into one accumulated model per order.
 */
std::vector<MarkovModel>
referenceCrossTraining(const std::string &benchmark, size_t loads,
                       const StrideConfig &stride,
                       const std::vector<int> &orders)
{
    std::vector<MarkovModel> models;
    for (int order : orders)
        models.emplace_back(order);
    std::vector<MarkovModel *> pointers;
    for (MarkovModel &model : models)
        pointers.push_back(&model);
    for (const std::string &other : valueBenchmarkNames()) {
        if (other != benchmark) {
            collectConfidenceModels(
                buildCorrectnessStream(makeValueTrace(other, loads), stride),
                pointers);
        }
    }
    return models;
}

std::string
thresholdLabel(double threshold)
{
    std::ostringstream out;
    out.precision(1);
    out << std::fixed << "thr=" << threshold * 100.0 << "%";
    return out.str();
}

/**
 * runFigure2 as it was before the memo, over referenceCrossTraining.
 * The design memo is cleared first, so every machine is designed from
 * the accumulated model rather than looked up.
 */
Fig2Benchmark
referenceFigure2(const std::string &benchmark, const Fig2Options &options)
{
    clearDesignMemo();
    const CorrectnessStream own = buildCorrectnessStream(
        makeValueTrace(benchmark, options.loadsPerBenchmark),
        options.stride);
    Fig2Benchmark result;
    result.name = benchmark;
    const std::vector<SudConfig> configs = figure2SudConfigs();
    const std::vector<ConfidenceResult> sud =
        replaySudConfidence(own, configs);
    for (size_t i = 0; i < configs.size(); ++i) {
        result.sudPoints.push_back({sud[i].accuracy(), sud[i].coverage(),
                                    SudConfidence::label(configs[i])});
    }

    const std::vector<MarkovModel> models =
        referenceCrossTraining(benchmark, options.loadsPerBenchmark,
                               options.stride, options.histories);
    for (size_t i = 0; i < models.size(); ++i) {
        ParetoSeries series;
        series.label =
            "custom w/ hist=" + std::to_string(options.histories[i]);
        for (double threshold : options.thresholds) {
            DesignRequest request;
            request.model = models[i];
            request.options.order = options.histories[i];
            request.options.patterns.threshold = threshold;
            request.options.patterns.dontCareMass = 0.01;
            const FlowResult design = runDesignRequest(request);
            const ConfidenceResult r =
                replayFsmConfidence(own, {{&design.design.fsm}})[0];
            series.points.push_back(
                {r.accuracy(), r.coverage(), thresholdLabel(threshold)});
        }
        result.fsmCurves.push_back(std::move(series));
    }
    return result;
}

void
expectSamePoints(const std::vector<ParetoPoint> &got,
                 const std::vector<ParetoPoint> &want,
                 const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].label, want[i].label) << what << " " << i;
        EXPECT_EQ(got[i].accuracy, want[i].accuracy)
            << what << " " << want[i].label;
        EXPECT_EQ(got[i].coverage, want[i].coverage)
            << what << " " << want[i].label;
    }
}

void
expectSameFigure2(const Fig2Benchmark &got, const Fig2Benchmark &want,
                  const std::string &what)
{
    EXPECT_EQ(got.name, want.name) << what;
    expectSamePoints(got.sudPoints, want.sudPoints, what + " sud");
    ASSERT_EQ(got.fsmCurves.size(), want.fsmCurves.size()) << what;
    for (size_t i = 0; i < got.fsmCurves.size(); ++i) {
        EXPECT_EQ(got.fsmCurves[i].label, want.fsmCurves[i].label) << what;
        expectSamePoints(got.fsmCurves[i].points, want.fsmCurves[i].points,
                         what + " " + want.fsmCurves[i].label);
    }
}

/** Same order, totals and per-history counts. */
bool
sameModel(const MarkovModel &a, const MarkovModel &b)
{
    if (a.order() != b.order() ||
        a.totalObservations() != b.totalObservations() ||
        a.distinctHistories() != b.distinctHistories()) {
        return false;
    }
    for (const auto &[history, counts] : a.table()) {
        const HistoryCounts other = b.counts(history);
        if (counts.ones != other.ones || counts.total != other.total)
            return false;
    }
    return true;
}

bool
sameModels(const std::vector<MarkovModel> &a,
           const std::vector<MarkovModel> &b)
{
    return a.size() == b.size() &&
        std::equal(a.begin(), a.end(), b.begin(), sameModel);
}

TEST(Figure2MemoTest, SuiteMatchesPerCallRebuild)
{
    // Forward and reverse suite order, each from a cold memo: the first
    // call fills every benchmark's entry (its own from its own stream),
    // later calls only merge.
    const Fig2Options options = memoTestOptions();
    std::map<std::string, Fig2Benchmark> oracle;
    for (const std::string &name : valueBenchmarkNames())
        oracle[name] = referenceFigure2(name, options);
    for (bool reverse : {false, true}) {
        std::vector<std::string> names = valueBenchmarkNames();
        if (reverse)
            std::reverse(names.begin(), names.end());
        clearBranchTraceCache();
        for (const std::string &name : names) {
            expectSameFigure2(runFigure2(name, options), oracle[name],
                              name + (reverse ? " (reverse)" : ""));
        }
    }
}

TEST(Figure2MemoTest, KeyCoversEveryStrideFieldAndTheLoadCount)
{
    // Warm the memo, then change one key field per step: each step is a
    // new key (all five benchmarks collected again) and matches its own
    // per-call oracle. The suite's load sites sit 16 bytes apart, so
    // they only share a table entry in a tiny table, and two of them
    // never agree in the low 8 tag bits: 8 and 16 tag bits train the
    // same models, which only the collect count can tell apart.
    struct Step
    {
        std::string what;
        StrideConfig stride;
        size_t loads;
        bool changesTraining;
    };
    const std::vector<Step> steps = {
        {"default geometry", StrideConfig{2048, 16}, 6000, true},
        {"tagBits=8", StrideConfig{2048, 8}, 6000, false},
        {"entries=1", StrideConfig{1, 8}, 6000, true},
        {"tagBits=0", StrideConfig{1, 0}, 6000, true},
        {"loads=4000", StrideConfig{1, 0}, 4000, true},
    };
    clearBranchTraceCache();
    std::vector<MarkovModel> previous;
    for (const Step &step : steps) {
        Fig2Options options = memoTestOptions();
        options.stride = step.stride;
        options.loadsPerBenchmark = step.loads;
#ifndef AUTOFSM_NO_TELEMETRY
        const uint64_t collects =
            stageCount(obs::globalMetrics().snapshot(), "collect");
#endif
        const Fig2Benchmark result = runFigure2("gcc", options);
#ifndef AUTOFSM_NO_TELEMETRY
        EXPECT_EQ(stageCount(obs::globalMetrics().snapshot(), "collect") -
                      collects,
                  5u)
            << step.what;
#endif
        expectSameFigure2(result, referenceFigure2("gcc", options),
                          step.what);
        const std::vector<MarkovModel> models = leaveOneOutConfidenceModels(
            "gcc", step.loads, step.stride, options.histories);
        EXPECT_TRUE(sameModels(
            models, referenceCrossTraining("gcc", step.loads, step.stride,
                                           options.histories)))
            << step.what;
        if (!previous.empty()) {
            EXPECT_NE(sameModels(models, previous), step.changesTraining)
                << step.what;
        }
        previous = models;
    }
}

TEST(Figure2MemoTest, HelperSumsTheOtherBenchmarks)
{
    // Orders in any sequence, repeated, and with or without the own
    // stream: each result is the accumulated model of its order.
    const size_t loads = 3000;
    const StrideConfig stride;
    const std::vector<int> orders = {6, 1, 6, 24, 3};
    clearBranchTraceCache();
    const CorrectnessStream own =
        buildCorrectnessStream(makeValueTrace("li", loads), stride);
    for (const char *name : {"li", "perl", "li"}) {
        const std::vector<MarkovModel> models = leaveOneOutConfidenceModels(
            name, loads, stride, orders, std::string(name) == "li" ? &own : nullptr);
        EXPECT_TRUE(sameModels(
            models, referenceCrossTraining(name, loads, stride, orders)))
            << name;
    }
    EXPECT_TRUE(
        leaveOneOutConfidenceModels("gcc", loads, stride, {}).empty());
}

TEST(Figure2MemoTest, FailuresAreRejectedAndNeverCached)
{
    const size_t loads = 2000;
    const StrideConfig stride;
    clearBranchTraceCache();
    EXPECT_THROW(leaveOneOutConfidenceModels("nosuch", loads, stride, {4}),
                 std::invalid_argument);
    EXPECT_THROW(runFigure2("nosuch", memoTestOptions()),
                 std::invalid_argument);
    for (int order : {0, -3, 25}) {
        EXPECT_THROW(
            leaveOneOutConfidenceModels("gcc", loads, stride, {4, order}),
            std::invalid_argument)
            << order;
    }
    for (const StrideConfig &bad :
         {StrideConfig{0, 16}, StrideConfig{3, 16}, StrideConfig{2048, -1},
          StrideConfig{2048, 33}}) {
        for (int attempt = 0; attempt < 2; ++attempt) {
            EXPECT_THROW(
                leaveOneOutConfidenceModels("gcc", loads, bad, {4}),
                std::invalid_argument)
                << bad.entries << "/" << bad.tagBits;
        }
    }
    // The rejected calls left nothing behind that a valid one could hit.
    EXPECT_TRUE(sameModels(
        leaveOneOutConfidenceModels("gcc", loads, stride, {4, 8}),
        referenceCrossTraining("gcc", loads, stride, {4, 8})));
}

TEST(Figure2MemoTest, ClearingTheTraceCacheEmptiesTheMemo)
{
    const uint64_t generation = workloadTraceGeneration();
    clearBranchTraceCache();
    EXPECT_EQ(workloadTraceGeneration(), generation + 1);
#ifndef AUTOFSM_NO_TELEMETRY
    // Streams built and collects run so far.
    const auto work = [] {
        const obs::MetricsSnapshot snapshot = obs::globalMetrics().snapshot();
        return std::make_pair(stageCount(snapshot, "stream"),
                              stageCount(snapshot, "collect"));
    };
    const auto train = [] {
        leaveOneOutConfidenceModels("go", 3000, StrideConfig{}, {3, 7});
    };
    const auto start = work();
    train();
    const auto cold = work();
    EXPECT_EQ(cold.first - start.first, 4u);
    EXPECT_EQ(cold.second - start.second, 4u);
    train();
    EXPECT_EQ(work(), cold);
    clearBranchTraceCache();
    train();
    const auto again = work();
    EXPECT_EQ(again.first - cold.first, 4u);
    EXPECT_EQ(again.second - cold.second, 4u);
#endif
}

TEST(Figure2MemoTest, ConcurrentCallersShareOneBuild)
{
    const size_t loads = 4000;
    const StrideConfig stride;
    const std::vector<int> orders = {2, 5, 10};
    clearBranchTraceCache();
#ifndef AUTOFSM_NO_TELEMETRY
    const uint64_t collects =
        stageCount(obs::globalMetrics().snapshot(), "collect");
#endif
    // Two callers of one key and a third whose training set overlaps it.
    std::vector<MarkovModel> first, second, third;
    std::thread a([&] {
        first = leaveOneOutConfidenceModels("gcc", loads, stride, orders);
    });
    std::thread b([&] {
        second = leaveOneOutConfidenceModels("gcc", loads, stride, orders);
    });
    std::thread c([&] {
        third = leaveOneOutConfidenceModels("groff", loads, stride, orders);
    });
    a.join();
    b.join();
    c.join();
#ifndef AUTOFSM_NO_TELEMETRY
    // One collect per benchmark in the union of the training sets.
    EXPECT_EQ(stageCount(obs::globalMetrics().snapshot(), "collect") -
                  collects,
              5u);
#endif
    EXPECT_TRUE(sameModels(first, second));
    EXPECT_TRUE(sameModels(
        first, referenceCrossTraining("gcc", loads, stride, orders)));
    EXPECT_TRUE(sameModels(
        third, referenceCrossTraining("groff", loads, stride, orders)));
}

} // anonymous namespace
} // namespace autofsm
