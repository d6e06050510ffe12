/**
 * @file
 * Tests for the value-prediction substrate: the two-delta stride
 * predictor, SUD/FSM confidence estimators and the combined simulation,
 * plus the differential suite checking the correctness-stream
 * confidence engine against the per-estimator reference loop.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>

#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "obs/metrics.hh"
#include "sim/figure2.hh"
#include "support/rng.hh"
#include "vpred/conf_sim.hh"
#include "vpred/confidence.hh"
#include "vpred/context_predictor.hh"
#include "vpred/hybrid_predictor.hh"
#include "vpred/last_value.hh"
#include "vpred/stride_predictor.hh"
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
    Fig2Options options;
    options.loadsPerBenchmark = 2000;
    options.histories = {2};
    options.thresholds = {0.8};
    const obs::MetricsSnapshot before = obs::globalMetrics().snapshot();
    runFigure2("gcc", options);
    const obs::MetricsSnapshot after = obs::globalMetrics().snapshot();
    for (const char *stage : {"stream", "replay", "collect"})
        EXPECT_GT(stageCount(after, stage), stageCount(before, stage))
            << stage;
}

#endif // AUTOFSM_NO_TELEMETRY

} // anonymous namespace
} // namespace autofsm
