/**
 * @file
 * Tests for branch confidence estimation: the branch correctness stream
 * replayed by the confidence engine against a per-estimator reference
 * loop, Grunwald's metrics on ConfidenceResult, and the gating
 * behaviour the engine has to reproduce.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bpred/branch_confidence.hh"
#include "bpred/btb.hh"
#include "flow/batch.hh"
#include "flow/design_flow.hh"
#include "fsmgen/designer.hh"
#include "support/bits.hh"
#include "vpred/confidence.hh"
#include "workloads/branch_workloads.hh"

namespace autofsm
{
namespace
{

// --- Reference: the per-estimator loop over a live branch predictor ------

/**
 * Drive a fresh XScaleBtb through predict/update over @p trace with
 * @p estimator, indexed by branchConfidenceEntry, watching its
 * correctness stream.
 */
ConfidenceResult
referenceConfidence(const PackedTrace &trace, int log2_entries,
                    ConfidenceEstimator &estimator)
{
    XScaleBtb predictor;
    ConfidenceResult result;
    for (const BranchRecord record : trace) {
        const size_t entry = branchConfidenceEntry(record.pc, log2_entries);
        const bool marked = estimator.confident(entry);
        const bool right = predictor.predict(record.pc) == record.taken;

        ++result.loads;
        result.correct += right;
        result.confident += marked;
        result.confidentCorrect += marked && right;

        estimator.update(entry, right);
        predictor.update(record.pc, record.taken);
    }
    return result;
}

/**
 * Training reference: a fresh XScaleBtb's per-entry correctness
 * histories observed straight into @p model, record by record.
 */
void
referenceModel(const PackedTrace &trace, int log2_entries,
               MarkovModel &model)
{
    XScaleBtb predictor;
    const size_t entries = 1ULL << log2_entries;
    std::vector<uint32_t> history(entries, 0);
    std::vector<int> pushes(entries, 0);

    for (const BranchRecord record : trace) {
        const size_t entry = branchConfidenceEntry(record.pc, log2_entries);
        const bool right = predictor.predict(record.pc) == record.taken;

        if (pushes[entry] >= model.order())
            model.observe(history[entry] & lowMask(model.order()),
                          right ? 1 : 0);

        history[entry] =
            ((history[entry] << 1) | (right ? 1U : 0U)) &
            lowMask(model.order());
        if (pushes[entry] < model.order())
            ++pushes[entry];

        predictor.update(record.pc, record.taken);
    }
}

/** The first @p n records of @p trace. */
PackedTrace
prefix(const PackedTrace &trace, size_t n)
{
    PackedTraceBuilder builder(n);
    for (size_t i = 0; i < n; ++i)
        builder.push(trace.pc(i), trace.taken(i));
    return builder.finish();
}

CorrectnessStream
xscaleStream(const PackedTrace &trace, int log2_entries)
{
    XScaleBtb predictor;
    return buildCorrectnessStream(trace, predictor, log2_entries);
}

/** Order-8 model of the XScale's correctness stream over vortex. */
MarkovModel
vortexModel()
{
    MarkovModel model(8);
    collectConfidenceModels(
        xscaleStream(makeBranchTrace("vortex", WorkloadInput::Train, 40000),
                     10),
        {&model});
    return model;
}

Dfa
designEstimator(const MarkovModel &model, double threshold)
{
    FsmDesignOptions design;
    design.order = 8;
    design.patterns.threshold = threshold;
    return DesignFlow(design).run(model).design.fsm;
}

/** Two states: confident iff the last prediction was correct. */
Dfa
lastOutcomeMachine()
{
    Dfa last;
    const int s0 = last.addState(0);
    const int s1 = last.addState(1);
    last.setEdge(s0, 0, s0);
    last.setEdge(s0, 1, s1);
    last.setEdge(s1, 0, s0);
    last.setEdge(s1, 1, s1);
    last.setStart(s0);
    return last;
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

// --- Branch stream vs. the reference -------------------------------------

TEST(BranchStreamTest, ReplaysAndTrainingMatchReference)
{
    const std::vector<SudConfig> counters = {
        SudConfig::resetting(8, 7), SudConfig{15, 1, 2, 12},
        SudConfig::twoBit(), SudConfig::resetting(15, 15)};
    const Dfa designed = designEstimator(vortexModel(), 0.7);
    const Dfa last = lastOutcomeMachine();
    const std::vector<FsmEstimator> machines = {{&designed, "designed"},
                                                {&last, "last"}};
    const std::vector<int> orders = {1, 4, 8};

    for (const std::string &name : branchBenchmarkNames()) {
        const PackedTrace full =
            makeBranchTrace(name, WorkloadInput::Test, 3000);
        for (int log2_entries : {1, 6, 10, 20}) {
            for (size_t length : {size_t{0}, size_t{1}, size_t{63},
                                  size_t{64}, size_t{65}, full.size()}) {
                const PackedTrace trace = prefix(full, length);
                const std::string what = name + " log2=" +
                    std::to_string(log2_entries) +
                    " len=" + std::to_string(length);
                const CorrectnessStream stream =
                    xscaleStream(trace, log2_entries);
                ASSERT_EQ(stream.size(), length) << what;
                ASSERT_EQ(stream.entries, size_t{1} << log2_entries) << what;

                const std::vector<ConfidenceResult> sud =
                    replaySudConfidence(stream, counters);
                for (size_t i = 0; i < counters.size(); ++i) {
                    SudConfidence reference(stream.entries, counters[i]);
                    expectSameResult(
                        sud[i],
                        referenceConfidence(trace, log2_entries, reference),
                        what + " " + reference.name());
                }

                const std::vector<ConfidenceResult> fsm =
                    replayFsmConfidence(stream, machines);
                for (size_t k = 0; k < machines.size(); ++k) {
                    FsmConfidence reference(stream.entries,
                                            *machines[k].fsm);
                    expectSameResult(
                        fsm[k],
                        referenceConfidence(trace, log2_entries, reference),
                        what + " " + machines[k].label);
                }

                std::vector<MarkovModel> models;
                for (int order : orders)
                    models.emplace_back(order);
                std::vector<MarkovModel *> pointers;
                for (MarkovModel &model : models)
                    pointers.push_back(&model);
                collectConfidenceModels(stream, pointers);
                for (const MarkovModel &model : models) {
                    MarkovModel reference(model.order());
                    referenceModel(trace, log2_entries, reference);
                    EXPECT_TRUE(markovEqual(model, reference))
                        << what << " order " << model.order();
                }
            }
        }
    }
}

TEST(BranchStreamTest, EntryHashStaysInTable)
{
    for (int log2_entries : {1, 6, 10, 20}) {
        for (uint64_t pc : {0x0ULL, 0x40ULL, 0x1234ULL, ~0ULL}) {
            EXPECT_LT(branchConfidenceEntry(pc, log2_entries),
                      size_t{1} << log2_entries);
        }
    }
    // Neighbouring branches land in different entries.
    EXPECT_NE(branchConfidenceEntry(0x40, 6), branchConfidenceEntry(0x44, 6));
}

TEST(BranchStreamTest, TableSizeOutsideRangeThrows)
{
    const PackedTrace trace =
        makeBranchTrace("g721", WorkloadInput::Test, 100);
    XScaleBtb predictor;
    EXPECT_THROW(buildCorrectnessStream(trace, predictor, 0),
                 std::invalid_argument);
    EXPECT_THROW(buildCorrectnessStream(trace, predictor, 21),
                 std::invalid_argument);
    EXPECT_THROW(buildCorrectnessStream(PackedTrace(), predictor, 21),
                 std::invalid_argument);
}

// --- Grunwald metrics -----------------------------------------------------

TEST(ConfidenceResultTest, DefinitionsOnKnownCounts)
{
    ConfidenceResult r;
    r.loads = 100;
    r.correct = 80;          // 20 wrong
    r.confident = 70;        // 30 low
    r.confidentCorrect = 65; // 5 confident-but-wrong

    EXPECT_DOUBLE_EQ(r.accuracy(), 65.0 / 70.0); // PVP
    // low & wrong = 20 - 5 = 15, low = 30.
    EXPECT_DOUBLE_EQ(r.pvn(), 15.0 / 30.0);
    EXPECT_DOUBLE_EQ(r.coverage(), 65.0 / 80.0); // sensitivity
    EXPECT_DOUBLE_EQ(r.specificity(), 15.0 / 20.0);
}

TEST(ConfidenceResultTest, DegenerateCasesAreZero)
{
    const ConfidenceResult r;
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(r.pvn(), 0.0);
    EXPECT_DOUBLE_EQ(r.coverage(), 0.0);
    EXPECT_DOUBLE_EQ(r.specificity(), 0.0);
}

// --- Gating behaviour on the engine ---------------------------------------

TEST(BranchGatingTest, ResettingCounterIsConservative)
{
    // A resetting counter with a high threshold asserts confidence only
    // after long correct runs: PVP must exceed the raw accuracy.
    const CorrectnessStream stream = xscaleStream(
        makeBranchTrace("gsm", WorkloadInput::Test, 40000), 10);
    const ConfidenceResult r =
        replaySudConfidence(stream, {SudConfig::resetting(15, 15)})[0];
    EXPECT_EQ(r.loads, stream.size());
    const double accuracy =
        static_cast<double>(r.correct) / static_cast<double>(r.loads);
    EXPECT_GT(r.accuracy(), accuracy);
}

TEST(BranchGatingTest, FsmEstimatorLearnsStructure)
{
    // On vortex, the XScale is wrong in clusters (the correlated
    // branches); an FSM trained on the correctness stream must reach a
    // much better PVN than a resetting counter at similar sensitivity.
    const MarkovModel model = vortexModel();
    EXPECT_GT(model.totalObservations(), 10000u);

    const Dfa designed = designEstimator(model, 0.7);
    const CorrectnessStream test = xscaleStream(
        makeBranchTrace("vortex", WorkloadInput::Test, 40000), 10);
    const ConfidenceResult fsm =
        replayFsmConfidence(test, {{&designed}})[0];
    const ConfidenceResult sud =
        replaySudConfidence(test, {SudConfig::resetting(8, 7)})[0];
    EXPECT_GT(fsm.pvn(), sud.pvn() * 1.5);
}

} // anonymous namespace
} // namespace autofsm
