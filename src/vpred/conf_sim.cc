#include "vpred/conf_sim.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "fsmgen/predictor_fsm.hh"
#include "fsmgen/profile.hh"
#include "obs/metrics.hh"
#include "support/bits.hh"

namespace autofsm
{

namespace
{

/**
 * Publish one confidence run's coverage tallies, labelled by estimator
 * (bounded cardinality: one per swept configuration). Bumped once per
 * run so the per-load hot loop stays untouched.
 */
void
publishConfidenceRun(const std::string &estimator,
                     const ConfidenceResult &result)
{
    obs::MetricsRegistry &registry = obs::globalMetrics();
    if (!registry.enabled())
        return;
    const obs::Labels labels = {{"estimator", estimator}};
    registry
        .counter("autofsm_vpred_loads_total",
                 "Dynamic loads simulated by the confidence harness.",
                 labels)
        .inc(result.loads);
    registry
        .counter("autofsm_vpred_correct_total",
                 "Loads whose value prediction was correct.", labels)
        .inc(result.correct);
    registry
        .counter("autofsm_vpred_confident_total",
                 "Loads the estimator marked confident.", labels)
        .inc(result.confident);
    registry
        .counter("autofsm_vpred_confident_correct_total",
                 "Confident loads that were also correct.", labels)
        .inc(result.confidentCorrect);
}

/**
 * Confidence-engine stage timings and FSM replay paths, all cells
 * registered together.
 */
struct EngineTelemetry
{
    obs::Histogram streamMillis;
    obs::Histogram replayMillis;
    obs::Histogram collectMillis;
    obs::Counter tableReplays;
    obs::Counter stepReplays;
};

EngineTelemetry &
engineTelemetry()
{
    static EngineTelemetry telemetry = [] {
        obs::MetricsRegistry &registry = obs::globalMetrics();
        const std::vector<double> buckets =
            obs::defaultLatencyBucketsMillis();
        const auto stage = [&](const char *name) {
            return registry.histogram(
                "autofsm_vpred_stage_millis",
                "Wall-clock of one confidence-engine stage.", buckets,
                {{"stage", name}});
        };
        EngineTelemetry t;
        t.streamMillis = stage("stream");
        t.replayMillis = stage("replay");
        t.collectMillis = stage("collect");
        const auto path = [&](const char *name) {
            return registry.counter(
                "autofsm_vpred_fsm_replays_total",
                "FSM estimators replayed, by engine path.",
                {{"path", name}});
        };
        t.tableReplays = path("table");
        t.stepReplays = path("step");
        return t;
    }();
    return telemetry;
}

/** Observes the wall-clock of its scope into one stage histogram. */
class StageTimer
{
  public:
    explicit StageTimer(obs::Histogram &histogram)
        : histogram_(histogram), start_(std::chrono::steady_clock::now())
    {}

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

    ~StageTimer()
    {
        histogram_.observe(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start_)
                               .count());
    }

  private:
    obs::Histogram &histogram_;
    std::chrono::steady_clock::time_point start_;
};

/** SUD configurations replayed per counter row (one byte each). */
constexpr size_t kSudLanes = 64;

/**
 * Loads between flushes of the per-lane byte tallies into the 64-bit
 * totals: each load adds at most 1 to a tally, so 255 cannot wrap.
 */
constexpr size_t kTallyFlush = 255;

/**
 * One block of up to kSudLanes configurations in byte form. Counter
 * arithmetic per lane, for value v in [0, max]:
 *   correct: min(v, headroom) + inc   (headroom = max - inc)
 *   wrong:   v > dec ? v - dec : 0
 *   marked:  v >= threshold, masked off when threshold > max
 * with inc and dec clamped to max, which leaves every result unchanged
 * and keeps all operands and results inside a byte.
 */
struct SudLanes
{
    alignas(64) uint8_t headroom[kSudLanes] = {};
    alignas(64) uint8_t inc[kSudLanes] = {};
    alignas(64) uint8_t dec[kSudLanes] = {};
    alignas(64) uint8_t threshold[kSudLanes] = {};
    alignas(64) uint8_t enabled[kSudLanes] = {};
};

/**
 * Reject a stream the engines cannot index safely: an entry outside
 * the bank, or fewer outcome words than size() needs. One pass over
 * the entries, before any per-entry row is sized.
 */
void
checkStream(const CorrectnessStream &stream, const char *caller)
{
    if (stream.correctWords.size() < (stream.size() + 63) / 64) {
        throw std::invalid_argument(
            std::string(caller) + ": stream of " +
            std::to_string(stream.size()) + " loads has only " +
            std::to_string(stream.correctWords.size()) + " outcome words");
    }
    uint32_t max_entry = 0;
    for (const uint32_t entry : stream.entry)
        max_entry = std::max(max_entry, entry);
    if (!stream.entry.empty() && max_entry >= stream.entries) {
        throw std::invalid_argument(
            std::string(caller) + ": entry " + std::to_string(max_entry) +
            " outside a bank of " + std::to_string(stream.entries) +
            " entries");
    }
}

void
checkSudConfig(const SudConfig &config)
{
    if (config.max < 1 || config.max > 255 || config.increment < 1 ||
        config.decrement < 1 || config.threshold < 0 ||
        config.threshold > config.max + 1) {
        throw std::invalid_argument(
            "replaySudConfidence: unrepresentable configuration " +
            SudConfidence::label(config) +
            " (needs 1 <= max <= 255, increment and decrement >= 1, "
            "0 <= threshold <= max + 1)");
    }
}

SudLanes
packSudLanes(const SudConfig *configs, size_t count)
{
    SudLanes lanes;
    for (size_t j = 0; j < count; ++j) {
        const SudConfig &c = configs[j];
        const int inc = std::min(c.increment, c.max);
        lanes.headroom[j] = static_cast<uint8_t>(c.max - inc);
        lanes.inc[j] = static_cast<uint8_t>(inc);
        lanes.dec[j] = static_cast<uint8_t>(std::min(c.decrement, c.max));
        const bool reachable = c.threshold <= c.max;
        lanes.threshold[j] =
            static_cast<uint8_t>(reachable ? c.threshold : 0);
        lanes.enabled[j] = reachable ? 1 : 0;
    }
    return lanes;
}

/**
 * Replay one lane block over the stream. Counter rows are entry-major,
 * kSudLanes bytes each, all starting at 0 like a fresh SudCounter.
 */
void
replaySudLanes(const CorrectnessStream &stream, const SudLanes &lanes,
               std::vector<uint64_t> &confident,
               std::vector<uint64_t> &confidentCorrect)
{
    std::vector<uint8_t> rows(stream.entries * kSudLanes, 0);
    alignas(64) uint8_t marked[kSudLanes] = {};
    alignas(64) uint8_t markedCorrect[kSudLanes] = {};
    const uint32_t *entries = stream.entry.data();
    const size_t n = stream.size();

    for (size_t base = 0; base < n; base += kTallyFlush) {
        const size_t end = std::min(n, base + kTallyFlush);
        for (size_t i = base; i < end; ++i) {
            uint8_t *row = rows.data() + size_t{entries[i]} * kSudLanes;
            const uint8_t correct = stream.correctAt(i) ? 1 : 0;
            const uint8_t keepUp = static_cast<uint8_t>(0 - correct);
            for (size_t j = 0; j < kSudLanes; ++j) {
                const uint8_t v = row[j];
                const uint8_t mark = static_cast<uint8_t>(
                    (v >= lanes.threshold[j]) & lanes.enabled[j]);
                marked[j] = static_cast<uint8_t>(marked[j] + mark);
                markedCorrect[j] =
                    static_cast<uint8_t>(markedCorrect[j] + (mark & correct));
                const uint8_t up = static_cast<uint8_t>(
                    std::min(v, lanes.headroom[j]) + lanes.inc[j]);
                const uint8_t down = static_cast<uint8_t>(
                    v > lanes.dec[j] ? v - lanes.dec[j] : 0);
                row[j] = static_cast<uint8_t>((up & keepUp) |
                                              (down & ~keepUp));
            }
        }
        for (size_t j = 0; j < confident.size(); ++j) {
            confident[j] += marked[j];
            confidentCorrect[j] += markedCorrect[j];
        }
        std::fill(std::begin(marked), std::end(marked), 0);
        std::fill(std::begin(markedCorrect), std::end(markedCorrect), 0);
    }
}

/** An FsmTable in compact form: uint16 successors, 0/1 outputs. */
struct CompactFsm
{
    std::vector<uint16_t> next; ///< next[2 * state + correct]
    std::vector<uint8_t> output;
    uint16_t start = 0;
};

CompactFsm
compileFsm(const FsmEstimator &estimator)
{
    if (estimator.fsm == nullptr)
        throw std::invalid_argument("replayFsmConfidence: null machine");
    const FsmTable table(*estimator.fsm);
    const int n = table.numStates();
    if (n < 1 || n > 65535) {
        throw std::invalid_argument(
            "replayFsmConfidence: " + estimator.label + " has " +
            std::to_string(n) + " states (needs 1..65535)");
    }
    const auto state = [&](int s) {
        if (s < 0 || s >= n) {
            throw std::invalid_argument("replayFsmConfidence: " +
                                        estimator.label +
                                        " has an undefined transition");
        }
        return static_cast<uint16_t>(s);
    };
    CompactFsm fsm;
    fsm.next.resize(static_cast<size_t>(n) * 2);
    fsm.output.resize(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
        fsm.next[static_cast<size_t>(s) * 2] = state(table.next(s, 0));
        fsm.next[static_cast<size_t>(s) * 2 + 1] = state(table.next(s, 1));
        fsm.output[static_cast<size_t>(s)] = table.output(s) != 0 ? 1 : 0;
    }
    fsm.start = state(table.start());
    return fsm;
}

/** Deepest history the suffix table replays: 2^17 histogram cells. */
constexpr int kMaxTableIndex = 16;

/**
 * The index d of @p fsm if the machine is d-definite - after any d
 * inputs its state depends only on those inputs - and the suffix table
 * pays for it on a stream of @p length loads: d <= kMaxTableIndex,
 * 2^(d+1) <= length, and at most length state steps spent finding d.
 * -1 otherwise. Walks the image of the whole state set down every input
 * word, depth first, until each branch reaches a single state; d is the
 * deepest such branch.
 */
int
definiteIndex(const CompactFsm &fsm, size_t length)
{
    const size_t n = fsm.output.size();
    if (length < 2)
        return -1;
    if (n == 1)
        return 0;
    int limit = 0; // deepest index with 2^(limit+1) <= length
    while (limit < kMaxTableIndex && (size_t{4} << limit) <= length)
        ++limit;
    if (limit == 0)
        return -1;

    // images[k]: image of every state under the current word's first k
    // inputs; nextBit[k]: the input to try next below it.
    std::vector<std::vector<uint16_t>> images(static_cast<size_t>(limit) +
                                              1);
    std::vector<int> nextBit(images.size(), 0);
    images[0].resize(n);
    for (size_t s = 0; s < n; ++s)
        images[0][s] = static_cast<uint16_t>(s);
    std::vector<uint32_t> seen(n, 0);
    uint32_t stamp = 0;
    size_t steps = 0;
    int index = 0;
    int depth = 0;
    while (depth >= 0) {
        const size_t k = static_cast<size_t>(depth);
        if (nextBit[k] == 2) {
            --depth;
            continue;
        }
        const unsigned bit = static_cast<unsigned>(nextBit[k]++);
        std::vector<uint16_t> &child = images[k + 1];
        child.clear();
        ++stamp;
        for (const uint16_t s : images[k]) {
            const uint16_t t = fsm.next[2 * size_t{s} + bit];
            if (seen[t] != stamp) {
                seen[t] = stamp;
                child.push_back(t);
            }
        }
        steps += images[k].size();
        if (steps > length)
            return -1;
        if (child.size() == 1) {
            index = std::max(index, depth + 1);
            continue;
        }
        // A wider image one input deeper means d > depth + 1.
        if (depth + 1 >= limit)
            return -1;
        ++depth;
        nextBit[k + 1] = 0;
    }
    return index;
}

/**
 * Loads per history over a stream: cell h counts the loads whose entry
 * had history h before the load, and how many of them were correct. A
 * history is the entry's outcomes so far, newest in bit 0, under a 1
 * sentinel bit; once it holds `depth` outcomes it keeps only the last
 * `depth`.
 */
struct SuffixCounts
{
    int depth = 0;
    std::vector<uint64_t> loads;
    std::vector<uint64_t> correct;
};

SuffixCounts
countSuffixes(const CorrectnessStream &stream, int depth)
{
    const uint32_t top = uint32_t{1} << depth; // sentinel of a full history
    const uint32_t cells = top << 1;
    SuffixCounts counts;
    counts.depth = depth;
    counts.loads.assign(cells, 0);
    counts.correct.assign(cells, 0);
    std::vector<uint32_t> history(stream.entries, 1);
    const uint32_t *entries = stream.entry.data();
    for (size_t i = 0; i < stream.size(); ++i) {
        uint32_t &h = history[entries[i]];
        const uint32_t correct = stream.correctAt(i) ? 1 : 0;
        ++counts.loads[h];
        counts.correct[h] += correct;
        h = (h << 1) | correct;
        if (h >= cells)
            h = (h & (top - 1)) | top;
    }
    return counts;
}

/**
 * Tally a definite machine of index <= counts.depth from the history
 * counts: walk the trie of histories from the start state and credit
 * every history whose state marks confident. Below counts.depth a
 * history is the entry's whole past; at counts.depth its last inputs
 * already fix the state, whatever came before.
 */
void
tallySuffixes(const CompactFsm &fsm, const SuffixCounts &counts,
              uint16_t state, uint32_t history, int level,
              ConfidenceResult &result)
{
    if (fsm.output[state] != 0) {
        result.confident += counts.loads[history];
        result.confidentCorrect += counts.correct[history];
    }
    if (level == counts.depth)
        return;
    for (uint32_t bit = 0; bit < 2; ++bit) {
        tallySuffixes(fsm, counts, fsm.next[2 * size_t{state} + bit],
                      (history << 1) | bit, level + 1, result);
    }
}

/** Step @p fsm across the stream, one state per entry. */
void
stepFsm(const CorrectnessStream &stream, const CompactFsm &fsm,
        ConfidenceResult &result)
{
    const uint32_t *entries = stream.entry.data();
    const uint16_t *next = fsm.next.data();
    const uint8_t *output = fsm.output.data();
    std::vector<uint16_t> states(stream.entries, fsm.start);
    uint64_t confident = 0;
    uint64_t confidentCorrect = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
        uint16_t &state = states[entries[i]];
        const unsigned correct = stream.correctAt(i) ? 1 : 0;
        const unsigned mark = output[state];
        confident += mark;
        confidentCorrect += mark & correct;
        state = next[2 * size_t{state} + correct];
    }
    result.confident = confident;
    result.confidentCorrect = confidentCorrect;
}

} // anonymous namespace

ConfidenceResult
simulateConfidence(const ValueTrace &trace, ValuePredictor &predictor,
                   ConfidenceEstimator &estimator)
{
    ConfidenceResult result;
    for (const auto &record : trace) {
        const size_t entry = predictor.indexOf(record.pc);
        const bool marked = estimator.confident(entry);
        const StrideOutcome outcome =
            predictor.executeLoad(record.pc, record.value);

        ++result.loads;
        result.correct += outcome.correct;
        result.confident += marked;
        result.confidentCorrect += marked && outcome.correct;

        estimator.update(entry, outcome.correct);
    }
    publishConfidenceRun(estimator.name(), result);
    return result;
}

ConfidenceResult
simulateConfidence(const ValueTrace &trace, const StrideConfig &config,
                   ConfidenceEstimator &estimator)
{
    TwoDeltaStridePredictor predictor(config);
    return simulateConfidence(trace, predictor, estimator);
}

void
collectConfidenceModels(const ValueTrace &trace, const StrideConfig &config,
                        std::vector<MarkovModel *> models)
{
    collectConfidenceModels(buildCorrectnessStream(trace, config),
                            std::move(models));
}

namespace
{

/**
 * The stream loop, one instantiation per predictor type: on the final
 * TwoDeltaStridePredictor every per-load call is direct and inline; the
 * ValuePredictor instantiation serves the other predictors.
 */
template <typename Predictor>
CorrectnessStream
buildStream(const ValueTrace &trace, Predictor &predictor)
{
    StageTimer timer(engineTelemetry().streamMillis);
    CorrectnessStream stream;
    stream.entries = predictor.entries();
    if (stream.entries > std::numeric_limits<uint32_t>::max()) {
        throw std::invalid_argument(
            "buildCorrectnessStream: " + predictor.name() +
            " has more than 2^32 entries");
    }
    stream.entry.resize(trace.size());
    stream.correctWords.assign((trace.size() + 63) / 64, 0);
    for (size_t i = 0; i < trace.size(); ++i) {
        const size_t entry = predictor.indexOf(trace[i].pc);
        const StrideOutcome outcome =
            predictor.executeLoad(trace[i].pc, trace[i].value);
        if (entry >= stream.entries || outcome.entry != entry) {
            throw std::invalid_argument(
                "buildCorrectnessStream: " + predictor.name() +
                " maps a load to inconsistent or out-of-range entries");
        }
        stream.entry[i] = static_cast<uint32_t>(entry);
        stream.correctWords[i >> 6] |=
            uint64_t{outcome.correct ? 1U : 0U} << (i & 63);
        stream.correct += outcome.correct;
    }
    return stream;
}

} // anonymous namespace

CorrectnessStream
buildCorrectnessStream(const ValueTrace &trace, ValuePredictor &predictor)
{
    return buildStream(trace, predictor);
}

CorrectnessStream
buildCorrectnessStream(const ValueTrace &trace, const StrideConfig &config)
{
    TwoDeltaStridePredictor predictor(config);
    return buildStream(trace, predictor);
}

std::vector<ConfidenceResult>
replaySudConfidence(const CorrectnessStream &stream,
                    const std::vector<SudConfig> &configs)
{
    checkStream(stream, "replaySudConfidence");
    for (const SudConfig &config : configs)
        checkSudConfig(config);

    StageTimer timer(engineTelemetry().replayMillis);
    std::vector<ConfidenceResult> results(configs.size());
    for (size_t first = 0; first < configs.size(); first += kSudLanes) {
        const size_t count = std::min(kSudLanes, configs.size() - first);
        std::vector<uint64_t> confident(count, 0);
        std::vector<uint64_t> confidentCorrect(count, 0);
        replaySudLanes(stream, packSudLanes(&configs[first], count),
                       confident, confidentCorrect);
        for (size_t j = 0; j < count; ++j) {
            ConfidenceResult &r = results[first + j];
            r.loads = stream.size();
            r.correct = stream.correct;
            r.confident = confident[j];
            r.confidentCorrect = confidentCorrect[j];
        }
    }
    for (size_t i = 0; i < configs.size(); ++i)
        publishConfidenceRun(SudConfidence::label(configs[i]), results[i]);
    return results;
}

std::vector<ConfidenceResult>
replayFsmConfidence(const CorrectnessStream &stream,
                    const std::vector<FsmEstimator> &estimators)
{
    checkStream(stream, "replayFsmConfidence");
    std::vector<CompactFsm> machines;
    machines.reserve(estimators.size());
    for (const FsmEstimator &estimator : estimators)
        machines.push_back(compileFsm(estimator));

    StageTimer timer(engineTelemetry().replayMillis);
    // Definite machines are tallied from one count of the stream's
    // histories, as deep as the deepest of them; the rest step.
    std::vector<int> index(machines.size());
    int depth = -1;
    for (size_t k = 0; k < machines.size(); ++k) {
        index[k] = definiteIndex(machines[k], stream.size());
        depth = std::max(depth, index[k]);
    }
    const SuffixCounts counts =
        depth >= 0 ? countSuffixes(stream, depth) : SuffixCounts{};

    std::vector<ConfidenceResult> results(estimators.size());
    for (size_t k = 0; k < machines.size(); ++k) {
        ConfidenceResult &r = results[k];
        r.loads = stream.size();
        r.correct = stream.correct;
        if (index[k] >= 0) {
            tallySuffixes(machines[k], counts, machines[k].start, 1, 0, r);
            engineTelemetry().tableReplays.inc();
        } else {
            stepFsm(stream, machines[k], r);
            engineTelemetry().stepReplays.inc();
        }
    }
    for (size_t k = 0; k < estimators.size(); ++k)
        publishConfidenceRun(estimators[k].label, results[k]);
    return results;
}

void
collectConfidenceModels(const CorrectnessStream &stream,
                        std::vector<MarkovModel *> models)
{
    checkStream(stream, "collectConfidenceModels");
    for (const MarkovModel *model : models) {
        if (model == nullptr) {
            throw std::invalid_argument(
                "collectConfidenceModels: null model");
        }
    }
    if (models.empty())
        return;
    StageTimer timer(engineTelemetry().collectMillis);
    std::vector<int> orders;
    orders.reserve(models.size());
    int max_order = 0;
    for (const MarkovModel *model : models) {
        orders.push_back(model->order());
        max_order = std::max(max_order, model->order());
    }

    // Per-entry correctness history plus a saturating push count so each
    // order knows when its own (shorter) warm-up completes. One flat
    // counter at the widest order absorbs every outcome; the per-order
    // tables are folded out at the end (fsmgen/profile.hh) instead of
    // updating every model inside the per-load loop.
    std::vector<uint32_t> history(stream.entries, 0);
    std::vector<int> pushes(stream.entries, 0);
    MultiOrderCounter counter(max_order);

    const auto walk_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < stream.size(); ++i) {
        const uint32_t entry = stream.entry[i];
        const uint32_t correct = stream.correctAt(i) ? 1U : 0U;

        counter.observe(history[entry], pushes[entry],
                        static_cast<int>(correct));

        history[entry] = ((history[entry] << 1) | correct) &
            lowMask(max_order);
        if (pushes[entry] < max_order)
            ++pushes[entry];
    }
    counter.creditCountMillis(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - walk_start)
            .count());

    MultiOrderProfile profile = counter.finish(orders);
    for (MarkovModel *model : models)
        model->merge(profile.model(model->order()));
}

} // namespace autofsm
