#include "fsmgen/profile.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hh"
#include "support/failpoint.hh"

namespace autofsm
{

namespace
{

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Profiling instrumentation, registered once. */
struct ProfileTelemetry
{
    obs::Counter runs;
    obs::Counter observations;
    obs::Counter warmupObservations;
    obs::Histogram countMillis;
    obs::Histogram foldMillis;
    obs::Histogram replayMillis;
    obs::Gauge distinctHistories;
    obs::Gauge tableBytes;
};

ProfileTelemetry &
profileTelemetry()
{
    static ProfileTelemetry telemetry = [] {
        obs::MetricsRegistry &registry = obs::globalMetrics();
        ProfileTelemetry t;
        t.runs = registry.counter("autofsm_profile_runs_total",
                                  "Multi-order profiling passes finished.");
        t.observations = registry.counter(
            "autofsm_profile_observations_total",
            "Max-order (foldable) outcomes counted by the profiler.");
        t.warmupObservations = registry.counter(
            "autofsm_profile_warmup_observations_total",
            "Warm-up edge outcomes replayed per derived order.");
        const std::vector<double> buckets =
            obs::defaultLatencyBucketsMillis();
        t.countMillis = registry.histogram(
            "autofsm_profile_stage_millis",
            "Wall-clock of one profiling stage.", buckets,
            {{"stage", "count"}});
        t.foldMillis = registry.histogram(
            "autofsm_profile_stage_millis",
            "Wall-clock of one profiling stage.", buckets,
            {{"stage", "fold"}});
        t.replayMillis = registry.histogram(
            "autofsm_profile_stage_millis",
            "Wall-clock of one profiling stage.", buckets,
            {{"stage", "replay"}});
        t.distinctHistories = registry.gauge(
            "autofsm_profile_distinct_histories",
            "Distinct histories in the most recently built or merged "
            "Markov table (largest order of a profile).");
        t.tableBytes = registry.gauge(
            "autofsm_profile_table_bytes",
            "Approximate heap bytes of the most recently built or "
            "merged Markov table (largest order of a profile).");
        return t;
    }();
    return telemetry;
}

} // anonymous namespace

void
publishMarkovTableGauges(const MarkovModel &model)
{
    if (!obs::globalMetrics().enabled())
        return;
    ProfileTelemetry &telemetry = profileTelemetry();
    telemetry.distinctHistories.set(
        static_cast<double>(model.distinctHistories()));
    telemetry.tableBytes.set(
        static_cast<double>(model.approxTableBytes()));
}

size_t
MultiOrderProfile::indexOf(int order) const
{
    for (size_t i = 0; i < orders_.size(); ++i) {
        if (orders_[i] == order)
            return i;
    }
    throw std::invalid_argument("MultiOrderProfile: order " +
                                std::to_string(order) +
                                " was not requested from finish()");
}

const MarkovModel &
MultiOrderProfile::model(int order) const
{
    return models_[indexOf(order)];
}

MarkovModel
MultiOrderProfile::takeModel(int order)
{
    return std::move(models_[indexOf(order)]);
}

MultiOrderCounter::MultiOrderCounter(int max_order)
    : maxOrder_(max_order), mask_(0), flat_(max_order <= kMaxFlatOrder)
{
    if (max_order < 1 || max_order > 24) {
        throw std::invalid_argument("MultiOrderCounter: order " +
                                    std::to_string(max_order) +
                                    " outside [1, 24]");
    }
    mask_ = lowMask(max_order);
    if (flat_)
        dense_.assign(size_t{1} << max_order, HistoryCounts{});
}

void
MultiOrderCounter::consume(const std::vector<int> &bits)
{
    AUTOFSM_FAILPOINT("profile.count");
    const auto start = std::chrono::steady_clock::now();
    const size_t n = bits.size();
    const size_t warm = std::min(static_cast<size_t>(maxOrder_), n);
    uint32_t h = 0;
    for (size_t i = 0; i < warm; ++i) {
        const auto bit = static_cast<uint32_t>(bits[i]);
        assert(bit <= 1);
        if (i > 0) {
            warmup_.push_back({h, static_cast<uint8_t>(i),
                               static_cast<uint8_t>(bit)});
        }
        h = ((h << 1) | bit) & mask_;
    }
    if (flat_) {
        HistoryCounts *counts = dense_.data();
        for (size_t i = warm; i < n; ++i) {
            const auto bit = static_cast<uint32_t>(bits[i]);
            assert(bit <= 1);
            HistoryCounts &entry = counts[h];
            entry.total += 1;
            entry.ones += bit;
            h = ((h << 1) | bit) & mask_;
        }
    } else {
        for (size_t i = warm; i < n; ++i) {
            const auto bit = static_cast<uint32_t>(bits[i]);
            HistoryCounts &entry = sparse_[h];
            entry.total += 1;
            entry.ones += bit;
            h = ((h << 1) | bit) & mask_;
        }
    }
    observations_ += n - warm;
    creditCountMillis(millisSince(start));
}

void
MultiOrderCounter::consumeWords(const uint64_t *words, size_t bits)
{
    AUTOFSM_FAILPOINT("profile.count");
    const auto start = std::chrono::steady_clock::now();
    const size_t warm = std::min(static_cast<size_t>(maxOrder_), bits);
    uint32_t h = 0;
    for (size_t i = 0; i < warm; ++i) {
        const auto bit =
            static_cast<uint32_t>((words[i >> 6] >> (i & 63)) & 1ULL);
        if (i > 0) {
            warmup_.push_back({h, static_cast<uint8_t>(i),
                               static_cast<uint8_t>(bit)});
        }
        h = ((h << 1) | bit) & mask_;
    }
    // Hot loop: one word load per 64 outcomes, then shift out bits.
    size_t i = warm;
    if (flat_) {
        HistoryCounts *counts = dense_.data();
        while (i < bits) {
            uint64_t word = words[i >> 6] >> (i & 63);
            const size_t take = std::min<size_t>(64 - (i & 63), bits - i);
            for (size_t k = 0; k < take; ++k, word >>= 1) {
                const auto bit = static_cast<uint32_t>(word & 1ULL);
                HistoryCounts &entry = counts[h];
                entry.total += 1;
                entry.ones += bit;
                h = ((h << 1) | bit) & mask_;
            }
            i += take;
        }
    } else {
        while (i < bits) {
            uint64_t word = words[i >> 6] >> (i & 63);
            const size_t take = std::min<size_t>(64 - (i & 63), bits - i);
            for (size_t k = 0; k < take; ++k, word >>= 1) {
                const auto bit = static_cast<uint32_t>(word & 1ULL);
                HistoryCounts &entry = sparse_[h];
                entry.total += 1;
                entry.ones += bit;
                h = ((h << 1) | bit) & mask_;
            }
            i += take;
        }
    }
    observations_ += bits - warm;
    creditCountMillis(millisSince(start));
}

MultiOrderProfile
MultiOrderCounter::finish(const std::vector<int> &orders)
{
    AUTOFSM_FAILPOINT("profile.fold");
    MultiOrderProfile profile;
    profile.orders_ = orders;
    std::sort(profile.orders_.begin(), profile.orders_.end(),
              std::greater<int>());
    profile.orders_.erase(
        std::unique(profile.orders_.begin(), profile.orders_.end()),
        profile.orders_.end());
    if (profile.orders_.empty())
        throw std::invalid_argument("MultiOrderCounter: no orders");
    if (profile.orders_.front() > maxOrder_ || profile.orders_.back() < 1) {
        throw std::invalid_argument(
            "MultiOrderCounter: order outside [1, " +
            std::to_string(maxOrder_) + "]");
    }
    profile.models_.reserve(profile.orders_.size());

    // Fold down the order ladder: the table of order o-1 is the table of
    // order o with the oldest history bit (bit o-1) marginalized out.
    // Valid for every max-order observation; warm-up edges are replayed
    // below.
    const auto fold_start = std::chrono::steady_clock::now();
    const int lowest = profile.orders_.back();
    size_t next = 0;
    if (flat_) {
        std::vector<HistoryCounts> cur = std::move(dense_);
        for (int o = maxOrder_; o >= lowest; --o) {
            if (next < profile.orders_.size() &&
                profile.orders_[next] == o) {
                MarkovModel model(o);
                const size_t space = size_t{1} << o;
                for (size_t h = 0; h < space; ++h) {
                    if (cur[h].total > 0) {
                        model.addCounts(static_cast<uint32_t>(h),
                                        cur[h].ones, cur[h].total);
                    }
                }
                profile.models_.push_back(std::move(model));
                ++next;
            }
            if (o > lowest) {
                const size_t half = size_t{1} << (o - 1);
                for (size_t h = 0; h < half; ++h) {
                    cur[h].ones += cur[h + half].ones;
                    cur[h].total += cur[h + half].total;
                }
                cur.resize(half);
            }
        }
    } else {
        std::unordered_map<uint32_t, HistoryCounts> cur =
            std::move(sparse_);
        for (int o = maxOrder_; o >= lowest; --o) {
            if (next < profile.orders_.size() &&
                profile.orders_[next] == o) {
                MarkovModel model(o);
                for (const auto &[history, counts] : cur)
                    model.addCounts(history, counts.ones, counts.total);
                profile.models_.push_back(std::move(model));
                ++next;
            }
            if (o > lowest) {
                std::unordered_map<uint32_t, HistoryCounts> folded;
                folded.reserve(cur.size());
                const uint32_t low = lowMask(o - 1);
                for (const auto &[history, counts] : cur) {
                    HistoryCounts &entry = folded[history & low];
                    entry.ones += counts.ones;
                    entry.total += counts.total;
                }
                cur = std::move(folded);
            }
        }
    }
    profile.stats_.foldMillis = millisSince(fold_start);

    // Replay the warm-up edges: an outcome with `seen` real predecessors
    // is observed by exactly the orders <= seen (direct training warms
    // each window independently). orders_ is descending, so walk it from
    // the back (smallest first) and stop at the first order too wide.
    const auto replay_start = std::chrono::steady_clock::now();
    uint64_t replayed = 0;
    for (const WarmupEntry &entry : warmup_) {
        for (size_t i = profile.orders_.size(); i-- > 0;) {
            const int o = profile.orders_[i];
            if (o > entry.seen)
                break;
            profile.models_[i].observe(entry.history & lowMask(o),
                                       entry.outcome);
            ++replayed;
        }
    }
    profile.stats_.replayMillis = millisSince(replay_start);

    profile.stats_.countMillis = countMillis_;
    profile.stats_.flat = flat_;
    profile.stats_.observations = observations_;
    profile.stats_.warmupObservations = warmup_.size();

    obs::MetricsRegistry &registry = obs::globalMetrics();
    if (registry.enabled()) {
        ProfileTelemetry &telemetry = profileTelemetry();
        telemetry.runs.inc();
        telemetry.observations.inc(observations_);
        telemetry.warmupObservations.inc(replayed);
        if (countTimed_)
            telemetry.countMillis.observe(countMillis_);
        telemetry.foldMillis.observe(profile.stats_.foldMillis);
        telemetry.replayMillis.observe(profile.stats_.replayMillis);
    }
    publishMarkovTableGauges(profile.models_.front());
    return profile;
}

MultiOrderProfile
profileBits(const std::vector<int> &bits, const std::vector<int> &orders)
{
    assert(!orders.empty());
    MultiOrderCounter counter(*std::max_element(orders.begin(),
                                                orders.end()));
    counter.consume(bits);
    return counter.finish(orders);
}

MultiOrderProfile
profileWords(const uint64_t *words, size_t bits,
             const std::vector<int> &orders)
{
    assert(!orders.empty());
    MultiOrderCounter counter(*std::max_element(orders.begin(),
                                                orders.end()));
    counter.consumeWords(words, bits);
    return counter.finish(orders);
}

MarkovModel
trainMarkovModel(const std::vector<int> &trace, int order)
{
    MultiOrderCounter counter(order);
    counter.consume(trace);
    return counter.finish({order}).takeModel(order);
}

MarkovModel
trainMarkovModelWords(const uint64_t *words, size_t bits, int order)
{
    MultiOrderCounter counter(order);
    counter.consumeWords(words, bits);
    return counter.finish({order}).takeModel(order);
}

} // namespace autofsm
