#include "sim/nested_sweep.hh"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>

#include "sim/sweep.hh"
#include "support/thread_pool.hh"

#if !defined(AUTOFSM_NO_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define AUTOFSM_NESTED_AVX2 1
#include <immintrin.h>
#endif

namespace autofsm
{

namespace
{

/** Residue classes are derived from at most this many low index bits,
 *  so the residue lookup table stays a small always-resident array. */
constexpr int kMaxClassBits = 16;

/** Payload words carry the shared index in bits 0-30 and the branch
 *  outcome in bit 31, so class tasks never re-touch the trace. */
constexpr uint32_t kPayloadIndexMask = 0x7fffffffu;
constexpr int kMaxNestedLog2 = 30;

uint64_t
lowMask64(int n)
{
    return n >= 64 ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
}

/** History bits that actually reach the index (the index mask drops
 *  the rest), matching Gshare's index. */
int
effectiveHistoryBits(const GshareConfig &config)
{
    return std::min(config.historyBits, config.log2Entries);
}

bool
isPowerOfTwo(int value)
{
    return value > 0 && (value & (value - 1)) == 0;
}

/**
 * One residue class of the gshare counter stage, scalar: every config's
 * counter is the shared index masked into its own byte plane, stepped
 * through detail::kCounterStep exactly like Gshare::step.
 */
void
runGshareClassScalar(const uint32_t *payloads, size_t count,
                     const uint32_t *masks, const uint32_t *offsets,
                     size_t config_count, uint8_t *planes,
                     uint64_t *tallies)
{
    for (size_t p = 0; p < count; ++p) {
        const uint32_t payload = payloads[p];
        const uint32_t f = payload & kPayloadIndexMask;
        const size_t taken = payload >> 31;
        for (size_t j = 0; j < config_count; ++j) {
            uint8_t &counter = planes[offsets[j] + (f & masks[j])];
            const uint8_t stepped =
                detail::kCounterStep[(taken << 2) | counter];
            counter = stepped & 3;
            tallies[j] += ((stepped >> 4) & 1) ^ taken;
        }
    }
}

#if AUTOFSM_NESTED_AVX2

/**
 * AVX2 form of runGshareClassScalar: up to eight configs' counters per
 * branch come back in one vpgatherdd over the concatenated byte planes
 * (scale 1; lanes read 4 bytes, only the low byte is the counter), the
 * predict/bump pair is computed branch-free in epi32 lanes, and the
 * write-back is one byte store per live lane. Lane accumulators are
 * 32-bit, which the engine guarantees cannot overflow (it refuses
 * traces of 2^31 records or more). Bit-identical to the scalar loop.
 */
__attribute__((target("avx2"))) void
runGshareClassAvx2(const uint32_t *payloads, size_t count,
                   const uint32_t *masks, const uint32_t *offsets,
                   size_t config_count, uint8_t *planes, uint64_t *tallies)
{
    for (size_t group = 0; group < config_count; group += 8) {
        const size_t lanes = std::min<size_t>(8, config_count - group);
        alignas(32) uint32_t mask_arr[8] = {};
        alignas(32) uint32_t off_arr[8] = {};
        alignas(32) int32_t live_arr[8] = {};
        for (size_t l = 0; l < lanes; ++l) {
            mask_arr[l] = masks[group + l];
            off_arr[l] = offsets[group + l];
            live_arr[l] = -1;
        }
        const __m256i vmask =
            _mm256_load_si256(reinterpret_cast<const __m256i *>(mask_arr));
        const __m256i voff =
            _mm256_load_si256(reinterpret_cast<const __m256i *>(off_arr));
        const __m256i vlive =
            _mm256_load_si256(reinterpret_cast<const __m256i *>(live_arr));
        const __m256i vzero = _mm256_setzero_si256();
        const __m256i vone = _mm256_set1_epi32(1);
        const __m256i vthree = _mm256_set1_epi32(3);
        __m256i vacc = vzero;
        alignas(32) uint32_t idx_arr[8];
        alignas(32) uint32_t cnt_arr[8];
        for (size_t p = 0; p < count; ++p) {
            const uint32_t payload = payloads[p];
            const auto taken = static_cast<int>(payload >> 31);
            const __m256i vf = _mm256_set1_epi32(
                static_cast<int>(payload & kPayloadIndexMask));
            const __m256i vidx =
                _mm256_add_epi32(_mm256_and_si256(vf, vmask), voff);
            const __m256i raw = _mm256_i32gather_epi32(
                reinterpret_cast<const int *>(planes), vidx, 1);
            const __m256i cnt = _mm256_and_si256(raw, vthree);
            const __m256i pred =
                _mm256_and_si256(_mm256_srli_epi32(cnt, 1), vone);
            const __m256i vtaken = _mm256_set1_epi32(taken);
            vacc = _mm256_add_epi32(
                vacc,
                _mm256_and_si256(_mm256_xor_si256(pred, vtaken), vlive));
            // inc lane = -1 iff taken && cnt < 3; dec lane = -1 iff
            // !taken && cnt > 0; next = cnt - inc + dec saturates both
            // directions without a branch.
            const __m256i inc = _mm256_and_si256(
                _mm256_cmpgt_epi32(vthree, cnt),
                _mm256_sub_epi32(vzero, vtaken));
            const __m256i dec = _mm256_and_si256(
                _mm256_cmpgt_epi32(cnt, vzero),
                _mm256_sub_epi32(vtaken, vone));
            const __m256i next =
                _mm256_add_epi32(_mm256_sub_epi32(cnt, inc), dec);
            _mm256_store_si256(reinterpret_cast<__m256i *>(idx_arr), vidx);
            _mm256_store_si256(reinterpret_cast<__m256i *>(cnt_arr), next);
            for (size_t l = 0; l < lanes; ++l)
                planes[idx_arr[l]] = static_cast<uint8_t>(cnt_arr[l]);
        }
        alignas(32) uint32_t acc_arr[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(acc_arr), vacc);
        for (size_t l = 0; l < lanes; ++l)
            tallies[group + l] += acc_arr[l];
    }
}

#endif // AUTOFSM_NESTED_AVX2

} // anonymous namespace

bool
nestedSweepSimdCompiled()
{
#if AUTOFSM_NESTED_AVX2
    return true;
#else
    return false;
#endif
}

bool
nestedSweepSimdAvailable()
{
#if AUTOFSM_NESTED_AVX2
    static const bool available = __builtin_cpu_supports("avx2") != 0;
    return available;
#else
    return false;
#endif
}

bool
gshareConfigsNest(const std::vector<GshareConfig> &configs)
{
    int hb_star = 0;
    for (const GshareConfig &config : configs)
        hb_star = std::max(hb_star, effectiveHistoryBits(config));
    for (const GshareConfig &config : configs) {
        if (effectiveHistoryBits(config) !=
            std::min(hb_star, config.log2Entries))
            return false;
    }
    return true;
}

NestedSweepResult
nestedSweep(const NestedSweepRequest &request, const PackedTrace &trace,
            const AreaCosts &costs, const NestedSweepOptions &options)
{
    NestedSweepResult out;
    const size_t n = trace.size();
    const uint64_t *pcs = trace.pcs().data();
    const uint64_t *words = trace.takenWords().data();

    const size_t gshare_k = request.gshare.size();
    const size_t lgc_k = request.lgc.size();
    const size_t btb_k = request.btb.size();
    out.stats.pointsPerPass = gshare_k + lgc_k + btb_k;

    // Names, areas and geometry validation come from transient
    // predictor instances, so labels cannot drift from the per-config
    // path and LocalGlobalChooser's length_error for unsupported
    // geometries is inherited before any work starts.
    out.gshare.resize(gshare_k);
    for (size_t j = 0; j < gshare_k; ++j) {
        const Gshare predictor(request.gshare[j], costs);
        out.gshare[j].name = predictor.name();
        out.gshare[j].area = predictor.area();
        out.gshare[j].result.branches = n;
    }
    out.lgc.resize(lgc_k);
    for (size_t j = 0; j < lgc_k; ++j) {
        const LocalGlobalChooser predictor(request.lgc[j], costs);
        out.lgc[j].name = predictor.name();
        out.lgc[j].area = predictor.area();
        out.lgc[j].result.branches = n;
    }
    out.btb.resize(btb_k);
    for (size_t j = 0; j < btb_k; ++j) {
        const XScaleBtb predictor(request.btb[j], costs);
        out.btb[j].name = predictor.name();
        out.btb[j].area = predictor.area();
        out.btb[j].result.branches = n;
    }

    SweepPointTimer timer(SweepEngine::Nested);

    const unsigned thread_count = options.threads
        ? options.threads
        : ThreadPool::defaultThreadCount();
    const auto runParallel = [&](size_t count, const auto &fn) {
        parallelFor(count, fn, thread_count);
    };

    // Position lists and SIMD lane accumulators are 32-bit; refuse the
    // transposed paths (falling back to the batch kernels) rather than
    // overflow on absurdly long traces.
    const bool trace_fits =
        n < static_cast<size_t>(std::numeric_limits<int32_t>::max());

    // --- Gshare nesting feasibility -------------------------------
    bool gshare_nested =
        gshare_k > 0 && trace_fits && gshareConfigsNest(request.gshare);
    int hb_star = 0;
    int max_log2 = 0;
    int min_log2 = kMaxNestedLog2;
    size_t plane_bytes = 0;
    if (gshare_nested) {
        for (const GshareConfig &config : request.gshare) {
            hb_star = std::max(hb_star, effectiveHistoryBits(config));
            max_log2 = std::max(max_log2, config.log2Entries);
            min_log2 = std::min(min_log2, config.log2Entries);
            if (config.log2Entries < 0 ||
                config.log2Entries > kMaxNestedLog2) {
                gshare_nested = false;
                break;
            }
            plane_bytes += size_t{1} << config.log2Entries;
        }
        if (plane_bytes > (size_t{1} << 31))
            gshare_nested = false;
    }
    out.stats.gshareNested = gshare_k == 0 || gshare_nested;

    if (gshare_k > 0 && !gshare_nested) {
        // Non-nesting size sweep: the PR 3 batch path is already the
        // right shape for it (one pass, per-config indices).
        std::vector<Gshare> predictors;
        predictors.reserve(gshare_k);
        for (const GshareConfig &config : request.gshare)
            predictors.emplace_back(config, costs);
        const std::vector<BpredSimResult> results =
            sweepKernelBatch(predictors, trace);
        for (size_t j = 0; j < gshare_k; ++j)
            out.gshare[j].result = results[j];
    }

    const bool do_gshare = gshare_nested && gshare_k > 0 && n > 0;

    // --- Residue-class geometry -----------------------------------
    // class(index) = (index & classMask) % shards. Every config's cell
    // index agrees on the low classBits bits (the masks nest), so each
    // cell belongs to exactly one class and per-class tallies sum to
    // the serial kernel's exactly, for ANY shard count.
    const size_t auto_shards =
        thread_count <= 1 ? 1 : size_t{thread_count} * 2;
    const size_t requested_shards =
        options.shards ? options.shards : auto_shards;

    size_t gshare_shards = 1;
    int g_class_bits = 0;
    if (do_gshare) {
        g_class_bits = std::min(min_log2, kMaxClassBits);
        gshare_shards = std::min<size_t>(requested_shards,
                                         size_t{1} << g_class_bits);
        gshare_shards = std::max<size_t>(gshare_shards, 1);
    }

    bool btb_shardable = btb_k > 0 && trace_fits;
    int btb_min_entries = 0;
    if (btb_shardable) {
        btb_min_entries = request.btb[0].entries;
        for (const BtbConfig &config : request.btb) {
            if (!isPowerOfTwo(config.entries))
                btb_shardable = false;
            btb_min_entries = std::min(btb_min_entries, config.entries);
        }
    }
    size_t btb_shards = 1;
    size_t b_class_size = 1;
    if (btb_shardable && n > 0) {
        b_class_size = std::min<size_t>(
            static_cast<size_t>(btb_min_entries),
            size_t{1} << kMaxClassBits);
        btb_shards = std::max<size_t>(
            std::min(requested_shards, b_class_size), 1);
    }
    const bool partition_btb = btb_k > 0 && n > 0 && btb_shards > 1;

    // --- Stage A: shared-index stream + residue counts -------------
    // One word-aligned chunked pass builds the payload stream (shared
    // index + outcome) and counts class members per chunk. The gshare
    // history register at a chunk start is exactly the previous hb*
    // outcomes, read straight out of the packed outcome words.
    const size_t word_count = (n + 63) / 64;
    size_t chunk_count = 1;
    if ((do_gshare || partition_btb) && thread_count > 1)
        chunk_count = std::max<size_t>(
            std::min(word_count, size_t{thread_count} * 4), 1);
    out.stats.historyShards = do_gshare ? chunk_count : 0;
    out.stats.gshareShards = do_gshare ? gshare_shards : 0;
    out.stats.btbShards = (btb_k > 0 && n > 0) ? btb_shards : 0;

    const uint64_t hist_mask = lowMask64(hb_star);
    const uint64_t index_keep = lowMask64(max_log2);
    const uint32_t g_class_mask = static_cast<uint32_t>(
        (size_t{1} << g_class_bits) - 1);
    const uint64_t b_class_mask = static_cast<uint64_t>(b_class_size - 1);

    std::vector<uint32_t> payload(do_gshare ? n : 0);
    std::vector<uint16_t> g_lut;
    if (do_gshare && gshare_shards > 1) {
        g_lut.resize(size_t{1} << g_class_bits);
        for (size_t r = 0; r < g_lut.size(); ++r)
            g_lut[r] = static_cast<uint16_t>(r % gshare_shards);
    }
    std::vector<uint16_t> b_lut;
    if (partition_btb) {
        b_lut.resize(b_class_size);
        for (size_t r = 0; r < b_class_size; ++r)
            b_lut[r] = static_cast<uint16_t>(r % btb_shards);
    }

    const bool count_gshare = do_gshare && gshare_shards > 1;
    std::vector<uint32_t> g_counts(
        count_gshare ? chunk_count * gshare_shards : 0, 0);
    std::vector<uint32_t> b_counts(
        partition_btb ? chunk_count * btb_shards : 0, 0);

    const auto chunkBounds = [&](size_t t, size_t &begin, size_t &end) {
        begin = (word_count * t / chunk_count) * 64;
        end = std::min(n, (word_count * (t + 1) / chunk_count) * 64);
    };

    if (do_gshare || partition_btb) {
        runParallel(chunk_count, [&](size_t t) {
            size_t begin = 0;
            size_t end = 0;
            chunkBounds(t, begin, end);
            if (do_gshare) {
                uint64_t h = 0;
                const size_t depth =
                    std::min(static_cast<size_t>(hb_star), begin);
                for (size_t b = 0; b < depth; ++b) {
                    const size_t i = begin - 1 - b;
                    h |= ((words[i >> 6] >> (i & 63)) & 1ULL) << b;
                }
                uint32_t *counts_row =
                    count_gshare ? g_counts.data() + t * gshare_shards
                                 : nullptr;
                for (size_t i = begin; i < end; ++i) {
                    const uint64_t taken =
                        (words[i >> 6] >> (i & 63)) & 1ULL;
                    const uint64_t f = (pcs[i] >> 2) ^ (h & hist_mask);
                    payload[i] =
                        static_cast<uint32_t>(f & index_keep) |
                        (static_cast<uint32_t>(taken) << 31);
                    h = (h << 1) | taken;
                    if (counts_row)
                        ++counts_row[g_lut[static_cast<uint32_t>(f) &
                                           g_class_mask]];
                }
            }
            if (partition_btb) {
                uint32_t *counts_row = b_counts.data() + t * btb_shards;
                for (size_t i = begin; i < end; ++i)
                    ++counts_row[b_lut[(pcs[i] >> 2) & b_class_mask]];
            }
        });
    }

    // --- Stage B+C: class-major position/payload lists -------------
    // A chunked counting sort: exclusive prefixes give each (class,
    // chunk) its slice, so the scatter is write-disjoint and the class
    // streams come out in trace order.
    std::vector<uint32_t> g_class_base(gshare_shards + 1, 0);
    std::vector<uint32_t> g_start;
    std::vector<uint32_t> g_order;
    if (count_gshare) {
        g_start.resize(chunk_count * gshare_shards);
        uint32_t running = 0;
        for (size_t c = 0; c < gshare_shards; ++c) {
            g_class_base[c] = running;
            for (size_t t = 0; t < chunk_count; ++t) {
                g_start[t * gshare_shards + c] = running;
                running += g_counts[t * gshare_shards + c];
            }
        }
        g_class_base[gshare_shards] = running;
        g_order.resize(n);
    }
    std::vector<uint32_t> b_class_base(btb_shards + 1, 0);
    std::vector<uint32_t> b_start;
    std::vector<uint32_t> b_order;
    if (partition_btb) {
        b_start.resize(chunk_count * btb_shards);
        uint32_t running = 0;
        for (size_t c = 0; c < btb_shards; ++c) {
            b_class_base[c] = running;
            for (size_t t = 0; t < chunk_count; ++t) {
                b_start[t * btb_shards + c] = running;
                running += b_counts[t * btb_shards + c];
            }
        }
        b_class_base[btb_shards] = running;
        b_order.resize(n);
    }

    if (count_gshare || partition_btb) {
        runParallel(chunk_count, [&](size_t t) {
            size_t begin = 0;
            size_t end = 0;
            chunkBounds(t, begin, end);
            if (count_gshare) {
                std::vector<uint32_t> cursor(
                    g_start.begin() +
                        static_cast<ptrdiff_t>(t * gshare_shards),
                    g_start.begin() +
                        static_cast<ptrdiff_t>((t + 1) * gshare_shards));
                for (size_t i = begin; i < end; ++i) {
                    const uint32_t p = payload[i];
                    g_order[cursor[g_lut[p & g_class_mask]]++] = p;
                }
            }
            if (partition_btb) {
                std::vector<uint32_t> cursor(
                    b_start.begin() +
                        static_cast<ptrdiff_t>(t * btb_shards),
                    b_start.begin() +
                        static_cast<ptrdiff_t>((t + 1) * btb_shards));
                for (size_t i = begin; i < end; ++i)
                    b_order[cursor[b_lut[(pcs[i] >> 2) &
                                         b_class_mask]]++] =
                        static_cast<uint32_t>(i);
            }
        });
    }

    // --- Stage D: the task pool -----------------------------------
    // LGC solo chains first (the longest tasks), then gshare residue
    // classes, then BTB classes; dynamic index claiming balances the
    // tails.
    std::vector<uint32_t> g_masks(gshare_k);
    std::vector<uint32_t> g_offsets(gshare_k);
    if (do_gshare) {
        uint32_t offset = 0;
        for (size_t j = 0; j < gshare_k; ++j) {
            g_masks[j] = static_cast<uint32_t>(
                (uint64_t{1} << request.gshare[j].log2Entries) - 1);
            g_offsets[j] = offset;
            offset += uint32_t{1} << request.gshare[j].log2Entries;
        }
    }

#if AUTOFSM_NESTED_AVX2
    const bool use_simd =
        do_gshare && options.allowSimd && nestedSweepSimdAvailable();
#else
    const bool use_simd = false;
#endif
    out.stats.simd = use_simd;

    std::vector<uint64_t> lgc_mis(lgc_k, 0);
    std::vector<uint64_t> g_tally(gshare_shards * gshare_k, 0);
    std::vector<uint64_t> b_mis(btb_shards * btb_k, 0);
    std::vector<uint64_t> b_lookups(btb_shards * btb_k, 0);
    std::vector<uint64_t> b_hits(btb_shards * btb_k, 0);

    std::vector<std::function<void()>> tasks;
    for (size_t j = 0; j < lgc_k; ++j) {
        if (n == 0)
            break;
        tasks.push_back([&, j] {
            LocalGlobalChooser lgc(request.lgc[j], costs);
            uint64_t mispredicts = 0;
            for (size_t i = 0; i < n; ++i) {
                const bool taken = (words[i >> 6] >> (i & 63)) & 1ULL;
                mispredicts += static_cast<uint64_t>(lgc.step(pcs[i], taken));
            }
            lgc_mis[j] = mispredicts;
        });
    }
    if (do_gshare) {
        for (size_t c = 0; c < gshare_shards; ++c) {
            tasks.push_back([&, c] {
                // Each class task steps a private copy of the planes:
                // it only ever touches its own class's cells, so the
                // untouched rest costs a little init and buys freedom
                // from any cross-task memory traffic.
                std::vector<uint8_t> planes(plane_bytes + 8, 1);
                const uint32_t *stream =
                    count_gshare ? g_order.data() + g_class_base[c]
                                 : payload.data();
                const size_t count =
                    count_gshare ? g_class_base[c + 1] - g_class_base[c]
                                 : n;
                uint64_t *tally = g_tally.data() + c * gshare_k;
#if AUTOFSM_NESTED_AVX2
                if (use_simd) {
                    runGshareClassAvx2(stream, count, g_masks.data(),
                                       g_offsets.data(), gshare_k,
                                       planes.data(), tally);
                    return;
                }
#endif
                runGshareClassScalar(stream, count, g_masks.data(),
                                     g_offsets.data(), gshare_k,
                                     planes.data(), tally);
            });
        }
    }
    if (btb_k > 0 && n > 0) {
        for (size_t c = 0; c < btb_shards; ++c) {
            tasks.push_back([&, c] {
                for (size_t j = 0; j < btb_k; ++j) {
                    XScaleBtb btb(request.btb[j], costs);
                    uint64_t mispredicts = 0;
                    if (partition_btb) {
                        const uint32_t *order =
                            b_order.data() + b_class_base[c];
                        const size_t count =
                            b_class_base[c + 1] - b_class_base[c];
                        for (size_t p = 0; p < count; ++p) {
                            const size_t i = order[p];
                            const bool taken =
                                (words[i >> 6] >> (i & 63)) & 1ULL;
                            mispredicts += static_cast<uint64_t>(
                                btb.step(pcs[i], taken));
                        }
                    } else {
                        mispredicts = sweepKernelRaw(btb, trace).mispredicts;
                    }
                    b_mis[c * btb_k + j] = mispredicts;
                    b_lookups[c * btb_k + j] = btb.lookups();
                    b_hits[c * btb_k + j] = btb.hits();
                }
            });
        }
    }
    runParallel(tasks.size(), [&](size_t i) { tasks[i](); });

    // --- Assembly + telemetry parity ------------------------------
    if (do_gshare || (gshare_nested && gshare_k > 0)) {
        for (size_t j = 0; j < gshare_k; ++j) {
            uint64_t mispredicts = 0;
            for (size_t c = 0; c < gshare_shards; ++c)
                mispredicts += g_tally[c * gshare_k + j];
            out.gshare[j].result.mispredicts = mispredicts;
            publishBpredRun(out.gshare[j].name, out.gshare[j].result);
        }
    }
    for (size_t j = 0; j < lgc_k; ++j) {
        out.lgc[j].result.mispredicts = lgc_mis[j];
        publishBpredRun(out.lgc[j].name, out.lgc[j].result);
    }
    for (size_t j = 0; j < btb_k; ++j) {
        uint64_t mispredicts = 0;
        uint64_t lookups = 0;
        uint64_t hits = 0;
        for (size_t c = 0; c < btb_shards; ++c) {
            mispredicts += b_mis[c * btb_k + j];
            lookups += b_lookups[c * btb_k + j];
            hits += b_hits[c * btb_k + j];
        }
        out.btb[j].result.mispredicts = mispredicts;
        out.btb[j].lookups = lookups;
        out.btb[j].hits = hits;
        publishBpredRun(out.btb[j].name, out.btb[j].result);
        publishBtbMetrics(out.btb[j].name, lookups, hits);
    }
    observeSweepPointsPerPass(out.stats.pointsPerPass);

    return out;
}

} // namespace autofsm
