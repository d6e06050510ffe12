#include "sim/bitsliced.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "support/thread_pool.hh"

#if !defined(AUTOFSM_NO_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define AUTOFSM_BITSLICED_AVX2 1
#include <immintrin.h>
#endif

namespace autofsm
{

namespace
{

/** Largest machine a lane can hold (state ids fit a byte). */
constexpr int kMaxLaneStates = 256;
/** Lanes per group: one per bit of the outcome machine word. */
constexpr size_t kLanesPerGroup = 64;
/** Don't shard below this many words per shard (warm-up amortization). */
constexpr size_t kMinWordsPerShard = 512;
/** Warm-up window escalation ladder, in words before the boundary. */
constexpr std::array<size_t, 4> kWarmupWindowWords = {4, 16, 64, 256};

/**
 * One machine compiled for lane replay. `nib[(m * 16 + c) * states + s]`
 * packs the state reached from s after the 4 outcomes of nibble c
 * (LSB-first) in bits 0-7 and, in bits 8-15, the number of
 * mispredictions along that walk counted only at the bits set in the
 * 4-bit sample mask m. The m = 0 planes are the sweep engine's plain
 * nibble composition table (pure advance); m = 0xf is predict-every-bit
 * (dense counting); intermediate masks let sparse position lists ride
 * the same word-at-a-time lookup instead of falling back to bit
 * stepping — one plane shape serves every replay mode.
 */
struct LaneTables
{
    int states = 0;
    int start = 0;
    uint32_t log2Stride = 0;    ///< Plane stride = 1 << log2Stride.
    std::vector<uint8_t> out;   ///< Moore output per state.
    std::vector<uint8_t> next8; ///< next[2*s + bit].
    std::vector<uint16_t> nib;  ///< next | (missInc << 8), 256 planes.
};

LaneTables
buildLaneTables(const Dfa &dfa)
{
    LaneTables t;
    t.states = dfa.numStates();
    t.start = dfa.start();
    const auto states = static_cast<size_t>(t.states);
    t.out.resize(states);
    t.next8.resize(states * 2);
    for (int s = 0; s < t.states; ++s) {
        t.out[static_cast<size_t>(s)] =
            static_cast<uint8_t>(dfa.output(s) ? 1 : 0);
        t.next8[static_cast<size_t>(s) * 2 + 0] =
            static_cast<uint8_t>(dfa.next(s, 0));
        t.next8[static_cast<size_t>(s) * 2 + 1] =
            static_cast<uint8_t>(dfa.next(s, 1));
    }
    // Planes are padded to a power-of-two stride so the kernels index
    // them with a shift instead of a per-lane multiply; the pad entries
    // are never addressed (state ids stay below `states`).
    t.log2Stride = 0;
    while ((size_t{1} << t.log2Stride) < states)
        ++t.log2Stride;
    const size_t stride = size_t{1} << t.log2Stride;
    t.nib.assign(256 * stride, 0);
    for (unsigned mc = 0; mc < 256; ++mc) {
        const unsigned m = mc >> 4; // sample mask nibble
        const unsigned c = mc & 15; // outcome nibble
        for (int s = 0; s < t.states; ++s) {
            uint32_t state = static_cast<uint32_t>(s);
            uint32_t miss = 0;
            for (int bit = 0; bit < 4; ++bit) {
                const uint32_t b = (c >> bit) & 1;
                if (((m >> bit) & 1) != 0)
                    miss += static_cast<uint32_t>(t.out[state] != b);
                state = t.next8[state * 2 + b];
            }
            t.nib[mc * stride + static_cast<size_t>(s)] =
                static_cast<uint16_t>(state | (miss << 8));
        }
    }
    return t;
}

/** The padding machine: one state, output 0, never counted. */
const LaneTables &
dummyLane()
{
    static const LaneTables dummy = buildLaneTables(Dfa::constant(0));
    return dummy;
}

/**
 * One lane group compiled for replay: up to 64 machines side by side,
 * padded to a multiple of 8 lanes with the dummy machine so the AVX2
 * kernel needs no tail masking. The nibble planes of every lane live in
 * one buffer (`nib`), addressed as `nib[off[j] + c * stride[j] + s]` —
 * the flat form the gather path indexes directly.
 */
struct GroupRun
{
    int laneCount = 0; ///< Real lanes.
    int kPad = 0;      ///< Padded lane count (multiple of 8).
    std::vector<LaneTables> tables;
    std::vector<uint16_t> nib; ///< Concatenated planes (+2 pad entries).
    std::vector<uint32_t> off;
    std::vector<uint32_t> stride;      ///< Plane stride, 1 << log2Stride.
    std::vector<uint32_t> log2Stride;  ///< Kernels shift instead of *.
    std::vector<uint32_t> laneStates;  ///< Real state count per lane.
    /** Per-word sample-mask seed: ~0 for dense lanes, 0 otherwise. */
    std::vector<uint64_t> baseMask;
    /** baseMask as a MaskBlock word-row pair (low half row then high
     *  half row) — the memcpy template for buildBlockMasks. */
    alignas(32) uint32_t baseRow[2 * kLanesPerGroup] = {};
    std::vector<const uint16_t *> nibPtr;
    std::vector<const uint8_t *> next8Ptr;
    std::vector<const uint8_t *> outPtr;
    std::vector<const uint32_t *> posPtr; ///< nullptr = dense or dummy.
    std::vector<uint32_t> posCount;
    std::vector<int> startState;
    std::vector<size_t> machineIndex; ///< Real lanes only.
};

/** Words per mask block: kernels run this many words per call with
 *  lane states held in registers, and sample masks are scattered into
 *  a block-sized buffer in one pass over the position lists. */
constexpr size_t kMaskBlockWords = 64;

/** Mutable per-(group, shard) replay state. */
struct GroupState
{
    alignas(32) uint32_t state[kLanesPerGroup];
    uint32_t cursor[kLanesPerGroup];
    uint64_t miss[kLanesPerGroup];
};

/**
 * Per-block sample masks: two rows of 32-bit halves per word (low half
 * then high half, adjacent) so the position scatter picks the half by
 * address arithmetic — `bit >> 5` — instead of an unpredictable branch.
 */
struct MaskBlock
{
    alignas(32) uint32_t m[kMaskBlockWords * 2 * kLanesPerGroup];
};

std::unique_ptr<GroupRun>
buildGroup(const std::vector<BitslicedMachine> &machines,
           const std::vector<size_t> &laneMachines, size_t from, size_t to)
{
    auto group = std::make_unique<GroupRun>();
    GroupRun &run = *group;
    run.laneCount = static_cast<int>(to - from);
    run.kPad = static_cast<int>((static_cast<size_t>(run.laneCount) + 7) &
                                ~size_t{7});

    run.tables.reserve(static_cast<size_t>(run.laneCount));
    for (size_t lane = from; lane < to; ++lane)
        run.tables.push_back(
            buildLaneTables(*machines[laneMachines[lane]].fsm));

    const auto kPad = static_cast<size_t>(run.kPad);
    run.off.resize(kPad);
    run.stride.resize(kPad);
    run.log2Stride.resize(kPad);
    run.laneStates.resize(kPad);
    run.baseMask.resize(kPad, 0);
    run.nibPtr.resize(kPad);
    run.next8Ptr.resize(kPad);
    run.outPtr.resize(kPad);
    run.posPtr.resize(kPad, nullptr);
    run.posCount.resize(kPad, 0);
    run.startState.resize(kPad, 0);
    run.machineIndex.resize(static_cast<size_t>(run.laneCount));

    size_t total = 0;
    for (size_t j = 0; j < kPad; ++j) {
        const LaneTables &t =
            j < run.tables.size() ? run.tables[j] : dummyLane();
        run.off[j] = static_cast<uint32_t>(total);
        run.stride[j] = uint32_t{1} << t.log2Stride;
        run.log2Stride[j] = t.log2Stride;
        run.laneStates[j] = static_cast<uint32_t>(t.states);
        total += t.nib.size();
    }
    // Two pad entries so a 4-byte gather at the last element stays in
    // bounds.
    run.nib.assign(total + 2, 0);
    for (size_t j = 0; j < kPad; ++j) {
        const LaneTables &t =
            j < run.tables.size() ? run.tables[j] : dummyLane();
        std::copy(t.nib.begin(), t.nib.end(), run.nib.begin() + run.off[j]);
        run.nibPtr[j] = run.nib.data() + run.off[j];
        run.next8Ptr[j] = t.next8.data();
        run.outPtr[j] = t.out.data();
        run.startState[j] = t.start;
        if (j < static_cast<size_t>(run.laneCount)) {
            const size_t mi = laneMachines[from + j];
            run.machineIndex[j] = mi;
            const std::vector<uint32_t> *positions = machines[mi].positions;
            if (positions == nullptr) {
                run.baseMask[j] = ~uint64_t{0};
                run.baseRow[j] = ~uint32_t{0};
                run.baseRow[kLanesPerGroup + j] = ~uint32_t{0};
            } else {
                run.posPtr[j] = positions->data();
                run.posCount[j] = static_cast<uint32_t>(positions->size());
            }
        }
    }
    return group;
}

/**
 * Bit-step lane @p j over records [b0, b1): predict at its positions
 * (or every record when dense), step on every outcome. The exact-edge
 * path: dirty words, trace tails and warm-up edges all land here.
 */
void
stepLaneBits(const GroupRun &run, GroupState &st, int j,
             const uint64_t *words, size_t b0, size_t b1)
{
    const auto lane = static_cast<size_t>(j);
    uint32_t s = st.state[lane];
    const uint8_t *next8 = run.next8Ptr[lane];
    const uint8_t *out = run.outPtr[lane];
    const uint32_t *pos = run.posPtr[lane];
    uint32_t cur = st.cursor[lane];
    const uint32_t posEnd = run.posCount[lane];
    const bool dense = pos == nullptr && run.baseMask[lane] != 0;
    uint64_t miss = st.miss[lane];
    for (size_t i = b0; i < b1; ++i) {
        const auto bit =
            static_cast<uint32_t>((words[i >> 6] >> (i & 63)) & 1ULL);
        if (dense) {
            miss += static_cast<uint64_t>(out[s] != bit);
        } else if (pos != nullptr && cur < posEnd && pos[cur] == i) {
            miss += static_cast<uint64_t>(out[s] != bit);
            ++cur;
        }
        s = next8[s * 2 + bit];
    }
    st.state[lane] = s;
    st.cursor[lane] = cur;
    st.miss[lane] = miss;
}

/**
 * Assemble the sample-mask rows for words [w0, w0 + wCount): every row
 * starts as the baseMask template (all-ones halves for dense lanes,
 * zero for sparse and padding lanes), then one pass over each sparse
 * lane's position list scatters its bits — no per-word cursor
 * branching, the scatter touches exactly one entry per position.
 */
void
buildBlockMasks(const GroupRun &run, GroupState &st, MaskBlock &block,
                size_t w0, size_t wCount)
{
    for (size_t r = 0; r < wCount; ++r)
        std::memcpy(block.m + r * 2 * kLanesPerGroup, run.baseRow,
                    sizeof(run.baseRow));
    const size_t wLimit = w0 + wCount;
    for (int j = 0; j < run.laneCount; ++j) {
        const auto lane = static_cast<size_t>(j);
        const uint32_t *pos = run.posPtr[lane];
        if (pos == nullptr)
            continue;
        uint32_t cur = st.cursor[lane];
        const uint32_t posEnd = run.posCount[lane];
        while (cur < posEnd && (pos[cur] >> 6) < wLimit) {
            const size_t row = (pos[cur] >> 6) - w0;
            const uint32_t bit = pos[cur] & 63;
            block.m[(row * 2 + (bit >> 5)) * kLanesPerGroup + lane] |=
                uint32_t{1} << (bit & 31);
            ++cur;
        }
        st.cursor[lane] = cur;
    }
}

/**
 * Scalar block kernel: word-major so the per-lane lookup chains are
 * independent within each word and the out-of-order core overlaps them
 * — this cross-lane parallelism is the engine's speedup. Each nibble
 * step indexes the (maskNibble, outcomeNibble) plane, so sparse
 * prediction positions cost the same lookup as a plain advance.
 */
void
processBlockScalar(const GroupRun &run, GroupState &st,
                   const uint64_t *words, size_t wCount,
                   const MaskBlock &block)
{
    const int kPad = run.kPad;
    for (size_t w = 0; w < wCount; ++w) {
        const uint64_t x = words[w];
        const uint32_t *lo = block.m + w * 2 * kLanesPerGroup;
        const uint32_t *hi = lo + kLanesPerGroup;
        for (int j = 0; j < kPad; ++j) {
            const auto lane = static_cast<size_t>(j);
            const uint16_t *t = run.nibPtr[lane];
            const uint32_t shift = run.log2Stride[lane];
            uint32_t s = st.state[lane];
            uint64_t m = lo[lane] | (uint64_t{hi[lane]} << 32);
            uint64_t xx = x;
            uint32_t acc = 0;
            for (int r = 0; r < 16; ++r) {
                const size_t plane = ((m & 15) << 4) | (xx & 15);
                const uint16_t e = t[(plane << shift) + s];
                s = e & 0xff;
                acc += e >> 8;
                xx >>= 4;
                m >>= 4;
            }
            st.state[lane] = s;
            st.miss[lane] += acc;
        }
    }
}

#ifdef AUTOFSM_BITSLICED_AVX2

/**
 * AVX2 block kernel: lane states, plane offsets and miss accumulators
 * live in ymm registers across the whole block; each nibble advances 8
 * lanes per VPGATHERDD from the shared plane buffer (uint16 entries,
 * scale-2 gather; the next state is the low byte of the loaded dword,
 * the miss increment the next). Sample masks stream in from the block
 * rows, low word half first, shifting a nibble per step in step with
 * the outcomes. The 32-bit accumulators can't overflow within a block
 * (at most 64 * kMaskBlockWords misses) and spill once per call.
 */
__attribute__((target("avx2"))) void
processBlockAvx2(const GroupRun &run, GroupState &st,
                 const uint64_t *words, size_t wCount,
                 const MaskBlock &block)
{
    const int nv = run.kPad / 8;
    const int *base = reinterpret_cast<const int *>(run.nib.data());
    const __m256i low8 = _mm256_set1_epi32(0xff);
    const __m256i low4 = _mm256_set1_epi32(0xf);
    __m256i state[8];
    __m256i acc[8];
    __m256i off[8];
    __m256i shift[8];
    for (int v = 0; v < nv; ++v) {
        state[v] = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(st.state + 8 * v));
        acc[v] = _mm256_setzero_si256();
        off[v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(run.off.data() + 8 * v));
        shift[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
            run.log2Stride.data() + 8 * v));
    }
    for (size_t w = 0; w < wCount; ++w) {
        uint64_t x = words[w];
        for (int half = 0; half < 2; ++half) {
            const uint32_t *mrow =
                block.m +
                (w * 2 + static_cast<size_t>(half)) * kLanesPerGroup;
            __m256i mask[8];
            for (int v = 0; v < nv; ++v)
                mask[v] = _mm256_load_si256(
                    reinterpret_cast<const __m256i *>(mrow + 8 * v));
            for (int r = 0; r < 8; ++r) {
                const __m256i c =
                    _mm256_set1_epi32(static_cast<int>(x & 15));
                x >>= 4;
                for (int v = 0; v < nv; ++v) {
                    const __m256i plane = _mm256_or_si256(
                        _mm256_slli_epi32(_mm256_and_si256(mask[v], low4),
                                          4),
                        c);
                    const __m256i idx = _mm256_add_epi32(
                        _mm256_add_epi32(
                            off[v], _mm256_sllv_epi32(plane, shift[v])),
                        state[v]);
                    const __m256i g = _mm256_i32gather_epi32(base, idx, 2);
                    state[v] = _mm256_and_si256(g, low8);
                    acc[v] = _mm256_add_epi32(
                        acc[v],
                        _mm256_and_si256(_mm256_srli_epi32(g, 8), low8));
                    mask[v] = _mm256_srli_epi32(mask[v], 4);
                }
            }
        }
    }
    for (int v = 0; v < nv; ++v) {
        _mm256_store_si256(reinterpret_cast<__m256i *>(st.state + 8 * v),
                           state[v]);
        alignas(32) uint32_t tmp[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), acc[v]);
        for (int t = 0; t < 8; ++t)
            st.miss[static_cast<size_t>(8 * v + t)] += tmp[t];
    }
}

#endif // AUTOFSM_BITSLICED_AVX2

/**
 * Advance a group over bit range [bitBegin, bitEnd) — bitBegin word-
 * aligned, bitEnd arbitrary (the trace tail). Every full word takes a
 * word-parallel kernel under its per-lane sample masks; only the
 * partial final word of the whole trace is bit-stepped.
 */
void
advanceGroupShard(const GroupRun &run, GroupState &st,
                  const uint64_t *words, size_t bitBegin, size_t bitEnd,
                  [[maybe_unused]] bool simd)
{
    const size_t wEnd = bitEnd >> 6;
    auto block = std::make_unique<MaskBlock>();
    for (size_t w = bitBegin >> 6; w < wEnd; w += kMaskBlockWords) {
        const size_t wCount = std::min(kMaskBlockWords, wEnd - w);
        buildBlockMasks(run, st, *block, w, wCount);
#ifdef AUTOFSM_BITSLICED_AVX2
        if (simd) {
            processBlockAvx2(run, st, words + w, wCount, *block);
            continue;
        }
#endif
        processBlockScalar(run, st, words + w, wCount, *block);
    }
    if ((wEnd << 6) < bitEnd) {
        for (int j = 0; j < run.laneCount; ++j)
            stepLaneBits(run, st, j, words, wEnd << 6, bitEnd);
    }
}

/** Replay one known state over [b0, b1) without counting (warm-up). */
uint32_t
advanceSingleState(const GroupRun &run, size_t lane, uint32_t s,
                   const uint64_t *words, size_t b0, size_t b1)
{
    const uint8_t *next8 = run.next8Ptr[lane];
    const uint16_t *t = run.nibPtr[lane];
    const uint32_t stride = run.stride[lane];
    while (b0 < b1 && (b0 & 63) != 0) {
        const auto bit =
            static_cast<uint32_t>((words[b0 >> 6] >> (b0 & 63)) & 1ULL);
        s = next8[s * 2 + bit];
        ++b0;
    }
    while (b0 + 64 <= b1) {
        uint64_t x = words[b0 >> 6];
        for (int r = 0; r < 16; ++r) {
            s = t[static_cast<size_t>(x & 15) * stride + s] & 0xff;
            x >>= 4;
        }
        b0 += 64;
    }
    while (b0 < b1) {
        const auto bit =
            static_cast<uint32_t>((words[b0 >> 6] >> (b0 & 63)) & 1ULL);
        s = next8[s * 2 + bit];
        ++b0;
    }
    return s;
}

/**
 * The exact machine state of lane @p lane at word-aligned @p boundaryBit,
 * or -1 when no warm-up window synchronizes.
 *
 * Correctness: replay *every* state over a window ending at the
 * boundary. The true state at the window's start is some member of that
 * set, so if all members converge to one state, that state is the true
 * boundary state. Non-synchronizing machines (permutation automata like
 * a parity counter) can defeat every window; the caller falls back to
 * one unsharded replay for those.
 */
int
exactBoundaryState(const GroupRun &run, size_t lane, const uint64_t *words,
                   size_t boundaryBit)
{
    if (boundaryBit == 0)
        return run.startState[lane];
    const uint32_t states = run.laneStates[lane];
    const uint32_t stride = run.stride[lane];
    const uint16_t *t = run.nibPtr[lane];
    for (const size_t window : kWarmupWindowWords) {
        const size_t windowBits = window * 64;
        if (windowBits >= boundaryBit) {
            // The window reaches the trace start: replay exactly from
            // the known start state instead.
            return static_cast<int>(advanceSingleState(
                run, lane,
                static_cast<uint32_t>(run.startState[lane]), words, 0,
                boundaryBit));
        }
        std::vector<uint8_t> sv(states);
        for (uint32_t i = 0; i < states; ++i)
            sv[i] = static_cast<uint8_t>(i);
        const size_t wEnd = boundaryBit >> 6;
        for (size_t w = (boundaryBit - windowBits) >> 6; w < wEnd; ++w) {
            uint64_t x = words[w];
            for (int r = 0; r < 16; ++r) {
                const size_t c = static_cast<size_t>(x & 15) * stride;
                for (uint32_t i = 0; i < states; ++i)
                    sv[i] = static_cast<uint8_t>(t[c + sv[i]] & 0xff);
                x >>= 4;
            }
            bool converged = true;
            for (uint32_t i = 1; i < states; ++i) {
                if (sv[i] != sv[0]) {
                    converged = false;
                    break;
                }
            }
            if (converged) {
                return static_cast<int>(advanceSingleState(
                    run, lane, sv[0], words, (w + 1) << 6, boundaryBit));
            }
        }
    }
    return -1;
}

/**
 * Reference serial replay straight off the Dfa — the fallback for
 * machines too big for a lane and for non-synchronizing machines, and
 * the semantics every sliced path must match bit for bit.
 */
uint64_t
replayReference(const Dfa &dfa, const uint64_t *words, size_t records,
                const std::vector<uint32_t> *positions)
{
    const int states = dfa.numStates();
    std::vector<int32_t> next(static_cast<size_t>(states) * 2);
    std::vector<uint8_t> out(static_cast<size_t>(states));
    for (int s = 0; s < states; ++s) {
        next[static_cast<size_t>(s) * 2 + 0] = dfa.next(s, 0);
        next[static_cast<size_t>(s) * 2 + 1] = dfa.next(s, 1);
        out[static_cast<size_t>(s)] =
            static_cast<uint8_t>(dfa.output(s) ? 1 : 0);
    }
    auto s = static_cast<uint32_t>(dfa.start());
    uint64_t miss = 0;
    if (positions == nullptr) {
        for (size_t i = 0; i < records; ++i) {
            const auto bit = static_cast<uint32_t>(
                (words[i >> 6] >> (i & 63)) & 1ULL);
            miss += static_cast<uint64_t>(out[s] != bit);
            s = static_cast<uint32_t>(next[s * 2 + bit]);
        }
        return miss;
    }
    size_t cur = 0;
    const size_t posEnd = positions->size();
    for (size_t i = 0; i < records; ++i) {
        const auto bit =
            static_cast<uint32_t>((words[i >> 6] >> (i & 63)) & 1ULL);
        if (cur < posEnd && (*positions)[cur] == i) {
            miss += static_cast<uint64_t>(out[s] != bit);
            ++cur;
        }
        s = static_cast<uint32_t>(next[s * 2 + bit]);
    }
    return miss;
}

} // anonymous namespace

bool
bitslicedSimdCompiled()
{
#ifdef AUTOFSM_BITSLICED_AVX2
    return true;
#else
    return false;
#endif
}

bool
bitslicedSimdAvailable()
{
#ifdef AUTOFSM_BITSLICED_AVX2
    static const bool available = __builtin_cpu_supports("avx2") != 0;
    return available;
#else
    return false;
#endif
}

std::vector<uint64_t>
packOutcomeWords(const std::vector<int> &outcomes)
{
    std::vector<uint64_t> words((outcomes.size() + 63) / 64, 0);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i] != 0)
            words[i >> 6] |= 1ULL << (i & 63);
    }
    return words;
}

std::vector<uint64_t>
replayMachinesBitsliced(const std::vector<BitslicedMachine> &machines,
                        const uint64_t *words, size_t records,
                        const BitslicedOptions &options,
                        BitslicedReplayStats *stats)
{
    const size_t k = machines.size();
    std::vector<uint64_t> result(k, 0);
    if (stats != nullptr)
        *stats = BitslicedReplayStats{};
    for (const BitslicedMachine &machine : machines) {
        if (machine.fsm == nullptr)
            throw std::invalid_argument(
                "replayMachinesBitsliced: null machine");
        const int states = machine.fsm->numStates();
        if (states < 1 || machine.fsm->start() < 0 ||
            machine.fsm->start() >= states)
            throw std::invalid_argument(
                "replayMachinesBitsliced: malformed machine");
    }
    if (k == 0)
        return result;

    std::vector<size_t> laneMachines;
    std::vector<size_t> wideMachines;
    laneMachines.reserve(k);
    for (size_t i = 0; i < k; ++i) {
        if (machines[i].fsm->numStates() <= kMaxLaneStates)
            laneMachines.push_back(i);
        else
            wideMachines.push_back(i);
    }

    const size_t fullWords = records >> 6;
    const unsigned resolvedThreads = options.threads != 0
        ? options.threads
        : ThreadPool::defaultThreadCount();
    size_t shardCount = options.shards;
    if (shardCount == 0) {
        shardCount = resolvedThreads <= 1
                         ? 1
                         : std::min<size_t>(
                               resolvedThreads,
                               std::max<size_t>(
                                   1, fullWords / kMinWordsPerShard));
    }
    shardCount = std::max<size_t>(
        1, std::min(shardCount, std::max<size_t>(fullWords, 1)));

    // Word-aligned shard boundaries; the last shard absorbs the tail
    // bits of a partial final word.
    std::vector<size_t> shardWord(shardCount + 1, 0);
    for (size_t s = 0; s <= shardCount; ++s)
        shardWord[s] = fullWords * s / shardCount;

    const size_t groupCount =
        (laneMachines.size() + kLanesPerGroup - 1) / kLanesPerGroup;
    std::vector<std::unique_ptr<GroupRun>> groups;
    groups.reserve(groupCount);
    for (size_t g = 0; g < groupCount; ++g) {
        const size_t from = g * kLanesPerGroup;
        const size_t to =
            std::min(laneMachines.size(), from + kLanesPerGroup);
        groups.push_back(buildGroup(machines, laneMachines, from, to));
    }

    const bool useSimd = options.allowSimd && bitslicedSimdAvailable();
    std::vector<std::atomic<uint8_t>> fallback(k);
    std::vector<uint64_t> tallies(groupCount * shardCount *
                                      kLanesPerGroup,
                                  0);

    const auto runTask = [&](size_t task) {
        const size_t g = task / shardCount;
        const size_t shard = task % shardCount;
        const GroupRun &run = *groups[g];
        const size_t bitBegin = shardWord[shard] << 6;
        const size_t bitEnd =
            shard + 1 == shardCount ? records : shardWord[shard + 1] << 6;
        if (bitBegin >= bitEnd)
            return;
        GroupState st;
        for (int j = 0; j < run.kPad; ++j) {
            const auto lane = static_cast<size_t>(j);
            st.miss[lane] = 0;
            st.cursor[lane] = 0;
            if (j >= run.laneCount) {
                st.state[lane] = 0;
                continue;
            }
            int s0 = run.startState[lane];
            if (bitBegin != 0) {
                s0 = exactBoundaryState(run, lane, words, bitBegin);
                if (s0 < 0) {
                    // Non-synchronizing machine: its sharded tallies
                    // are meaningless; flag it for one serial replay.
                    fallback[run.machineIndex[lane]].store(
                        1, std::memory_order_relaxed);
                    s0 = run.startState[lane];
                }
            }
            st.state[lane] = static_cast<uint32_t>(s0);
            const uint32_t *pos = run.posPtr[lane];
            if (pos != nullptr) {
                st.cursor[lane] = static_cast<uint32_t>(
                    std::lower_bound(pos, pos + run.posCount[lane],
                                     static_cast<uint32_t>(bitBegin)) -
                    pos);
            }
        }
        advanceGroupShard(run, st, words, bitBegin, bitEnd, useSimd);
        uint64_t *out =
            tallies.data() + (g * shardCount + shard) * kLanesPerGroup;
        for (int j = 0; j < run.laneCount; ++j)
            out[j] = st.miss[static_cast<size_t>(j)];
    };

    const size_t taskCount = groupCount * shardCount;
    parallelFor(taskCount, runTask, resolvedThreads);

    // Deterministic merge: each machine's shard tallies partition its
    // predictions exactly, so plain summation reproduces the serial
    // count for any shard split.
    std::vector<size_t> serialMachines = wideMachines;
    for (size_t g = 0; g < groupCount; ++g) {
        const GroupRun &run = *groups[g];
        for (int j = 0; j < run.laneCount; ++j) {
            const size_t mi = run.machineIndex[static_cast<size_t>(j)];
            if (fallback[mi].load(std::memory_order_relaxed) != 0) {
                serialMachines.push_back(mi);
                continue;
            }
            uint64_t sum = 0;
            for (size_t shard = 0; shard < shardCount; ++shard)
                sum += tallies[(g * shardCount + shard) * kLanesPerGroup +
                               static_cast<size_t>(j)];
            result[mi] = sum;
        }
    }

    const auto runSerial = [&](size_t i) {
        const size_t mi = serialMachines[i];
        result[mi] = replayReference(*machines[mi].fsm, words, records,
                                     machines[mi].positions);
    };
    parallelFor(serialMachines.size(), runSerial, resolvedThreads);

    if (stats != nullptr) {
        stats->groups = groupCount;
        stats->shards = shardCount;
        stats->simd = useSimd && groupCount > 0;
        stats->serialFallbacks = serialMachines.size();
    }
    return result;
}

std::vector<uint64_t>
replayMachinesBitsliced(const std::vector<BitslicedMachine> &machines,
                        const PackedTrace &trace,
                        const BitslicedOptions &options,
                        BitslicedReplayStats *stats)
{
    return replayMachinesBitsliced(machines, trace.takenWords().data(),
                                   trace.size(), options, stats);
}

} // namespace autofsm
