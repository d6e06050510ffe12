/**
 * @file
 * Throughput bench of the bit-sliced replay engine (sim/bitsliced.hh)
 * against the transposed per-machine replay it replaced, over trained
 * Figure 5 machines on a real workload trace. Bit-identity between the
 * two paths — and across shard counts and the scalar/SIMD kernels — is
 * enforced: any divergence exits non-zero, so the speedup number can
 * only come from a correct replay.
 *
 * The headline (CI-gated) number is the batch evaluation shape: every
 * machine predicts at every record. The old path's chunk/nibble tables
 * can only *advance* across records, not count misses inside a chunk,
 * so predicting everywhere degenerates it to bit-at-a-time stepping —
 * the exact algorithmic gap the mask-plane composition tables close.
 * The per-branch sparse replay (each machine counting only at its own
 * branch's positions, where the old chunk path skips 8 records per
 * lookup) is also timed and reported as `sparseSpeedup`, ungated.
 *
 * Writes [json_out] (default BENCH_replay.json) for the CI gate:
 * `identical` plus the evaluation-replay `speedup` (old path / engine).
 *
 * Usage: bench_replay_bitsliced [branches] [machines] [json_out]
 *        (--threads=N, --shards=N, --repeat=N apply; threads default 1
 *         so the headline number is a single-core comparison)
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "automata/dfa.hh"
#include "bpred/trainer.hh"
#include "sim/bitsliced.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"
#include "workloads/trace_cache.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

/**
 * Verbatim replica of the per-machine transposed replay this engine
 * replaced (sim/sweep.cc before the bit-sliced rewrite), kept here as
 * the timed baseline so the comparison cannot drift as the library
 * evolves — the same idiom bench_sim_sweep uses for the seed path.
 */
struct FlatFsm
{
    explicit FlatFsm(const Dfa &dfa)
        : states(dfa.numStates()), start(dfa.start())
    {
        out.resize(static_cast<size_t>(states));
        for (int s = 0; s < states; ++s)
            out[static_cast<size_t>(s)] =
                static_cast<uint8_t>(dfa.output(s) ? 1 : 0);

        if (states <= 256) {
            next8.resize(static_cast<size_t>(states) * 2);
            for (int s = 0; s < states; ++s) {
                next8[static_cast<size_t>(s) * 2 + 0] =
                    static_cast<uint8_t>(dfa.next(s, 0));
                next8[static_cast<size_t>(s) * 2 + 1] =
                    static_cast<uint8_t>(dfa.next(s, 1));
            }
        } else {
            nextWide.resize(static_cast<size_t>(states) * 2);
            for (int s = 0; s < states; ++s) {
                nextWide[static_cast<size_t>(s) * 2 + 0] = dfa.next(s, 0);
                nextWide[static_cast<size_t>(s) * 2 + 1] = dfa.next(s, 1);
            }
        }

        if (states <= 64) {
            chunk.resize(256 * static_cast<size_t>(states));
            for (unsigned c = 0; c < 256; ++c) {
                for (int s = 0; s < states; ++s) {
                    uint32_t state = static_cast<uint32_t>(s);
                    for (int bit = 0; bit < 8; ++bit)
                        state = next8[state * 2 + ((c >> bit) & 1)];
                    chunk[c * static_cast<size_t>(states) +
                          static_cast<size_t>(s)] =
                        static_cast<uint8_t>(state);
                }
            }
        }

        if (states <= 256) {
            nibble.resize(16 * static_cast<size_t>(states));
            for (unsigned c = 0; c < 16; ++c) {
                for (int s = 0; s < states; ++s) {
                    uint32_t state = static_cast<uint32_t>(s);
                    for (int bit = 0; bit < 4; ++bit)
                        state = next8[state * 2 + ((c >> bit) & 1)];
                    nibble[c * static_cast<size_t>(states) +
                           static_cast<size_t>(s)] =
                        static_cast<uint8_t>(state);
                }
            }
        }
    }

    int states;
    int start;
    std::vector<uint8_t> out;
    std::vector<uint8_t> next8;
    std::vector<int> nextWide;
    std::vector<uint8_t> chunk;
    std::vector<uint8_t> nibble;
};

template <typename NextTable>
uint64_t
replayStream(const FlatFsm &fsm, const NextTable &next,
             const uint64_t *words, size_t n,
             const std::vector<uint32_t> &positions)
{
    uint64_t misses = 0;
    uint32_t state = static_cast<uint32_t>(fsm.start);
    const bool chunked = !fsm.chunk.empty();
    const bool nibbled = !fsm.nibble.empty();
    const size_t states = static_cast<size_t>(fsm.states);
    size_t p = 0;
    const size_t npos = positions.size();
    size_t i = 0;
    while (i < n) {
        const size_t next_match = p < npos ? positions[p] : n;
        if (chunked && (i & 7) == 0 && i + 8 <= n && next_match >= i + 8) {
            const uint8_t c = static_cast<uint8_t>(
                (words[i >> 6] >> (i & 63)) & 0xff);
            state = fsm.chunk[static_cast<size_t>(c) * states + state];
            i += 8;
            continue;
        }
        if (nibbled && (i & 3) == 0 && i + 4 <= n && next_match >= i + 4) {
            const uint8_t c = static_cast<uint8_t>(
                (words[i >> 6] >> (i & 63)) & 0xf);
            state = fsm.nibble[static_cast<size_t>(c) * states + state];
            i += 4;
            continue;
        }
        const uint8_t bit = static_cast<uint8_t>(
            (words[i >> 6] >> (i & 63)) & 1ULL);
        if (i == next_match) {
            misses += static_cast<uint64_t>(fsm.out[state] != bit);
            ++p;
        }
        state = static_cast<uint32_t>(next[state * 2 + bit]);
        ++i;
    }
    return misses;
}

uint64_t
replayOne(const FlatFsm &fsm, const uint64_t *words, size_t n,
          const std::vector<uint32_t> &positions)
{
    if (!fsm.next8.empty())
        return replayStream(fsm, fsm.next8, words, n, positions);
    return replayStream(fsm, fsm.nextWide, words, n, positions);
}

/** Dense baseline: the straightforward predict-every-record loop. */
uint64_t
replayDenseNaive(const FlatFsm &fsm, const uint64_t *words, size_t n)
{
    uint64_t misses = 0;
    uint32_t state = static_cast<uint32_t>(fsm.start);
    for (size_t i = 0; i < n; ++i) {
        const uint8_t bit = static_cast<uint8_t>(
            (words[i >> 6] >> (i & 63)) & 1ULL);
        misses += static_cast<uint64_t>(fsm.out[state] != bit);
        state = fsm.next8[state * 2 + bit];
    }
    return misses;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(
        argc, argv, "[branches] [machines] [json_out]");
    const size_t branches =
        static_cast<size_t>(args.positionalOr(0, 400000));
    const size_t machine_count =
        static_cast<size_t>(args.positionalOr(1, 64));
    const std::string json_out = args.positionalOr(2, "BENCH_replay.json");
    const unsigned threads = args.threadsSet ? args.threads : 1;

    std::cout << "bit-sliced replay bench: " << branches << " branches, "
              << machine_count << " machines, threads " << threads
              << ", repeat " << args.repeat << "\n"
              << "SIMD kernel: "
              << (bitslicedSimdCompiled() ? "compiled" : "compiled out")
              << ", "
              << (bitslicedSimdAvailable() ? "cpu-supported"
                                           : "not cpu-supported")
              << "\n\n";

    // Trained Figure 5 machines on a real trace give the replay its
    // production shape (small minimized FSMs, clustered positions);
    // padding by duplication scales the lane count without inventing
    // synthetic automata.
    const auto trace = cachedBranchTrace("gs", WorkloadInput::Train,
                                         branches);
    CustomTrainingOptions training;
    training.maxCustomBranches =
        static_cast<int>(std::min<size_t>(machine_count, 64));
    training.threads = threads;
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(*trace, training);
    if (trained.empty()) {
        std::cerr << "FATAL: no machines trained\n";
        return 1;
    }

    const PackedTrace &packed = *trace;
    const uint64_t *words = packed.takenWords().data();
    const size_t n = packed.size();

    // Pad to the requested lane count by cyclic duplication, but give
    // each duplicate a disjoint slice of its branch's position list —
    // the shape of a trace whose 64 hot branches were all trained:
    // position lists partition the records instead of overlapping.
    std::vector<const Dfa *> fsms(machine_count);
    std::vector<std::vector<uint32_t>> positions(machine_count);
    const size_t dup =
        (machine_count + trained.size() - 1) / trained.size();
    for (size_t m = 0; m < machine_count; ++m) {
        const TrainedBranch &branch = trained[m % trained.size()];
        fsms[m] = &branch.design.fsm;
        const std::vector<uint32_t> &all = branch.trainPositions;
        const size_t slice = m / trained.size();
        for (size_t i = slice; i < all.size(); i += dup)
            positions[m].push_back(all[i]);
    }

    std::vector<FlatFsm> flat;
    flat.reserve(machine_count);
    for (size_t m = 0; m < machine_count; ++m)
        flat.emplace_back(*fsms[m]);

    BitslicedOptions options;
    options.threads = threads;
    options.shards = args.shards;

    // =====================================================================
    // Headline: evaluation replay — every machine predicts at every
    // record (the batch evaluation stage's shape). The old path has one
    // way to do that: a full position list, which disables its chunk
    // and nibble tables (they cannot count misses mid-chunk) and steps
    // bit by bit.
    // =====================================================================
    std::vector<uint32_t> all_positions(n);
    for (size_t i = 0; i < n; ++i)
        all_positions[i] = static_cast<uint32_t>(i);

    std::vector<uint64_t> base_misses(machine_count);
    const double baseline_ms = bench::medianRunMillis(args, [&] {
        parallelFor(
            machine_count,
            [&](size_t m) {
                base_misses[m] =
                    replayOne(flat[m], words, n, all_positions);
            },
            threads);
    });

    // The hand-written predict-every-record loop, for context: it
    // shows how much of the gap is the old path's position bookkeeping
    // versus the dependent-chain latency the engine actually removes.
    std::vector<uint64_t> naive_misses(machine_count);
    const double naive_ms = bench::medianRunMillis(args, [&] {
        parallelFor(
            machine_count,
            [&](size_t m) {
                naive_misses[m] = replayDenseNaive(flat[m], words, n);
            },
            threads);
    });
    bool identical = naive_misses == base_misses;

    std::vector<BitslicedMachine> machines(machine_count);
    for (size_t m = 0; m < machine_count; ++m)
        machines[m] = BitslicedMachine{fsms[m], nullptr};
    BitslicedReplayStats stats;
    std::vector<uint64_t> sliced_misses;
    const double sliced_ms = bench::medianRunMillis(args, [&] {
        sliced_misses =
            replayMachinesBitsliced(machines, words, n, options, &stats);
    });
    identical = identical && sliced_misses == base_misses;

    // --- Shard sweep: every count must reproduce the same tallies.
    struct ShardPoint
    {
        size_t shards;
        double ms;
    };
    std::vector<ShardPoint> shard_sweep;
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        BitslicedOptions sharded = options;
        sharded.shards = shards;
        std::vector<uint64_t> misses;
        const double ms = bench::medianRunMillis(args, [&] {
            misses = replayMachinesBitsliced(machines, words, n, sharded);
        });
        shard_sweep.push_back({shards, ms});
        if (misses != base_misses) {
            std::cerr << "FATAL: shard count " << shards
                      << " diverged from the per-machine replay\n";
            identical = false;
        }
    }

    // --- Scalar kernel must agree when SIMD ran (and vice versa).
    double scalar_ms = 0.0;
    {
        BitslicedOptions scalar = options;
        scalar.allowSimd = false;
        std::vector<uint64_t> misses;
        scalar_ms = bench::medianRunMillis(args, [&] {
            misses = replayMachinesBitsliced(machines, words, n, scalar);
        });
        if (misses != base_misses) {
            std::cerr << "FATAL: scalar lane kernel diverged\n";
            identical = false;
        }
    }

    const double machines_per_s_base =
        baseline_ms > 0.0 ? machine_count * 1000.0 / baseline_ms : 0.0;
    const double machines_per_s_sliced =
        sliced_ms > 0.0 ? machine_count * 1000.0 / sliced_ms : 0.0;
    const double speedup =
        sliced_ms > 0.0 ? baseline_ms / sliced_ms : 0.0;

    std::cout << std::fixed << std::setprecision(2)
              << "evaluation replay (" << machine_count << " machines x "
              << n << " records, predict everywhere):\n"
              << "  per-machine baseline " << baseline_ms << " ms ("
              << std::setprecision(0) << machines_per_s_base
              << " machines/s; naive loop " << std::setprecision(2)
              << naive_ms << " ms)\n"
              << "  bit-sliced           " << sliced_ms << " ms ("
              << std::setprecision(0) << machines_per_s_sliced
              << " machines/s), " << stats.groups << " groups, "
              << stats.shards << " shards, simd="
              << (stats.simd ? "yes" : "no") << ", fallbacks="
              << stats.serialFallbacks << "\n"
              << std::setprecision(2) << "  speedup " << speedup
              << "x (scalar kernel " << scalar_ms
              << " ms)\n\nshard sweep (threads " << threads << "):\n";
    for (const ShardPoint &point : shard_sweep) {
        std::cout << "  shards " << point.shards << ": "
                  << std::setprecision(2) << point.ms << " ms\n";
    }

    // =====================================================================
    // Sparse replay — each machine counts only at its own branch's
    // positions, replayCustomMachines' shape. Here the old path is at
    // its best (chunk lookups skip 8 records between positions), so
    // the margin is structural, not a gate.
    // =====================================================================
    std::vector<uint64_t> sparse_base(machine_count);
    const double sparse_base_ms = bench::medianRunMillis(args, [&] {
        parallelFor(
            machine_count,
            [&](size_t m) {
                sparse_base[m] =
                    replayOne(flat[m], words, n, positions[m]);
            },
            threads);
    });
    std::vector<BitslicedMachine> sparse_machines(machine_count);
    for (size_t m = 0; m < machine_count; ++m)
        sparse_machines[m] = BitslicedMachine{fsms[m], &positions[m]};
    std::vector<uint64_t> sparse_sliced;
    const double sparse_ms = bench::medianRunMillis(args, [&] {
        sparse_sliced =
            replayMachinesBitsliced(sparse_machines, words, n, options);
    });
    if (sparse_sliced != sparse_base) {
        std::cerr << "FATAL: sparse replay diverged from the "
                     "per-machine baseline\n";
        identical = false;
    }
    for (const size_t shards : {size_t{3}, size_t{7}}) {
        BitslicedOptions sharded = options;
        sharded.shards = shards;
        if (replayMachinesBitsliced(sparse_machines, words, n, sharded) !=
            sparse_base) {
            std::cerr << "FATAL: sparse replay diverged at shard count "
                      << shards << "\n";
            identical = false;
        }
    }
    const double sparse_speedup =
        sparse_ms > 0.0 ? sparse_base_ms / sparse_ms : 0.0;
    std::cout << "\nsparse replay (per-branch positions):\n"
              << "  baseline " << std::setprecision(2) << sparse_base_ms
              << " ms, bit-sliced " << sparse_ms << " ms => "
              << sparse_speedup << "x\n";

    std::ofstream report(json_out);
    if (!report) {
        std::cerr << "FATAL: cannot write " << json_out << "\n";
        return 1;
    }
    JsonWriter json(report);
    json.beginObject();
    json.key("bench").value("replay-bitsliced");
    json.key("branches").value(static_cast<uint64_t>(n));
    json.key("machines").value(static_cast<uint64_t>(machine_count));
    json.key("threads").value(threads);
    json.key("repeat").value(static_cast<uint64_t>(args.repeat));
    json.key("baselineMs").value(baseline_ms);
    json.key("naiveMs").value(naive_ms);
    json.key("bitslicedMs").value(sliced_ms);
    json.key("scalarMs").value(scalar_ms);
    json.key("speedup").value(speedup);
    json.key("machinesPerSecBaseline").value(machines_per_s_base);
    json.key("machinesPerSecBitsliced").value(machines_per_s_sliced);
    json.key("shardSweep");
    json.beginArray();
    for (const ShardPoint &point : shard_sweep) {
        json.beginObject();
        json.key("shards").value(static_cast<uint64_t>(point.shards));
        json.key("ms").value(point.ms);
        json.endObject();
    }
    json.endArray();
    json.key("sparseBaselineMs").value(sparse_base_ms);
    json.key("sparseBitslicedMs").value(sparse_ms);
    json.key("sparseSpeedup").value(sparse_speedup);
    json.key("groups").value(static_cast<uint64_t>(stats.groups));
    json.key("shards").value(static_cast<uint64_t>(stats.shards));
    json.key("simd").value(stats.simd);
    json.key("simdCompiled").value(bitslicedSimdCompiled());
    json.key("serialFallbacks")
        .value(static_cast<uint64_t>(stats.serialFallbacks));
    json.key("identical").value(identical);
    json.endObject();
    report << "\n";
    std::cout << "\nreport -> " << json_out << "\n";

    bench::exportMetricsIfRequested(args);
    if (!identical) {
        std::cerr << "FATAL: bit-sliced replay diverged from the "
                     "per-machine baseline\n";
        return 1;
    }
    return 0;
}
