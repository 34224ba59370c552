/**
 * @file
 * google-benchmark microbenchmarks for the hot kernels: distance
 * computation, top-k selection, codec scans, and K-means assignment.
 * These are the per-vector costs the at-scale cost model abstracts into
 * scan_gbps_per_core.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <string>

#include "cluster/kmeans.hpp"
#include "quant/codec.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/matrix.hpp"
#include "vecstore/simd_dispatch.hpp"
#include "vecstore/topk.hpp"

namespace {

using namespace hermes;

vecstore::Matrix
randomMatrix(std::size_t rows, std::size_t dim, std::uint64_t seed)
{
    util::Rng rng(seed);
    vecstore::Matrix m(rows, dim);
    for (std::size_t i = 0; i < rows; ++i) {
        auto row = m.row(i);
        for (std::size_t j = 0; j < dim; ++j)
            row[j] = static_cast<float>(rng.gaussian());
    }
    return m;
}

void
BM_L2Distance(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    auto data = randomMatrix(2, dim, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(vecstore::l2Sq(data.row(0).data(),
                                                data.row(1).data(), dim));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            dim * sizeof(float) * 2);
}
BENCHMARK(BM_L2Distance)->Arg(96)->Arg(768);

void
BM_DotProduct(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    auto data = randomMatrix(2, dim, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(vecstore::dot(data.row(0).data(),
                                               data.row(1).data(), dim));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            dim * sizeof(float) * 2);
}
BENCHMARK(BM_DotProduct)->Arg(96)->Arg(768);

/**
 * Blocked query-vs-rows kernel: one call scores a whole contiguous list.
 * bytes/sec here is what the cost model's scan_gbps_per_core abstracts.
 */
void
BM_L2DistanceBatch(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    auto base = randomMatrix(n, dim, 11);
    auto query = randomMatrix(1, dim, 12);
    std::vector<float> out(n);
    for (auto _ : state) {
        vecstore::l2SqBatch(query.row(0).data(), base.data(), n, dim,
                            out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n * dim * sizeof(float));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n);
}
BENCHMARK(BM_L2DistanceBatch)
    ->Args({96, 1024})->Args({96, 32768})
    ->Args({768, 1024})->Args({768, 32768});

void
BM_DotProductBatch(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    auto base = randomMatrix(n, dim, 13);
    auto query = randomMatrix(1, dim, 14);
    std::vector<float> out(n);
    for (auto _ : state) {
        vecstore::dotBatch(query.row(0).data(), base.data(), n, dim,
                           out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n * dim * sizeof(float));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n);
}
BENCHMARK(BM_DotProductBatch)
    ->Args({96, 1024})->Args({96, 32768})
    ->Args({768, 1024})->Args({768, 32768});

void
BM_TopKSelection(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(3);
    std::vector<float> scores(n);
    for (auto &s : scores)
        s = static_cast<float>(rng.uniform());
    for (auto _ : state) {
        vecstore::TopK selector(10);
        for (std::size_t i = 0; i < n; ++i)
            selector.push(static_cast<vecstore::VecId>(i), scores[i]);
        benchmark::DoNotOptimize(selector.take());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n);
}
BENCHMARK(BM_TopKSelection)->Arg(1024)->Arg(65536);

void
BM_CodecScan(benchmark::State &state, const std::string &spec)
{
    const std::size_t dim = 96;
    const std::size_t n = 4096;
    auto data = randomMatrix(n, dim, 4);
    auto codec = quant::makeCodec(spec, dim);
    codec->train(data);

    std::vector<std::uint8_t> codes(n * codec->codeSize());
    for (std::size_t i = 0; i < n; ++i)
        codec->encode(data.row(i), codes.data() + i * codec->codeSize());

    auto query = randomMatrix(1, dim, 5);
    for (auto _ : state) {
        auto computer = codec->distanceComputer(vecstore::Metric::L2,
                                                query.row(0));
        float acc = 0.f;
        for (std::size_t i = 0; i < n; ++i)
            acc += (*computer)(codes.data() + i * codec->codeSize());
        benchmark::DoNotOptimize(acc);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n * codec->codeSize());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n);
}
BENCHMARK_CAPTURE(BM_CodecScan, Flat, "Flat");
BENCHMARK_CAPTURE(BM_CodecScan, SQ8, "SQ8");
BENCHMARK_CAPTURE(BM_CodecScan, SQ4, "SQ4");
BENCHMARK_CAPTURE(BM_CodecScan, PQ16, "PQ16");

/**
 * Batched DistanceComputer::scan() — the IVF inner loop's shape: one
 * virtual call per probed list instead of one per code. Args are
 * {dim, list size}; an infinite threshold requests exact scores so the
 * scalar and SIMD arms do identical work.
 */
void
BM_CodecScanBatch(benchmark::State &state, const std::string &spec)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    // Train on a subset: codebook quality is irrelevant to scan cost and
    // full-list PQ training at d=768 would dominate setup time.
    const std::size_t train_rows = std::min<std::size_t>(n, 4096);
    auto data = randomMatrix(n, dim, 15);
    auto codec = quant::makeCodec(spec, dim);
    {
        vecstore::Matrix train(train_rows, dim);
        for (std::size_t i = 0; i < train_rows; ++i) {
            auto src = data.row(i);
            auto dst = train.row(i);
            std::copy(src.data(), src.data() + dim, dst.data());
        }
        codec->train(train);
    }

    std::vector<std::uint8_t> codes(n * codec->codeSize());
    for (std::size_t i = 0; i < n; ++i)
        codec->encode(data.row(i), codes.data() + i * codec->codeSize());

    auto query = randomMatrix(1, dim, 16);
    auto computer = codec->distanceComputer(vecstore::Metric::L2,
                                            query.row(0));
    std::vector<float> out(n);
    for (auto _ : state) {
        computer->scan(codes.data(), n,
                       std::numeric_limits<float>::max(), out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n * codec->codeSize());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n);
}
BENCHMARK_CAPTURE(BM_CodecScanBatch, Flat, "Flat")
    ->Args({96, 1024})->Args({96, 32768})
    ->Args({768, 1024})->Args({768, 32768});
BENCHMARK_CAPTURE(BM_CodecScanBatch, SQ8, "SQ8")
    ->Args({96, 1024})->Args({96, 32768})
    ->Args({768, 1024})->Args({768, 32768});
BENCHMARK_CAPTURE(BM_CodecScanBatch, PQ16, "PQ16")
    ->Args({96, 1024})->Args({96, 32768})
    ->Args({768, 1024})->Args({768, 32768});

/*
 * Multi-query (list-major) benches. The pair of benchmarks per kernel
 * measures the same work two ways — per-query loop (each query streams
 * the whole corpus again) vs one list-major pass (each row is streamed
 * once per batch) — so items/s (queries x codes per second) is directly
 * comparable. Corpora are sized past the LLC so the per-query loop pays
 * DRAM bandwidth per query, which is exactly the cost the list-major
 * path amortizes. bytes/s reports the memory traffic actually requested
 * by each variant.
 */

void
BM_L2BatchPerQuery(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto q_count = static_cast<std::size_t>(state.range(2));
    auto base = randomMatrix(n, dim, 21);
    auto queries = randomMatrix(q_count, dim, 22);
    std::vector<float> out(n);
    for (auto _ : state) {
        for (std::size_t q = 0; q < q_count; ++q) {
            vecstore::l2SqBatch(queries.row(q).data(), base.data(), n, dim,
                                out.data());
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            q_count * n * dim * sizeof(float));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            q_count * n);
}
BENCHMARK(BM_L2BatchPerQuery)
    ->Args({768, 1024, 4}) // CI smoke shape
    ->Args({768, 32768, 1})->Args({768, 32768, 4})
    ->Args({768, 32768, 16})->Args({768, 32768, 32})
    ->Args({768, 32768, 64});

void
BM_L2BatchListMajor(benchmark::State &state)
{
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto q_count = static_cast<std::size_t>(state.range(2));
    auto base = randomMatrix(n, dim, 21);
    auto queries = randomMatrix(q_count, dim, 22);
    std::vector<float> out(q_count * n);
    std::vector<const float *> query_ptrs(q_count);
    std::vector<float *> out_ptrs(q_count);
    for (std::size_t q = 0; q < q_count; ++q) {
        query_ptrs[q] = queries.row(q).data();
        out_ptrs[q] = out.data() + q * n;
    }
    for (auto _ : state) {
        vecstore::l2SqBatchMulti(query_ptrs.data(), q_count, base.data(),
                                 n, dim, out_ptrs.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            n * dim * sizeof(float));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            q_count * n);
}
BENCHMARK(BM_L2BatchListMajor)
    ->Args({768, 1024, 4}) // CI smoke shape
    ->Args({768, 32768, 1})->Args({768, 32768, 4})
    ->Args({768, 32768, 16})->Args({768, 32768, 32})
    ->Args({768, 32768, 64});

/**
 * Multi-query codec scans over an IVF-shaped corpus: total_codes codes
 * split into 4096-entry lists. Codes are random bytes (content does not
 * affect scan cost, and it skips minutes of encode at setup). The
 * per-query variant scans every list for one query before moving to the
 * next query — the seed node execution order; the list-major variant
 * calls scanMulti once per list for all queries, with per-query LUTs
 * (PQ) built once per batch.
 */
void
BM_CodecScanPerQuery(benchmark::State &state, const std::string &spec)
{
    const auto total = static_cast<std::size_t>(state.range(0));
    const auto q_count = static_cast<std::size_t>(state.range(1));
    const std::size_t dim = 96;
    const std::size_t list_len = std::min<std::size_t>(total, 4096);
    auto codec = quant::makeCodec(spec, dim);
    codec->train(randomMatrix(4096, dim, 23));

    util::Rng rng(24);
    std::vector<std::uint8_t> codes(total * codec->codeSize());
    for (auto &byte : codes)
        byte = static_cast<std::uint8_t>(rng.uniform() * 256.0);

    auto queries = randomMatrix(q_count, dim, 25);
    std::vector<std::unique_ptr<quant::DistanceComputer>> computers;
    for (std::size_t q = 0; q < q_count; ++q) {
        computers.push_back(
            codec->distanceComputer(vecstore::Metric::L2, queries.row(q)));
    }
    std::vector<float> out(list_len);
    const std::size_t code_size = codec->codeSize();
    for (auto _ : state) {
        for (std::size_t q = 0; q < q_count; ++q) {
            for (std::size_t begin = 0; begin < total; begin += list_len) {
                const std::size_t len =
                    std::min(list_len, total - begin);
                computers[q]->scan(codes.data() + begin * code_size, len,
                                   std::numeric_limits<float>::max(),
                                   out.data());
            }
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            q_count * total * code_size);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            q_count * total);
}
BENCHMARK_CAPTURE(BM_CodecScanPerQuery, SQ8, "SQ8")
    ->Args({8192, 4}) // CI smoke shape
    ->Args({1 << 21, 1})->Args({1 << 21, 4})->Args({1 << 21, 16})
    ->Args({1 << 21, 32})->Args({1 << 21, 64});
BENCHMARK_CAPTURE(BM_CodecScanPerQuery, PQ16, "PQ16")
    ->Args({8192, 4}) // CI smoke shape
    ->Args({1 << 23, 1})->Args({1 << 23, 4})->Args({1 << 23, 16})
    ->Args({1 << 23, 32})->Args({1 << 23, 64});

void
BM_CodecScanListMajor(benchmark::State &state, const std::string &spec)
{
    const auto total = static_cast<std::size_t>(state.range(0));
    const auto q_count = static_cast<std::size_t>(state.range(1));
    const std::size_t dim = 96;
    const std::size_t list_len = std::min<std::size_t>(total, 4096);
    auto codec = quant::makeCodec(spec, dim);
    codec->train(randomMatrix(4096, dim, 23));

    util::Rng rng(24);
    std::vector<std::uint8_t> codes(total * codec->codeSize());
    for (auto &byte : codes)
        byte = static_cast<std::uint8_t>(rng.uniform() * 256.0);

    auto queries = randomMatrix(q_count, dim, 25);
    std::vector<std::unique_ptr<quant::DistanceComputer>> computers;
    std::vector<const quant::DistanceComputer *> peers(q_count);
    for (std::size_t q = 0; q < q_count; ++q) {
        computers.push_back(
            codec->distanceComputer(vecstore::Metric::L2, queries.row(q)));
        peers[q] = computers.back().get();
    }
    std::vector<float> out(q_count * list_len);
    std::vector<float *> out_ptrs(q_count);
    for (std::size_t q = 0; q < q_count; ++q)
        out_ptrs[q] = out.data() + q * list_len;
    std::vector<float> thresholds(q_count,
                                  std::numeric_limits<float>::max());
    const std::size_t code_size = codec->codeSize();
    for (auto _ : state) {
        for (std::size_t begin = 0; begin < total; begin += list_len) {
            const std::size_t len = std::min(list_len, total - begin);
            peers[0]->scanMulti(peers.data(), q_count,
                                codes.data() + begin * code_size, len,
                                thresholds.data(), out_ptrs.data());
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            total * code_size);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            q_count * total);
}
BENCHMARK_CAPTURE(BM_CodecScanListMajor, SQ8, "SQ8")
    ->Args({8192, 4}) // CI smoke shape
    ->Args({1 << 21, 1})->Args({1 << 21, 4})->Args({1 << 21, 16})
    ->Args({1 << 21, 32})->Args({1 << 21, 64});
BENCHMARK_CAPTURE(BM_CodecScanListMajor, PQ16, "PQ16")
    ->Args({8192, 4}) // CI smoke shape
    ->Args({1 << 23, 1})->Args({1 << 23, 4})->Args({1 << 23, 16})
    ->Args({1 << 23, 32})->Args({1 << 23, 64});

/** assignToCentroids fans its rows out over the build pool, so this
 *  measures the pooled path, in wall time. */
void
BM_KMeansAssign(benchmark::State &state)
{
    auto data = randomMatrix(4096, 32, 6);
    auto centroids = randomMatrix(64, 32, 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cluster::assignToCentroids(data, centroids));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            4096);
    state.SetLabel("build pool, " +
                   std::to_string(util::ThreadPool::shared().size()) +
                   " workers");
}
BENCHMARK(BM_KMeansAssign)->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // Record which dispatch arm ran so JSON captures are self-describing
    // (HERMES_SIMD=scalar forces the fallback arm).
    benchmark::AddCustomContext("hermes_simd",
                                hermes::vecstore::simd::activeIsa());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
