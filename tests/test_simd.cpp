/**
 * @file
 * Parity suite for the runtime-dispatched SIMD kernel layer.
 *
 * The AVX2 arm must agree with the scalar arm to reduction-order ulps
 * (<= 1e-4 relative) across odd dimensionalities and unaligned row
 * offsets; every codec's batched scan() must agree with its per-code
 * operator(); and an IVF search must return the same results on both
 * dispatch arms. Tests that need the AVX2 arm skip themselves on
 * machines (or builds) without it, so the suite is green on both CI
 * dispatch legs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "index/flat_index.hpp"
#include "index/ivf_index.hpp"
#include "quant/codec.hpp"
#include "util/rng.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/matrix.hpp"
#include "vecstore/simd_dispatch.hpp"
#include "vecstore/topk.hpp"

namespace {

using namespace hermes;
using vecstore::Metric;
using vecstore::simd::KernelTable;

constexpr float kRelTol = 1e-4f;

/** The dimensions the parity contract covers: odd, prime, and d=768. */
const std::size_t kDims[] = {1, 7, 31, 97, 768};

void
expectClose(float expected, float actual, const std::string &what)
{
    float scale = std::max({std::fabs(expected), std::fabs(actual), 1.f});
    EXPECT_LE(std::fabs(expected - actual), kRelTol * scale)
        << what << ": expected " << expected << " got " << actual;
}

std::vector<float>
randomVec(util::Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian());
    return v;
}

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

/** Restores the startup dispatch arm when a test returns. */
class IsaGuard
{
  public:
    IsaGuard() : name_(vecstore::simd::activeIsa()) {}
    ~IsaGuard() { vecstore::simd::forceIsaForTesting(name_.c_str()); }

  private:
    std::string name_;
};

TEST(SimdDispatch, ScalarArmAlwaysAvailable)
{
    const KernelTable &scalar = vecstore::simd::scalarKernels();
    EXPECT_STREQ(scalar.name, "scalar");
    const char *isa = vecstore::simd::activeIsa();
    EXPECT_TRUE(std::strcmp(isa, "scalar") == 0 ||
                std::strcmp(isa, "avx2") == 0);
}

TEST(SimdDispatch, Avx2MatchesScalarSingleVector)
{
    const KernelTable *avx2 = vecstore::simd::avx2Kernels();
    if (avx2 == nullptr)
        GTEST_SKIP() << "AVX2 arm unavailable";
    const KernelTable &scalar = vecstore::simd::scalarKernels();
    util::Rng rng(11);
    for (std::size_t d : kDims) {
        auto a = randomVec(rng, d);
        auto b = randomVec(rng, d);
        expectClose(scalar.l2_sq(a.data(), b.data(), d),
                    avx2->l2_sq(a.data(), b.data(), d),
                    "l2Sq d=" + std::to_string(d));
        expectClose(scalar.dot(a.data(), b.data(), d),
                    avx2->dot(a.data(), b.data(), d),
                    "dot d=" + std::to_string(d));
    }
}

TEST(SimdDispatch, Avx2MatchesScalarUnalignedRows)
{
    const KernelTable *avx2 = vecstore::simd::avx2Kernels();
    if (avx2 == nullptr)
        GTEST_SKIP() << "AVX2 arm unavailable";
    const KernelTable &scalar = vecstore::simd::scalarKernels();
    util::Rng rng(12);
    for (std::size_t d : kDims) {
        // Offset both operands by one float so neither is 32-byte
        // aligned: AVX2 kernels must use unaligned loads throughout.
        auto abuf = randomVec(rng, d + 1);
        auto bbuf = randomVec(rng, d + 1);
        const float *a = abuf.data() + 1;
        const float *b = bbuf.data() + 1;
        expectClose(scalar.l2_sq(a, b, d), avx2->l2_sq(a, b, d),
                    "unaligned l2Sq d=" + std::to_string(d));
        expectClose(scalar.dot(a, b, d), avx2->dot(a, b, d),
                    "unaligned dot d=" + std::to_string(d));
    }
}

TEST(SimdDispatch, BatchKernelsMatchSingleKernels)
{
    // Both arms: the blocked kernel must agree with n single-row calls,
    // including an unaligned base pointer and a non-multiple-of-4 n.
    std::vector<const KernelTable *> arms = {
        &vecstore::simd::scalarKernels()};
    if (vecstore::simd::avx2Kernels() != nullptr)
        arms.push_back(vecstore::simd::avx2Kernels());
    util::Rng rng(13);
    const std::size_t n = 37;
    for (const KernelTable *kt : arms) {
        for (std::size_t d : kDims) {
            auto q = randomVec(rng, d);
            auto buf = randomVec(rng, n * d + 1);
            const float *base = buf.data() + 1;
            std::vector<float> l2(n);
            std::vector<float> ip(n);
            kt->l2_sq_batch(q.data(), base, n, d, l2.data());
            kt->dot_batch(q.data(), base, n, d, ip.data());
            for (std::size_t i = 0; i < n; ++i) {
                expectClose(kt->l2_sq(q.data(), base + i * d, d), l2[i],
                            std::string(kt->name) + " l2SqBatch");
                expectClose(kt->dot(q.data(), base + i * d, d), ip[i],
                            std::string(kt->name) + " dotBatch");
            }
        }
    }
}

TEST(SimdDispatch, Sq8ScanKernelsMatchAcrossArms)
{
    const KernelTable *avx2 = vecstore::simd::avx2Kernels();
    if (avx2 == nullptr)
        GTEST_SKIP() << "AVX2 arm unavailable";
    const KernelTable &scalar = vecstore::simd::scalarKernels();
    util::Rng rng(14);
    const std::size_t n = 33;
    for (std::size_t d : kDims) {
        // Realistic operand scale: codec precomputation multiplies the
        // per-dimension operands by vdiff/255, so code values of 0..255
        // contribute O(1) terms (raw gaussians would make the comparison
        // cancellation-dominated instead of kernel-dominated).
        auto a = randomVec(rng, d);
        auto b = randomVec(rng, d);
        for (std::size_t j = 0; j < d; ++j) {
            a[j] /= 255.f;
            b[j] /= 255.f;
        }
        std::vector<std::uint8_t> codes(n * d);
        for (auto &c : codes)
            c = static_cast<std::uint8_t>(rng.uniformInt(256));
        std::vector<float> ref(n);
        std::vector<float> got(n);
        scalar.sq8_scan_l2(a.data(), b.data(), codes.data(), n, d,
                           ref.data());
        avx2->sq8_scan_l2(a.data(), b.data(), codes.data(), n, d,
                          got.data());
        for (std::size_t i = 0; i < n; ++i)
            expectClose(ref[i], got[i],
                        "sq8_scan_l2 d=" + std::to_string(d));
        scalar.sq8_scan_ip(a.data(), 0.5f, codes.data(), n, d, ref.data());
        avx2->sq8_scan_ip(a.data(), 0.5f, codes.data(), n, d, got.data());
        for (std::size_t i = 0; i < n; ++i)
            expectClose(ref[i], got[i],
                        "sq8_scan_ip d=" + std::to_string(d));
    }
}

TEST(CodecScan, MatchesPerCodeComputerAllCodecs)
{
    const std::size_t d = 96;
    const std::size_t n = 300;
    auto data = randomMatrix(512, d, 21);
    auto queries = randomMatrix(3, d, 22);
    for (const char *spec : {"Flat", "SQ8", "SQ4", "PQ16", "OPQ8"}) {
        auto codec = quant::makeCodec(spec, d);
        codec->train(data);
        std::vector<std::uint8_t> codes(n * codec->codeSize());
        for (std::size_t i = 0; i < n; ++i)
            codec->encode(data.row(i % data.rows()),
                          codes.data() + i * codec->codeSize());
        for (Metric metric : {Metric::L2, Metric::InnerProduct}) {
            for (std::size_t q = 0; q < queries.rows(); ++q) {
                auto computer =
                    codec->distanceComputer(metric, queries.row(q));
                ASSERT_EQ(computer->codeSize(), codec->codeSize());
                std::vector<float> batch(n);
                computer->scan(codes.data(), n,
                               std::numeric_limits<float>::max(),
                               batch.data());
                for (std::size_t i = 0; i < n; ++i) {
                    float one =
                        (*computer)(codes.data() + i * codec->codeSize());
                    expectClose(one, batch[i],
                                std::string(spec) + "/" +
                                    vecstore::metricName(metric) +
                                    " scan row " + std::to_string(i));
                }
            }
        }
    }
}

TEST(CodecScan, OddDimFlatAndSq8)
{
    // Codecs without divisibility constraints must scan at odd dims too.
    const std::size_t d = 97;
    const std::size_t n = 41;
    auto data = randomMatrix(128, d, 23);
    auto query = randomMatrix(1, d, 24);
    for (const char *spec : {"Flat", "SQ8"}) {
        auto codec = quant::makeCodec(spec, d);
        codec->train(data);
        std::vector<std::uint8_t> codes(n * codec->codeSize());
        for (std::size_t i = 0; i < n; ++i)
            codec->encode(data.row(i), codes.data() + i * codec->codeSize());
        for (Metric metric : {Metric::L2, Metric::InnerProduct}) {
            auto computer = codec->distanceComputer(metric, query.row(0));
            std::vector<float> batch(n);
            computer->scan(codes.data(), n,
                           std::numeric_limits<float>::max(), batch.data());
            for (std::size_t i = 0; i < n; ++i) {
                float one =
                    (*computer)(codes.data() + i * codec->codeSize());
                expectClose(one, batch[i],
                            std::string(spec) + " odd-dim scan");
            }
        }
    }
}

TEST(SimdDispatch, MultiQueryKernelsMatchSingleQueryBatch)
{
    // The list-major contract is bit-parity, not ulp-parity: the multi
    // kernels must replay each (query, row) reduction in exactly the
    // single-query order, so the comparison is ==, both arms, including
    // the 2-query pairing remainder (odd Q) and the row tail (n % 4).
    std::vector<const KernelTable *> arms = {
        &vecstore::simd::scalarKernels()};
    if (vecstore::simd::avx2Kernels() != nullptr)
        arms.push_back(vecstore::simd::avx2Kernels());
    util::Rng rng(71);
    const std::size_t n = 37;
    for (const KernelTable *kt : arms) {
        for (std::size_t d : kDims) {
            for (std::size_t q_count : {1, 2, 3, 5, 8}) {
                std::vector<std::vector<float>> queries;
                std::vector<const float *> query_ptrs;
                for (std::size_t q = 0; q < q_count; ++q) {
                    queries.push_back(randomVec(rng, d));
                    query_ptrs.push_back(queries.back().data());
                }
                auto buf = randomVec(rng, n * d + 1);
                const float *base = buf.data() + 1; // unaligned rows
                std::vector<std::vector<float>> multi(
                    q_count, std::vector<float>(n));
                std::vector<float *> out_ptrs;
                for (auto &out : multi)
                    out_ptrs.push_back(out.data());
                std::vector<float> ref(n);

                kt->l2_sq_batch_multi(query_ptrs.data(), q_count, base, n,
                                      d, out_ptrs.data());
                for (std::size_t q = 0; q < q_count; ++q) {
                    kt->l2_sq_batch(query_ptrs[q], base, n, d, ref.data());
                    for (std::size_t i = 0; i < n; ++i)
                        EXPECT_EQ(ref[i], multi[q][i])
                            << kt->name << " l2 multi d=" << d << " Q="
                            << q_count << " q=" << q << " row=" << i;
                }

                kt->dot_batch_multi(query_ptrs.data(), q_count, base, n,
                                    d, out_ptrs.data());
                for (std::size_t q = 0; q < q_count; ++q) {
                    kt->dot_batch(query_ptrs[q], base, n, d, ref.data());
                    for (std::size_t i = 0; i < n; ++i)
                        EXPECT_EQ(ref[i], multi[q][i])
                            << kt->name << " dot multi d=" << d << " Q="
                            << q_count << " q=" << q << " row=" << i;
                }
            }
        }
    }
}

TEST(SimdDispatch, Sq8MultiScanMatchesSingleScan)
{
    // Same ==-parity contract for the fused SQ8 scans: the multi kernel
    // shares the dequant loads across query pairs but must keep each
    // query's accumulation order identical to the single-query scan.
    std::vector<const KernelTable *> arms = {
        &vecstore::simd::scalarKernels()};
    if (vecstore::simd::avx2Kernels() != nullptr)
        arms.push_back(vecstore::simd::avx2Kernels());
    util::Rng rng(72);
    const std::size_t n = 33;
    for (const KernelTable *kt : arms) {
        for (std::size_t d : kDims) {
            for (std::size_t q_count : {1, 3, 6}) {
                auto b = randomVec(rng, d);
                for (auto &x : b)
                    x /= 255.f;
                std::vector<std::vector<float>> as;
                std::vector<const float *> a_ptrs;
                std::vector<float> biases;
                for (std::size_t q = 0; q < q_count; ++q) {
                    as.push_back(randomVec(rng, d));
                    for (auto &x : as.back())
                        x /= 255.f;
                    a_ptrs.push_back(as.back().data());
                    biases.push_back(
                        static_cast<float>(rng.gaussian()));
                }
                std::vector<std::uint8_t> codes(n * d);
                for (auto &c : codes)
                    c = static_cast<std::uint8_t>(rng.uniformInt(256));
                std::vector<std::vector<float>> multi(
                    q_count, std::vector<float>(n));
                std::vector<float *> out_ptrs;
                for (auto &out : multi)
                    out_ptrs.push_back(out.data());
                std::vector<float> ref(n);

                kt->sq8_scan_l2_multi(a_ptrs.data(), b.data(), q_count,
                                      codes.data(), n, d, out_ptrs.data());
                for (std::size_t q = 0; q < q_count; ++q) {
                    kt->sq8_scan_l2(a_ptrs[q], b.data(), codes.data(), n,
                                    d, ref.data());
                    for (std::size_t i = 0; i < n; ++i)
                        EXPECT_EQ(ref[i], multi[q][i])
                            << kt->name << " sq8 l2 multi d=" << d
                            << " q=" << q << " row=" << i;
                }

                kt->sq8_scan_ip_multi(a_ptrs.data(), biases.data(),
                                      q_count, codes.data(), n, d,
                                      out_ptrs.data());
                for (std::size_t q = 0; q < q_count; ++q) {
                    kt->sq8_scan_ip(a_ptrs[q], biases[q], codes.data(), n,
                                    d, ref.data());
                    for (std::size_t i = 0; i < n; ++i)
                        EXPECT_EQ(ref[i], multi[q][i])
                            << kt->name << " sq8 ip multi d=" << d
                            << " q=" << q << " row=" << i;
                }
            }
        }
    }
}

TEST(CodecScan, ScanMultiMatchesPerQueryScanAllCodecs)
{
    // scanMulti must be bit-identical to per-query scan for every codec
    // and metric on whichever dispatch arms this machine has.
    const std::size_t d = 96;
    const std::size_t n = 300;
    const std::size_t q_count = 5;
    auto data = randomMatrix(512, d, 73);
    auto queries = randomMatrix(q_count, d, 74);
    IsaGuard guard;
    for (const char *arm : {"scalar", "avx2"}) {
        if (!vecstore::simd::forceIsaForTesting(arm))
            continue;
        for (const char *spec : {"Flat", "SQ8", "SQ4", "PQ16", "OPQ8"}) {
            auto codec = quant::makeCodec(spec, d);
            codec->train(data);
            std::vector<std::uint8_t> codes(n * codec->codeSize());
            for (std::size_t i = 0; i < n; ++i)
                codec->encode(data.row(i % data.rows()),
                              codes.data() + i * codec->codeSize());
            for (Metric metric : {Metric::L2, Metric::InnerProduct}) {
                std::vector<std::unique_ptr<quant::DistanceComputer>>
                    computers;
                std::vector<const quant::DistanceComputer *> peers;
                for (std::size_t q = 0; q < q_count; ++q) {
                    computers.push_back(
                        codec->distanceComputer(metric, queries.row(q)));
                    peers.push_back(computers.back().get());
                }
                std::vector<std::vector<float>> multi(
                    q_count, std::vector<float>(n));
                std::vector<float *> out_ptrs;
                for (auto &out : multi)
                    out_ptrs.push_back(out.data());
                std::vector<float> thresholds(
                    q_count, std::numeric_limits<float>::max());
                peers[0]->scanMulti(peers.data(), q_count, codes.data(),
                                    n, thresholds.data(), out_ptrs.data());
                std::vector<float> ref(n);
                for (std::size_t q = 0; q < q_count; ++q) {
                    computers[q]->scan(
                        codes.data(), n,
                        std::numeric_limits<float>::max(), ref.data());
                    for (std::size_t i = 0; i < n; ++i)
                        EXPECT_EQ(ref[i], multi[q][i])
                            << arm << "/" << spec << "/"
                            << vecstore::metricName(metric) << " q=" << q
                            << " row=" << i;
                }
            }
        }
    }
}

TEST(TopK, PushBatchMatchesPushLoop)
{
    util::Rng rng(31);
    const std::size_t n = 500;
    std::vector<vecstore::VecId> ids(n);
    std::vector<float> scores(n);
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<vecstore::VecId>(i);
        // Duplicate scores on purpose to exercise tie-breaking.
        scores[i] = static_cast<float>(rng.uniformInt(64));
    }
    for (std::size_t k : {1, 10, 499, 600}) {
        vecstore::TopK loop(k);
        vecstore::TopK batch(k);
        for (std::size_t i = 0; i < n; ++i)
            loop.push(ids[i], scores[i]);
        batch.pushBatch(ids.data(), scores.data(), n);
        EXPECT_EQ(loop.take(), batch.take()) << "k=" << k;
    }
}

TEST(TopK, MergeHitListsKeepsBestScorePerId)
{
    vecstore::HitList a = {{1, 0.5f}, {2, 0.9f}, {3, 0.1f}};
    vecstore::HitList b = {{2, 0.2f}, {4, 0.8f}, {1, 0.7f}};
    auto merged = vecstore::mergeHitLists({a, b}, 3);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0], (vecstore::Hit{3, 0.1f}));
    EXPECT_EQ(merged[1], (vecstore::Hit{2, 0.2f}));
    EXPECT_EQ(merged[2], (vecstore::Hit{1, 0.5f}));
    // Truncation and empty-input behaviour.
    EXPECT_EQ(vecstore::mergeHitLists({a, b}, 1).size(), 1u);
    EXPECT_TRUE(vecstore::mergeHitLists({}, 5).empty());
}

TEST(IvfParity, ScalarAndDefaultArmsAgreeEndToEnd)
{
    const std::size_t d = 32;
    const std::size_t n = 2000;
    auto data = randomMatrix(n, d, 41);
    auto queries = randomMatrix(20, d, 42);

    index::IvfConfig config;
    config.nlist = 16;
    config.codec = "SQ8";
    index::IvfIndex idx(d, vecstore::Metric::L2, config);
    idx.train(data);
    idx.addSequential(data);

    index::SearchParams params;
    params.nprobe = 4;

    IsaGuard guard;
    std::vector<vecstore::HitList> with_default;
    for (std::size_t q = 0; q < queries.rows(); ++q)
        with_default.push_back(idx.search(queries.row(q), 10, params));

    ASSERT_TRUE(vecstore::simd::forceIsaForTesting("scalar"));
    for (std::size_t q = 0; q < queries.rows(); ++q) {
        auto hits = idx.search(queries.row(q), 10, params);
        ASSERT_EQ(hits.size(), with_default[q].size()) << "query " << q;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].id, with_default[q][i].id)
                << "query " << q << " rank " << i;
            expectClose(hits[i].score, with_default[q][i].score,
                        "ivf score parity");
        }
    }
}

TEST(IvfParity, PooledAddMatchesRowAtATimeAdd)
{
    const std::size_t d = 24;
    auto data = randomMatrix(600, d, 51);
    auto queries = randomMatrix(8, d, 52);

    index::IvfConfig config;
    config.nlist = 8;
    config.codec = "PQ8";
    index::IvfIndex rowwise(d, vecstore::Metric::L2, config);
    index::IvfIndex pooled(d, vecstore::Metric::L2, config);
    rowwise.train(data);
    pooled.train(data);

    // Reference: one row per add(), which runs inline (a one-item
    // parallelFor never leaves the caller).
    std::vector<vecstore::VecId> ids(data.rows());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ids[i] = static_cast<vecstore::VecId>(i);
        vecstore::Matrix row(d);
        row.append(data.row(i));
        rowwise.add(row, {ids[i]});
    }
    // One batched add(), fanned out over the build pool.
    pooled.add(data, ids);

    ASSERT_EQ(rowwise.size(), pooled.size());
    for (std::size_t l = 0; l < config.nlist; ++l)
        EXPECT_EQ(rowwise.listSize(l), pooled.listSize(l)) << "list " << l;
    index::SearchParams params;
    params.nprobe = 3;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
        EXPECT_EQ(rowwise.search(queries.row(q), 5, params),
                  pooled.search(queries.row(q), 5, params))
            << "query " << q;
    }
}

TEST(FlatParity, FlatIndexMatchesNaiveScan)
{
    const std::size_t d = 48;
    auto data = randomMatrix(900, d, 61);
    auto queries = randomMatrix(5, d, 62);
    for (Metric metric : {Metric::L2, Metric::InnerProduct}) {
        index::FlatIndex idx(d, metric);
        idx.addSequential(data);
        for (std::size_t q = 0; q < queries.rows(); ++q) {
            auto hits = idx.search(queries.row(q), 7);
            ASSERT_EQ(hits.size(), 7u);
            // Reference: exhaustive per-row distance + full sort.
            vecstore::TopK ref(7);
            for (std::size_t i = 0; i < data.rows(); ++i) {
                ref.push(static_cast<vecstore::VecId>(i),
                         vecstore::distance(metric, queries.row(q).data(),
                                            data.row(i).data(), d));
            }
            auto expected = ref.take();
            for (std::size_t i = 0; i < hits.size(); ++i) {
                EXPECT_EQ(hits[i].id, expected[i].id);
                expectClose(expected[i].score, hits[i].score,
                            "flat score");
            }
        }
    }
}

} // namespace
