/**
 * @file
 * Tests for the ANN indices: Flat (exact oracle), IVF, HNSW, factory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <set>
#include <stdexcept>

#include "cluster/kmeans.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "index/flat_index.hpp"
#include "index/hnsw_index.hpp"
#include "index/ivf_index.hpp"
#include "serve/node.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/simd_dispatch.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;
using namespace hermes::index;
using hermes::vecstore::Matrix;
using hermes::vecstore::Metric;

struct TestData
{
    Matrix base{0};
    Matrix queries{0};
    std::vector<vecstore::HitList> truth;
};

const TestData &
sharedData()
{
    static TestData data = [] {
        workload::CorpusConfig cc;
        cc.num_docs = 4000;
        cc.dim = 24;
        cc.num_topics = 16;
        cc.seed = 5;
        auto corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 40;
        qc.seed = 6;
        auto queries = workload::generateQueries(corpus, qc);

        TestData out;
        out.base = std::move(corpus.embeddings);
        out.queries = std::move(queries.embeddings);
        out.truth = eval::exactGroundTruth(out.base, out.queries, 10,
                                           Metric::L2);
        return out;
    }();
    return data;
}

TEST(FlatIndex, MatchesGroundTruthExactly)
{
    const auto &data = sharedData();
    FlatIndex flat(data.base.dim(), Metric::L2);
    flat.addSequential(data.base);
    auto results = flat.searchBatch(data.queries, 10);
    EXPECT_NEAR(eval::meanRecallAtK(results, data.truth, 10), 1.0, 1e-12);
}

TEST(FlatIndex, StatsCountEveryVector)
{
    const auto &data = sharedData();
    FlatIndex flat(data.base.dim(), Metric::L2);
    flat.addSequential(data.base);
    SearchStats stats;
    flat.search(data.queries.row(0), 5, {}, &stats);
    EXPECT_EQ(stats.vectors_scanned, data.base.rows());
    EXPECT_EQ(stats.bytes_scanned,
              data.base.rows() * data.base.dim() * sizeof(float));
}

TEST(FlatIndex, ExternalIdsReturned)
{
    Matrix m(2, 4);
    m.row(0)[0] = 1.f;
    m.row(1)[0] = -1.f;
    FlatIndex flat(4, Metric::L2);
    flat.add(m, {100, 200});
    std::vector<float> q{1.f, 0.f, 0.f, 0.f};
    auto hits = flat.search(vecstore::VecView(q.data(), 4), 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, 100);
}

TEST(FlatIndex, KLargerThanIndexReturnsAll)
{
    Matrix m(3, 4);
    FlatIndex flat(4, Metric::L2);
    flat.addSequential(m);
    std::vector<float> q(4, 0.f);
    auto hits = flat.search(vecstore::VecView(q.data(), 4), 10);
    EXPECT_EQ(hits.size(), 3u);
}

/** IVF recall grows monotonically (within noise) with nProbe. */
class IvfNprobeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(IvfNprobeSweep, RecallAtLeastBaseline)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 32;
    config.codec = "SQ8";
    IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    SearchParams lo, hi;
    lo.nprobe = 1;
    hi.nprobe = GetParam();
    auto lo_results = ivf.searchBatch(data.queries, 10, lo);
    auto hi_results = ivf.searchBatch(data.queries, 10, hi);
    double lo_recall = eval::meanRecallAtK(lo_results, data.truth, 10);
    double hi_recall = eval::meanRecallAtK(hi_results, data.truth, 10);
    EXPECT_GE(hi_recall + 1e-9, lo_recall);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IvfNprobeSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(IvfIndex, FullProbeWithFlatCodecIsExact)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 16;
    config.codec = "Flat";
    IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    SearchParams params;
    params.nprobe = 16;
    auto results = ivf.searchBatch(data.queries, 10, params);
    EXPECT_NEAR(eval::meanRecallAtK(results, data.truth, 10), 1.0, 1e-12);
}

TEST(IvfIndex, Sq8HighNprobeRecallNearFlat)
{
    // Table 1: SQ8 recall ~0.94 of exact at matched search effort.
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 32;
    config.codec = "SQ8";
    IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    SearchParams params;
    params.nprobe = 32;
    auto results = ivf.searchBatch(data.queries, 10, params);
    EXPECT_GT(eval::meanRecallAtK(results, data.truth, 10), 0.9);
}

TEST(IvfIndex, StatsScaleWithNprobe)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 32;
    IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    SearchStats lo_stats, hi_stats;
    SearchParams lo, hi;
    lo.nprobe = 2;
    hi.nprobe = 16;
    ivf.search(data.queries.row(0), 5, lo, &lo_stats);
    ivf.search(data.queries.row(0), 5, hi, &hi_stats);
    EXPECT_EQ(lo_stats.lists_probed, 2u);
    EXPECT_EQ(hi_stats.lists_probed, 16u);
    EXPECT_GT(hi_stats.vectors_scanned, lo_stats.vectors_scanned);
    EXPECT_GT(hi_stats.bytes_scanned, lo_stats.bytes_scanned);
}

TEST(IvfIndex, ListSizesSumToTotal)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 16;
    IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);
    std::size_t total = 0;
    for (std::size_t l = 0; l < ivf.nlist(); ++l)
        total += ivf.listSize(l);
    EXPECT_EQ(total, data.base.rows());
    EXPECT_EQ(ivf.size(), data.base.rows());
}

TEST(IvfIndex, SaveLoadSearchesIdentically)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 16;
    config.codec = "SQ8";
    IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    auto path = std::filesystem::temp_directory_path() / "hermes_ivf.bin";
    ivf.save(path.string());
    auto loaded = IvfIndex::load(path.string());

    SearchParams params;
    params.nprobe = 8;
    for (std::size_t q = 0; q < 10; ++q) {
        auto a = ivf.search(data.queries.row(q), 5, params);
        auto b = loaded->search(data.queries.row(q), 5, params);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].id, b[i].id);
            EXPECT_FLOAT_EQ(a[i].score, b[i].score);
        }
    }
    std::filesystem::remove(path);
}

TEST(IvfIndex, MemorySmallerThanFlatWithSq8)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 16;
    config.codec = "SQ8";
    IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    FlatIndex flat(data.base.dim(), Metric::L2);
    flat.addSequential(data.base);
    // SQ8 codes are 4x smaller than fp32; ids/centroids add overhead but
    // the total must still be well under the flat index.
    EXPECT_LT(ivf.memoryBytes(), flat.memoryBytes());
}

TEST(IvfIndex, SuggestedNlistIsSqrt)
{
    EXPECT_EQ(IvfIndex::suggestedNlist(10000), 100u);
    EXPECT_EQ(IvfIndex::suggestedNlist(1), 1u);
    EXPECT_EQ(IvfIndex::suggestedNlist(0), 1u);
}

TEST(IvfIndex, HnswCoarseMatchesLinearCoarseQuality)
{
    // The graph coarse step targets the large-nlist regime where the
    // O(nlist) centroid scan starts to dominate (FAISS's IVF_HNSW use
    // case); use a deliberately oversized nlist.
    const auto &data = sharedData();
    IvfConfig linear_config;
    linear_config.nlist = 512;
    linear_config.codec = "SQ8";
    IvfConfig graph_config = linear_config;
    graph_config.hnsw_coarse = true;

    IvfIndex linear(data.base.dim(), Metric::L2, linear_config);
    linear.train(data.base);
    linear.addSequential(data.base);
    IvfIndex graph(data.base.dim(), Metric::L2, graph_config);
    graph.train(data.base);
    graph.addSequential(data.base);

    SearchParams params;
    params.nprobe = 16;
    double linear_recall = eval::meanRecallAtK(
        linear.searchBatch(data.queries, 10, params), data.truth, 10);
    double graph_recall = eval::meanRecallAtK(
        graph.searchBatch(data.queries, 10, params), data.truth, 10);
    // The graph coarse step is approximate; allow a small gap.
    EXPECT_GT(graph_recall, linear_recall - 0.05);

    // And it must do *fewer* coarse distance evaluations than a full
    // centroid scan once the list scans are subtracted out.
    SearchStats linear_stats, graph_stats;
    linear.search(data.queries.row(0), 5, params, &linear_stats);
    graph.search(data.queries.row(0), 5, params, &graph_stats);
    std::uint64_t linear_coarse = linear_stats.distance_computations -
                                  linear_stats.vectors_scanned;
    std::uint64_t graph_coarse = graph_stats.distance_computations -
                                 graph_stats.vectors_scanned;
    EXPECT_LT(graph_coarse, linear_coarse);
}

TEST(IvfIndex, HnswCoarseSurvivesSaveLoad)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 32;
    config.hnsw_coarse = true;
    IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    auto path = std::filesystem::temp_directory_path() / "ivf_hnsw.bin";
    ivf.save(path.string());
    auto loaded = IvfIndex::load(path.string());
    SearchParams params;
    params.nprobe = 8;
    auto a = ivf.search(data.queries.row(0), 5, params);
    auto b = loaded->search(data.queries.row(0), 5, params);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].id, b[i].id);
    std::filesystem::remove(path);
}

TEST(HnswIndex, HighRecallAtModestEf)
{
    const auto &data = sharedData();
    HnswConfig config;
    config.m = 16;
    config.ef_construction = 80;
    HnswIndex hnsw(data.base.dim(), Metric::L2, config);
    hnsw.addSequential(data.base);

    SearchParams params;
    params.ef_search = 64;
    auto results = hnsw.searchBatch(data.queries, 10, params);
    EXPECT_GT(eval::meanRecallAtK(results, data.truth, 10), 0.9);
}

TEST(HnswIndex, RecallImprovesWithEf)
{
    const auto &data = sharedData();
    HnswConfig config;
    config.m = 8;
    config.ef_construction = 40;
    HnswIndex hnsw(data.base.dim(), Metric::L2, config);
    hnsw.addSequential(data.base);

    SearchParams lo, hi;
    lo.ef_search = 10;
    hi.ef_search = 128;
    double lo_recall = eval::meanRecallAtK(
        hnsw.searchBatch(data.queries, 10, lo), data.truth, 10);
    double hi_recall = eval::meanRecallAtK(
        hnsw.searchBatch(data.queries, 10, hi), data.truth, 10);
    EXPECT_GE(hi_recall + 1e-9, lo_recall);
}

TEST(HnswIndex, MemoryExceedsIvfSq8)
{
    // Fig 4: HNSW costs ~2.3x the memory of IVF-SQ8 — links plus fp32.
    const auto &data = sharedData();
    HnswConfig hc;
    hc.m = 16;
    HnswIndex hnsw(data.base.dim(), Metric::L2, hc);
    hnsw.addSequential(data.base);

    IvfConfig ic;
    ic.nlist = 16;
    ic.codec = "SQ8";
    IvfIndex ivf(data.base.dim(), Metric::L2, ic);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    EXPECT_GT(hnsw.memoryBytes(), 2 * ivf.memoryBytes());
}

TEST(HnswIndex, StatsPopulated)
{
    const auto &data = sharedData();
    HnswConfig config;
    HnswIndex hnsw(data.base.dim(), Metric::L2, config);
    hnsw.addSequential(data.base);
    SearchStats stats;
    hnsw.search(data.queries.row(0), 5, {}, &stats);
    EXPECT_GT(stats.distance_computations, 0u);
    // Far fewer evaluations than brute force — that is the point.
    EXPECT_LT(stats.distance_computations, data.base.rows() / 2);
}

TEST(HnswIndex, Level0GraphIsFullyReachable)
{
    // Every stored vector must be reachable from any other via level-0
    // links, or recall silently collapses for unlucky entry points. Walk
    // the graph through search results: repeatedly query each stored
    // vector and confirm it finds itself (distance ~0) — a self-miss
    // would indicate a disconnected component.
    const auto &data = sharedData();
    HnswConfig config;
    config.m = 8;
    config.ef_construction = 60;
    HnswIndex hnsw(data.base.dim(), Metric::L2, config);

    // Use a subset to keep the self-query sweep fast.
    Matrix subset = data.base.gather([] {
        std::vector<std::size_t> idx(800);
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i * 5;
        return idx;
    }());
    hnsw.addSequential(subset);

    SearchParams params;
    params.ef_search = 32;
    std::size_t self_found = 0;
    for (std::size_t i = 0; i < subset.rows(); ++i) {
        auto hits = hnsw.search(subset.row(i), 1, params);
        ASSERT_FALSE(hits.empty());
        self_found += hits[0].score < 1e-6f;
    }
    // A well-connected graph self-resolves essentially always.
    EXPECT_GT(static_cast<double>(self_found) /
              static_cast<double>(subset.rows()), 0.98);
}

TEST(HnswIndex, LevelDistributionDecaysGeometrically)
{
    const auto &data = sharedData();
    HnswConfig config;
    config.m = 16;
    HnswIndex hnsw(data.base.dim(), Metric::L2, config);
    hnsw.addSequential(data.base);
    // With mL = 1/ln(M), the fraction of nodes above level 0 is ~1/M.
    EXPECT_GE(hnsw.maxLevel(), 1);
    EXPECT_LE(hnsw.maxLevel(), 8);
}

TEST(HnswIndex, EmptyIndexReturnsNothing)
{
    HnswIndex hnsw(8, Metric::L2, {});
    std::vector<float> q(8, 0.f);
    EXPECT_TRUE(hnsw.search(vecstore::VecView(q.data(), 8), 5).empty());
}

TEST(IndexFactory, ParsesSpecs)
{
    EXPECT_EQ(makeIndex("Flat", 16, Metric::L2)->name(), "Flat");
    EXPECT_EQ(makeIndex("IVF64,SQ8", 16, Metric::L2)->name(), "IVF64,SQ8");
    EXPECT_EQ(makeIndex("IVF32", 16, Metric::L2)->name(), "IVF32,Flat");
    EXPECT_EQ(makeIndex("HNSW8", 16, Metric::L2)->name(), "HNSW8");
}

TEST(IndexFactory, FactoryIndicesSearchable)
{
    const auto &data = sharedData();
    for (const char *spec : {"Flat", "IVF16,SQ8", "HNSW8"}) {
        auto idx = makeIndex(spec, data.base.dim(), Metric::L2);
        idx->train(data.base);
        idx->addSequential(data.base);
        SearchParams params;
        params.nprobe = 8;
        auto hits = idx->search(data.queries.row(0), 5, params);
        EXPECT_EQ(hits.size(), 5u) << spec;
    }
}

vecstore::Matrix
randomMatrix(std::size_t rows, std::size_t dim, std::uint64_t seed)
{
    util::Rng rng(seed);
    Matrix m(rows, dim);
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

/**
 * The list-major searchBatch contract: hit lists AND per-query stats are
 * bit-identical to the seed per-query loop. Exercised across every
 * codec, both metrics, pruning on/off and both dispatch arms.
 */
void
expectBatchMatchesPerQuery(const IvfIndex &ivf, const Matrix &queries,
                           std::size_t k, const SearchParams &params,
                           const std::string &what)
{
    std::vector<SearchStats> batch_stats;
    auto batch = ivf.searchBatch(queries, k, params, &batch_stats);
    ASSERT_EQ(batch.size(), queries.rows()) << what;
    ASSERT_EQ(batch_stats.size(), queries.rows()) << what;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
        SearchStats ref_stats;
        auto ref = ivf.search(queries.row(q), k, params, &ref_stats);
        ASSERT_EQ(batch[q].size(), ref.size()) << what << " q=" << q;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(batch[q][i].id, ref[i].id)
                << what << " q=" << q << " rank=" << i;
            EXPECT_EQ(batch[q][i].score, ref[i].score)
                << what << " q=" << q << " rank=" << i;
        }
        EXPECT_EQ(batch_stats[q].lists_probed, ref_stats.lists_probed)
            << what << " q=" << q;
        EXPECT_EQ(batch_stats[q].vectors_scanned, ref_stats.vectors_scanned)
            << what << " q=" << q;
        EXPECT_EQ(batch_stats[q].distance_computations,
                  ref_stats.distance_computations)
            << what << " q=" << q;
        EXPECT_EQ(batch_stats[q].bytes_scanned, ref_stats.bytes_scanned)
            << what << " q=" << q;
    }
}

TEST(IvfBatchParity, ListMajorMatchesPerQueryAllCodecs)
{
    const std::size_t d = 24;
    auto base = randomMatrix(1200, d, 71);
    auto queries = randomMatrix(10, d, 72);
    IsaGuard guard;
    for (const char *spec : {"Flat", "SQ8", "SQ4", "PQ8", "OPQ8"}) {
        for (Metric metric : {Metric::L2, Metric::InnerProduct}) {
            IvfConfig config;
            config.nlist = 16;
            config.codec = spec;
            IvfIndex ivf(d, metric, config);
            ivf.train(base);
            ivf.addSequential(base);
            for (const char *arm : {"scalar", "avx2"}) {
                if (!vecstore::simd::forceIsaForTesting(arm))
                    continue;
                for (double prune : {0.0, 1.2}) {
                    SearchParams params;
                    params.nprobe = 5;
                    params.prune_ratio = prune;
                    // Pin the list-major arm: the test corpus is far
                    // below the cost cutover's default floor.
                    params.batch_min_scan_floats = 0;
                    expectBatchMatchesPerQuery(
                        ivf, queries, 10, params,
                        std::string(spec) + "/" +
                            vecstore::metricName(metric) + "/" + arm +
                            "/prune=" + std::to_string(prune));
                }
            }
        }
    }
}

TEST(IvfBatchParity, OddDimAndEdgeShapes)
{
    // Codecs without divisibility constraints (SQ4 needs an even dim) at
    // an odd dim, plus the degenerate shapes: k > list contents,
    // nprobe > nlist, Q = 1 (delegates to the single-query path).
    const std::size_t d = 25;
    auto base = randomMatrix(400, d, 73);
    auto queries = randomMatrix(6, d, 74);
    for (const char *spec : {"Flat", "SQ8"}) {
        IvfConfig config;
        config.nlist = 8;
        config.codec = spec;
        IvfIndex ivf(d, Metric::L2, config);
        ivf.train(base);
        ivf.addSequential(base);
        SearchParams params;
        params.nprobe = 32; // clamped to nlist
        params.batch_min_scan_floats = 0;
        expectBatchMatchesPerQuery(ivf, queries, 500, params,
                                   std::string(spec) + " odd-dim");
        Matrix one(1, d);
        std::copy(queries.row(0).data(), queries.row(0).data() + d,
                  one.row(0).data());
        expectBatchMatchesPerQuery(ivf, one, 5, params,
                                   std::string(spec) + " single-query");
    }
}

TEST(IvfBatchParity, CostCutoverPreservesResults)
{
    // A corpus far below the default batch_min_scan_floats floor takes
    // the per-query fallback inside searchBatch; forcing the floor to 0
    // pins the list-major arm. Both must agree bit for bit.
    const std::size_t d = 24;
    auto base = randomMatrix(900, d, 77);
    auto queries = randomMatrix(7, d, 78);
    IvfConfig config;
    config.nlist = 12;
    config.codec = "SQ8";
    IvfIndex ivf(d, Metric::L2, config);
    ivf.train(base);
    ivf.addSequential(base);

    SearchParams fallback; // default floor >> 900 * d
    fallback.nprobe = 4;
    SearchParams forced = fallback;
    forced.batch_min_scan_floats = 0;

    std::vector<SearchStats> sa, sb;
    auto a = ivf.searchBatch(queries, 10, fallback, &sa);
    auto b = ivf.searchBatch(queries, 10, forced, &sb);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
        ASSERT_EQ(a[q].size(), b[q].size()) << "q=" << q;
        for (std::size_t i = 0; i < a[q].size(); ++i) {
            EXPECT_EQ(a[q][i].id, b[q][i].id) << "q=" << q;
            EXPECT_EQ(a[q][i].score, b[q][i].score) << "q=" << q;
        }
    }
}

TEST(IvfBatchParity, HnswCoarseBatchMatchesPerQuery)
{
    const std::size_t d = 24;
    auto base = randomMatrix(1500, d, 75);
    auto queries = randomMatrix(8, d, 76);
    IvfConfig config;
    config.nlist = 64;
    config.codec = "SQ8";
    config.hnsw_coarse = true;
    IvfIndex ivf(d, Metric::L2, config);
    ivf.train(base);
    ivf.addSequential(base);
    for (double prune : {0.0, 1.5}) {
        SearchParams params;
        params.nprobe = 6;
        params.prune_ratio = prune;
        params.batch_min_scan_floats = 0;
        expectBatchMatchesPerQuery(ivf, queries, 10, params,
                                   "hnsw_coarse prune=" +
                                       std::to_string(prune));
    }
}

/**
 * Independent oracle for the IVF probe plan: list membership, coarse
 * ranking, the nprobe cut and the prune bound are rebuilt from the
 * public API only, so a change to the plan both executors share shows
 * up here even though the batch-vs-single parity tests would still
 * agree with themselves.
 */
TEST(IvfIndex, PlanMatchesOracle)
{
    const std::size_t d = 24;
    const std::size_t nlist = 16;
    const std::size_t k = 10;
    auto base = randomMatrix(1500, d, 81);
    auto queries = randomMatrix(9, d, 82);
    IvfConfig config;
    config.nlist = nlist;
    config.codec = "Flat";
    IvfIndex ivf(d, Metric::L2, config);
    ivf.train(base);
    ivf.addSequential(base);

    std::vector<std::vector<vecstore::VecId>> members(nlist);
    for (std::size_t i = 0; i < base.rows(); ++i) {
        members[cluster::nearestCentroid(base.row(i), ivf.centroids())]
            .push_back(static_cast<vecstore::VecId>(i));
    }
    for (std::size_t l = 0; l < nlist; ++l)
        ASSERT_EQ(ivf.listSize(l), members[l].size()) << "list " << l;

    IsaGuard guard;
    for (const char *arm : {"scalar", "avx2"}) {
        if (!vecstore::simd::forceIsaForTesting(arm))
            continue;
        for (double prune : {0.0, 1.2}) {
            for (std::size_t nprobe : {1, 5, 16}) {
                const std::string what = std::string(arm) + " prune=" +
                                         std::to_string(prune) +
                                         " nprobe=" + std::to_string(nprobe);
                SearchParams params;
                params.nprobe = nprobe;
                params.prune_ratio = prune;
                params.batch_min_scan_floats = 0;
                std::vector<SearchStats> batch_stats;
                auto batch = ivf.searchBatch(queries, k, params, &batch_stats);
                ASSERT_EQ(batch.size(), queries.rows()) << what;

                for (std::size_t q = 0; q < queries.rows(); ++q) {
                    // Coarse ranking by (score, id), nprobe cut, prune.
                    std::vector<float> scores(nlist);
                    vecstore::l2SqBatch(queries.row(q).data(),
                                        ivf.centroids().data(), nlist, d,
                                        scores.data());
                    std::vector<std::size_t> order(nlist);
                    for (std::size_t c = 0; c < nlist; ++c)
                        order[c] = c;
                    std::sort(order.begin(), order.end(),
                              [&](std::size_t a, std::size_t b) {
                                  if (scores[a] != scores[b])
                                      return scores[a] < scores[b];
                                  return a < b;
                              });
                    order.resize(nprobe);
                    const float best = scores[order.front()];
                    const float bound =
                        prune > 0.0 ? static_cast<float>(prune) * best
                                    : std::numeric_limits<float>::max();

                    vecstore::HitList candidates;
                    std::uint64_t probed = 0;
                    for (std::size_t c : order) {
                        if (scores[c] > bound)
                            break;
                        ++probed;
                        for (vecstore::VecId id : members[c]) {
                            const auto row =
                                base.row(static_cast<std::size_t>(id));
                            candidates.push_back(
                                {id, vecstore::l2Sq(queries.row(q).data(),
                                                    row.data(), d)});
                        }
                    }
                    const std::uint64_t scanned = candidates.size();
                    std::sort(candidates.begin(), candidates.end(),
                              [](const vecstore::Hit &a,
                                 const vecstore::Hit &b) {
                                  if (a.score != b.score)
                                      return a.score < b.score;
                                  return a.id < b.id;
                              });
                    if (candidates.size() > k)
                        candidates.resize(k);

                    auto expectOracle = [&](const vecstore::HitList &hits,
                                            const SearchStats &stats,
                                            const std::string &path) {
                        const std::string at =
                            what + " " + path + " q=" + std::to_string(q);
                        ASSERT_EQ(hits.size(), candidates.size()) << at;
                        for (std::size_t i = 0; i < candidates.size(); ++i) {
                            EXPECT_EQ(hits[i].id, candidates[i].id)
                                << at << " rank=" << i;
                        }
                        EXPECT_EQ(stats.lists_probed, probed) << at;
                        EXPECT_EQ(stats.vectors_scanned, scanned) << at;
                        EXPECT_EQ(stats.distance_computations,
                                  scanned + nlist)
                            << at;
                        EXPECT_EQ(stats.bytes_scanned,
                                  scanned * d * sizeof(float))
                            << at;
                    };
                    SearchStats single_stats;
                    auto single =
                        ivf.search(queries.row(q), k, params, &single_stats);
                    expectOracle(single, single_stats, "search");
                    expectOracle(batch[q], batch_stats[q], "searchBatch");
                }
            }
        }
    }
}

/**
 * Wraps an exact index and injects a fault (serve::FaultInjector odds)
 * on queries whose first component carries the poison marker — a
 * deterministic stand-in for a query that faults mid-batch.
 */
class FaultyIndex : public AnnIndex
{
  public:
    FaultyIndex(const FlatIndex &inner, const serve::FaultInjector &faults)
        : inner_(inner), faults_(faults), rng_(faults.seed)
    {
    }

    std::size_t dim() const override { return inner_.dim(); }
    std::size_t size() const override { return inner_.size(); }
    vecstore::Metric metric() const override { return inner_.metric(); }
    bool isTrained() const override { return true; }
    void train(const Matrix &) override {}
    void
    add(const Matrix &, const std::vector<vecstore::VecId> &) override
    {
        throw std::logic_error("read-only wrapper");
    }
    std::size_t memoryBytes() const override { return 0; }
    std::string name() const override { return "Faulty"; }

    vecstore::HitList
    search(vecstore::VecView query, std::size_t k,
           const SearchParams &params,
           SearchStats *stats) const override
    {
        if (query.data()[0] > 1e29f &&
            rng_.uniform() < faults_.fail_probability)
            throw std::runtime_error("injected query fault");
        return inner_.search(query, k, params, stats);
    }

  private:
    const FlatIndex &inner_;
    serve::FaultInjector faults_;
    mutable util::Rng rng_;
};

TEST(AnnIndex, SearchBatchParallelKeepsStatsWhenQueryThrows)
{
    // Regression: searchBatchParallel used to drop the whole batch's
    // merged stats when any query threw mid-parallelFor; completed
    // queries' counters must survive the rethrow.
    const std::size_t d = 16;
    const std::size_t n = 300;
    auto base = randomMatrix(n, d, 81);
    FlatIndex flat(d, Metric::L2);
    flat.addSequential(base);

    serve::FaultInjector faults;
    faults.fail_probability = 1.0;
    FaultyIndex faulty(flat, faults);

    auto queries = randomMatrix(8, d, 82);
    queries.row(queries.rows() - 1)[0] = 1e30f; // poison last row

    // One worker drains the greedy counter in order, so every query
    // before the poisoned one completes before the throw.
    util::ThreadPool pool(1);
    SearchStats stats;
    EXPECT_THROW(faulty.searchBatchParallel(queries, 5, pool, {}, &stats),
                 std::runtime_error);
    EXPECT_EQ(stats.vectors_scanned, (queries.rows() - 1) * n);
    EXPECT_EQ(stats.bytes_scanned,
              (queries.rows() - 1) * n * d * sizeof(float));

    // Fault disabled: identical results to the serial batch, no throw.
    serve::FaultInjector off;
    FaultyIndex clean(flat, off);
    SearchStats par_stats, seq_stats;
    auto par = clean.searchBatchParallel(queries, 5, pool, {}, &par_stats);
    auto seq = flat.searchBatch(queries, 5, {}, &seq_stats);
    EXPECT_EQ(par, seq);
    EXPECT_EQ(par_stats.vectors_scanned, seq_stats.vectors_scanned);
}

TEST(AnnIndex, InnerProductMetricRanksByDotProduct)
{
    Matrix m(3, 4);
    m.row(0)[0] = 0.1f;
    m.row(1)[0] = 0.9f;
    m.row(2)[0] = 0.5f;
    FlatIndex flat(4, Metric::InnerProduct);
    flat.addSequential(m);
    std::vector<float> q{1.f, 0.f, 0.f, 0.f};
    auto hits = flat.search(vecstore::VecView(q.data(), 4), 3);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0].id, 1);
    EXPECT_EQ(hits[1].id, 2);
    EXPECT_EQ(hits[2].id, 0);
}

} // namespace
