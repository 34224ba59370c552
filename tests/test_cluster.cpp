/**
 * @file
 * Tests for K-means, imbalance metrics, and datastore partitioning (§4.1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <sys/wait.h>
#include <unistd.h>

#include "cluster/imbalance.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/partitioner.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;
using namespace hermes::cluster;
using hermes::util::Rng;
using hermes::vecstore::Matrix;

/** Well-separated blobs: k-means must recover them. */
Matrix
blobs(std::size_t per_blob, std::size_t num_blobs, std::size_t d,
      std::uint64_t seed, std::vector<std::uint32_t> *labels = nullptr)
{
    Rng rng(seed);
    Matrix centers(num_blobs, d);
    for (std::size_t b = 0; b < num_blobs; ++b) {
        auto row = centers.row(b);
        for (std::size_t j = 0; j < d; ++j)
            row[j] = static_cast<float>(rng.gaussian() * 10.0);
    }
    Matrix data(per_blob * num_blobs, d);
    for (std::size_t b = 0; b < num_blobs; ++b) {
        for (std::size_t i = 0; i < per_blob; ++i) {
            auto row = data.row(b * per_blob + i);
            auto c = centers.row(b);
            for (std::size_t j = 0; j < d; ++j)
                row[j] = c[j] + static_cast<float>(rng.gaussian(0.0, 0.3));
            if (labels)
                labels->push_back(static_cast<std::uint32_t>(b));
        }
    }
    return data;
}

TEST(KMeans, ProducesKCentroidsAndValidAssignments)
{
    auto data = blobs(50, 4, 8, 1);
    KMeansConfig config;
    config.k = 4;
    auto result = kmeans(data, config);
    EXPECT_EQ(result.centroids.rows(), 4u);
    EXPECT_EQ(result.assignments.size(), data.rows());
    for (auto a : result.assignments)
        EXPECT_LT(a, 4u);
    std::size_t total = std::accumulate(result.sizes.begin(),
                                        result.sizes.end(), std::size_t{0});
    EXPECT_EQ(total, data.rows());
}

TEST(KMeans, RecoversWellSeparatedBlobs)
{
    std::vector<std::uint32_t> labels;
    auto data = blobs(60, 5, 8, 2, &labels);
    KMeansConfig config;
    config.k = 5;
    auto result = kmeans(data, config);

    // Every k-means cluster should be label-pure for blobs this separated.
    for (std::size_t c = 0; c < 5; ++c) {
        std::set<std::uint32_t> seen;
        for (std::size_t i = 0; i < data.rows(); ++i)
            if (result.assignments[i] == c)
                seen.insert(labels[i]);
        EXPECT_LE(seen.size(), 1u) << "cluster " << c << " is impure";
    }
}

TEST(KMeans, ObjectiveImprovesOverSingleIteration)
{
    auto data = blobs(80, 6, 12, 3);
    KMeansConfig one, many;
    one.k = many.k = 6;
    one.max_iterations = 1;
    many.max_iterations = 20;
    one.seed = many.seed = 7;
    one.use_kmeanspp = many.use_kmeanspp = false;
    EXPECT_LE(kmeans(data, many).objective, kmeans(data, one).objective);
}

TEST(KMeans, DeterministicForFixedSeed)
{
    auto data = blobs(40, 3, 6, 4);
    KMeansConfig config;
    config.k = 3;
    config.seed = 99;
    auto a = kmeans(data, config);
    auto b = kmeans(data, config);
    EXPECT_EQ(a.assignments, b.assignments);
    EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(KMeans, SubsampledTrainingStillCovers)
{
    auto data = blobs(100, 4, 8, 5);
    KMeansConfig config;
    config.k = 4;
    config.max_training_points = 80; // 20% subsample
    auto result = kmeans(data, config);
    EXPECT_EQ(result.centroids.rows(), 4u);
    // Full-data assignment must still put points in every cluster.
    auto assignments = assignToCentroids(data, result.centroids);
    std::vector<std::size_t> sizes(4, 0);
    for (auto a : assignments)
        sizes[a]++;
    for (auto s : sizes)
        EXPECT_GT(s, 0u);
}

TEST(KMeans, KEqualsNAssignsOnePointEach)
{
    auto data = blobs(1, 6, 4, 6);
    KMeansConfig config;
    config.k = 6;
    auto result = kmeans(data, config);
    for (auto s : result.sizes)
        EXPECT_EQ(s, 1u);
}

TEST(KMeans, NearestCentroidsReturnsSortedPrefix)
{
    auto data = blobs(30, 5, 8, 7);
    KMeansConfig config;
    config.k = 5;
    auto result = kmeans(data, config);
    auto top3 = nearestCentroids(data.row(0), result.centroids, 3);
    ASSERT_EQ(top3.size(), 3u);
    EXPECT_EQ(top3[0], nearestCentroid(data.row(0), result.centroids));
    // Asking for more than k clamps.
    auto top9 = nearestCentroids(data.row(0), result.centroids, 9);
    EXPECT_EQ(top9.size(), 5u);
}

/** True when two k-means results match bit for bit. */
::testing::AssertionResult
sameBytes(const KMeansResult &a, const KMeansResult &b)
{
    const std::size_t floats = a.centroids.rows() * a.centroids.dim();
    if (b.centroids.rows() != a.centroids.rows() ||
        b.centroids.dim() != a.centroids.dim() ||
        std::memcmp(a.centroids.data(), b.centroids.data(),
                    floats * sizeof(float)) != 0) {
        return ::testing::AssertionFailure() << "centroid bytes differ";
    }
    if (a.assignments != b.assignments)
        return ::testing::AssertionFailure() << "assignments differ";
    if (a.sizes != b.sizes)
        return ::testing::AssertionFailure() << "sizes differ";
    if (std::memcmp(&a.objective, &b.objective, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "objective " << a.objective << " vs " << b.objective;
    }
    if (a.iterations != b.iterations)
        return ::testing::AssertionFailure() << "iteration counts differ";
    return ::testing::AssertionSuccess();
}

/** kmeans() run as a task of the build pool, where its own parallelFor
 *  calls run inline: the one-thread reference. */
KMeansResult
kmeansInsidePoolTask(const Matrix &data, const KMeansConfig &config)
{
    KMeansResult out;
    util::ThreadPool::TaskGroup group(util::ThreadPool::shared());
    group.run([&] { out = kmeans(data, config); });
    group.wait();
    return out;
}

/** Rows 0..n-1 cycling through @p distinct points of @p d dims. */
Matrix
repeatedPoints(std::size_t n, std::size_t distinct, std::size_t d)
{
    auto points = blobs(1, distinct, d, 31);
    Matrix data(d);
    for (std::size_t i = 0; i < n; ++i)
        data.append(points.row(i % distinct));
    return data;
}

TEST(KMeans, PooledMatchesInline)
{
    struct Shape
    {
        const char *name;
        Matrix data;
        std::size_t k;
        std::size_t max_training_points;
        bool expect_empty_cluster;
    };
    std::vector<Shape> shapes;
    // n a multiple of no block size (seeding, assignment or sum slabs).
    shapes.push_back({"n=5003,d=32", blobs(5003, 1, 32, 11), 16, 0, false});
    shapes.push_back({"n=1003,d=384", blobs(1003, 1, 384, 12), 8, 0,
                      false});
    shapes.push_back({"k=1", blobs(777, 1, 32, 13), 1, 0, false});
    shapes.push_back({"k=n", blobs(1, 64, 384, 14), 64, 0, false});
    // Three distinct points and k = 8: k-means++ falls back to duplicate
    // picks, whose clusters stay empty and are repaired every iteration.
    shapes.push_back({"empty-cluster repair", repeatedPoints(3001, 3, 32),
                      8, 0, true});
    shapes.push_back({"subsampled", blobs(2000, 10, 32, 15), 24, 3001,
                      false});
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(shape.name);
        KMeansConfig config;
        config.k = shape.k;
        config.seed = 3;
        config.max_training_points = shape.max_training_points;
        const auto inline_run = kmeansInsidePoolTask(shape.data, config);
        const auto pooled = kmeans(shape.data, config);
        EXPECT_TRUE(sameBytes(inline_run, pooled));
        const bool has_empty =
            std::count(pooled.sizes.begin(), pooled.sizes.end(), 0u) > 0;
        EXPECT_EQ(has_empty, shape.expect_empty_cluster);

        const auto assign_inline = [&] {
            std::vector<std::uint32_t> out;
            util::ThreadPool::TaskGroup group(util::ThreadPool::shared());
            group.run([&] {
                out = assignToCentroids(shape.data, pooled.centroids);
            });
            group.wait();
            return out;
        }();
        EXPECT_EQ(assign_inline,
                  assignToCentroids(shape.data, pooled.centroids));
    }
}

TEST(KMeans, ForkedChildRunsInline)
{
    auto data = blobs(500, 8, 32, 21);
    KMeansConfig config;
    config.k = 16;
    config.seed = 5;
    // Runs on the build pool, so its workers exist in this process.
    const auto parent = kmeans(data, config);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // The child has none of the pool's workers. Were its parallelFor
        // to hand them work it would wait forever; the alarm turns that
        // into a failed test instead of a hung one.
        alarm(20);
        const auto child = kmeans(data, config);
        _exit(sameBytes(parent, child) ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "child killed by signal "
        << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
    EXPECT_EQ(WEXITSTATUS(status), 0) << "child centroids differ";
}

TEST(Imbalance, PerfectBalance)
{
    auto stats = imbalance({10, 10, 10, 10});
    EXPECT_DOUBLE_EQ(stats.max_min_ratio, 1.0);
    EXPECT_DOUBLE_EQ(stats.variance, 0.0);
    EXPECT_NEAR(stats.normalized_entropy, 1.0, 1e-12);
}

TEST(Imbalance, KnownRatio)
{
    auto stats = imbalance({20, 10});
    EXPECT_DOUBLE_EQ(stats.max_min_ratio, 2.0);
    EXPECT_DOUBLE_EQ(stats.variance, 25.0);
    EXPECT_LT(stats.normalized_entropy, 1.0);
}

TEST(Imbalance, EmptyClusterIsInfiniteRatio)
{
    auto stats = imbalance({5, 0, 5});
    EXPECT_TRUE(std::isinf(stats.max_min_ratio));
}

TEST(Imbalance, SeedSearchPicksBestCandidate)
{
    hermes::workload::CorpusConfig cc;
    cc.num_docs = 3000;
    cc.dim = 16;
    cc.num_topics = 12;
    cc.seed = 31;
    auto corpus = hermes::workload::generateCorpus(cc);

    auto result = findBalancedSeed(corpus.embeddings, 6, 6, 100, 0.25);
    ASSERT_EQ(result.all_ratios.size(), 6u);
    double best = *std::min_element(result.all_ratios.begin(),
                                    result.all_ratios.end());
    EXPECT_DOUBLE_EQ(result.best_ratio, best);
    EXPECT_GE(result.best_seed, 100u);
    EXPECT_LT(result.best_seed, 106u);
}

/** Every partition scheme covers each row exactly once. */
class PartitionSchemes : public ::testing::TestWithParam<PartitionScheme>
{
};

TEST_P(PartitionSchemes, ExactCoverage)
{
    auto data = blobs(40, 5, 8, 8);
    PartitionConfig config;
    config.num_partitions = 5;
    config.scheme = GetParam();
    config.seeds_to_try = 2;
    auto partitioning = partition(data, config);

    ASSERT_EQ(partitioning.members.size(), 5u);
    std::vector<int> seen(data.rows(), 0);
    for (const auto &members : partitioning.members)
        for (auto idx : members)
            seen[idx]++;
    for (int s : seen)
        EXPECT_EQ(s, 1);
    EXPECT_EQ(partitioning.centroids.rows(), 5u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionSchemes,
                         ::testing::Values(PartitionScheme::Similarity,
                                           PartitionScheme::RoundRobin,
                                           PartitionScheme::Contiguous));

TEST(Partitioner, SimilarityGroupsTopicMates)
{
    std::vector<std::uint32_t> labels;
    auto data = blobs(60, 6, 10, 9, &labels);
    PartitionConfig config;
    config.num_partitions = 6;
    config.scheme = PartitionScheme::Similarity;
    config.seeds_to_try = 3;
    auto partitioning = partition(data, config);

    // Blob purity: each partition should be dominated by one label.
    double pure = 0, total = 0;
    for (const auto &members : partitioning.members) {
        std::vector<std::size_t> counts(6, 0);
        for (auto idx : members)
            counts[labels[idx]]++;
        pure += static_cast<double>(
            *std::max_element(counts.begin(), counts.end()));
        total += static_cast<double>(members.size());
    }
    EXPECT_GT(pure / total, 0.95);
}

TEST(Partitioner, RoundRobinIsNearlyPerfectlyBalanced)
{
    auto data = blobs(41, 5, 6, 10); // 205 rows over 5 partitions
    PartitionConfig config;
    config.num_partitions = 5;
    config.scheme = PartitionScheme::RoundRobin;
    auto partitioning = partition(data, config);
    EXPECT_LE(partitioning.imbalance.max_min_ratio, 1.03);
}

TEST(Partitioner, SimilarityImbalanceReflectsTopicSkew)
{
    // Zipf-skewed topics make similarity clusters uneven (Fig 13),
    // round-robin stays balanced on the same data.
    hermes::workload::CorpusConfig cc;
    cc.num_docs = 4000;
    cc.dim = 16;
    cc.num_topics = 10;
    cc.topic_zipf = 1.0;
    cc.seed = 77;
    auto corpus = hermes::workload::generateCorpus(cc);

    PartitionConfig sim_config;
    sim_config.num_partitions = 10;
    sim_config.scheme = PartitionScheme::Similarity;
    sim_config.seeds_to_try = 3;
    auto sim_parts = partition(corpus.embeddings, sim_config);

    PartitionConfig rr_config = sim_config;
    rr_config.scheme = PartitionScheme::RoundRobin;
    auto rr_parts = partition(corpus.embeddings, rr_config);

    EXPECT_GT(sim_parts.imbalance.max_min_ratio,
              rr_parts.imbalance.max_min_ratio);
}

} // namespace
