#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/topk.hpp"

namespace hermes {
namespace cluster {

using vecstore::Matrix;

namespace {

/** Rows scored per blocked-kernel call (bounds scratch memory). */
constexpr std::size_t kScanBlockRows = 4096;

/**
 * Index of the centroid nearest to @p x under L2, via the blocked kernel
 * into a thread-local scratch buffer. Ties keep the lowest index, like
 * the strict-less scalar loop this replaces.
 */
std::uint32_t
argminCentroid(const float *x, const Matrix &centroids)
{
    const std::size_t k = centroids.rows();
    const std::size_t d = centroids.dim();
    static thread_local std::vector<float> scores;
    if (scores.size() < std::min(k, kScanBlockRows))
        scores.resize(std::min(k, kScanBlockRows));
    float best = std::numeric_limits<float>::max();
    std::uint32_t best_c = 0;
    for (std::size_t base = 0; base < k; base += kScanBlockRows) {
        const std::size_t len = std::min(kScanBlockRows, k - base);
        vecstore::l2SqBatch(x, centroids.row(base).data(), len, d,
                            scores.data());
        for (std::size_t c = 0; c < len; ++c) {
            if (scores[c] < best) {
                best = scores[c];
                best_c = static_cast<std::uint32_t>(base + c);
            }
        }
    }
    return best_c;
}

/**
 * k-means++ seeding: pick centroids proportionally to squared distance from
 * the closest already-chosen centroid.
 *
 * The distance update runs on the build pool in row blocks. A block is a
 * multiple of 4 rows, so every row sits in the same four-row kernel group
 * (and the final partial group in the same tail) as in one call over all
 * rows: dist_sq is bit-identical for any block split. The total then sums
 * dist_sq in row order.
 */
Matrix
seedKMeansPp(const Matrix &data, std::size_t k, util::Rng &rng)
{
    const std::size_t n = data.rows();
    const std::size_t d = data.dim();
    Matrix centroids(d);
    centroids.reserveRows(k);

    std::size_t first = rng.uniformInt(n);
    centroids.append(data.row(first));

    std::vector<float> dist_sq(n, std::numeric_limits<float>::max());
    const std::size_t block =
        (util::ThreadPool::blockFor(d) + 3) / 4 * 4;
    for (std::size_t c = 1; c < k; ++c) {
        const float *last = centroids.row(c - 1).data();
        util::ThreadPool::shared().parallelForBlocks(
            n, block, [&](std::size_t begin, std::size_t end) {
                static thread_local std::vector<float> scores;
                scores.resize(end - begin);
                vecstore::l2SqBatch(last, data.row(begin).data(),
                                    end - begin, d, scores.data());
                for (std::size_t i = begin; i < end; ++i)
                    dist_sq[i] = std::min(dist_sq[i], scores[i - begin]);
            });
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            total += dist_sq[i];
        if (total <= 0.0) {
            // All remaining points coincide with chosen centroids; fall
            // back to a uniform pick.
            centroids.append(data.row(rng.uniformInt(n)));
            continue;
        }
        double target = rng.uniform() * total;
        double acc = 0.0;
        std::size_t chosen = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            acc += dist_sq[i];
            if (acc >= target) {
                chosen = i;
                break;
            }
        }
        centroids.append(data.row(chosen));
    }
    return centroids;
}

Matrix
seedRandom(const Matrix &data, std::size_t k, util::Rng &rng)
{
    auto picks = rng.sampleWithoutReplacement(data.rows(), k);
    Matrix centroids(data.dim());
    centroids.reserveRows(k);
    for (std::size_t idx : picks)
        centroids.append(data.row(idx));
    return centroids;
}

} // namespace

KMeansResult
kmeans(const Matrix &data, const KMeansConfig &config)
{
    HERMES_ASSERT(config.k >= 1, "kmeans needs k >= 1");
    HERMES_ASSERT(data.rows() >= config.k, "kmeans: fewer points (",
                  data.rows(), ") than centroids (", config.k, ")");

    util::Rng rng(config.seed);

    // Optional training subsample (paper §4.1: 1-2% subsets track the full
    // clustering closely at a fraction of the cost).
    const Matrix *train = &data;
    Matrix subset(data.dim());
    if (config.max_training_points > 0 &&
        config.max_training_points < data.rows()) {
        std::size_t want = std::max(config.max_training_points, config.k);
        auto picks = rng.sampleWithoutReplacement(data.rows(), want);
        subset = data.gather(picks);
        train = &subset;
    }

    const std::size_t n = train->rows();
    const std::size_t d = train->dim();
    const std::size_t k = config.k;

    KMeansResult result;
    result.centroids = config.use_kmeanspp ? seedKMeansPp(*train, k, rng)
                                           : seedRandom(*train, k, rng);
    result.assignments.assign(n, 0);
    result.sizes.assign(k, 0);

    std::vector<double> sums(k * d, 0.0);
    std::vector<float> best_dist(n);
    double prev_objective = std::numeric_limits<double>::max();

    for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
        result.iterations = iter + 1;

        // Assignment step, on the build pool: one blocked scan of the
        // centroid matrix per point instead of a per-centroid kernel call.
        util::ThreadPool::shared().parallelForBlocks(
            n, util::ThreadPool::blockFor(k * d),
            [&](std::size_t begin, std::size_t end) {
                static thread_local std::vector<float> cd;
                cd.resize(k);
                for (std::size_t i = begin; i < end; ++i) {
                    vecstore::l2SqBatch(train->row(i).data(),
                                        result.centroids.data(), k, d,
                                        cd.data());
                    float best = std::numeric_limits<float>::max();
                    std::uint32_t best_c = 0;
                    for (std::size_t c = 0; c < k; ++c) {
                        if (cd[c] < best) {
                            best = cd[c];
                            best_c = static_cast<std::uint32_t>(c);
                        }
                    }
                    result.assignments[i] = best_c;
                    best_dist[i] = best;
                }
            });

        // Reductions, serially in row order.
        double objective = 0.0;
        std::fill(result.sizes.begin(), result.sizes.end(), 0);
        std::fill(sums.begin(), sums.end(), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t c = result.assignments[i];
            result.sizes[c]++;
            objective += best_dist[i];
            const float *x = train->row(i).data();
            double *sum = sums.data() + c * d;
            for (std::size_t j = 0; j < d; ++j)
                sum[j] += x[j];
        }
        objective /= static_cast<double>(n);
        result.objective = objective;

        // Update step.
        for (std::size_t c = 0; c < k; ++c) {
            if (result.sizes[c] == 0)
                continue;
            float *centroid = result.centroids.row(c).data();
            double inv = 1.0 / static_cast<double>(result.sizes[c]);
            const double *sum = sums.data() + c * d;
            for (std::size_t j = 0; j < d; ++j)
                centroid[j] = static_cast<float>(sum[j] * inv);
        }

        // Empty-cluster repair: steal a perturbed copy of the largest
        // cluster's centroid (FAISS-style split).
        for (std::size_t c = 0; c < k; ++c) {
            if (result.sizes[c] > 0)
                continue;
            std::size_t biggest =
                static_cast<std::size_t>(std::max_element(
                    result.sizes.begin(), result.sizes.end()) -
                    result.sizes.begin());
            const float *src = result.centroids.row(biggest).data();
            float *dst = result.centroids.row(c).data();
            for (std::size_t j = 0; j < d; ++j) {
                float eps = static_cast<float>(rng.gaussian(0.0, 1e-4));
                dst[j] = src[j] * (1.f + eps) + eps;
            }
            // Give the repaired cluster a nominal share so repeated repairs
            // do not pick the same donor forever.
            result.sizes[c] = result.sizes[biggest] / 2;
            result.sizes[biggest] -= result.sizes[c];
        }

        double improvement = (prev_objective - objective) /
                             std::max(prev_objective, 1e-30);
        if (iter > 0 && improvement >= 0.0 && improvement < config.tolerance)
            break;
        prev_objective = objective;
    }

    // Final consistent assignment over the training set.
    result.assignments = assignToCentroids(*train, result.centroids);
    std::fill(result.sizes.begin(), result.sizes.end(), 0);
    for (auto a : result.assignments)
        result.sizes[a]++;

    return result;
}

std::vector<std::uint32_t>
assignToCentroids(const Matrix &data, const Matrix &centroids)
{
    HERMES_ASSERT(data.dim() == centroids.dim(),
                  "assign: dim mismatch ", data.dim(), " vs ",
                  centroids.dim());
    std::vector<std::uint32_t> out(data.rows());
    util::ThreadPool::shared().parallelForBlocks(
        data.rows(),
        util::ThreadPool::blockFor(centroids.rows() * centroids.dim()),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                out[i] = argminCentroid(data.row(i).data(), centroids);
        });
    return out;
}

std::uint32_t
nearestCentroid(vecstore::VecView v, const Matrix &centroids)
{
    HERMES_ASSERT(centroids.rows() > 0,
                  "nearestCentroid: empty centroid set");
    return argminCentroid(v.data(), centroids);
}

std::vector<std::uint32_t>
nearestCentroids(vecstore::VecView v, const Matrix &centroids, std::size_t n)
{
    const std::size_t k = centroids.rows();
    const std::size_t d = centroids.dim();
    n = std::min(n, k);
    vecstore::TopK selector(n);
    static thread_local std::vector<float> scores;
    if (scores.size() < std::min(k, kScanBlockRows))
        scores.resize(std::min(k, kScanBlockRows));
    for (std::size_t base = 0; base < k; base += kScanBlockRows) {
        const std::size_t len = std::min(kScanBlockRows, k - base);
        vecstore::l2SqBatch(v.data(), centroids.row(base).data(), len, d,
                            scores.data());
        for (std::size_t c = 0; c < len; ++c) {
            selector.push(static_cast<vecstore::VecId>(base + c),
                          scores[c]);
        }
    }
    auto hits = selector.take();
    std::vector<std::uint32_t> out;
    out.reserve(hits.size());
    for (const auto &hit : hits)
        out.push_back(static_cast<std::uint32_t>(hit.id));
    return out;
}

} // namespace cluster
} // namespace hermes
