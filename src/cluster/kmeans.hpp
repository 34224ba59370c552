/**
 * @file
 * Lloyd's K-means with seeded initialization, used for:
 *   - IVF coarse quantizer training (nlist cells),
 *   - Product Quantization codebooks,
 *   - Hermes datastore partitioning (Section 4.1 of the paper).
 *
 * Every pass over the points runs on the build pool
 * (util::ThreadPool::shared()), in parallel over rows; every reduction
 * (the k-means++ total, sizes, objective, centroid sums) adds in row
 * order, so results are bit-identical to a one-thread run, and a kmeans()
 * called from inside a pool task runs inline.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "vecstore/matrix.hpp"
#include "vecstore/types.hpp"

namespace hermes {

namespace cluster {

/** K-means configuration. */
struct KMeansConfig
{
    /** Number of centroids. */
    std::size_t k = 8;

    /** Maximum Lloyd iterations. */
    std::size_t max_iterations = 25;

    /** Stop when the relative objective improvement drops below this. */
    double tolerance = 1e-4;

    /** PRNG seed for centroid initialization. */
    std::uint64_t seed = 1;

    /** Use k-means++ seeding instead of uniform random rows. */
    bool use_kmeanspp = true;

    /**
     * Train on at most this many points (0 = use all). Sub-sampling is the
     * paper's trick for cheap multi-seed imbalance exploration (§4.1).
     */
    std::size_t max_training_points = 0;
};

/** Result of a K-means run. */
struct KMeansResult
{
    /** k x d centroid matrix. */
    vecstore::Matrix centroids;

    /** Assignment of each *training* point to its centroid. */
    std::vector<std::uint32_t> assignments;

    /** Points per centroid (over the training set). */
    std::vector<std::size_t> sizes;

    /** Final mean squared distance to assigned centroid. */
    double objective = 0.0;

    /** Lloyd iterations actually executed. */
    std::size_t iterations = 0;
};

/**
 * Run Lloyd's algorithm on row-major data.
 *
 * Empty clusters are repaired by splitting the largest cluster, matching
 * standard FAISS behaviour, so the result always has k non-degenerate
 * centroids when the input has >= k distinct points.
 */
KMeansResult kmeans(const vecstore::Matrix &data, const KMeansConfig &config);

/**
 * Assign each row of @p data to the nearest centroid (L2), rows fanned
 * out over the build pool (assignments are independent).
 */
std::vector<std::uint32_t> assignToCentroids(const vecstore::Matrix &data,
                                             const vecstore::Matrix &centroids);

/** Nearest centroid of a single vector. */
std::uint32_t nearestCentroid(vecstore::VecView v,
                              const vecstore::Matrix &centroids);

/**
 * Nearest @p n centroids of a single vector, best first.
 */
std::vector<std::uint32_t> nearestCentroids(vecstore::VecView v,
                                            const vecstore::Matrix &centroids,
                                            std::size_t n);

} // namespace cluster
} // namespace hermes
