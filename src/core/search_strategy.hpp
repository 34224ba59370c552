/**
 * @file
 * Retrieval strategies compared throughout the paper (Fig 11):
 *
 *  - MonolithicSearch: one big IVF index over the whole datastore.
 *  - NaiveSplitSearch: distributed shards, every node searched per query.
 *  - CentroidRouting:  distributed shards, route by cluster centroid only.
 *  - HermesSearch:     distributed shards, hierarchical sample-then-deep
 *                      search (the paper's contribution, §4.2).
 */

#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/distributed_store.hpp"
#include "index/ann_index.hpp"
#include "workload/trace.hpp"

namespace hermes {
namespace core {

/** Result of one strategy query, including per-node work for the sim. */
struct QueryResult
{
    /** Final top-k hits, best first. */
    vecstore::HitList hits;

    /** Clusters chosen for (or subjected to) deep search, best first. */
    std::vector<std::uint32_t> deep_clusters;

    /** Work done on each cluster node (size = numClusters; zeros where
     *  a node was not touched by the deep phase). */
    std::vector<index::SearchStats> deep_stats;

    /** Work done by the sampling pass, per cluster (empty if none). */
    std::vector<index::SearchStats> sample_stats;

    /** Aggregate work across all phases and nodes. */
    index::SearchStats total;
};

/**
 * Adaptive-pruning score bound: clusters whose sampled best score exceeds
 * this are skipped. The margin is additive on the score scale,
 * best + epsilon * |best|, which is correct for both metrics: L2 scores
 * are non-negative (where it equals the classic best * (1 + epsilon)),
 * while InnerProduct scores are negated dot products and may be negative —
 * there a multiplicative bound would shrink *below* best and prune
 * everything but the top cluster regardless of epsilon.
 */
inline float
adaptivePruneBound(float best, double epsilon)
{
    return best + static_cast<float>(epsilon) * std::fabs(best);
}

/**
 * The deep-set choice of the hierarchical plan (paper §4.2), shared by
 * every executor of it. @p sampled[c] holds cluster c's sampling hits
 * (best first), or nullopt when its probe was lost.
 *
 * Clusters rank by their best sampled score (an empty hit list ranks
 * last; ties go to the lower cluster id); lost clusters are never
 * chosen. When every probe was lost the choice falls back to id order.
 * The result is capped at @p clusters_to_search and, when @p epsilon is
 * positive, cut to the clusters within adaptivePruneBound of the best
 * (never fewer than one). Returns the chosen cluster ids, best first.
 */
std::vector<std::uint32_t>
chooseDeepClusters(const std::vector<std::optional<vecstore::HitList>>
                       &sampled,
                   std::size_t clusters_to_search, double epsilon);

/** Abstract retrieval strategy. */
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    /** Retrieve the top-k documents for one query. */
    virtual QueryResult search(vecstore::VecView query,
                               std::size_t k) const = 0;

    /** Strategy name for reports. */
    virtual std::string name() const = 0;

    /**
     * Run a query batch and collect the per-query deep-search cluster
     * trace consumed by the multi-node simulator.
     */
    workload::ClusterTrace traceBatch(const vecstore::Matrix &queries,
                                      std::size_t k,
                                      std::vector<vecstore::HitList>
                                          *results = nullptr) const;

    /** Number of cluster nodes this strategy spans (1 for monolithic). */
    virtual std::size_t numClusters() const = 0;
};

/** Single large IVF index over the full datastore. */
class MonolithicSearch : public SearchStrategy
{
  public:
    /**
     * Build the monolithic baseline index.
     * @param data  Full datastore.
     * @param codec Codec spec (paper: SQ8).
     * @param nprobe Search depth (paper: 128).
     * @param nlist  0 = sqrt(N).
     */
    MonolithicSearch(const vecstore::Matrix &data, const std::string &codec,
                     std::size_t nprobe, std::size_t nlist = 0);

    QueryResult search(vecstore::VecView query,
                       std::size_t k) const override;
    std::string name() const override { return "monolithic"; }
    std::size_t numClusters() const override { return 1; }

    const index::IvfIndex &underlyingIndex() const { return *index_; }

  private:
    std::unique_ptr<index::IvfIndex> index_;
    std::size_t nprobe_;
};

/** Searches every cluster of a distributed store and aggregates. */
class NaiveSplitSearch : public SearchStrategy
{
  public:
    explicit NaiveSplitSearch(const DistributedStore &store);

    QueryResult search(vecstore::VecView query,
                       std::size_t k) const override;
    std::string name() const override { return "naive-split"; }
    std::size_t numClusters() const override { return store_.numClusters(); }

  private:
    const DistributedStore &store_;
};

/** Routes to the clusters whose centroids are closest to the query. */
class CentroidRouting : public SearchStrategy
{
  public:
    /**
     * @param store Distributed store to route over.
     * @param clusters_override Deep-search cluster count; 0 uses the
     *        store config's clusters_to_search.
     */
    explicit CentroidRouting(const DistributedStore &store,
                             std::size_t clusters_override = 0);

    QueryResult search(vecstore::VecView query,
                       std::size_t k) const override;
    std::string name() const override { return "centroid"; }
    std::size_t numClusters() const override { return store_.numClusters(); }

  private:
    const DistributedStore &store_;
    std::size_t clusters_to_search_;
};

/**
 * Hermes hierarchical search (paper §4.2, Fig 11 left):
 *  1. sample every cluster with a cheap low-nProbe search (sample_k docs),
 *  2. rank clusters by their best sampled document's distance,
 *  3. deep-search the top clusters_to_search clusters with a high nProbe
 *     (steps 2-3 choose the deep set via chooseDeepClusters),
 *  4. merge and rerank into the final top-k.
 */
class HermesSearch : public SearchStrategy
{
  public:
    /**
     * @param store Distributed store to search.
     * @param clusters_override Deep-search cluster count; 0 uses the
     *        store config's clusters_to_search.
     * @param sample_nprobe_override Sampling nProbe; 0 uses the store
     *        config's sample_nprobe.
     * @param deep_nprobe_override Deep-search nProbe; 0 uses the store
     *        config's deep_nprobe.
     */
    explicit HermesSearch(const DistributedStore &store,
                          std::size_t clusters_override = 0,
                          std::size_t sample_nprobe_override = 0,
                          std::size_t deep_nprobe_override = 0);

    QueryResult search(vecstore::VecView query,
                       std::size_t k) const override;
    std::string name() const override { return "hermes"; }
    std::size_t numClusters() const override { return store_.numClusters(); }

  private:
    const DistributedStore &store_;
    std::size_t clusters_to_search_;
    std::size_t sample_nprobe_;
    std::size_t deep_nprobe_;
};

} // namespace core
} // namespace hermes
