#include "core/search_strategy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "vecstore/topk.hpp"

namespace hermes {
namespace core {

namespace {

/**
 * Deep-search @p clusters (in order) at @p nprobe: records each one in
 * result.deep_clusters, its work in result.deep_stats (one slot per
 * cluster of the store) and result.total, and returns the per-cluster
 * hit lists for the caller to merge.
 */
std::vector<vecstore::HitList>
deepSearch(const DistributedStore &store, vecstore::VecView query,
           std::size_t k, std::size_t nprobe,
           const std::vector<std::uint32_t> &clusters, QueryResult &result)
{
    index::SearchParams params;
    params.nprobe = nprobe;
    result.deep_stats.resize(store.numClusters());
    std::vector<vecstore::HitList> partials;
    partials.reserve(clusters.size());
    for (std::uint32_t c : clusters) {
        partials.push_back(store.clusterIndex(c).search(
            query, k, params, &result.deep_stats[c]));
        result.deep_clusters.push_back(c);
        result.total.merge(result.deep_stats[c]);
    }
    return partials;
}

} // namespace

std::vector<std::uint32_t>
chooseDeepClusters(const std::vector<std::optional<vecstore::HitList>>
                       &sampled,
                   std::size_t clusters_to_search, double epsilon)
{
    std::vector<std::pair<float, std::uint32_t>> ranked;
    ranked.reserve(sampled.size());
    for (std::size_t c = 0; c < sampled.size(); ++c) {
        if (!sampled[c])
            continue;
        float best = sampled[c]->empty() ? std::numeric_limits<float>::max()
                                         : sampled[c]->front().score;
        ranked.emplace_back(best, static_cast<std::uint32_t>(c));
    }
    std::sort(ranked.begin(), ranked.end());

    if (ranked.empty()) {
        // Every sampling probe was lost. Best effort: deep-search the
        // configured number of clusters in id order anyway — some may
        // answer deep requests even after a lost sample.
        for (std::size_t c = 0;
             c < std::min(clusters_to_search, sampled.size()); ++c) {
            ranked.emplace_back(std::numeric_limits<float>::max(),
                                static_cast<std::uint32_t>(c));
        }
    }

    // Adaptive pruning (extension; see HermesConfig::adaptive_epsilon):
    // clusters far from the best sampled score are skipped.
    std::size_t deep = std::min(clusters_to_search, ranked.size());
    if (epsilon > 0.0 && !ranked.empty()) {
        float bound = adaptivePruneBound(ranked.front().first, epsilon);
        std::size_t keep = 0;
        while (keep < deep && ranked[keep].first <= bound)
            ++keep;
        deep = std::max<std::size_t>(keep, 1);
    }

    std::vector<std::uint32_t> chosen;
    chosen.reserve(deep);
    for (std::size_t i = 0; i < deep; ++i)
        chosen.push_back(ranked[i].second);
    return chosen;
}

workload::ClusterTrace
SearchStrategy::traceBatch(const vecstore::Matrix &queries, std::size_t k,
                           std::vector<vecstore::HitList> *results) const
{
    workload::ClusterTrace trace;
    trace.num_clusters = numClusters();
    trace.records.reserve(queries.rows());
    if (results)
        results->reserve(queries.rows());

    for (std::size_t q = 0; q < queries.rows(); ++q) {
        auto result = search(queries.row(q), k);
        workload::TraceRecord record;
        record.query = static_cast<std::uint32_t>(q);
        record.clusters = result.deep_clusters;
        trace.records.push_back(std::move(record));
        if (results)
            results->push_back(std::move(result.hits));
    }
    return trace;
}

// ---------------------------------------------------------------------------
// MonolithicSearch
// ---------------------------------------------------------------------------

MonolithicSearch::MonolithicSearch(const vecstore::Matrix &data,
                                   const std::string &codec,
                                   std::size_t nprobe, std::size_t nlist)
    : nprobe_(nprobe)
{
    index::IvfConfig config;
    config.codec = codec;
    config.nlist = nlist ? nlist : index::IvfIndex::suggestedNlist(
        data.rows());
    index_ = std::make_unique<index::IvfIndex>(data.dim(),
                                               vecstore::Metric::L2, config);
    index_->train(data);
    index_->addSequential(data);
}

QueryResult
MonolithicSearch::search(vecstore::VecView query, std::size_t k) const
{
    QueryResult result;
    index::SearchParams params;
    params.nprobe = nprobe_;
    result.deep_stats.resize(1);
    result.hits = index_->search(query, k, params, &result.deep_stats[0]);
    result.deep_clusters = {0};
    result.total = result.deep_stats[0];
    return result;
}

// ---------------------------------------------------------------------------
// NaiveSplitSearch
// ---------------------------------------------------------------------------

NaiveSplitSearch::NaiveSplitSearch(const DistributedStore &store)
    : store_(store)
{
}

QueryResult
NaiveSplitSearch::search(vecstore::VecView query, std::size_t k) const
{
    QueryResult result;
    std::vector<std::uint32_t> all(store_.numClusters());
    std::iota(all.begin(), all.end(), 0u);
    result.hits = vecstore::mergeHitLists(
        deepSearch(store_, query, k, store_.config().deep_nprobe, all,
                   result),
        k);
    return result;
}

// ---------------------------------------------------------------------------
// CentroidRouting
// ---------------------------------------------------------------------------

CentroidRouting::CentroidRouting(const DistributedStore &store,
                                 std::size_t clusters_override)
    : store_(store),
      clusters_to_search_(clusters_override
                              ? clusters_override
                              : store.config().clusters_to_search)
{
    HERMES_ASSERT(clusters_to_search_ <= store_.numClusters(),
                  "clusters_to_search exceeds cluster count");
}

QueryResult
CentroidRouting::search(vecstore::VecView query, std::size_t k) const
{
    QueryResult result;
    auto ranked = cluster::nearestCentroids(query, store_.centroids(),
                                            clusters_to_search_);
    // Centroid comparisons are counted as sampling-phase work: one
    // distance per cluster.
    result.sample_stats.resize(store_.numClusters());
    for (std::size_t c = 0; c < store_.numClusters(); ++c) {
        result.sample_stats[c].distance_computations = 1;
        result.total.distance_computations += 1;
    }

    result.hits = vecstore::mergeHitLists(
        deepSearch(store_, query, k, store_.config().deep_nprobe, ranked,
                   result),
        k);
    return result;
}

// ---------------------------------------------------------------------------
// HermesSearch
// ---------------------------------------------------------------------------

HermesSearch::HermesSearch(const DistributedStore &store,
                           std::size_t clusters_override,
                           std::size_t sample_nprobe_override,
                           std::size_t deep_nprobe_override)
    : store_(store),
      clusters_to_search_(clusters_override
                              ? clusters_override
                              : store.config().clusters_to_search),
      sample_nprobe_(sample_nprobe_override
                         ? sample_nprobe_override
                         : store.config().sample_nprobe),
      deep_nprobe_(deep_nprobe_override ? deep_nprobe_override
                                        : store.config().deep_nprobe)
{
    HERMES_ASSERT(clusters_to_search_ <= store_.numClusters(),
                  "clusters_to_search exceeds cluster count");
}

QueryResult
HermesSearch::search(vecstore::VecView query, std::size_t k) const
{
    static obs::Histogram &h_query = obs::Registry::instance().histogram(
        obs::names::kCoreQueryLatencyUs);
    static obs::Histogram &h_sample = obs::Registry::instance().histogram(
        obs::names::kCoreSamplePhaseUs);
    static obs::Histogram &h_deep = obs::Registry::instance().histogram(
        obs::names::kCoreDeepPhaseUs);

    QueryResult result;
    obs::TraceContext trace_context(
        obs::TraceRecorder::instance().sampleQuery());
    obs::ScopedSpan query_span("core.search");
    query_span.arg("k", static_cast<std::uint64_t>(k));
    util::Timer query_timer;
    util::Timer phase_timer;

    // Phase 1: sample + rank. Document sampling (paper §4.2): retrieve
    // sample_k documents from every cluster with a cheap low-nProbe
    // search and score the cluster by its best sampled document. Unlike
    // centroid routing, this probes actual documents, so clusters whose
    // centroid is mediocre but which contain a pocket of highly relevant
    // documents still rank high.
    const std::size_t n = store_.numClusters();
    std::vector<std::optional<vecstore::HitList>> sampled(n);
    result.sample_stats.resize(n);
    {
        obs::ScopedSpan span("core.sample");
        index::SearchParams params;
        params.nprobe = sample_nprobe_;
        for (std::size_t c = 0; c < n; ++c) {
            sampled[c] = store_.clusterIndex(c).search(
                query, store_.config().sample_k, params,
                &result.sample_stats[c]);
        }
    }
    const std::vector<std::uint32_t> deep = chooseDeepClusters(
        sampled, clusters_to_search_, store_.config().adaptive_epsilon);
    for (const auto &stats : result.sample_stats)
        result.total.merge(stats);
    h_sample.observe(phase_timer.elapsedMicros());

    // Phase 2: deep search of the chosen clusters.
    phase_timer.reset();
    std::vector<vecstore::HitList> partials;
    {
        obs::ScopedSpan span("core.deep");
        span.arg("clusters", static_cast<std::uint64_t>(deep.size()));
        partials = deepSearch(store_, query, k, deep_nprobe_, deep, result);
    }
    h_deep.observe(phase_timer.elapsedMicros());

    // Phase 3: rerank merged candidates into the final top-k.
    result.hits = vecstore::mergeHitLists(partials, k);
    h_query.observe(query_timer.elapsedMicros());
    return result;
}

} // namespace core
} // namespace hermes
