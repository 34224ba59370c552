/**
 * @file
 * Abstract approximate-nearest-neighbor index interface.
 *
 * Mirrors the FAISS surface the paper uses: train on a sample, add vectors
 * (with optional external ids), search batches with tunable effort, and
 * report memory so at-scale footprints can be projected.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/threadpool.hpp"
#include "vecstore/matrix.hpp"
#include "vecstore/types.hpp"

namespace hermes {
namespace index {

/** Per-search tuning knobs. */
struct SearchParams
{
    /** IVF: number of inverted lists to probe (the paper's nProbe). */
    std::size_t nprobe = 1;

    /** HNSW: search beam width (efSearch). */
    std::size_t ef_search = 64;

    /**
     * IVF: SPANN-style query-time list pruning (paper §7, "IVF
     * Optimizations"). After ranking the nprobe candidate lists by
     * centroid distance, lists whose centroid distance exceeds
     * prune_ratio x (best centroid distance) are skipped. 0 disables
     * pruning. Typical values: 1.5 - 4.0 (L2 metric).
     */
    double prune_ratio = 0.0;

    /**
     * IVF searchBatch: minimum estimated per-query scan volume (scanned
     * rows x dim, i.e. floats touched) for the list-major batched path
     * to engage. List-major execution amortizes each list's streaming
     * across the batch but pays for it in score buffering and multi-
     * query tile bookkeeping, which only wins once each query scans
     * enough data (low-dim or few-row scans such as sampled-index
     * probes run faster through the plain per-query loop). Batches
     * whose estimate (size() * nprobe / nlist * dim) falls below this
     * floor take the per-query path instead; both paths return
     * bit-identical results, so the cutover is a pure cost heuristic.
     * Set to 0 to force list-major execution for any batch (the parity
     * tests do this to pin the batched arm).
     */
    std::size_t batch_min_scan_floats = std::size_t(1) << 18;

    /** Field-wise: requests batch together only under equal params. */
    bool operator==(const SearchParams &) const = default;
};

/**
 * Work counters filled during a search.
 *
 * These are the raw inputs to the multi-node cost model: the simulator
 * converts scanned vectors / bytes into latency and energy per node.
 */
struct SearchStats
{
    /** Inverted lists or graph nodes visited. */
    std::uint64_t lists_probed = 0;

    /** Database vectors whose distance was evaluated. */
    std::uint64_t vectors_scanned = 0;

    /** Full distance computations (incl. coarse quantizer). */
    std::uint64_t distance_computations = 0;

    /** Code bytes touched while scanning. */
    std::uint64_t bytes_scanned = 0;

    /** Accumulate another search's counters. */
    void
    merge(const SearchStats &other)
    {
        lists_probed += other.lists_probed;
        vectors_scanned += other.vectors_scanned;
        distance_computations += other.distance_computations;
        bytes_scanned += other.bytes_scanned;
    }
};

/** Abstract ANN index. */
class AnnIndex
{
  public:
    virtual ~AnnIndex() = default;

    /** Embedding dimensionality. */
    virtual std::size_t dim() const = 0;

    /** Number of stored vectors. */
    virtual std::size_t size() const = 0;

    /** Distance metric. */
    virtual vecstore::Metric metric() const = 0;

    /** True once the index is ready for add(). */
    virtual bool isTrained() const = 0;

    /** Fit index parameters on a representative sample. */
    virtual void train(const vecstore::Matrix &data) = 0;

    /**
     * Add vectors with explicit external ids.
     * @param data n x d matrix.
     * @param ids  n external ids (one per row).
     */
    virtual void add(const vecstore::Matrix &data,
                     const std::vector<vecstore::VecId> &ids) = 0;

    /** Add vectors with sequential ids starting at size(). */
    void addSequential(const vecstore::Matrix &data);

    /**
     * Search for the k nearest neighbors of one query.
     *
     * @param query  d-dim query vector.
     * @param k      Result count.
     * @param params Search effort knobs.
     * @param stats  Optional work-counter sink.
     */
    virtual vecstore::HitList search(vecstore::VecView query, std::size_t k,
                                     const SearchParams &params = {},
                                     SearchStats *stats = nullptr) const = 0;

    /**
     * Search a batch of queries (row-major matrix), returning one hit list
     * per query. Stats accumulate across the batch.
     */
    std::vector<vecstore::HitList>
    searchBatch(const vecstore::Matrix &queries, std::size_t k,
                const SearchParams &params = {},
                SearchStats *stats = nullptr) const;

    /**
     * Batch search with per-query stats. The base implementation loops
     * search(); indexes may override with a fused multi-query execution
     * (IvfIndex's list-major path) but must return hit lists and stats
     * bit-identical to the per-query loop.
     *
     * @param per_query When non-null, resized to queries.rows() with one
     *                  SearchStats per query (overwritten, not merged).
     */
    virtual std::vector<vecstore::HitList>
    searchBatch(const vecstore::Matrix &queries, std::size_t k,
                const SearchParams &params,
                std::vector<SearchStats> *per_query) const;

    /**
     * Batch search over a thread pool: one task per query with greedy
     * work stealing, matching the FAISS scheduling the paper assumes
     * (§6, Takeaway 1). Results and stats are identical to searchBatch.
     */
    std::vector<vecstore::HitList>
    searchBatchParallel(const vecstore::Matrix &queries, std::size_t k,
                        util::ThreadPool &pool,
                        const SearchParams &params = {},
                        SearchStats *stats = nullptr) const;

    /** Payload memory footprint in bytes (codes + graph + centroids). */
    virtual std::size_t memoryBytes() const = 0;

    /** Index spec name, e.g. "IVF1024,SQ8". */
    virtual std::string name() const = 0;
};

/**
 * Construct an index from a spec string:
 *   "Flat"                — exact search
 *   "IVF<nlist>,<codec>"  — e.g. "IVF1024,SQ8"
 *   "HNSW<M>"             — e.g. "HNSW32"
 *
 * @param spec   Index spec.
 * @param dim    Embedding dimensionality.
 * @param metric Distance metric.
 */
std::unique_ptr<AnnIndex> makeIndex(const std::string &spec, std::size_t dim,
                                    vecstore::Metric metric);

} // namespace index
} // namespace hermes
