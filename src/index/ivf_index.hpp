/**
 * @file
 * Inverted File (IVF) index — the retrieval workhorse of the paper.
 *
 * Training clusters the datastore into nlist cells with K-means; each cell
 * holds the codec-compressed vectors assigned to it. A search probes the
 * nProbe cells whose centroids are nearest to the query and scans only
 * their codes, trading accuracy for latency via nProbe (paper §2.1).
 */

#pragma once

#include <memory>
#include <vector>

#include "index/ann_index.hpp"
#include "index/hnsw_index.hpp"
#include "index/ivf_format.hpp"
#include "quant/codec.hpp"
#include "util/mmap_file.hpp"

namespace hermes {
namespace index {

/** IVF construction parameters. */
struct IvfConfig
{
    /** Number of inverted lists (paper default: sqrt(N)). */
    std::size_t nlist = 64;

    /** Codec spec for stored vectors ("Flat", "SQ8", "SQ4", "PQ<M>"...). */
    std::string codec = "SQ8";

    /** K-means iterations for the coarse quantizer. */
    std::size_t train_iterations = 15;

    /** K-means seed. */
    std::uint64_t seed = 7;

    /** Cap coarse-quantizer training points (0 = all). */
    std::size_t max_training_points = 0;

    /**
     * Route the coarse step through an HNSW graph over the centroids
     * instead of a linear scan — the standard FAISS "IVF_HNSW" recipe
     * for large nlist, where the O(nlist) centroid scan starts to rival
     * the list scans themselves.
     */
    bool hnsw_coarse = false;
};

/** IVF index with pluggable vector codec. */
class IvfIndex : public AnnIndex
{
  public:
    /**
     * @param dim    Embedding dimensionality.
     * @param metric Distance metric.
     * @param config Construction parameters.
     */
    IvfIndex(std::size_t dim, vecstore::Metric metric,
             const IvfConfig &config);

    std::size_t dim() const override { return dim_; }
    std::size_t size() const override { return ntotal_; }
    vecstore::Metric metric() const override { return metric_; }
    bool isTrained() const override { return trained_; }
    /** K-means the coarse quantizer (on the build pool) and train the
     *  codec. */
    void train(const vecstore::Matrix &data) override;

    /**
     * Assign and encode the rows on the build pool
     * (util::ThreadPool::shared(); inline when called from a pool task),
     * then append them to their lists in row order. The index is
     * identical to add()ing the rows one at a time.
     */
    void add(const vecstore::Matrix &data,
             const std::vector<vecstore::VecId> &ids) override;

    vecstore::HitList search(vecstore::VecView query, std::size_t k,
                             const SearchParams &params = {},
                             SearchStats *stats = nullptr) const override;

    // The 3-arg convenience overloads live in AnnIndex; re-expose them
    // alongside the list-major override below.
    using AnnIndex::searchBatch;

    /**
     * List-major batched search (paper §6 throughput mode): one blocked
     * pass assigns coarse centroids for the whole batch, (query, list)
     * pairs are grouped by list, and each probed list is scanned exactly
     * once for all subscribed queries via the multi-query codec kernels.
     * Hit lists and per-query stats are bit-identical to calling
     * search() per query: coarse scores come from the same reduction
     * orders, both execute the same probe plan (planProbes), and each
     * query's TopK is fed its lists in the same coarse-rank order.
     */
    std::vector<vecstore::HitList>
    searchBatch(const vecstore::Matrix &queries, std::size_t k,
                const SearchParams &params,
                std::vector<SearchStats> *per_query) const override;

    std::size_t memoryBytes() const override;
    std::string name() const override;

    std::size_t nlist() const { return config_.nlist; }

    /** Centroids of the coarse quantizer (nlist x dim). */
    const vecstore::Matrix &centroids() const { return centroids_; }

    /** Entries in inverted list @p list. */
    std::size_t listSize(std::size_t list) const;

    /**
     * Remove vectors by external id (RAG datastores are mutable — stale
     * documents get evicted as the corpus evolves, §1).
     * @return Number of vectors actually removed.
     */
    std::size_t removeIds(const std::vector<vecstore::VecId> &ids);

    /**
     * Persist the full index in the v3 on-disk format (ivf_format.hpp):
     * fixed header + 64-byte-aligned flat sections, checksummed, laid
     * out so openMapped() can search it in place.
     * @throws util::FormatError on IO failure.
     */
    void save(const std::string &path) const;

    /**
     * Load an index previously written by save() into heap-owned copies
     * of its sections (the mutable path: accepts add/removeIds).
     * @throws util::FormatError on a corrupt, truncated or alien file.
     */
    static std::unique_ptr<IvfIndex> load(const std::string &path);

    /** Options for openMapped(). */
    struct MmapOptions
    {
        /**
         * CRC every section before serving (one sequential pass over
         * the file). Off, only the structural validation runs — the
         * mode for >RAM datastores where eagerly faulting every page
         * defeats the point of mapping.
         */
        bool verify_checksums = true;

        /** madvise(WILLNEED) the mapping up front (warm restarts). */
        bool prefault = false;
    };

    /**
     * Open a saved index as a read-only view over an mmap of the file:
     * inverted-list ids and codes are served straight from the mapped
     * bytes (zero copies — only the small centroid block is
     * materialized, and the HNSW coarse graph rebuilt when configured).
     * Search results are bit-identical to load(); mutation entry points
     * (train/add/removeIds) throw std::logic_error.
     *
     * Cold-start cost is O(validation), not O(data): pages fault in
     * lazily as lists are scanned, and concurrent searchers may share
     * one page cache across processes.
     * @throws util::FormatError on a corrupt, truncated or alien file.
     */
    static std::unique_ptr<IvfIndex> openMapped(const std::string &path,
                                                const MmapOptions &options);

    /** openMapped() with default options (checksums verified). */
    static std::unique_ptr<IvfIndex> openMapped(const std::string &path);

    /** True when this index serves from a mapped file (openMapped). */
    bool isMapped() const { return file_.valid(); }

    /** Bytes of the backing mapping (0 when not mapped). */
    std::size_t mappedBytes() const { return file_.size(); }

    /** Memory-resident bytes of the backing mapping (mincore). */
    std::size_t mappedResidentBytes() const { return file_.residentBytes(); }

    /** The vector codec (read-only; used by the streaming builder). */
    const quant::Codec &codec() const { return *codec_; }

    /** Construction parameters. */
    const IvfConfig &config() const { return config_; }

    /**
     * Suggested nlist for a datastore of @p n vectors: the paper uses
     * nlist ~ sqrt(N).
     */
    static std::size_t suggestedNlist(std::size_t n);

  private:
    // Writes through the same row encoder and file header as add()/save().
    friend class IvfStreamWriter;

    /** A batch of rows, assigned and encoded (row-major codes). */
    struct EncodedRows
    {
        std::vector<std::uint32_t> lists;
        std::vector<std::uint8_t> codes;
    };

    /**
     * The row encoder of add() and IvfStreamWriter::add: nearest-centroid
     * assignment and encoding, rows fanned out over the build pool
     * (util::ThreadPool::shared(); rows are independent, so the result
     * does not depend on the split).
     */
    EncodedRows encodeRows(const vecstore::Matrix &data) const;

    /**
     * The mutation pass of add() and removeIds(): new exact-size sections
     * holding, per list, its old rows with @p keep set, then its @p rows.
     */
    void relayout(const std::vector<std::uint8_t> &keep,
                  const std::vector<vecstore::VecId> &ids,
                  const EncodedRows &rows);

    /**
     * The file header of save() and IvfStreamWriter::finish: a v3 writer
     * laid out for @p counts vectors per list, with the header fields,
     * centroids and codec parameters written. The caller writes the
     * lists and calls finish().
     */
    std::unique_ptr<ivff::IndexFileWriter>
    openFile(const std::string &path,
             const std::vector<std::uint64_t> &counts) const;

    /** One query's probe plan: the lists to scan, best-first. */
    struct ProbePlan
    {
        struct Visit
        {
            std::uint32_t list;
            std::size_t len;
        };
        std::vector<Visit> visits;
        std::uint64_t coarse_evals = 0; ///< coarse distance evaluations
        std::uint64_t scanned = 0;      ///< sum of the visits' lengths
    };

    /**
     * The plan search() and searchBatch() both execute: rank centroids by
     * @p coarse_scores (nullptr: walk the HNSW coarse graph over @p query
     * instead), keep the nprobe best, cut at the prune bound.
     */
    void planProbes(vecstore::VecView query, const float *coarse_scores,
                    const SearchParams &params, ProbePlan &plan) const;

    /** Add one executed plan's work counters to @p stats (may be null). */
    void foldStats(const ProbePlan &plan, SearchStats *stats) const;

    /** The file's list table, ids and codes: into owned_ or file_. */
    struct Sections
    {
        const ivff::ListEntry *table;
        const vecstore::VecId *ids;
        const std::uint8_t *codes;
    };

    /** Exact-size heap sections (empty for a mapped index). */
    struct OwnedSections
    {
        std::vector<ivff::ListEntry> table;
        std::vector<vecstore::VecId> ids;
        std::vector<std::uint8_t> codes;
    };

    /** Own @p owned and serve from it. */
    void adopt(OwnedSections owned);

    /** Borrowed view of one inverted list. */
    struct ListRef
    {
        const vecstore::VecId *ids;
        const std::uint8_t *codes;
        std::size_t size;
    };
    ListRef listRef(std::size_t list) const;

    /** Throws std::logic_error when this index is a mapped view. */
    void assertMutable(const char *op) const;

    std::size_t dim_;
    vecstore::Metric metric_;
    IvfConfig config_;
    bool trained_ = false;
    std::size_t ntotal_ = 0;
    vecstore::Matrix centroids_;
    std::unique_ptr<quant::Codec> codec_;
    std::unique_ptr<HnswIndex> coarse_graph_; ///< set when hnsw_coarse
    std::size_t code_size_;
    OwnedSections owned_;
    util::MmapFile file_; ///< the mapping, set by openMapped()
    Sections sections_{};
};

} // namespace index
} // namespace hermes
