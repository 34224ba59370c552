/**
 * @file
 * Traced-run instrumentation, all of it outside the program: an
 * in-memory span log, and timing wrappers that sit between the broker
 * and its nodes (TimingNodeClient) and between a node and its shard
 * index (TimingAnnIndex). Both wrappers forward every call unchanged,
 * so hit lists and the node's list-major batching are unaffected.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/ann_index.hpp"
#include "common.hpp"
#include "loadgen.hpp"
#include "serve/node_client.hpp"
#include "vecstore/matrix.hpp"

namespace perfbench {

/** One timed interval at a layer boundary. */
struct Span
{
    const char *name;

    /** Request id (the query's row in the query pool), or -1. */
    std::int64_t request;

    std::uint64_t id;

    /** Span that caused this one; 0 for a root. */
    std::uint64_t parent;

    Clock::time_point start;
    Clock::time_point end;
};

/**
 * Spans of one traced run, kept in memory and written out at the end.
 *
 * Span ids are derived from the request where the call carries the
 * query row: a request's root span is 2*row + 1 and its broker.search
 * span 2*row + 2, so node and index spans can name their parent
 * without a lookup table. Other spans draw ids past that range.
 */
class SpanLog
{
  public:
    /** @param queries The query pool; rows are matched by content so a
     *                 node-side copy of a query maps back to its row. */
    explicit SpanLog(const hermes::vecstore::Matrix &queries);

    static std::uint64_t requestSpanId(std::int64_t row)
    {
        return 2 * static_cast<std::uint64_t>(row) + 1;
    }

    static std::uint64_t brokerSpanId(std::int64_t row)
    {
        return 2 * static_cast<std::uint64_t>(row) + 2;
    }

    /** Row of @p query in the pool, or -1 when it is not a pool row. */
    std::int64_t rowOf(hermes::vecstore::VecView query) const;

    /** Record a span; the id is drawn fresh. Thread-safe. */
    void add(const char *name, std::int64_t request, std::uint64_t parent,
             Clock::time_point start, Clock::time_point end);

    /** Record a span with a caller-chosen id. Thread-safe. */
    void addWithId(const char *name, std::int64_t request, std::uint64_t id,
                   std::uint64_t parent, Clock::time_point start,
                   Clock::time_point end);

    std::size_t size() const;

    /** Write every span as one JSON object per line (times in us from
     *  the first span). Returns false on an IO error. */
    bool write(const std::string &path) const;

  private:
    const hermes::vecstore::Matrix &queries_;
    std::unordered_map<std::uint64_t, std::int64_t> row_by_hash_;
    std::atomic<std::uint64_t> next_id_;

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Thread-safe sample buffer for one timed quantity. */
class Samples
{
  public:
    void add(double v);
    std::vector<double> values() const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> values_;
};

/**
 * AnnIndex that times each search()/searchBatch() into its inner index
 * and folds the SearchStats the inner index reports. It wraps a trained
 * index read-only: train() and add() throw.
 */
class TimingAnnIndex final : public hermes::index::AnnIndex
{
  public:
    TimingAnnIndex(const hermes::index::AnnIndex &inner, SpanLog *spans);

    std::size_t dim() const override { return inner_.dim(); }
    std::size_t size() const override { return inner_.size(); }
    hermes::vecstore::Metric metric() const override
    {
        return inner_.metric();
    }
    bool isTrained() const override { return inner_.isTrained(); }
    void train(const hermes::vecstore::Matrix &) override;
    void add(const hermes::vecstore::Matrix &,
             const std::vector<hermes::vecstore::VecId> &) override;

    hermes::vecstore::HitList
    search(hermes::vecstore::VecView query, std::size_t k,
           const hermes::index::SearchParams &params = {},
           hermes::index::SearchStats *stats = nullptr) const override;

    using AnnIndex::searchBatch;
    std::vector<hermes::vecstore::HitList>
    searchBatch(const hermes::vecstore::Matrix &queries, std::size_t k,
                const hermes::index::SearchParams &params,
                std::vector<hermes::index::SearchStats> *per_query)
        const override;

    std::size_t memoryBytes() const override { return inner_.memoryBytes(); }
    std::string name() const override { return inner_.name(); }

    /** Per-call wall time of search() / searchBatch() (us). */
    const Samples &searchUs() const { return search_us_; }
    const Samples &searchBatchUs() const { return search_batch_us_; }

    /** Queries answered, index calls made, and their summed wall time. */
    std::uint64_t queries() const { return queries_.load(); }
    std::uint64_t calls() const { return calls_.load(); }
    double busyUs() const;

    /** SearchStats folded over every call. */
    hermes::index::SearchStats stats() const;

  private:
    void account(const hermes::index::SearchStats &stats, double us) const;

    const hermes::index::AnnIndex &inner_;
    SpanLog *spans_;
    mutable Samples search_us_;
    mutable Samples search_batch_us_;
    mutable std::atomic<std::uint64_t> queries_{0};
    mutable std::atomic<std::uint64_t> calls_{0};
    mutable std::mutex stats_mutex_;
    mutable hermes::index::SearchStats stats_;
    mutable double busy_us_ = 0.0;
};

/** NodeClient that times each submit() into the wrapped client. */
class TimingNodeClient final : public hermes::serve::NodeClient
{
  public:
    TimingNodeClient(std::unique_ptr<hermes::serve::NodeClient> inner,
                     SpanLog *spans);

    std::future<hermes::serve::NodeResponse>
    submit(hermes::vecstore::VecView query, std::size_t k,
           const hermes::index::SearchParams &params) override;

    hermes::serve::NodeStats stats() const override
    {
        return inner_->stats();
    }
    std::size_t queueDepth() const override { return inner_->queueDepth(); }
    std::size_t shardSize() const override { return inner_->shardSize(); }

    /** Wall time of each submit() call (us). */
    const Samples &submitUs() const { return submit_us_; }

  private:
    std::unique_ptr<hermes::serve::NodeClient> inner_;
    SpanLog *spans_;
    Samples submit_us_;
};

/**
 * Emit the index.* / ivf.* per-layer metrics and sim.model_latency_ratio
 * from @p shards (per-query figures over @p queries end-to-end queries)
 * and the registry. Returns the p50 of every index call (us).
 */
double reportIndexLayer(const std::vector<const TimingAnnIndex *> &shards,
                        double queries, Metrics &metrics);

/** p-th percentile of a registry histogram; 0 when it does not exist. */
double histogramPercentile(const char *name, double p);

/** Mean of a registry histogram; 0 when it does not exist. */
double histogramMean(const char *name);

} // namespace perfbench
