/**
 * @file
 * Fault-tolerance suite for the concurrent serving path: exception-safe
 * thread pool (per-call task groups, nested/concurrent parallelFor),
 * exception-safe retrieval nodes with injected faults, broker deadlines
 * and graceful degradation, the InnerProduct adaptive-pruning regression,
 * and corrupt-archive rejection.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/distributed_store.hpp"
#include "core/search_strategy.hpp"
#include "eval/metrics.hpp"
#include "index/ivf_index.hpp"
#include "serve/broker.hpp"
#include "serve/node.hpp"
#include "serve/node_client.hpp"
#include "util/serialize.hpp"
#include "util/threadpool.hpp"
#include "vecstore/matrix.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

// ---------------------------------------------------------------------------
// ThreadPool: exception capture, per-call groups, nesting
// ---------------------------------------------------------------------------

TEST(ThreadPoolFaults, ParallelForRethrowsTaskException)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100, [](std::size_t i) {
        if (i == 37)
            throw std::runtime_error("iteration 37 exploded");
    }), std::runtime_error);
}

TEST(ThreadPoolFaults, PoolSurvivesAndServesAfterException)
{
    util::ThreadPool pool(4);
    try {
        pool.parallelFor(64, [](std::size_t i) {
            if (i % 2 == 0)
                throw std::runtime_error("boom");
        });
        FAIL() << "expected the task exception to propagate";
    } catch (const std::runtime_error &) {
    }

    std::vector<std::atomic<int>> touched(128);
    pool.parallelFor(128, [&](std::size_t i) { touched[i]++; });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolFaults, SubmitWaitRethrowsFirstException)
{
    util::ThreadPool pool(2);
    std::atomic<int> completed{0};
    pool.submit([] { throw std::runtime_error("submitted task failed"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { completed++; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error was consumed; subsequent waits are clean.
    pool.submit([&] { completed++; });
    pool.wait();
    EXPECT_EQ(completed.load(), 11);
}

TEST(ThreadPoolFaults, NestedParallelForRunsInlineWithoutDeadlock)
{
    util::ThreadPool pool(2);
    std::vector<std::atomic<int>> touched(4 * 8);
    pool.parallelFor(4, [&](std::size_t outer) {
        // Pre-fix this deadlocked: the nested call queued tasks no free
        // worker could ever run while blocking a worker on them.
        pool.parallelFor(8, [&](std::size_t inner) {
            touched[outer * 8 + inner]++;
        });
    });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolFaults, NestedParallelForStaysOnItsThread)
{
    // Two outer items on two workers: one runs on the caller, one on a
    // worker, and the second worker is idle. A nested loop still runs
    // on the thread that reached it, the caller's included, so nesting
    // never puts more threads to work than the outer loop does.
    util::ThreadPool pool(2);
    std::atomic<int> moved{0};
    pool.parallelFor(2, [&](std::size_t) {
        const auto self = std::this_thread::get_id();
        pool.parallelFor(8, [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (std::this_thread::get_id() != self)
                moved++;
        });
    });
    EXPECT_EQ(moved.load(), 0);
}

TEST(ThreadPoolFaults, ConcurrentParallelForCallersAreIndependent)
{
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> a(300), b(300);
    std::thread t1([&] {
        pool.parallelFor(300, [&](std::size_t i) { a[i]++; });
    });
    std::thread t2([&] {
        pool.parallelFor(300, [&](std::size_t i) { b[i]++; });
    });
    t1.join();
    t2.join();
    for (std::size_t i = 0; i < 300; ++i) {
        EXPECT_EQ(a[i].load(), 1);
        EXPECT_EQ(b[i].load(), 1);
    }
}

TEST(ThreadPoolFaults, TaskGroupWaitDoesNotWaitOnOtherGroups)
{
    util::ThreadPool pool(2);
    std::atomic<bool> slow_done{false};
    pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        slow_done = true;
    });

    util::ThreadPool::TaskGroup group(pool);
    std::atomic<int> fast{0};
    group.run([&] { fast++; });
    group.wait();
    EXPECT_EQ(fast.load(), 1);
    // The group wait returned without waiting for the default group's
    // slow task.
    EXPECT_FALSE(slow_done.load());
    pool.wait();
    EXPECT_TRUE(slow_done.load());
}

// ---------------------------------------------------------------------------
// RetrievalNode: throwing shards and injected faults
// ---------------------------------------------------------------------------

/** AnnIndex whose search always throws — a catastrophically bad shard. */
class ThrowingIndex : public index::AnnIndex
{
  public:
    explicit ThrowingIndex(std::size_t dim) : dim_(dim) {}

    std::size_t dim() const override { return dim_; }
    std::size_t size() const override { return 1; }
    vecstore::Metric metric() const override { return vecstore::Metric::L2; }
    bool isTrained() const override { return true; }
    void train(const vecstore::Matrix &) override {}
    void add(const vecstore::Matrix &,
             const std::vector<vecstore::VecId> &) override {}
    vecstore::HitList
    search(vecstore::VecView, std::size_t, const index::SearchParams &,
           index::SearchStats *) const override
    {
        throw std::runtime_error("shard exploded");
    }
    std::size_t memoryBytes() const override { return 0; }
    std::string name() const override { return "throwing"; }

  private:
    std::size_t dim_;
};

TEST(RetrievalNodeFaults, ThrowingShardDeliversExceptionNotHang)
{
    ThrowingIndex shard(8);
    serve::RetrievalNode node(shard, {});
    std::vector<float> query(8, 0.f);

    auto future = node.submit(vecstore::VecView(query.data(), 8), 3, {});
    EXPECT_THROW(
        {
            try {
                future.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "shard exploded");
                throw;
            }
        },
        std::runtime_error);

    // The worker survived: a second request gets its own exception too.
    auto again = node.submit(vecstore::VecView(query.data(), 8), 3, {});
    EXPECT_THROW(again.get(), std::runtime_error);
    EXPECT_EQ(node.stats().failures, 2u);
    EXPECT_EQ(node.stats().requests, 2u);
}

TEST(RetrievalNodeFaults, InjectedFailureIsDeterministicAndCounted)
{
    workload::CorpusConfig cc;
    cc.num_docs = 256;
    cc.dim = 8;
    cc.seed = 11;
    auto corpus = workload::generateCorpus(cc);

    index::IvfConfig ivf;
    ivf.nlist = 4;
    ivf.codec = "Flat";
    index::IvfIndex shard(8, vecstore::Metric::L2, ivf);
    shard.train(corpus.embeddings);
    shard.addSequential(corpus.embeddings);

    serve::NodeConfig config;
    config.faults.fail_probability = 1.0;
    serve::RetrievalNode node(shard, config);

    auto future =
        node.submit(corpus.embeddings.row(0), 3, index::SearchParams{});
    EXPECT_THROW(future.get(), std::runtime_error);
    EXPECT_EQ(node.stats().failures, 1u);
}

TEST(RetrievalNodeFaults, DroppedRequestNeverBecomesReady)
{
    workload::CorpusConfig cc;
    cc.num_docs = 256;
    cc.dim = 8;
    cc.seed = 12;
    auto corpus = workload::generateCorpus(cc);

    index::IvfConfig ivf;
    ivf.nlist = 4;
    ivf.codec = "Flat";
    index::IvfIndex shard(8, vecstore::Metric::L2, ivf);
    shard.train(corpus.embeddings);
    shard.addSequential(corpus.embeddings);

    serve::NodeConfig config;
    config.faults.drop_probability = 1.0;
    auto node = std::make_unique<serve::RetrievalNode>(shard, config);

    auto future =
        node->submit(corpus.embeddings.row(0), 3, index::SearchParams{});
    // A dead node: only a deadline can observe it.
    EXPECT_EQ(future.wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout);
    EXPECT_EQ(node->stats().dropped, 1u);

    // Shutdown releases the parked promise: broken promise, not a hang.
    node.reset();
    EXPECT_THROW(future.get(), std::future_error);
}

// ---------------------------------------------------------------------------
// HermesBroker: deadlines, retries, graceful degradation
// ---------------------------------------------------------------------------

struct BrokerFixture
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    core::HermesConfig config;
    std::unique_ptr<core::DistributedStore> store;
};

const BrokerFixture &
brokerFixture()
{
    static BrokerFixture data = [] {
        BrokerFixture out;
        workload::CorpusConfig cc;
        cc.num_docs = 3000;
        cc.dim = 16;
        cc.num_topics = 12;
        cc.seed = 77;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 16;
        qc.seed = 78;
        out.queries = workload::generateQueries(out.corpus, qc);

        out.config.num_clusters = 6;
        out.config.clusters_to_search = 2;
        out.config.sample_nprobe = 2;
        out.config.deep_nprobe = 16;
        out.config.partition.seeds_to_try = 2;
        out.store = std::make_unique<core::DistributedStore>(
            core::DistributedStore::build(out.corpus.embeddings,
                                          out.config));
        return out;
    }();
    return data;
}

TEST(HermesBrokerFaults, SingleFailedNodeDegradesGracefully)
{
    const auto &data = brokerFixture();
    const std::size_t k = 5;

    // Fault-free reference answers.
    serve::HermesBroker healthy(*data.store);
    std::vector<vecstore::HitList> reference;
    for (std::size_t q = 0; q < 16; ++q)
        reference.push_back(
            healthy.search(data.queries.embeddings.row(q), k));

    // Same store, but cluster 0's node fails every request (1 of 6).
    serve::BrokerConfig config;
    config.node_faults.resize(1);
    config.node_faults[0].fail_probability = 1.0;
    serve::HermesBroker broker(*data.store, config);

    double ndcg_sum = 0.0;
    for (std::size_t q = 0; q < 16; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q), k);
        EXPECT_EQ(hits.size(), k) << "query " << q;
        ndcg_sum += eval::ndcgAtK(hits, reference[q], k);
    }

    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 16u);
    EXPECT_GT(stats.failures, 0u);
    EXPECT_EQ(stats.degraded_queries, 16u);
    EXPECT_EQ(stats.timeouts, 0u);
    // Quality: most queries never needed cluster 0; the rest still get
    // answers from the surviving 5 clusters.
    EXPECT_GE(ndcg_sum / 16.0, 0.5);
}

TEST(HermesBrokerFaults, DeadNodeTimesOutInsteadOfHanging)
{
    const auto &data = brokerFixture();

    serve::BrokerConfig config;
    config.node_deadline_ms = 50.0;
    config.max_retries = 1;
    config.node_faults.resize(3);
    config.node_faults[2].drop_probability = 1.0; // node 2 is dead

    serve::HermesBroker broker(*data.store, config);
    for (std::size_t q = 0; q < 4; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q), 5);
        EXPECT_EQ(hits.size(), 5u) << "query " << q;
    }

    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 4u);
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_EQ(stats.degraded_queries, 4u);
}

TEST(HermesBrokerFaults, AllNodesFailingReturnsEmptyNotCrash)
{
    const auto &data = brokerFixture();

    serve::BrokerConfig config;
    config.node.faults.fail_probability = 1.0;
    serve::HermesBroker broker(*data.store, config);

    auto hits = broker.search(data.queries.embeddings.row(0), 5);
    EXPECT_TRUE(hits.empty());
    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 1u);
    EXPECT_EQ(stats.degraded_queries, 1u);
    EXPECT_GT(stats.failures, 0u);
}

/** What a ScriptedNodeClient does with one request. */
enum class Step
{
    Ok,   ///< delegate to the real node
    Fail, ///< the future rethrows an injected failure
    Drop, ///< the future never becomes ready (a dead node)
};

/** Delegates to a LocalNodeClient, except that its n-th request follows
 *  script[n]; requests past the end of the script are Ok. */
class ScriptedNodeClient final : public serve::NodeClient
{
  public:
    ScriptedNodeClient(const index::AnnIndex &shard,
                       const serve::NodeConfig &config,
                       std::vector<Step> script)
        : inner_(shard, config), script_(std::move(script))
    {
    }

    std::future<serve::NodeResponse>
    submit(vecstore::VecView query, std::size_t k,
           const index::SearchParams &params) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const Step step =
            calls_ < script_.size() ? script_[calls_] : Step::Ok;
        ++calls_;
        if (step == Step::Ok)
            return inner_.submit(query, k, params);
        // Dropped promises stay parked until the client is destroyed,
        // so their futures never become ready.
        std::promise<serve::NodeResponse> &promise = parked_.emplace_back();
        if (step == Step::Fail)
            promise.set_exception(std::make_exception_ptr(
                std::runtime_error("injected scripted failure")));
        return promise.get_future();
    }

    serve::NodeStats stats() const override { return inner_.stats(); }
    std::size_t queueDepth() const override { return inner_.queueDepth(); }
    std::size_t shardSize() const override { return inner_.shardSize(); }

  private:
    serve::LocalNodeClient inner_;
    const std::vector<Step> script_;
    std::mutex mutex_;
    std::size_t calls_ = 0;
    std::deque<std::promise<serve::NodeResponse>> parked_;
};

TEST(HermesBrokerFaults, ScriptedFaultLadders)
{
    // Node 0 follows a fault script from its first request on (query
    // 0's sample probe); every other request is fault-free. A probe
    // whose retry answers counts its faults but is not degraded, and
    // its query stays bit-identical to core::HermesSearch; a probe with
    // no attempts left degrades query 0 alone.
    struct Row
    {
        std::vector<Step> script;
        std::size_t max_retries;
        std::uint64_t failures;
        std::uint64_t timeouts;
        std::uint64_t degraded;
    };
    const Row rows[] = {
        {{Step::Fail, Step::Ok}, 1, 1, 0, 0},
        {{Step::Drop, Step::Ok}, 1, 0, 1, 0},
        {{Step::Drop, Step::Drop}, 1, 0, 2, 1},
        {{Step::Fail, Step::Fail}, 1, 2, 0, 1},
        {{Step::Fail}, 0, 1, 0, 1},
    };
    const auto &data = brokerFixture();
    core::HermesSearch reference(*data.store);
    for (std::size_t r = 0; r < std::size(rows); ++r) {
        const Row &row = rows[r];
        std::vector<std::unique_ptr<serve::NodeClient>> nodes;
        for (std::size_t c = 0; c < data.store->numClusters(); ++c) {
            serve::NodeConfig node_config;
            node_config.node_id = c;
            nodes.push_back(std::make_unique<ScriptedNodeClient>(
                data.store->clusterIndex(c), node_config,
                c == 0 ? row.script : std::vector<Step>{}));
        }
        serve::BrokerConfig config;
        config.node_deadline_ms = 250.0;
        config.max_retries = row.max_retries;
        serve::HermesBroker broker(data.store->config(), std::move(nodes),
                                   config);

        for (std::size_t q = 0; q < 4; ++q) {
            auto hits = broker.search(data.queries.embeddings.row(q), 5);
            if (q == 0 && row.degraded > 0)
                continue; // the lost probe's query is not comparable
            auto expected =
                reference.search(data.queries.embeddings.row(q), 5).hits;
            EXPECT_EQ(hits, expected) << "row " << r << " query " << q;
        }
        auto stats = broker.stats();
        EXPECT_EQ(stats.queries, 4u) << "row " << r;
        EXPECT_EQ(stats.failures, row.failures) << "row " << r;
        EXPECT_EQ(stats.timeouts, row.timeouts) << "row " << r;
        EXPECT_EQ(stats.degraded_queries, row.degraded) << "row " << r;
    }
}

TEST(HermesBrokerFaults, DeadFleetCostsOneRetryLadderPerPhase)
{
    // Every node drops every request. Each phase's probes run their
    // attempts side by side, so a query costs about 2 phases x
    // (max_retries + 1) deadlines, not one ladder per cluster.
    const auto &data = brokerFixture();
    serve::BrokerConfig config;
    config.node.faults.drop_probability = 1.0;
    config.node_deadline_ms = 50.0;
    config.max_retries = 1;
    serve::HermesBroker broker(*data.store, config);

    for (std::size_t q = 0; q < 3; ++q) {
        const std::uint64_t timeouts_before = broker.stats().timeouts;
        const auto start = std::chrono::steady_clock::now();
        auto hits = broker.search(data.queries.embeddings.row(q), 5);
        const double ms = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start).count();
        auto stats = broker.stats();
        EXPECT_TRUE(hits.empty()) << "query " << q;
        EXPECT_EQ(stats.degraded_queries, q + 1) << "query " << q;
        // 6 sample probes x 2 attempts, then the all-lost fallback's 2
        // deep probes x 2 attempts.
        EXPECT_EQ(stats.timeouts - timeouts_before, 16u) << "query " << q;
        EXPECT_LT(ms, 8 * config.node_deadline_ms) << "query " << q;
    }
}

TEST(HermesBrokerFaults, RandomFaultsEverywhereStillServeTopK)
{
    const auto &data = brokerFixture();

    serve::BrokerConfig config;
    config.node.faults.fail_probability = 0.1;
    config.node.faults.delay_probability = 0.2;
    config.node.faults.delay_ms = 1.0;
    serve::HermesBroker broker(*data.store, config);

    for (std::size_t q = 0; q < 16; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q), 5);
        EXPECT_EQ(hits.size(), 5u) << "query " << q;
    }
    EXPECT_EQ(broker.stats().queries, 16u);
}

// ---------------------------------------------------------------------------
// Adaptive-epsilon pruning on the InnerProduct score scale
// ---------------------------------------------------------------------------

/**
 * Build an InnerProduct distributed store of @p num_clusters clusters
 * whose best document dot products are close together (within ~8% of
 * each other), so an epsilon = 0.2 margin must keep several clusters.
 */
core::DistributedStore
ipStore(core::HermesConfig &config)
{
    const std::size_t dim = 4;
    const std::size_t num_clusters = 4;
    // Best dot product per cluster; scores are the negations.
    const float best_dot[num_clusters] = {10.0f, 9.6f, 9.2f, 1.0f};

    config.num_clusters = num_clusters;
    config.clusters_to_search = 3;
    config.sample_nprobe = 1;
    config.deep_nprobe = 1;
    config.sample_k = 1;
    config.codec = "Flat";
    config.adaptive_epsilon = 0.2;

    std::vector<std::unique_ptr<index::IvfIndex>> indices;
    vecstore::Matrix centroids(num_clusters, dim);
    for (std::size_t c = 0; c < num_clusters; ++c) {
        vecstore::Matrix docs(8, dim);
        std::vector<vecstore::VecId> ids;
        for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < dim; ++j)
                docs.row(i)[j] = 0.f;
            // Doc i of cluster c projects best_dot[c] - 0.05 * i onto
            // the query direction e0.
            docs.row(i)[0] = best_dot[c] - 0.05f * static_cast<float>(i);
            ids.push_back(static_cast<vecstore::VecId>(c * 100 + i));
        }
        for (std::size_t j = 0; j < dim; ++j)
            centroids.row(c)[j] = j == 0 ? best_dot[c] : 0.f;

        index::IvfConfig ivf;
        ivf.nlist = 1;
        ivf.codec = "Flat";
        auto idx = std::make_unique<index::IvfIndex>(
            dim, vecstore::Metric::InnerProduct, ivf);
        idx->train(docs);
        idx->add(docs, ids);
        indices.push_back(std::move(idx));
    }
    return core::DistributedStore::assemble(config, std::move(indices),
                                            std::move(centroids));
}

TEST(AdaptiveEpsilonIp, NegativeScoresKeepClustersWithinMargin)
{
    core::HermesConfig config;
    auto store = ipStore(config);
    core::HermesSearch strategy(store);

    std::vector<float> query = {1.f, 0.f, 0.f, 0.f};
    auto result = strategy.search(vecstore::VecView(query.data(), 4), 2);

    // Sampled best scores are {-10, -9.6, -9.2, -1}; the 0.2 margin
    // bound is -10 + 0.2 * 10 = -8, so three clusters qualify. The old
    // multiplicative bound (-12) pruned to a single cluster regardless
    // of epsilon.
    EXPECT_EQ(result.deep_clusters.size(), 3u);
    ASSERT_GE(result.hits.size(), 2u);
    EXPECT_EQ(result.hits[0].id, 0u);   // dot 10.0
    EXPECT_EQ(result.hits[1].id, 1u);   // dot 9.95
}

TEST(AdaptiveEpsilonIp, BrokerMatchesCoreStrategyOnIpStore)
{
    core::HermesConfig config;
    auto store = ipStore(config);
    core::HermesSearch strategy(store);
    serve::HermesBroker broker(store);

    std::vector<float> query = {1.f, 0.f, 0.f, 0.f};
    auto expected = strategy.search(vecstore::VecView(query.data(), 4), 3);

    std::vector<std::uint32_t> deep;
    auto hits = broker.search(vecstore::VecView(query.data(), 4), 3, deep);

    EXPECT_EQ(deep, expected.deep_clusters);
    ASSERT_EQ(hits.size(), expected.hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].id, expected.hits[i].id);
        EXPECT_FLOAT_EQ(hits[i].score, expected.hits[i].score);
    }
}

// ---------------------------------------------------------------------------
// Corrupt archive rejection
// ---------------------------------------------------------------------------

TEST(CorruptArchive, HostileVectorLengthPrefixThrowsNotBadAlloc)
{
    // An HMAT file whose row-block prefix claims ~10^18 floats must be
    // rejected against the bytes actually present, before allocating.
    util::ByteWriter w;
    w.put(std::array<char, 4>{'H', 'M', 'A', 'T'});
    w.put<std::uint32_t>(1);
    w.put<std::uint64_t>(4);
    w.put<std::uint64_t>(1ull << 60);
    w.put<float>(0.0f);
    auto path =
        std::filesystem::temp_directory_path() / "hostile_prefix.hmat";
    {
        std::ofstream out(path, std::ios::binary);
        out << w.bytes();
    }
    try {
        (void)vecstore::Matrix::load(path.string());
        ADD_FAILURE() << "hostile row count accepted";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), util::FormatErrorCode::Corrupt) << e.what();
    }
    std::filesystem::remove(path);
}

TEST(CorruptArchive, HostileStringLengthPrefixThrows)
{
    // A u32 byte count of 2^32 - 1 in front of a few real bytes.
    util::ByteWriter w;
    w.put<std::uint32_t>(0xffffffffu);
    w.put<std::uint64_t>(0);
    util::ByteReader r(w.bytes(), "hostile string");
    try {
        (void)r.getString();
        ADD_FAILURE() << "hostile string length accepted";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), util::FormatErrorCode::Corrupt) << e.what();
    }
}

TEST(CorruptArchive, TruncatedIndexFileIsRejectedOnLoad)
{
    workload::CorpusConfig cc;
    cc.num_docs = 256;
    cc.dim = 8;
    cc.seed = 13;
    auto corpus = workload::generateCorpus(cc);

    index::IvfConfig ivf;
    ivf.nlist = 8;
    index::IvfIndex idx(8, vecstore::Metric::L2, ivf);
    idx.train(corpus.embeddings);
    idx.addSequential(corpus.embeddings);

    auto path =
        std::filesystem::temp_directory_path() / "truncated_index.bin";
    idx.save(path.string());
    auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);

    // Typed rejection (v3 format): a serving process refuses the bad
    // file and keeps running — no huge allocation, no garbage index,
    // no process death.
    EXPECT_THROW((void)index::IvfIndex::load(path.string()),
                 util::FormatError);
    EXPECT_THROW((void)index::IvfIndex::openMapped(path.string()),
                 util::FormatError);
    std::filesystem::remove(path);
}

} // namespace
