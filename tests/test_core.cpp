/**
 * @file
 * Tests for the Hermes core: distributed store, search strategies,
 * hierarchical routing quality (Fig 11 behaviour), reranking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "core/distributed_store.hpp"
#include "core/search_strategy.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "util/threadpool.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;
using namespace hermes::core;
using hermes::vecstore::Matrix;

/** Shared fixture data: corpus + queries + ground truth + stores. */
struct CoreData
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    std::vector<vecstore::HitList> truth;
    HermesConfig config;
    std::unique_ptr<DistributedStore> store;
};

const CoreData &
coreData()
{
    static CoreData data = [] {
        CoreData out;
        workload::CorpusConfig cc;
        cc.num_docs = 6000;
        cc.dim = 24;
        cc.num_topics = 20;
        cc.seed = 17;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 48;
        qc.seed = 18;
        out.queries = workload::generateQueries(out.corpus, qc);
        out.truth = eval::exactGroundTruth(out.corpus.embeddings,
                                           out.queries.embeddings, 5,
                                           vecstore::Metric::L2);

        out.config.num_clusters = 8;
        out.config.clusters_to_search = 3;
        out.config.sample_nprobe = 4;
        out.config.deep_nprobe = 32;
        out.config.docs_to_retrieve = 5;
        out.config.partition.seeds_to_try = 3;
        out.store = std::make_unique<DistributedStore>(
            DistributedStore::build(out.corpus.embeddings, out.config));
        return out;
    }();
    return data;
}

double
strategyNdcg(const SearchStrategy &strategy)
{
    const auto &data = coreData();
    std::vector<vecstore::HitList> results;
    for (std::size_t q = 0; q < data.queries.embeddings.rows(); ++q)
        results.push_back(
            strategy.search(data.queries.embeddings.row(q), 5).hits);
    return eval::meanNdcgAtK(results, data.truth, 5);
}

TEST(DistributedStore, CoversEveryVectorExactlyOnce)
{
    const auto &data = coreData();
    std::set<vecstore::VecId> seen;
    std::size_t total = 0;
    for (std::size_t c = 0; c < data.store->numClusters(); ++c) {
        total += data.store->clusterSize(c);
        for (std::size_t row : data.store->partitioning().members[c]) {
            EXPECT_TRUE(seen.insert(
                static_cast<vecstore::VecId>(row)).second);
        }
    }
    EXPECT_EQ(total, data.corpus.embeddings.rows());
    EXPECT_EQ(data.store->totalVectors(), data.corpus.embeddings.rows());
}

TEST(DistributedStore, CentroidsMatchClusterCount)
{
    const auto &data = coreData();
    EXPECT_EQ(data.store->centroids().rows(), data.store->numClusters());
    EXPECT_EQ(data.store->dim(), data.corpus.embeddings.dim());
    EXPECT_GT(data.store->memoryBytes(), 0u);
}

TEST(HermesConfigValidate, RejectsBadConfigs)
{
    HermesConfig bad;
    bad.clusters_to_search = 20;
    bad.num_clusters = 10;
    EXPECT_DEATH(bad.validate(), "clusters_to_search");

    HermesConfig zero_docs;
    zero_docs.docs_to_retrieve = 0;
    EXPECT_DEATH(zero_docs.validate(), "docs_to_retrieve");
}

TEST(NaiveSplit, MatchesMonolithicQuality)
{
    const auto &data = coreData();
    NaiveSplitSearch split(*data.store);
    MonolithicSearch mono(data.corpus.embeddings, data.config.codec,
                          data.config.deep_nprobe);
    double split_ndcg = strategyNdcg(split);
    double mono_ndcg = strategyNdcg(mono);
    // Searching all shards with the same effort cannot be much worse than
    // the monolithic index (different nlist geometry allows small noise).
    EXPECT_GT(split_ndcg, mono_ndcg - 0.05);
}

TEST(Hermes, ReachesNaiveSplitQualityWithFewClusters)
{
    // The Fig 11 headline: hierarchical search over 3 of 8 clusters is
    // iso-accuracy with searching everything.
    const auto &data = coreData();
    NaiveSplitSearch split(*data.store);
    HermesSearch hermes(*data.store);
    EXPECT_GT(strategyNdcg(hermes), strategyNdcg(split) - 0.03);
}

TEST(Hermes, DeepSearchesExactlyConfiguredClusters)
{
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    auto result = hermes.search(data.queries.embeddings.row(0), 5);
    EXPECT_EQ(result.deep_clusters.size(), data.config.clusters_to_search);
    // Deep clusters are distinct.
    std::set<std::uint32_t> unique(result.deep_clusters.begin(),
                                   result.deep_clusters.end());
    EXPECT_EQ(unique.size(), result.deep_clusters.size());
}

TEST(ChooseDeepClusters, PlanTable)
{
    using Sampled = std::vector<std::optional<vecstore::HitList>>;
    // A sampled cluster whose best hit scores @p score.
    auto best = [](float score) {
        return std::optional<vecstore::HitList>(
            vecstore::HitList{{1, score}, {2, score + 1.0f}});
    };
    const std::optional<vecstore::HitList> lost;
    const std::optional<vecstore::HitList> empty = vecstore::HitList{};

    struct Case
    {
        const char *name;
        Sampled sampled;
        std::size_t clusters_to_search;
        double epsilon;
        std::vector<std::uint32_t> expected;
    };
    const std::vector<Case> cases = {
        {"ranks by best sampled score", {best(0.3f), best(0.1f), best(0.2f)},
         3, 0.0, {1, 2, 0}},
        {"caps at clusters_to_search", {best(0.3f), best(0.1f), best(0.2f)},
         2, 0.0, {1, 2}},
        {"lost cluster is never chosen",
         {best(0.5f), lost, best(0.1f), best(0.3f)}, 4, 0.0, {2, 3, 0}},
        {"empty hit list ranks last", {empty, best(9.0f), best(1.0f)}, 3,
         0.0, {2, 1, 0}},
        {"equal scores order by cluster id",
         {best(1.0f), best(0.5f), best(0.5f), best(1.0f)}, 4, 0.0,
         {1, 2, 0, 3}},
        {"all lost falls back to id order", {lost, lost, lost, lost, lost},
         3, 0.0, {0, 1, 2}},
        {"all lost, cap above cluster count", {lost, lost, lost}, 5, 0.0,
         {0, 1, 2}},
        {"all lost is not pruned", {lost, lost, lost, lost}, 2, 0.5,
         {0, 1}},
        {"L2 epsilon prunes far clusters",
         {best(1.0f), best(2.0f), best(1.05f)}, 3, 0.1, {0, 2}},
        {"L2 epsilon keeps at least one",
         {best(1.0f), best(1.05f), best(2.0f)}, 3, 1e-6, {0}},
        {"IP epsilon keeps clusters near a negative best",
         {best(-9.6f), best(-1.0f), best(-10.0f)}, 3, 0.05, {2, 0}},
        {"IP epsilon keeps at least one",
         {best(-9.6f), best(-1.0f), best(-10.0f)}, 3, 0.01, {2}},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(chooseDeepClusters(c.sampled, c.clusters_to_search,
                                     c.epsilon),
                  c.expected)
            << c.name;
    }
}

TEST(Hermes, SampleStatsTouchEveryCluster)
{
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    auto result = hermes.search(data.queries.embeddings.row(1), 5);
    ASSERT_EQ(result.sample_stats.size(), data.store->numClusters());
    for (const auto &stats : result.sample_stats)
        EXPECT_GT(stats.vectors_scanned, 0u);
    // Deep stats only on the selected clusters.
    std::size_t touched = 0;
    for (const auto &stats : result.deep_stats)
        touched += stats.vectors_scanned > 0;
    EXPECT_EQ(touched, data.config.clusters_to_search);
}

TEST(Hermes, ScansFarFewerVectorsThanNaiveSplit)
{
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    NaiveSplitSearch split(*data.store);
    auto hermes_result = hermes.search(data.queries.embeddings.row(2), 5);
    auto split_result = split.search(data.queries.embeddings.row(2), 5);
    // The throughput/energy win of Fig 18 comes from this work reduction.
    EXPECT_LT(hermes_result.total.vectors_scanned,
              split_result.total.vectors_scanned);
}

TEST(Hermes, BeatsCentroidRoutingOnRoutingAccuracy)
{
    // Fig 11: document sampling routes better than centroid-only routing
    // at equal clusters searched. Evaluate routing itself: fraction of
    // queries where the chosen clusters contain the true best document.
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    CentroidRouting centroid(*data.store);

    // Map row -> cluster.
    std::vector<std::uint32_t> cluster_of_row(
        data.corpus.embeddings.rows());
    for (std::size_t c = 0; c < data.store->numClusters(); ++c)
        for (auto row : data.store->partitioning().members[c])
            cluster_of_row[row] = static_cast<std::uint32_t>(c);

    auto routing_hits = [&](const SearchStrategy &strategy) {
        std::size_t hits = 0;
        for (std::size_t q = 0; q < data.queries.embeddings.rows(); ++q) {
            auto result =
                strategy.search(data.queries.embeddings.row(q), 5);
            auto best = static_cast<std::size_t>(data.truth[q][0].id);
            for (auto c : result.deep_clusters)
                hits += c == cluster_of_row[best];
        }
        return hits;
    };
    EXPECT_GE(routing_hits(hermes), routing_hits(centroid));
}

TEST(CentroidRouting, SearchesConfiguredClusterCount)
{
    const auto &data = coreData();
    CentroidRouting centroid(*data.store);
    auto result = centroid.search(data.queries.embeddings.row(3), 5);
    EXPECT_EQ(result.deep_clusters.size(), data.config.clusters_to_search);
}

TEST(Monolithic, SingleClusterTrace)
{
    const auto &data = coreData();
    MonolithicSearch mono(data.corpus.embeddings, "SQ8", 16);
    auto result = mono.search(data.queries.embeddings.row(0), 5);
    EXPECT_EQ(result.deep_clusters, std::vector<std::uint32_t>{0});
    EXPECT_EQ(mono.numClusters(), 1u);
    EXPECT_GT(result.total.vectors_scanned, 0u);
}

TEST(TraceBatch, RecordsMatchQueries)
{
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    std::vector<vecstore::HitList> results;
    auto trace = hermes.traceBatch(data.queries.embeddings, 5, &results);
    EXPECT_EQ(trace.num_clusters, data.store->numClusters());
    ASSERT_EQ(trace.records.size(), data.queries.embeddings.rows());
    ASSERT_EQ(results.size(), data.queries.embeddings.rows());
    for (std::size_t q = 0; q < trace.records.size(); ++q) {
        EXPECT_EQ(trace.records[q].query, q);
        EXPECT_EQ(trace.records[q].clusters.size(),
                  data.config.clusters_to_search);
    }
}

TEST(TraceBatch, PopularTopicsSkewAccessFrequency)
{
    // Fig 13: Zipf query popularity produces uneven cluster access.
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    auto trace = hermes.traceBatch(data.queries.embeddings, 5);
    auto counts = trace.accessCounts();
    auto mx = *std::max_element(counts.begin(), counts.end());
    auto mn = *std::min_element(counts.begin(), counts.end());
    EXPECT_GT(mx, mn);
}

/** One thread of this process, as /proc/self/task reports it. */
struct TaskInfo
{
    std::string tid;
    std::string name;
    char state = '?';
    unsigned long long cpu_ticks = 0; ///< utime + stime
};

/** Every live thread of this process (empty where /proc is missing). */
std::vector<TaskInfo>
liveTasks()
{
    std::vector<TaskInfo> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        std::ifstream in(entry.path() / "stat");
        const std::string stat((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        const auto open = stat.find('(');
        const auto close = stat.rfind(')');
        if (open == std::string::npos || close == std::string::npos)
            continue; // the thread exited between listing and reading
        TaskInfo task;
        task.tid = entry.path().filename().string();
        task.name = stat.substr(open + 1, close - open - 1);
        // Fields after the name: state (3), ..., utime (14), stime (15).
        std::istringstream fields(stat.substr(close + 2));
        std::vector<std::string> f((std::istream_iterator<std::string>(
                                        fields)),
                                    std::istream_iterator<std::string>());
        if (f.size() < 13)
            continue;
        task.state = f[0][0];
        task.cpu_ticks = std::stoull(f[11]) + std::stoull(f[12]);
        out.push_back(task);
    }
    return out;
}

/** The build pool's workers among @p tasks. */
std::vector<TaskInfo>
poolWorkers(const std::vector<TaskInfo> &tasks)
{
    std::vector<TaskInfo> out;
    std::copy_if(tasks.begin(), tasks.end(), std::back_inserter(out),
                 [](const TaskInfo &t) { return t.name == "hermes-build"; });
    return out;
}

TEST(BuildPool, BuildsStartNoThreadsAndLeaveThePoolIdle)
{
    if (liveTasks().empty())
        GTEST_SKIP() << "no /proc/self/task";
    const auto &data = coreData();
    auto &pool = util::ThreadPool::shared();
    const auto start = liveTasks();
    ASSERT_EQ(poolWorkers(start).size(), pool.size());
    const std::size_t baseline = start.size() - pool.size();

    // A watcher samples the thread count while the builds run: a
    // per-build pool would show up for the whole of its build.
    std::atomic<bool> done{false};
    std::atomic<std::size_t> peak{0};
    std::thread watcher([&] {
        while (!done.load()) {
            const std::size_t now = liveTasks().size();
            if (now > peak.load())
                peak.store(now);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    for (int b = 0; b < 5; ++b) {
        auto store = DistributedStore::build(data.corpus.embeddings,
                                             data.config);
        EXPECT_EQ(store.totalVectors(), data.corpus.embeddings.rows());
        EXPECT_EQ(liveTasks().size(), baseline + pool.size() + 1)
            << "after build " << b;
    }
    done.store(true);
    watcher.join();
    EXPECT_LE(peak.load(), baseline + pool.size() + 1);
    EXPECT_EQ(liveTasks().size(), baseline + pool.size());

    // An idle pool blocks: every worker sleeps and burns no CPU.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto before = poolWorkers(liveTasks());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const auto after = poolWorkers(liveTasks());
    ASSERT_EQ(before.size(), after.size());
    unsigned long long spent = 0;
    for (std::size_t w = 0; w < after.size(); ++w) {
        ASSERT_EQ(after[w].tid, before[w].tid);
        EXPECT_EQ(after[w].state, 'S') << "worker " << after[w].tid;
        spent += after[w].cpu_ticks - before[w].cpu_ticks;
    }
    EXPECT_EQ(spent, 0u) << "idle workers used CPU";
}

} // namespace
