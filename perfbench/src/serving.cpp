/**
 * @file
 * The two serving workloads: an in-process HermesBroker over a heap
 * store (broker-small), and the same store served by a loopback fleet of
 * ShardServers (fleet-loopback).
 */

#include <atomic>
#include <stdexcept>

#include "common.hpp"
#include "tracing.hpp"

#include "core/search_strategy.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "serve/broker.hpp"
#include "serve/remote_node.hpp"
#include "serve/shard_server.hpp"

namespace perfbench {

namespace {

namespace hc = hermes::core;
namespace hs = hermes::serve;
namespace hv = hermes::vecstore;
namespace hobs = hermes::obs;

hc::HermesConfig
hermesConfig()
{
    hc::HermesConfig config;
    config.num_clusters = kClusters;
    config.sample_nprobe = kSampleNprobe;
    config.deep_nprobe = kDeepNprobe;
    config.clusters_to_search = kDeepClusters;
    config.docs_to_retrieve = kTopK;
    config.codec = "Flat";
    return config;
}

/** Wall seconds of one setup, and of its build step. */
struct SetupTimes
{
    double total = 0.0;
    double build = 0.0;
};

/**
 * One serving deployment: the searched store, the front end (the
 * broker, plus shard servers for the loopback fleet) and, in the traced
 * run, the timing wrappers between them.
 */
class Deployment
{
  public:
    explicit Deployment(const Options &options)
        : options_(options), remote_(options.workload == "fleet-loopback")
    {
    }

    ~Deployment()
    {
        stopFront();
    }

    Deployment(const Deployment &) = delete;
    Deployment &operator=(const Deployment &) = delete;

    /** Generate the corpus, build and start serving; the previous
     *  deployment, if any, is torn down first, untimed. */
    SetupTimes
    setup()
    {
        stopFront();
        store.reset();

        SetupTimes times;
        const Clock::time_point start = Clock::now();
        corpus = hermes::workload::generateCorpus(
            corpusConfig(options_.workload));

        Clock::time_point step = Clock::now();
        hc::DistributedStore built = hc::DistributedStore::build(
            corpus.embeddings, hermesConfig());
        times.build = secondsSince(step);

        store = std::make_unique<hc::DistributedStore>(std::move(built));
        startFront(nullptr);
        times.total = secondsSince(start);
        return times;
    }

    /**
     * Start the broker (and the fleet's shard servers). With @p spans
     * the timing wrappers go between broker, node clients and shard
     * indices; without, the program runs exactly as deployed.
     */
    void
    startFront(SpanLog *spans)
    {
        const hs::BrokerConfig broker_config;
        if (!remote_ && !spans) {
            broker = std::make_unique<hs::HermesBroker>(*store, broker_config);
            return;
        }
        std::vector<std::unique_ptr<hs::NodeClient>> nodes;
        for (std::size_t c = 0; c < store->numClusters(); ++c) {
            const hermes::index::AnnIndex *shard = &store->clusterIndex(c);
            if (spans) {
                shard_timers.push_back(
                    std::make_unique<TimingAnnIndex>(*shard, spans));
                shard = shard_timers.back().get();
            }
            std::unique_ptr<hs::NodeClient> node;
            if (remote_) {
                hs::ShardServerOptions server_options;
                server_options.node.node_id = c;
                servers.push_back(
                    std::make_unique<hs::ShardServer>(*shard, server_options));
                if (!servers.back()->start())
                    throw std::runtime_error("shard server did not start");
                hs::RemoteNodeOptions remote_options;
                remote_options.port = servers.back()->port();
                remote_options.request_deadline_ms =
                    broker_config.node_deadline_ms;
                auto remote =
                    std::make_unique<hs::RemoteNodeClient>(remote_options);
                if (!remote->health())
                    throw std::runtime_error("shard health handshake failed");
                remotes.push_back(remote.get());
                node = std::move(remote);
            } else {
                hs::NodeConfig node_config = broker_config.node;
                node_config.node_id = c;
                node = std::make_unique<hs::LocalNodeClient>(*shard,
                                                             node_config);
            }
            if (spans) {
                auto timed =
                    std::make_unique<TimingNodeClient>(std::move(node), spans);
                client_timers.push_back(timed.get());
                node = std::move(timed);
            }
            nodes.push_back(std::move(node));
        }
        broker = std::make_unique<hs::HermesBroker>(
            store->config(), std::move(nodes), broker_config);
    }

    /** Tear down the front end; the store stays. */
    void
    stopFront()
    {
        broker.reset();
        client_timers.clear();
        remotes.clear();
        for (auto &server : servers)
            server->stop();
        servers.clear();
        shard_timers.clear();
    }

    hermes::workload::Corpus corpus;
    std::unique_ptr<hc::DistributedStore> store;
    std::unique_ptr<hs::HermesBroker> broker;

    /** Traced run only (borrowed from the broker / owned here). */
    std::vector<TimingNodeClient *> client_timers;
    std::vector<std::unique_ptr<TimingAnnIndex>> shard_timers;

    /** Loopback fleet only. */
    std::vector<hs::RemoteNodeClient *> remotes;
    std::vector<std::unique_ptr<hs::ShardServer>> servers;

  private:
    const Options &options_;
    bool remote_;
};

/** Shared state of the request callable. */
struct Traffic
{
    const hv::Matrix *pool = nullptr;
    Deployment *deployment = nullptr;

    /** Hit lists kept for the parity / recall subset. */
    std::vector<char> keep;
    std::vector<hv::HitList> kept;

    /** Traced run: span sink and broker.search timings. */
    SpanLog *spans = nullptr;
    Samples broker_us;

    std::atomic<std::size_t> pool_overruns{0};

    bool
    operator()(std::size_t seq)
    {
        if (seq >= pool->rows()) {
            pool_overruns.fetch_add(1);
            return false;
        }
        const Clock::time_point start = Clock::now();
        hv::HitList hits = deployment->broker->search(pool->row(seq), kTopK);
        if (spans) {
            const Clock::time_point end = Clock::now();
            broker_us.add(
                std::chrono::duration<double, std::micro>(end - start)
                    .count());
            const auto row = static_cast<std::int64_t>(seq);
            spans->addWithId("broker.search", row, SpanLog::brokerSpanId(row),
                             SpanLog::requestSpanId(row), start, end);
        }
        const bool ok = hits.size() == kTopK;
        if (keep[seq])
            kept[seq] = std::move(hits);
        return ok;
    }
};

/**
 * Parity with core::HermesSearch (bit-exact, the DESIGN.md fault-free
 * contract) and recall@5 against exact ground truth on @p subset.
 * Returns the recall; records the ground-truth time.
 */
double
checkSubsetHits(const Deployment &d, const Traffic &traffic,
                const std::vector<std::size_t> &subset,
                double &ground_truth_s, RunOutcome &out)
{
    const hv::Matrix &pool = *traffic.pool;
    hc::HermesSearch reference(*d.store);
    hv::Matrix queries(0, pool.dim());
    std::vector<hv::HitList> got;
    std::size_t mismatches = 0;
    for (std::size_t seq : subset) {
        if (seq >= pool.rows() || traffic.kept[seq].empty()) {
            out.errors.push_back("check query " + std::to_string(seq) +
                                 " was not answered");
            continue;
        }
        if (!sameHits(traffic.kept[seq],
                      reference.search(pool.row(seq), kTopK).hits))
            ++mismatches;
        queries.append(pool.row(seq));
        got.push_back(traffic.kept[seq]);
    }
    if (mismatches > 0) {
        out.errors.push_back(std::to_string(mismatches) + " of " +
                             std::to_string(subset.size()) +
                             " hit lists differ from core::HermesSearch");
    }
    const Clock::time_point start = Clock::now();
    auto truth = groundTruth(d.corpus.embeddings, queries);
    ground_truth_s = secondsSince(start);
    return checkedRecall(got, truth, out);
}

/** Per-layer read-out after the traced light run. */
void
reportLayers(const Deployment &d, const Traffic &traffic,
             Metrics &metrics)
{
    const hs::BrokerStats stats = d.broker->stats();
    const double queries = static_cast<double>(stats.queries);
    const auto search_us = traffic.broker_us.values();
    const double search_p50 = percentile(search_us, 50.0);

    metrics.set("broker.search_us.p50", search_p50);
    metrics.set("broker.search_us.p99", percentile(search_us, 99.0));
    const char *phases[] = {hobs::names::kBrokerSamplePhaseUs,
                            hobs::names::kBrokerDeepPhaseUs,
                            hobs::names::kBrokerMergePhaseUs};
    metrics.set("broker.sample_phase_us.p50",
                histogramPercentile(phases[0], 50.0));
    metrics.set("broker.deep_phase_us.p50",
                histogramPercentile(phases[1], 50.0));
    metrics.set("broker.merge_phase_us.p50",
                histogramPercentile(phases[2], 50.0));
    // Means add up where medians do not: what the phases leave of the
    // mean broker.search time.
    double unattributed = 0.0;
    for (double us : search_us)
        unattributed += us;
    unattributed = ratio(unattributed, static_cast<double>(search_us.size()));
    for (const char *phase : phases)
        unattributed -= histogramMean(phase);
    metrics.set("broker.unattributed_us.mean", unattributed);
    metrics.set("broker.deep_clusters_per_query",
                ratio(static_cast<double>(stats.deep_requests), queries));
    metrics.set("broker.degraded_queries",
                static_cast<double>(stats.degraded_queries));
    metrics.set("broker.timeouts", static_cast<double>(stats.timeouts));

    std::vector<double> submit_us;
    for (const TimingNodeClient *client : d.client_timers) {
        auto v = client->submitUs().values();
        submit_us.insert(submit_us.end(), v.begin(), v.end());
    }
    metrics.set("node_client.submit_us.p50", percentile(submit_us, 50.0));
    metrics.set("node.queue_wait_us.p50",
                histogramPercentile(hobs::names::kNodeQueueWaitUs, 50.0));
    metrics.set("node.queue_wait_us.p99",
                histogramPercentile(hobs::names::kNodeQueueWaitUs, 99.0));
    metrics.set("node.batch_exec_us.p50",
                histogramPercentile(hobs::names::kNodeBatchExecUs, 50.0));
    double requests = 0.0, batches = 0.0, busy_max = 0.0, busy_sum = 0.0;
    for (const hs::NodeStats &node : stats.nodes) {
        requests += static_cast<double>(node.requests);
        batches += static_cast<double>(node.batches);
        busy_max = std::max(busy_max, node.busy_seconds);
        busy_sum += node.busy_seconds;
    }
    metrics.set("node.batch_occupancy", ratio(requests, batches));
    metrics.set("node.busy_max_mean",
                ratio(busy_max * static_cast<double>(stats.nodes.size()),
                      busy_sum));

    std::vector<const TimingAnnIndex *> shards;
    for (const auto &timer : d.shard_timers)
        shards.push_back(timer.get());
    const double call_p50 = reportIndexLayer(shards, queries, metrics);

    if (!d.remotes.empty()) {
        const double round_trip =
            histogramPercentile(hobs::names::kRpcRoundTripUs, 50.0);
        metrics.set("rpc.round_trip_us.p50", round_trip);
        metrics.set("rpc.round_trip_us.p99",
                    histogramPercentile(hobs::names::kRpcRoundTripUs, 99.0));
        metrics.set("rpc.batch_size.mean",
                    histogramMean(hobs::names::kRpcBatchSize));
        double rpcs = 0.0;
        for (const hs::RemoteNodeClient *remote : d.remotes)
            rpcs += static_cast<double>(remote->clientStats().rpcs_sent);
        auto &registry = hobs::Registry::instance();
        metrics.set("rpc.rpcs_per_query", ratio(rpcs, queries));
        metrics.set(
            "rpc.request_bytes_per_query",
            ratio(static_cast<double>(
                      registry.counter(hobs::names::kRpcRequestBytes).value()),
                  queries));
        metrics.set(
            "rpc.response_bytes_per_query",
            ratio(static_cast<double>(
                      registry.counter(hobs::names::kRpcResponseBytes)
                          .value()),
                  queries));
        metrics.set("rpc.wire_us.p50", round_trip - call_p50);
        double errors = 0.0;
        for (const auto &server : d.servers)
            errors += static_cast<double>(server->stats().errors_returned);
        metrics.set("shard.errors_returned", errors);
    }
}

/** Single-thread core::HermesSearch over @p seqs: the reference plan.
 *  Returns its p50 (us). */
double
reportCoreReference(const Deployment &d, const hv::Matrix &pool,
                    std::vector<std::size_t> seqs, Metrics &metrics)
{
    hc::HermesSearch reference(*d.store);
    std::vector<double> us;
    us.reserve(seqs.size());
    for (std::size_t seq : seqs) {
        if (seq >= pool.rows())
            continue;
        const Clock::time_point start = Clock::now();
        reference.search(pool.row(seq), kTopK);
        us.push_back(std::chrono::duration<double, std::micro>(
                         Clock::now() - start)
                         .count());
    }
    const double p50 = percentile(us, 50.0);
    metrics.set("core.hermes_search_us.p50", p50);
    metrics.set("core.hermes_search_us.p99", percentile(us, 99.0));
    return p50;
}

void
reportSetup(const std::vector<SetupTimes> &setups, bool trace,
            Metrics &metrics)
{
    std::vector<double> total, build;
    for (const SetupTimes &t : setups) {
        total.push_back(t.total);
        build.push_back(t.build);
    }
    if (!trace) {
        metrics.set("setup_s", median(total));
        return;
    }
    metrics.set("setup.build_s", median(build));
}

} // namespace

int
runServing(const Options &options, RunOutcome &out)
{
    const double S = options.seconds;
    const WorkloadSettings &ws = options.settings;
    Deployment d(options);
    std::vector<SetupTimes> setups;
    std::vector<double> setup_seconds;
    while (anotherSetup(setup_seconds)) {
        setups.push_back(d.setup());
        setup_seconds.push_back(setups.back().total);
    }
    reportSetup(setups, options.trace, out.metrics);
    std::printf("setup: %.3f s median of %zu\n", median(setup_seconds),
                setups.size());

    const hv::Matrix pool = queryPool(d.corpus, ws.query_pool, options.seed);
    Traffic traffic;
    traffic.pool = &pool;
    traffic.deployment = &d;
    traffic.keep.assign(pool.rows(), 0);
    traffic.kept.resize(pool.rows());
    auto request = [&traffic](std::size_t seq) { return traffic(seq); };

    std::size_t seq = 0;
    auto account = [&](const LoadResult &run) {
        seq += run.attempted;
        out.attempted += run.attempted;
        out.failed += run.failed;
    };

    account(runClosedLoop(options.senders, 0.02 * S, seq, request));
    double ground_truth_s = 0.0;

    if (!options.trace) {
        out.metrics.set("mem_mib", memMib());
        const auto subset =
            measureRates(options, seq, request, out, traffic.keep);
        out.metrics.set("recall_at_5",
                        checkSubsetHits(d, traffic, subset, ground_truth_s,
                                        out));
    } else {
        const LoadResult plain = runOpenLoop(
            rateRun(ws.light_qps, 0.25 * S, options, 1), seq, request);
        account(plain);
        out.failed += d.broker->stats().degraded_queries;

        d.stopFront();
        SpanLog spans(pool);
        d.startFront(&spans);
        traffic.spans = &spans;
        hobs::Registry::instance().reset();
        const double faults_before = majorFaults();
        const OpenLoopConfig light =
            rateRun(ws.light_qps, 0.25 * S, options, 3);
        const auto subset =
            markCheckSubset(light, seq, options, traffic.keep);
        const LoadResult traced = runOpenLoop(light, seq, request);
        account(traced);
        out.metrics.set("process.major_faults", majorFaults() - faults_before);
        reportLayers(d, traffic, out.metrics);
        reportLoadgen(traced, out.metrics);
        const double plain_p50 = percentile(plain.latency_us, 50.0);
        out.metrics.set("obs.trace_overhead_ratio",
                        ratio(percentile(traced.latency_us, 50.0), plain_p50));
        std::printf("light untraced p50 %.1f us, traced p50 %.1f us, "
                    "%zu spans\n",
                    plain_p50, percentile(traced.latency_us, 50.0),
                    spans.size());

        std::vector<std::size_t> traced_seqs;
        for (const auto &t : traced.timeline) {
            const auto row = static_cast<std::int64_t>(t.seq);
            spans.addWithId("request", row, SpanLog::requestSpanId(row), 0,
                            t.intended, t.done);
            traced_seqs.push_back(t.seq);
        }
        std::sort(traced_seqs.begin(), traced_seqs.end());
        checkSubsetHits(d, traffic, subset, ground_truth_s, out);
        const double core_p50 =
            reportCoreReference(d, pool, traced_seqs, out.metrics);
        out.metrics.set(
            "broker.overhead_ratio",
            ratio(percentile(traffic.broker_us.values(), 50.0), core_p50));
        out.metrics.set("setup.ground_truth_s", ground_truth_s);
        const std::string path = spanPath(options);
        if (!spans.write(path))
            out.errors.push_back("could not write " + path);
        traffic.spans = nullptr;
    }

    const hs::BrokerStats stats = d.broker->stats();
    out.failed += stats.degraded_queries;
    checkPool(traffic.pool_overruns.load(), pool.rows(), out);
    return 0;
}

} // namespace perfbench
