/**
 * @file
 * Online serving demo: stands up the threaded Hermes broker (one worker
 * per cluster node), drives it with concurrent client threads, and prints
 * per-node load — the deployment shape of Fig 9 in miniature.
 *
 * Usage: serving_demo [num_docs] [clients] [queries_per_client]
 *                     [fail_prob] [drop_prob] [delay_ms]
 *                     [--metrics-json=PATH] [--metrics-prom=PATH]
 *                     [--metrics-interval=SECONDS]
 *                     [--trace-out=PATH] [--trace-sample=N]
 *                     [--http-port=PORT] [--duration=SECONDS]
 *                     [--batch-window-us=N] [--max-batch=N] [--dim=N]
 *                     [--nlist=N] [--remote-nodes=host:port,host:port,...]
 *                     [--replicate=c:r,...] [--auto-replicate=N]
 *                     [--auto-replicate-after=S] [--hedge=0|1]
 *                     [--deadline-ms=MS] [--perf=0|1]
 *                     [--index-dir=DIR] [--index-heap=0|1]
 *
 * --index-dir=DIR loads the store from a hermes_build_index deployment
 * manifest instead of partitioning and training at startup — the
 * "build once, serve many" path. Cluster indices are opened as
 * zero-copy mmap views (--index-heap=1 copies them to heap instead),
 * so a restart is ready in milliseconds regardless of store size. The
 * embedding dim and cluster count come from the manifest; the corpus
 * is still synthesized (with the manifest's dim) for query synthesis,
 * so build the deployment from the same corpus flags for meaningful
 * recall. Incompatible with --remote-nodes, which builds no store.
 *
 * --remote-nodes switches the broker to the out-of-process fleet: one
 * RemoteNodeClient per listed hermes_shard endpoint (in cluster order)
 * instead of in-process worker nodes. The demo then builds no store of
 * its own — only the corpus for query synthesis — and num_clusters
 * becomes the endpoint count, so launch the shards with a matching
 * --clusters (and matching corpus flags). Fault-injection positionals
 * are ignored in this mode; inject faults on the shard processes
 * instead. On an identical fleet the merged results are bit-identical
 * to the in-process run.
 *
 * Replication and skew-aware routing: each endpoint may carry an
 * explicit cluster assignment, `host:port@cluster` (all endpoints or
 * none) — listing two endpoints with the same cluster makes them
 * replicas of that cluster, served by bit-identical hermes_shard
 * processes (same corpus flags + --cluster, see hermes_shard
 * --replica). In-process, --replicate=c:r,... spins up r worker nodes
 * over cluster c's shard index, and --auto-replicate=N lets the broker
 * add up to N replicas itself from its live load report
 * (--auto-replicate-after delays the decision until the Zipf fit has
 * data; default 2 s). Replicated clusters are routed by
 * power-of-two-choices over live queue depth, and straggling sample
 * probes are hedged to a second replica (--hedge=0 disables) — the
 * run summary prints the hedge counters, and any query returning
 * fewer than the requested top-k is counted as "short". Hedging (and
 * the per-probe retry ladder) needs a finite node deadline:
 * --deadline-ms sets it explicitly; otherwise it is BrokerConfig's
 * default of 2000 ms, or 250 ms when drop_prob > 0 so dead nodes stay
 * cheap. Each attempt gets the deadline from its submit, so a phase
 * costs at most (retries + 1) deadlines however many nodes are dead.
 * For remote fleets it also becomes each RPC's request deadline.
 *
 * --batch-window-us opts the nodes into micro-batching: concurrent
 * clients' requests landing on the same node within the window are
 * coalesced into one list-major shard scan (compare QPS and the
 * per-node batch_occupancy in the /load report against a window=0 run).
 * The amortization pays off in proportion to per-row scan work, so use
 * --dim to run at a realistic embedding width (the default 32 keeps the
 * demo fast but makes scans so cheap that the window's added queueing
 * outweighs the shared list streaming). --nlist overrides the per-node
 * IVF list count (0 = sqrt heuristic); fewer, larger lists give each
 * batched list visit more rows to amortize over.
 *
 * --perf=1 turns on hardware-grounded observability: per-phase
 * perf_event counter groups (IPC, cache miss rates) and RAPL energy
 * sampling, surfaced through the /perf endpoint and the perf.* metric
 * family. When the kernel denies access (perf_event_paranoid,
 * missing powercap) the run degrades gracefully — counters report
 * unavailable and the output is bit-identical to a --perf=0 run.
 *
 * --http-port starts the embedded metrics endpoint (0 = ephemeral; the
 * bound port is printed) serving /metrics, /metrics.json and the
 * broker's /load while the demo runs. --duration switches the clients
 * from a fixed query count to a wall-clock run (queries are reused
 * round-robin), which keeps the endpoint alive long enough to watch
 * with hermes_monitor or scrape from CI. --metrics-interval re-writes
 * the --metrics-json/--metrics-prom files periodically during the run.
 *
 * The optional fault arguments inject per-request failures, drops (dead
 * node: the broker's deadline fires) and delays into every node, showing
 * the broker's graceful degradation: queries still return top-k from the
 * surviving nodes, and the timeout/failure/degraded counters account for
 * what was lost.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hermes/hermes.hpp"
#include "util/argparse.hpp"

namespace {

using hermes::util::matchOption;

/** Split a comma-separated endpoint list, dropping empty entries. */
std::vector<std::string>
splitEndpoints(const std::string &spec)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        if (comma > start)
            out.push_back(spec.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hermes;
    util::setQuiet(true);

    std::string metrics_json;
    std::string metrics_prom;
    double metrics_interval = 0.0;
    std::string trace_out;
    std::size_t trace_sample = 1;
    int http_port = -1;
    double duration = 0.0;
    double batch_window_us = 0.0;
    std::size_t max_batch = 0;
    std::size_t dim = 32;
    std::size_t nlist = 0;
    std::string remote_nodes;
    std::string replicate;
    std::size_t auto_replicate = 0;
    double auto_replicate_after = 2.0;
    bool hedge = true;
    double deadline_ms = 0.0;
    bool perf_flag = false;
    std::string index_dir;
    bool index_heap = false;
    std::vector<char *> positional;
    for (int i = 0; i < argc; ++i) {
        if (const char *v = matchOption(argv[i], "--metrics-json"))
            metrics_json = v;
        else if (const char *v = matchOption(argv[i], "--metrics-prom"))
            metrics_prom = v;
        else if (const char *v = matchOption(argv[i], "--metrics-interval"))
            metrics_interval = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--trace-out"))
            trace_out = v;
        else if (const char *v = matchOption(argv[i], "--trace-sample"))
            trace_sample = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--http-port"))
            http_port = std::atoi(v);
        else if (const char *v = matchOption(argv[i], "--duration"))
            duration = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--batch-window-us"))
            batch_window_us = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--max-batch"))
            max_batch = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--dim"))
            dim = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--nlist"))
            nlist = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--remote-nodes"))
            remote_nodes = v;
        else if (const char *v = matchOption(argv[i], "--replicate"))
            replicate = v;
        else if (const char *v = matchOption(argv[i], "--auto-replicate"))
            auto_replicate = std::strtoul(v, nullptr, 10);
        else if (const char *v =
                     matchOption(argv[i], "--auto-replicate-after"))
            auto_replicate_after = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--hedge"))
            hedge = std::atoi(v) != 0;
        else if (const char *v = matchOption(argv[i], "--deadline-ms"))
            deadline_ms = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--perf"))
            perf_flag = std::atoi(v) != 0;
        else if (const char *v = matchOption(argv[i], "--index-dir"))
            index_dir = v;
        else if (const char *v = matchOption(argv[i], "--index-heap"))
            index_heap = std::atoi(v) != 0;
        else
            positional.push_back(argv[i]);
    }
    argc = static_cast<int>(positional.size());
    argv = positional.data();

    if (perf_flag)
        obs::setPerfEnabled(true);

    if (!trace_out.empty())
        obs::TraceRecorder::instance().start(trace_sample);

    std::size_t num_docs =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
    std::size_t clients = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
    std::size_t per_client =
        argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 64;
    double fail_prob = argc > 4 ? std::strtod(argv[4], nullptr) : 0.0;
    double drop_prob = argc > 5 ? std::strtod(argv[5], nullptr) : 0.0;
    double delay_ms = argc > 6 ? std::strtod(argv[6], nullptr) : 0.0;

    if (!index_dir.empty() && !remote_nodes.empty()) {
        std::fprintf(stderr, "--index-dir and --remote-nodes are "
                             "mutually exclusive (remote fleets load "
                             "their own index files)\n");
        return 2;
    }

    // A deployment manifest pins the store geometry; the corpus below
    // is then only synthesized for query generation and must match the
    // manifest's embedding dim.
    std::optional<core::Manifest> manifest;
    if (!index_dir.empty()) {
        manifest = core::loadOrFatal(
            [&] { return core::Manifest::load(index_dir); });
        dim = manifest->dim;
    }

    // Build the corpus (and, when serving in-process, the store).
    workload::CorpusConfig cc;
    cc.num_docs = num_docs;
    cc.dim = dim;
    cc.num_topics = 30;
    auto corpus = workload::generateCorpus(cc);

    std::vector<std::string> endpoints = splitEndpoints(remote_nodes);

    // Optional per-endpoint cluster assignment, "host:port@cluster":
    // listing several endpoints with the same cluster makes them
    // replicas. All endpoints carry an assignment or none do (then
    // endpoint i serves cluster i, the pre-replication shape).
    std::vector<std::uint32_t> endpoint_clusters(endpoints.size(), 0);
    std::size_t tagged = 0;
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        std::size_t at = endpoints[i].rfind('@');
        if (at == std::string::npos) {
            endpoint_clusters[i] = static_cast<std::uint32_t>(i);
            continue;
        }
        endpoint_clusters[i] = static_cast<std::uint32_t>(
            std::strtoul(endpoints[i].c_str() + at + 1, nullptr, 10));
        endpoints[i].resize(at);
        ++tagged;
    }
    if (tagged != 0 && tagged != endpoints.size()) {
        std::fprintf(stderr, "either every --remote-nodes endpoint "
                             "carries @cluster or none do\n");
        return 2;
    }
    std::size_t remote_clusters = 0;
    for (std::uint32_t c : endpoint_clusters)
        remote_clusters = std::max<std::size_t>(remote_clusters, c + 1);

    core::HermesConfig config;
    config.num_clusters = manifest ? manifest->num_clusters
                                   : (endpoints.empty() ? 10
                                                        : remote_clusters);
    config.clusters_to_search =
        std::min<std::size_t>(3, config.num_clusters);
    config.sample_nprobe = 4;
    config.deep_nprobe = 32;
    config.partition.seeds_to_try = 3;
    config.nlist_per_cluster = nlist;
    std::optional<core::DistributedStore> store;
    util::Timer store_timer;
    if (manifest) {
        store = core::loadOrFatal([&] {
            return core::loadStore(index_dir, *manifest, config,
                                   index_heap
                                       ? core::StoreLoadMode::kHeap
                                       : core::StoreLoadMode::kMapped);
        });
        config = store->config();
        std::printf("loaded %zu %s indices from %s in %.1f ms (%s)\n",
                    store->numClusters(), store->config().codec.c_str(),
                    index_dir.c_str(),
                    store_timer.elapsedSeconds() * 1e3,
                    index_heap ? "heap copies" : "zero-copy mmap");
    } else if (endpoints.empty()) {
        store = core::DistributedStore::build(corpus.embeddings, config);
    }

    workload::QueryConfig qc;
    qc.num_queries = clients * per_client;
    qc.topic_zipf = 1.0;
    auto queries = workload::generateQueries(corpus, qc);

    // Stand up the broker and hammer it from concurrent clients.
    serve::BrokerConfig broker_config;
    broker_config.node.batch_window_us = batch_window_us;
    if (max_batch > 0)
        broker_config.node.max_batch = max_batch;
    broker_config.node.faults.fail_probability = fail_prob;
    broker_config.node.faults.drop_probability = drop_prob;
    broker_config.node.faults.delay_probability = delay_ms > 0.0 ? 0.2 : 0.0;
    broker_config.node.faults.delay_ms = delay_ms;
    if (drop_prob > 0.0)
        broker_config.node_deadline_ms = 250.0; // make dead nodes cheap
    if (deadline_ms > 0.0)
        broker_config.node_deadline_ms = deadline_ms;
    broker_config.hedge.enabled = hedge;
    if (!replicate.empty() &&
        !serve::ReplicaMap::parseSpec(replicate,
                                      broker_config.replicate)) {
        std::fprintf(stderr, "bad --replicate spec (want c:r,c:r,...): "
                             "%s\n", replicate.c_str());
        return 2;
    }
    if (!endpoints.empty() && tagged > 0) {
        serve::ReplicaMap map;
        for (std::size_t i = 0; i < endpoints.size(); ++i)
            map.assign(endpoint_clusters[i],
                       static_cast<std::uint32_t>(i));
        if (!map.complete()) {
            std::fprintf(stderr, "endpoint cluster assignments must "
                                 "cover every cluster 0..%zu\n",
                         config.num_clusters - 1);
            return 2;
        }
        broker_config.replica_map = std::move(map);
    }

    // Per-node shard sizes for the load table: from the store when
    // in-process, from each shard's Health RPC when remote.
    std::vector<std::size_t> shard_sizes(config.num_clusters, 0);
    std::unique_ptr<serve::HermesBroker> broker;
    if (endpoints.empty()) {
        for (std::size_t c = 0; c < config.num_clusters; ++c)
            shard_sizes[c] = store->clusterSize(c);
        broker = std::make_unique<serve::HermesBroker>(*store,
                                                       broker_config);
    } else {
        std::vector<std::unique_ptr<serve::NodeClient>> nodes;
        for (std::size_t c = 0; c < endpoints.size(); ++c) {
            serve::RemoteNodeOptions ro;
            if (!serve::parseEndpoint(endpoints[c], ro.host, ro.port)) {
                std::fprintf(stderr, "bad endpoint: %s\n",
                             endpoints[c].c_str());
                return 2;
            }
            ro.request_deadline_ms = broker_config.node_deadline_ms;
            auto client =
                std::make_unique<serve::RemoteNodeClient>(std::move(ro));
            // Wait briefly for the shard to answer health — fleets come
            // up process by process — then fail loudly on a dim
            // mismatch, which would otherwise surface as per-query
            // BadRequest noise.
            serve::rpc::HealthResponse health;
            bool up = false;
            for (int attempt = 0; attempt < 20 && !up; ++attempt) {
                up = client->health(&health);
                if (!up)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(250));
            }
            if (!up) {
                std::fprintf(stderr, "shard %s unreachable\n",
                             endpoints[c].c_str());
                return 1;
            }
            if (health.dim != dim) {
                std::fprintf(stderr,
                             "shard %s serves dim %llu, demo runs dim "
                             "%zu — corpus flags must match\n",
                             endpoints[c].c_str(),
                             static_cast<unsigned long long>(health.dim),
                             dim);
                return 1;
            }
            shard_sizes[endpoint_clusters[c]] =
                static_cast<std::size_t>(health.shard_vectors);
            nodes.push_back(std::move(client));
        }
        broker = std::make_unique<serve::HermesBroker>(
            config, std::move(nodes), broker_config);
    }

    std::size_t total_vectors = 0;
    for (std::size_t n : shard_sizes)
        total_vectors += n;
    const char *node_kind = endpoints.empty() ? "node workers"
                                              : "remote shards";
    if (duration > 0.0) {
        std::printf("serving %zu vectors over %zu %s; %zu "
                    "clients for %.1f s\n", total_vectors,
                    broker->numNodes(), node_kind, clients, duration);
    } else {
        std::printf("serving %zu vectors over %zu %s; %zu "
                    "clients x %zu queries\n", total_vectors,
                    broker->numNodes(), node_kind, clients, per_client);
    }

    // Embedded observability: HTTP endpoint + periodic file flushes,
    // both alive for the whole serving run. Declared after the broker
    // so they stop before it (the /load handler dereferences it).
    std::unique_ptr<obs::Exporter> exporter;
    if (http_port >= 0) {
        obs::Exporter::Options options;
        options.port = static_cast<std::uint16_t>(http_port);
        exporter = std::make_unique<obs::Exporter>(options);
        exporter->setHandler("/load", [&broker] {
            return broker->loadReport().toJson();
        });
        if (exporter->start()) {
            std::printf("metrics endpoint: http://127.0.0.1:%u  "
                        "(/metrics, /metrics.json, /load)\n",
                        exporter->port());
            // Pollers wait on this line; with stdout redirected to a
            // file it would otherwise sit in the stdio buffer until exit.
            std::fflush(stdout);
        }
    }
    std::unique_ptr<obs::PeriodicFlusher> flusher;
    if (metrics_interval > 0.0 &&
        (!metrics_json.empty() || !metrics_prom.empty())) {
        flusher = std::make_unique<obs::PeriodicFlusher>(
            metrics_json, metrics_prom, metrics_interval);
    }

    // Dynamic replication: let the broker act on its own load report
    // once the Zipf fit has seen real traffic (in-process only; a
    // node-list broker has no shard index to clone).
    std::thread replicator;
    if (auto_replicate > 0 && endpoints.empty()) {
        replicator = std::thread(
            [&broker, auto_replicate, auto_replicate_after] {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(auto_replicate_after));
                serve::ReplicationPolicy policy;
                policy.max_total_extras = auto_replicate;
                std::size_t added = broker->autoReplicate(policy);
                std::printf("auto-replicate: added %zu replicas\n",
                            added);
                std::fflush(stdout);
            });
    }

    const std::size_t top_k = 5;
    std::atomic<std::uint64_t> short_queries{0};
    util::Timer wall;
    std::vector<std::thread> threads;
    std::vector<double> client_seconds(clients, 0.0);
    for (std::size_t t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            util::Timer timer;
            if (duration > 0.0) {
                // Wall-clock mode: reuse the query set round-robin so
                // the Zipfian skew persists for the whole window.
                std::size_t sent = 0;
                while (timer.elapsedSeconds() < duration) {
                    std::size_t q = (t * per_client + sent) %
                        queries.embeddings.rows();
                    auto hits =
                        broker->search(queries.embeddings.row(q), top_k);
                    if (hits.size() < top_k)
                        short_queries.fetch_add(1);
                    ++sent;
                }
            } else {
                for (std::size_t i = 0; i < per_client; ++i) {
                    std::size_t q = t * per_client + i;
                    auto hits =
                        broker->search(queries.embeddings.row(q), top_k);
                    if (hits.size() < top_k)
                        short_queries.fetch_add(1);
                }
            }
            client_seconds[t] = timer.elapsedSeconds();
        });
    }
    for (auto &thread : threads)
        thread.join();
    if (replicator.joinable())
        replicator.join();
    double elapsed = wall.elapsedSeconds();

    auto stats = broker->stats();
    std::printf("\nserved %llu queries in %.3f s => %.0f QPS aggregate\n",
                static_cast<unsigned long long>(stats.queries), elapsed,
                static_cast<double>(stats.queries) / elapsed);
    std::printf("deep requests: %llu (%.2f clusters/query)\n",
                static_cast<unsigned long long>(stats.deep_requests),
                static_cast<double>(stats.deep_requests) /
                    static_cast<double>(stats.queries));
    std::printf("faults: %llu timeouts, %llu failures, %llu degraded "
                "queries\n",
                static_cast<unsigned long long>(stats.timeouts),
                static_cast<unsigned long long>(stats.failures),
                static_cast<unsigned long long>(stats.degraded_queries));
    std::printf("hedges: %llu issued, %llu won, %llu wasted\n",
                static_cast<unsigned long long>(stats.hedges_issued),
                static_cast<unsigned long long>(stats.hedges_won),
                static_cast<unsigned long long>(stats.hedges_wasted));
    std::printf("short queries: %llu\n\n",
                static_cast<unsigned long long>(short_queries.load()));

    const struct {
        const char *label;
        const obs::LatencySummary &summary;
    } phases[] = {
        {"query latency", stats.query_latency},
        {"sample phase", stats.sample_phase},
        {"deep phase", stats.deep_phase},
        {"merge phase", stats.merge_phase},
    };
    std::printf("%-14s %10s %10s %10s %10s\n", "phase", "p50 (us)",
                "p95 (us)", "p99 (us)", "max (us)");
    for (const auto &phase : phases) {
        if (phase.summary.count == 0)
            continue;
        std::printf("%-14s %10.1f %10.1f %10.1f %10.1f\n", phase.label,
                    phase.summary.p50_us, phase.summary.p95_us,
                    phase.summary.p99_us, phase.summary.max_us);
    }
    std::printf("\n");

    std::printf("%-6s %-8s %-10s %-10s %-10s %-6s %-12s\n", "node",
                "cluster", "shard", "reqs", "batches", "occ",
                "busy (ms)");
    for (std::size_t i = 0; i < stats.nodes.size(); ++i) {
        const auto &node = stats.nodes[i];
        std::uint32_t cluster = i < stats.node_clusters.size()
            ? stats.node_clusters[i]
            : static_cast<std::uint32_t>(i);
        double occ = node.batches > 0
            ? static_cast<double>(node.requests) /
                static_cast<double>(node.batches)
            : 0.0;
        std::printf("%-6zu %-8u %-10zu %-10llu %-10llu %-6.2f %-12.1f\n",
                    i, cluster, shard_sizes[cluster],
                    static_cast<unsigned long long>(node.requests),
                    static_cast<unsigned long long>(node.batches), occ,
                    node.busy_seconds * 1e3);
    }
    std::printf("\nZipf-popular topics load their home nodes harder — the "
                "access imbalance of\nFig 13, live. Compare 'reqs' across "
                "nodes: sampling adds a uniform floor of one\nrequest per "
                "query per node; the surplus is deep-search skew.\n");

    // Fleet summary from the same LoadReport the /load endpoint serves.
    auto load = broker->loadReport();
    std::printf("\nload report: max/mean deep load %.2f, fitted zipf "
                "~%.2f, modeled energy %.1f J (%.2f J/query)\n",
                load.max_mean_ratio, load.zipf_exponent,
                load.total_energy_joules,
                load.queries ? load.total_energy_joules /
                        static_cast<double>(load.queries)
                             : 0.0);
    // Hardware-grounded lines print only when the measurement actually
    // succeeded, so a --perf=1 run with counters/powercap denied stays
    // bit-identical to --perf=0.
    if (load.measured_energy_valid) {
        std::printf("measured energy: %.1f J package, %.1f J dram "
                    "(measured/modeled %.2f)\n",
                    load.measured_package_joules,
                    load.measured_dram_joules,
                    load.energy_model_error_ratio);
    }
    if (obs::perfCountersAvailable()) {
        std::printf("perf counters: per-phase IPC and miss rates live "
                    "in perf.* metrics and at /perf\n");
    }

    flusher.reset(); // final flush before the one-shot writes below
    if (!metrics_json.empty()) {
        obs::Registry::instance().writeJson(metrics_json);
        std::printf("\nmetrics written to %s\n", metrics_json.c_str());
    }
    if (!metrics_prom.empty()) {
        obs::Registry::instance().writePrometheus(metrics_prom);
        std::printf("prometheus metrics written to %s\n",
                    metrics_prom.c_str());
    }
    if (!trace_out.empty()) {
        auto &recorder = obs::TraceRecorder::instance();
        recorder.stop();
        // The "process" tag labels this dump as the broker side for
        // hermes_trace_merge (its rpc.clock_sync instants align the
        // shard dumps onto this clock).
        recorder.writeChromeTrace(trace_out, {{"process", "broker", false}});
        std::printf("trace (%zu spans) written to %s\n",
                    recorder.spanCount(), trace_out.c_str());
    }
    return 0;
}
