/**
 * @file
 * Shard-per-process serving: builds one cluster of the deterministic
 * demo store and serves it over the framed RPC protocol (ShardServer).
 *
 * A fleet is N of these plus a broker wired with --remote-nodes (see
 * serving_demo): every process regenerates the same corpus from the
 * same seed and partitions it with the same config, then keeps only its
 * --cluster slice — so the fleet's union is bit-identical to the
 * in-process store without any index files changing hands. Corpus and
 * partition flags must therefore match across the fleet and the broker.
 *
 * The same determinism makes replication free: two hermes_shard
 * processes with identical corpus flags and the same --cluster serve
 * bit-identical shards, so a broker may list both as replicas of that
 * cluster (serving_demo --remote-nodes=...@cluster) and route/hedge
 * between them without any result drift. --replica=N is a purely
 * cosmetic ordinal that distinguishes the copies in logs, the ready
 * line and /shard.
 *
 * Usage: hermes_shard --cluster=N [--replica=N] [--port=N] [--bind=ADDR]
 *                     [--index-file=PATH] [--index-heap=0|1]
 *                     [--prefault=0|1]
 *                     [--num-docs=N] [--dim=N] [--topics=N]
 *                     [--clusters=N] [--nlist=N]
 *                     [--batch-window-us=N] [--max-batch=N]
 *                     [--fail-prob=P] [--drop-prob=P] [--delay-ms=MS]
 *                     [--http-port=PORT]
 *                     [--trace-out=FILE] [--trace-sample=N]
 *                     [--metrics-json=FILE] [--perf=0|1]
 *
 * --index-file=PATH skips the in-process corpus + partition build and
 * serves a pre-built v3 index file instead: the file is opened as a
 * zero-copy mmap view (millisecond cold starts — the "build once,
 * serve many" path; see hermes_build_index). --index-heap=1 copies the
 * file into heap storage instead, --prefault=1 touches every mapped
 * page up front so first-query latency never pays demand faults. The
 * corpus/partition flags are ignored in this mode; --cluster only
 * labels the ready line, /shard and traces.
 *
 * Prints one machine-parseable line once serving:
 *   hermes_shard ready cluster=<c> vectors=<n> port=<p>
 * (with " replica=<r>" appended when --replica is nonzero — new fields
 * only ever append so existing launchers keep matching), then runs
 * until SIGTERM/SIGINT. --http-port adds the obs exporter
 * (/healthz for liveness probes, /metrics, /trace.json with the shard's
 * span dump tagged by cluster, plus /shard with the node's counters),
 * so a supervisor can watch recovery after a restart. --perf=1 (or
 * HERMES_PERF=1) arms the perf_event/RAPL samplers; the exporter's
 * /perf route reports per-phase scan counters and measured energy.
 *
 * Tracing: --trace-sample=N (or HERMES_TRACE_SAMPLE) enables the span
 * recorder before the server starts, so trace contexts a broker sends
 * along with its searches are recorded from the first request. --trace-out
 * (or HERMES_TRACE_OUT) writes the dump — tagged with this shard's
 * cluster id so hermes_trace_merge can clock-align it — on the
 * SIGINT/SIGTERM drain path; --metrics-json (or HERMES_METRICS_JSON)
 * does the same for the registry.
 */

#include <algorithm>
#include <csignal>
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

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hermes;
    util::setQuiet(true);

    long cluster = -1;
    long replica = 0;
    int port = 0;
    std::string bind_address = "127.0.0.1";
    std::string index_file;
    bool index_heap = false;
    bool prefault = false;
    std::size_t num_docs = 20000;
    std::size_t dim = 32;
    std::size_t topics = 30;
    std::size_t clusters = 10;
    std::size_t nlist = 0;
    double batch_window_us = 0.0;
    std::size_t max_batch = 0;
    double fail_prob = 0.0;
    double drop_prob = 0.0;
    double delay_ms = 0.0;
    int http_port = -1;
    std::string trace_out;
    long trace_sample = 0;
    std::string metrics_json;
    bool perf_flag = false;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = matchOption(argv[i], "--cluster"))
            cluster = std::strtol(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--replica"))
            replica = std::strtol(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--port"))
            port = std::atoi(v);
        else if (const char *v = matchOption(argv[i], "--bind"))
            bind_address = v;
        else if (const char *v = matchOption(argv[i], "--index-file"))
            index_file = v;
        else if (const char *v = matchOption(argv[i], "--index-heap"))
            index_heap = std::atoi(v) != 0;
        else if (const char *v = matchOption(argv[i], "--prefault"))
            prefault = std::atoi(v) != 0;
        else if (const char *v = matchOption(argv[i], "--num-docs"))
            num_docs = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--dim"))
            dim = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--topics"))
            topics = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--clusters"))
            clusters = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--nlist"))
            nlist = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--batch-window-us"))
            batch_window_us = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--max-batch"))
            max_batch = std::strtoul(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--fail-prob"))
            fail_prob = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--drop-prob"))
            drop_prob = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--delay-ms"))
            delay_ms = std::strtod(v, nullptr);
        else if (const char *v = matchOption(argv[i], "--http-port"))
            http_port = std::atoi(v);
        else if (const char *v = matchOption(argv[i], "--trace-out"))
            trace_out = v;
        else if (const char *v = matchOption(argv[i], "--trace-sample"))
            trace_sample = std::strtol(v, nullptr, 10);
        else if (const char *v = matchOption(argv[i], "--metrics-json"))
            metrics_json = v;
        else if (const char *v = matchOption(argv[i], "--perf"))
            perf_flag = std::atoi(v) != 0;
        else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return 2;
        }
    }
    if (cluster < 0 ||
        (index_file.empty() &&
         static_cast<std::size_t>(cluster) >= clusters)) {
        std::fprintf(stderr,
                     "usage: hermes_shard --cluster=N (0..%zu) [options]\n",
                     clusters - 1);
        return 2;
    }

    // Flags win; env vars fill the gaps so a supervisor can arm capture
    // fleet-wide without touching each shard's command line.
    if (trace_out.empty()) {
        if (const char *env = std::getenv("HERMES_TRACE_OUT"))
            trace_out = env;
    }
    if (metrics_json.empty()) {
        if (const char *env = std::getenv("HERMES_METRICS_JSON"))
            metrics_json = env;
    }
    if (trace_sample <= 0) {
        if (const char *env = std::getenv("HERMES_TRACE_SAMPLE"))
            trace_sample = std::strtol(env, nullptr, 10);
    }
    if (perf_flag)
        obs::setPerfEnabled(true); // HERMES_PERF=1 works without the flag
    // Start the recorder before the server: adopted remote contexts are
    // gated on the shard's own recorder, so spans must be recordable by
    // the time the first RPC lands. Shard-side "sampling" is decided by
    // the broker (it only propagates contexts for queries it sampled);
    // the local sample rate only affects locally-initiated traces.
    if (!trace_out.empty() || trace_sample > 0) {
        obs::TraceRecorder::instance().start(
            trace_sample > 0 ? static_cast<std::size_t>(trace_sample) : 1);
    }
    // Dump metadata lets hermes_trace_merge label this process and match
    // it to the broker's rpc.clock_sync record for its node id.
    const std::vector<obs::TraceArg> trace_metadata = {
        {"process", "hermes_shard", false},
        {"cluster", std::to_string(cluster), true},
    };

    std::optional<core::DistributedStore> store;
    std::unique_ptr<index::IvfIndex> loaded;
    const index::AnnIndex *shard = nullptr;
    if (!index_file.empty()) {
        // Cold-start path: serve a pre-built v3 index file. The mmap
        // open touches only the 256-byte header plus the tiny centroid
        // section, so restart-to-ready is milliseconds regardless of
        // shard size; scan kernels then run directly on mapped bytes.
        index::IvfIndex::MmapOptions mopts;
        mopts.prefault = prefault;
        loaded = core::loadOrFatal([&] {
            return index_heap
                       ? index::IvfIndex::load(index_file)
                       : index::IvfIndex::openMapped(index_file, mopts);
        });
        shard = loaded.get();
    } else {
        // Same deterministic corpus + partition as serving_demo / the
        // tests: matching flags on every process of the fleet reproduce
        // the exact in-process store, which is what makes the
        // out-of-process path bit-comparable.
        workload::CorpusConfig cc;
        cc.num_docs = num_docs;
        cc.dim = dim;
        cc.num_topics = topics;
        auto corpus = workload::generateCorpus(cc);

        core::HermesConfig config;
        config.num_clusters = clusters;
        config.clusters_to_search = std::min<std::size_t>(3, clusters);
        config.sample_nprobe = 4;
        config.deep_nprobe = 32;
        config.partition.seeds_to_try = 3;
        config.nlist_per_cluster = nlist;
        store.emplace(
            core::DistributedStore::build(corpus.embeddings, config));
        shard = &store->clusterIndex(static_cast<std::size_t>(cluster));
    }

    serve::ShardServerOptions options;
    options.bind_address = bind_address;
    options.port = static_cast<std::uint16_t>(port);
    options.node.node_id = static_cast<std::size_t>(cluster);
    options.node.batch_window_us = batch_window_us;
    if (max_batch > 0)
        options.node.max_batch = max_batch;
    options.node.faults.fail_probability = fail_prob;
    options.node.faults.drop_probability = drop_prob;
    options.node.faults.delay_probability = delay_ms > 0.0 ? 0.2 : 0.0;
    options.node.faults.delay_ms = delay_ms;

    serve::ShardServer server(*shard, options);
    if (!server.start())
        return 1;

    std::unique_ptr<obs::Exporter> exporter;
    if (http_port >= 0) {
        obs::Exporter::Options eopts;
        eopts.bind_address = bind_address;
        eopts.port = static_cast<std::uint16_t>(http_port);
        exporter = std::make_unique<obs::Exporter>(eopts);
        // Shadow the builtin /trace.json so fetched dumps carry the
        // same process/cluster metadata as the drain-path file.
        exporter->setHandler("/trace.json", [trace_metadata] {
            return obs::TraceRecorder::instance().toJson(trace_metadata);
        });
        exporter->setHandler("/shard", [&server, cluster, replica] {
            auto node = server.nodeStats();
            auto srv = server.stats();
            char buf[256];
            std::snprintf(
                buf, sizeof(buf),
                "{\"cluster\": %ld, \"replica\": %ld, \"requests\": %llu, "
                "\"batches\": %llu, "
                "\"connections\": %llu, \"errors\": %llu}",
                cluster, replica,
                static_cast<unsigned long long>(node.requests),
                static_cast<unsigned long long>(node.batches),
                static_cast<unsigned long long>(srv.connections_accepted),
                static_cast<unsigned long long>(srv.errors_returned));
            return std::string(buf);
        });
        if (exporter->start())
            std::printf("hermes_shard metrics http://%s:%u\n",
                        bind_address.c_str(), exporter->port());
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // Launchers (CI fleet-smoke, tests) block on this line to learn the
    // bound port, so it must escape the stdio buffer immediately. New
    // fields (replica=) only ever append, keeping old launchers happy.
    if (replica > 0)
        std::printf("hermes_shard ready cluster=%ld vectors=%zu port=%u "
                    "replica=%ld\n",
                    cluster, shard->size(), server.port(), replica);
    else
        std::printf("hermes_shard ready cluster=%ld vectors=%zu port=%u\n",
                    cluster, shard->size(), server.port());
    std::fflush(stdout);

    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.stop();
    // Drain-path capture: a TERM'd shard still leaves its spans and
    // counters behind for post-mortem merging.
    if (!trace_out.empty())
        obs::TraceRecorder::instance().writeChromeTrace(trace_out,
                                                        trace_metadata);
    if (!metrics_json.empty())
        obs::Registry::instance().writeJson(metrics_json);
    auto stats = server.stats();
    std::printf("hermes_shard exit cluster=%ld requests=%llu "
                "connections=%llu errors=%llu\n",
                cluster,
                static_cast<unsigned long long>(stats.requests_served),
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.errors_returned));
    return 0;
}
