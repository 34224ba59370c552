/**
 * @file
 * Search profiling tool (artifact appendix A.5 step 8, Table 4).
 *
 * Reloads a deployment built by hermes_build_index and measures wall-clock
 * latency, throughput and scan work for the requested search strategy and
 * parameters (sample/deep nProbe, batch size, retrieved docs, threads).
 */

#include <filesystem>

#include "core/manifest.hpp"
#include "core/search_strategy.hpp"
#include "obs/exporter.hpp"
#include "obs/obs.hpp"
#include "serve/broker.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "vecstore/distance.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

/** Query workload: perturb random datastore rows. */
vecstore::Matrix
makeQueries(const vecstore::Matrix &data, std::size_t count, double noise,
            std::uint64_t seed)
{
    util::Rng rng(seed);
    vecstore::Matrix queries(count, data.dim());
    for (std::size_t q = 0; q < count; ++q) {
        auto src = data.row(rng.uniformInt(data.rows()));
        auto dst = queries.row(q);
        for (std::size_t j = 0; j < data.dim(); ++j)
            dst[j] = src[j] + static_cast<float>(rng.gaussian(0.0, noise));
        vecstore::normalize(dst.data(), data.dim());
    }
    return queries;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("hermes_profile_search",
                         "profile retrieval latency and throughput");
    args.addFlag("index", "hermes_index", "deployment directory");
    args.addFlag("mode", "hermes",
                 "hermes | centroid | split-all | serve (threaded broker)");
    args.addFlag("sample-nprobe", "8", "sampling nProbe");
    args.addFlag("deep-nprobe", "64", "deep-search nProbe");
    args.addFlag("clusters-to-search", "3", "deep-searched clusters");
    args.addFlag("batch", "64", "queries per batch");
    args.addFlag("num-queries", "512", "total queries");
    args.addFlag("k", "5", "documents retrieved per query");
    args.addFlag("noise", "0.3", "query perturbation noise");
    args.addFlag("seed", "7", "query seed");
    args.addFlag("metrics-json", "",
                 "write the metrics registry as JSON to this path");
    args.addFlag("metrics-prom", "",
                 "write Prometheus-style metrics text to this path");
    args.addFlag("metrics-interval", "0",
                 "also re-write the metrics files every N seconds "
                 "during the run");
    args.addFlag("http-port", "",
                 "serve /metrics, /metrics.json and (serve mode) /load "
                 "on this port while profiling (0 = ephemeral)");
    args.addFlag("trace-out", "",
                 "write a Chrome trace-event JSON to this path "
                 "(open in chrome://tracing or ui.perfetto.dev)");
    args.addFlag("trace-sample", "1",
                 "with --trace-out, trace one in N queries");
    args.parse(argc, argv);

    if (args.given("trace-out")) {
        obs::TraceRecorder::instance().start(
            static_cast<std::size_t>(args.getInt("trace-sample")));
    }

    std::filesystem::path dir(args.get("index"));
    auto manifest =
        core::loadOrFatal([&] { return core::Manifest::load(dir); });

    core::HermesConfig config;
    config.sample_nprobe =
        static_cast<std::size_t>(args.getInt("sample-nprobe"));
    config.deep_nprobe =
        static_cast<std::size_t>(args.getInt("deep-nprobe"));
    config.clusters_to_search = std::min<std::size_t>(
        static_cast<std::size_t>(args.getInt("clusters-to-search")),
        manifest.num_clusters);
    auto store = core::loadOrFatal(
        [&] { return core::loadStore(dir, manifest, config); });

    auto data = core::loadOrFatal([&] {
        return vecstore::Matrix::load((dir / manifest.corpus_file).string());
    });
    auto queries = makeQueries(
        data, static_cast<std::size_t>(args.getInt("num-queries")),
        args.getDouble("noise"),
        static_cast<std::uint64_t>(args.getInt("seed")));

    const auto batch = static_cast<std::size_t>(args.getInt("batch"));
    const auto k = static_cast<std::size_t>(args.getInt("k"));
    const std::string mode = args.get("mode");

    std::unique_ptr<core::SearchStrategy> strategy;
    std::unique_ptr<serve::HermesBroker> broker;
    if (mode == "hermes") {
        strategy = std::make_unique<core::HermesSearch>(store);
    } else if (mode == "centroid") {
        strategy = std::make_unique<core::CentroidRouting>(store);
    } else if (mode == "split-all") {
        strategy = std::make_unique<core::NaiveSplitSearch>(store);
    } else if (mode == "serve") {
        broker = std::make_unique<serve::HermesBroker>(store);
    } else {
        HERMES_FATAL("unknown --mode '", mode, "'");
    }

    // Live observability while the profile runs (same hookup as
    // serving_demo; hermes_monitor can watch a long profile).
    std::unique_ptr<obs::Exporter> exporter;
    if (args.given("http-port")) {
        obs::Exporter::Options options;
        options.port =
            static_cast<std::uint16_t>(args.getInt("http-port"));
        exporter = std::make_unique<obs::Exporter>(options);
        if (broker) {
            serve::HermesBroker *b = broker.get();
            exporter->setHandler("/load", [b] {
                return b->loadReport().toJson();
            });
        }
        if (exporter->start()) {
            std::printf("metrics endpoint: http://127.0.0.1:%u\n",
                        exporter->port());
            // Pollers wait on this line; with stdout redirected to a
            // file it would otherwise sit in the stdio buffer until exit.
            std::fflush(stdout);
        }
    }
    std::unique_ptr<obs::PeriodicFlusher> flusher;
    if (args.getDouble("metrics-interval") > 0.0 &&
        (args.given("metrics-json") || args.given("metrics-prom"))) {
        flusher = std::make_unique<obs::PeriodicFlusher>(
            args.get("metrics-json"), args.get("metrics-prom"),
            args.getDouble("metrics-interval"));
    }

    util::Distribution batch_latency;
    index::SearchStats work;
    util::Timer total;
    for (std::size_t begin = 0; begin < queries.rows(); begin += batch) {
        std::size_t end = std::min(begin + batch, queries.rows());
        util::Timer timer;
        for (std::size_t q = begin; q < end; ++q) {
            if (broker) {
                broker->search(queries.row(q), k);
            } else {
                auto result = strategy->search(queries.row(q), k);
                work.merge(result.total);
            }
        }
        batch_latency.add(timer.elapsedSeconds());
    }
    double elapsed = total.elapsedSeconds();

    std::printf("\nmode=%s  indices=%zu  batch=%zu  k=%zu  "
                "sample/deep nProbe=%zu/%zu  clusters=%zu\n",
                mode.c_str(), manifest.num_clusters, batch, k,
                config.sample_nprobe, config.deep_nprobe,
                config.clusters_to_search);
    std::printf("queries: %zu in %.3f s  =>  %.0f QPS\n", queries.rows(),
                elapsed, static_cast<double>(queries.rows()) / elapsed);
    std::printf("batch latency: p50 %.4f s, p99 %.4f s\n",
                batch_latency.percentile(50), batch_latency.percentile(99));
    if (!broker) {
        std::printf("scan work: %.0f vectors/query, %.1f KiB/query\n",
                    static_cast<double>(work.vectors_scanned) /
                        static_cast<double>(queries.rows()),
                    static_cast<double>(work.bytes_scanned) / 1024.0 /
                        static_cast<double>(queries.rows()));
    } else {
        auto stats = broker->stats();
        std::printf("broker: %llu queries, %llu deep requests, "
                    "%zu node workers\n",
                    static_cast<unsigned long long>(stats.queries),
                    static_cast<unsigned long long>(stats.deep_requests),
                    stats.nodes.size());
    }

    // Per-phase latency breakdown from the metrics registry. Serve mode
    // records under broker.*, the in-process strategies under core.*.
    auto &registry = obs::Registry::instance();
    const char *prefix = broker ? "broker" : "core";
    const char *phases[] = {"query_latency_us", "sample_phase_us",
                            "deep_phase_us", "merge_phase_us"};
    std::printf("\nphase breakdown (%s.*):\n", prefix);
    for (const char *phase : phases) {
        std::string name = std::string(prefix) + "." + phase;
        if (!registry.hasHistogram(name))
            continue;
        auto summary =
            obs::LatencySummary::from(registry.histogram(name).snapshot());
        if (summary.count == 0)
            continue;
        std::printf("  %-28s p50 %9.1f us  p95 %9.1f us  "
                    "p99 %9.1f us  max %9.1f us  (n=%llu)\n",
                    name.c_str(), summary.p50_us, summary.p95_us,
                    summary.p99_us, summary.max_us,
                    static_cast<unsigned long long>(summary.count));
    }

    flusher.reset(); // final periodic flush before the one-shot writes
    if (args.given("metrics-json")) {
        registry.writeJson(args.get("metrics-json"));
        std::printf("metrics written to %s\n",
                    args.get("metrics-json").c_str());
    }
    if (args.given("metrics-prom")) {
        registry.writePrometheus(args.get("metrics-prom"));
        std::printf("prometheus metrics written to %s\n",
                    args.get("metrics-prom").c_str());
    }
    if (args.given("trace-out")) {
        auto &recorder = obs::TraceRecorder::instance();
        recorder.stop();
        recorder.writeChromeTrace(args.get("trace-out"));
        std::printf("trace (%zu spans) written to %s\n",
                    recorder.spanCount(), args.get("trace-out").c_str());
    }
    return 0;
}
