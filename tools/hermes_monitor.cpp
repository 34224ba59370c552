/**
 * @file
 * Live fleet dashboard: polls one or more Hermes metrics endpoints
 * (serving_demo --http-port, hermes_shard --http-port,
 * hermes_profile_search --http-port) and renders per-cluster load,
 * windowed QPS/latency and modeled energy in place — the operator's
 * view of the paper's Fig 13 access skew and Fig 18 energy accounting,
 * live.
 *
 * Single-process mode (--host/--port) polls GET /load (broker
 * LoadReport) and GET /metrics.json. Fleet mode (--endpoints=
 * host:port,host:port,...) polls every endpoint per tick and merges
 * them into one view: the first endpoint serving /load (the broker)
 * gets the full dashboard, and every endpoint — broker and shards —
 * gets a row in the fleet table (uptime, served requests, rpc.*
 * client counters, transport/remote errors, RSS). Shard rows read the
 * hermes_shard /shard handler when present.
 *
 * --csv appends one row per endpoint per poll, with a leading quoted
 * `source` column; the header is written only when the file starts
 * empty, so appending across sessions never repeats it. Ctrl-C (or
 * --count) ends the session cleanly.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/exporter.hpp"
#include "serve/remote_node.hpp"
#include "util/argparse.hpp"
#include "util/minijson.hpp"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void
onSignal(int)
{
    g_interrupted = 1;
}

/** Sleep in short slices so Ctrl-C ends the wait promptly. */
void
interruptibleSleep(double seconds)
{
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::duration<double>(seconds);
    while (!g_interrupted &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

double
num(const hermes::util::json::Value &v, const char *key)
{
    const auto *m = v.find(key);
    return m ? m->numberOr(0.0) : 0.0;
}

/** One endpoint to poll. */
struct Endpoint
{
    std::string host;
    std::uint16_t port = 0;
    std::string label; ///< "host:port", the CSV source column
};

/** What one poll of one endpoint yielded. */
struct Sample
{
    bool up = false;       ///< /metrics.json answered and parsed
    bool has_load = false; ///< /load answered (it's a broker)
    hermes::util::json::ParseResult load;

    double uptime_s = 0.0;
    double rss_bytes = 0.0;
    double requests = 0.0; ///< broker.queries, or /shard requests
    double rpc_rpcs = 0.0;
    double rpc_redials = 0.0;
    double rpc_errors = 0.0; ///< transport failures + remote errors

    /** Hardware measurement (/perf): present only when the endpoint
     *  runs with --perf AND the kernel granted counters or RAPL —
     *  otherwise the columns render as "-" / empty CSV cells, never
     *  as fabricated zeros. */
    bool has_perf = false;
    double ipc = 0.0;
    double cache_miss_pct = 0.0;
    double measured_package_j = 0.0;
    double measured_watts = 0.0;
};

Sample
pollEndpoint(const Endpoint &endpoint)
{
    using hermes::util::json::Value;
    Sample sample;

    std::string metrics_body;
    if (!hermes::obs::httpGet(endpoint.host, endpoint.port,
                              "/metrics.json", &metrics_body))
        return sample;
    auto metrics = hermes::util::json::parse(metrics_body);
    if (!metrics.ok)
        return sample;
    sample.up = true;

    const Value &root = metrics.value;
    if (const Value *v = root.at({"gauges", "process.uptime_seconds"}))
        sample.uptime_s = v->numberOr(0.0);
    if (const Value *v = root.at({"gauges", "process.rss_bytes"}))
        sample.rss_bytes = v->numberOr(0.0);
    if (const Value *counters = root.find("counters")) {
        if (const Value *v = counters->find("broker.queries"))
            sample.requests = v->numberOr(0.0);
        if (const Value *v = counters->find("rpc.rpcs"))
            sample.rpc_rpcs = v->numberOr(0.0);
        if (const Value *v = counters->find("rpc.redials"))
            sample.rpc_redials = v->numberOr(0.0);
        if (const Value *v = counters->find("rpc.transport_failures"))
            sample.rpc_errors += v->numberOr(0.0);
        if (const Value *v = counters->find("rpc.remote_errors"))
            sample.rpc_errors += v->numberOr(0.0);
    }

    std::string load_body;
    if (hermes::obs::httpGet(endpoint.host, endpoint.port, "/load",
                             &load_body)) {
        sample.load = hermes::util::json::parse(load_body);
        sample.has_load = sample.load.ok;
    }

    std::string perf_body;
    if (hermes::obs::httpGet(endpoint.host, endpoint.port, "/perf",
                             &perf_body)) {
        auto perf = hermes::util::json::parse(perf_body);
        if (perf.ok) {
            const Value *unavailable = perf.value.find("unavailable");
            if (unavailable && !unavailable->boolOr(true)) {
                sample.has_perf = true;
                sample.ipc = num(perf.value, "ipc");
                sample.cache_miss_pct = num(perf.value, "cache_miss_pct");
                sample.measured_package_j =
                    num(perf.value, "package_joules");
                sample.measured_watts = num(perf.value, "package_watts");
            }
        }
    }

    // Shards don't serve /load; their request totals come from the
    // hermes_shard /shard handler when one is registered.
    if (!sample.has_load && sample.requests == 0.0) {
        std::string shard_body;
        if (hermes::obs::httpGet(endpoint.host, endpoint.port, "/shard",
                                 &shard_body)) {
            auto shard = hermes::util::json::parse(shard_body);
            if (shard.ok)
                sample.requests = num(shard.value, "requests");
        }
    }
    return sample;
}

/** The full single-broker dashboard (the original monitor view). */
void
renderLoadDashboard(const hermes::util::json::Value &root,
                    const std::string &label, double rss_bytes, long polls)
{
    using hermes::util::json::Value;
    std::printf("hermes @ %s   uptime %.1f s   poll %ld\n", label.c_str(),
                num(root, "uptime_seconds"), polls);
    std::printf("queries %.0f (cumulative)   %.1f QPS over last "
                "%.0f s   degraded %.0f\n",
                num(root, "queries"), num(root, "window_qps"),
                num(root, "window_seconds"),
                num(root, "degraded_queries"));
    std::printf("latency p50/p99: window %.0f/%.0f us   cumulative "
                "%.0f/%.0f us\n",
                num(root, "window_p50_us"), num(root, "window_p99_us"),
                num(root, "cumulative_p50_us"),
                num(root, "cumulative_p99_us"));
    std::printf("deep-load skew: max/mean %.2f   zipf ~%.2f   "
                "energy %.1f J   rss %.1f MiB\n",
                num(root, "max_mean_ratio"), num(root, "zipf_exponent"),
                num(root, "total_energy_joules"),
                rss_bytes / (1024.0 * 1024.0));
    const double hedges = num(root, "hedges_issued");
    std::printf("hedges: %.0f issued, %.0f won (%.0f%% win rate), "
                "%.0f wasted\n",
                hedges, num(root, "hedges_won"),
                hedges > 0.0 ? 100.0 * num(root, "hedges_won") / hedges
                             : 0.0,
                num(root, "hedges_wasted"));
    // Measured (RAPL) energy beside the model, when the broker runs
    // with --perf on readable powercap hardware.
    const Value *measured = root.find("measured_energy_valid");
    if (measured && measured->boolOr(false)) {
        std::printf("measured energy: %.1f J package, %.1f J dram   "
                    "measured/modeled %.2f\n",
                    num(root, "measured_package_joules"),
                    num(root, "measured_dram_joules"),
                    num(root, "energy_model_error_ratio"));
    }
    std::printf("\n");

    const Value *clusters = root.find("clusters");
    if (clusters && clusters->isArray() && clusters->size() > 0) {
        double max_deep = 1.0;
        for (const Value &c : clusters->items())
            max_deep = std::max(max_deep, num(c, "deep_requests"));
        std::printf("%-4s %-9s %-8s %-8s %-6s %-5s %-6s %-8s %-4s "
                    "%-12s %-22s\n",
                    "node", "shard", "sample", "deep", "queue", "occ",
                    "util", "energy", "repl", "route share", "deep load");
        for (const Value &c : clusters->items()) {
            double deep = num(c, "deep_requests");
            int bar = static_cast<int>(20.0 * deep / max_deep + 0.5);
            // Replica route share, e.g. "54/46": how p2c split the
            // cluster's probes across its copies.
            std::string routes = "-";
            const Value *route_counts = c.find("replica_routes");
            if (route_counts && route_counts->isArray() &&
                route_counts->size() > 1) {
                double total = 0.0;
                for (const Value &r : route_counts->items())
                    total += r.numberOr(0.0);
                routes.clear();
                for (const Value &r : route_counts->items()) {
                    if (!routes.empty())
                        routes += "/";
                    char pct[16];
                    std::snprintf(pct, sizeof(pct), "%.0f",
                                  total > 0.0
                                      ? 100.0 * r.numberOr(0.0) / total
                                      : 0.0);
                    routes += pct;
                }
            }
            std::printf("%-4.0f %-9.0f %-8.0f %-8.0f %-6.0f %-5.2f "
                        "%5.1f%% %7.1fJ %-4.0f %-12s %.*s\n",
                        num(c, "cluster"), num(c, "shard_vectors"),
                        num(c, "sample_requests"), deep,
                        num(c, "queue_depth"), num(c, "batch_occupancy"),
                        num(c, "utilization") * 100.0,
                        num(c, "energy_joules"),
                        std::max(num(c, "replicas"), 1.0), routes.c_str(),
                        bar, "####################");
        }
        std::printf("\n");
    }
}

/** One row per endpoint: the fleet-wide merged table. The four
 *  hardware columns (ipc, cache-miss %, measured watts, measured
 *  J/query) render as "-" unless the endpoint's /perf is live. */
void
renderFleetTable(const std::vector<Endpoint> &endpoints,
                 const std::vector<Sample> &samples)
{
    std::printf("%-22s %-4s %-9s %-9s %-8s %-8s %-8s %-9s %-6s %-7s "
                "%-7s %-8s\n",
                "source", "up", "uptime_s", "requests", "rpcs",
                "redials", "rpc_err", "rss_mib", "ipc", "cmiss%",
                "watts", "j/q_meas");
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        const Sample &s = samples[i];
        if (!s.up) {
            std::printf("%-22s %-4s %-9s %-9s %-8s %-8s %-8s %-9s "
                        "%-6s %-7s %-7s %-8s\n",
                        endpoints[i].label.c_str(), "no", "-", "-", "-",
                        "-", "-", "-", "-", "-", "-", "-");
            continue;
        }
        char ipc[16] = "-";
        char cmiss[16] = "-";
        char watts[16] = "-";
        char jpq[16] = "-";
        if (s.has_perf) {
            std::snprintf(ipc, sizeof(ipc), "%.2f", s.ipc);
            std::snprintf(cmiss, sizeof(cmiss), "%.2f",
                          s.cache_miss_pct);
            std::snprintf(watts, sizeof(watts), "%.1f",
                          s.measured_watts);
            if (s.requests > 0.0 && s.measured_package_j > 0.0)
                std::snprintf(jpq, sizeof(jpq), "%.2f",
                              s.measured_package_j / s.requests);
        }
        std::printf("%-22s %-4s %-9.1f %-9.0f %-8.0f %-8.0f %-8.0f "
                    "%-9.1f %-6s %-7s %-7s %-8s\n",
                    endpoints[i].label.c_str(),
                    s.has_load ? "yes*" : "yes", s.uptime_s, s.requests,
                    s.rpc_rpcs, s.rpc_redials, s.rpc_errors,
                    s.rss_bytes / (1024.0 * 1024.0), ipc, cmiss, watts,
                    jpq);
    }
}

/** CSV-quote a string field (RFC 4180 double-quote escaping). */
std::string
csvQuote(const std::string &field)
{
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hermes;
    using util::json::Value;

    util::ArgParser args("hermes_monitor",
                         "live dashboard over Hermes metrics endpoints");
    args.addFlag("host", "127.0.0.1", "endpoint host (single-process mode)");
    args.addFlag("port", "0", "endpoint port (single-process mode)");
    args.addFlag("endpoints", "",
                 "comma-separated host:port list (fleet mode; overrides "
                 "--host/--port)");
    args.addFlag("interval", "1.0", "seconds between polls");
    args.addFlag("count", "0", "polls before exiting (0 = until Ctrl-C)");
    args.addFlag("csv", "",
                 "append one row per endpoint per poll to this CSV file");
    args.parse(argc, argv);

    const double interval = std::max(args.getDouble("interval"), 0.05);
    const long count = args.getInt("count");
    const std::string csv_path = args.get("csv");

    std::vector<Endpoint> endpoints;
    const std::string endpoints_flag = args.get("endpoints");
    if (!endpoints_flag.empty()) {
        std::size_t start = 0;
        while (start <= endpoints_flag.size()) {
            std::size_t comma = endpoints_flag.find(',', start);
            if (comma == std::string::npos)
                comma = endpoints_flag.size();
            if (comma > start) {
                Endpoint endpoint;
                endpoint.label =
                    endpoints_flag.substr(start, comma - start);
                if (!serve::parseEndpoint(endpoint.label, endpoint.host,
                                          endpoint.port)) {
                    std::fprintf(stderr,
                                 "hermes_monitor: bad endpoint %s\n",
                                 endpoint.label.c_str());
                    return 2;
                }
                endpoints.push_back(std::move(endpoint));
            }
            start = comma + 1;
        }
    } else {
        const long port = args.getInt("port");
        if (port == 0) {
            std::fprintf(stderr,
                         "hermes_monitor: --port or --endpoints is "
                         "required (the serving binary prints its port "
                         "at startup)\n");
            return 2;
        }
        if (port < 0 || port > 65535) {
            std::fprintf(stderr, "hermes_monitor: bad --port %ld\n", port);
            return 2;
        }
        Endpoint endpoint;
        endpoint.host = args.get("host");
        endpoint.port = static_cast<std::uint16_t>(port);
        endpoint.label =
            endpoint.host + ":" + std::to_string(endpoint.port);
        endpoints.push_back(std::move(endpoint));
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::FILE *csv = nullptr;
    if (!csv_path.empty()) {
        // Header exactly once per file: only when it starts empty, so
        // appending across monitor sessions never repeats it mid-data.
        bool fresh = true;
        if (std::FILE *probe = std::fopen(csv_path.c_str(), "r")) {
            fresh = std::fgetc(probe) == EOF;
            std::fclose(probe);
        }
        csv = std::fopen(csv_path.c_str(), "a");
        if (!csv) {
            std::fprintf(stderr, "hermes_monitor: cannot open %s\n",
                         csv_path.c_str());
            return 2;
        }
        if (fresh) {
            std::fprintf(csv, "source,poll,uptime_s,requests,window_qps,"
                              "window_p50_us,window_p99_us,"
                              "max_mean_ratio,zipf_exponent,"
                              "total_energy_j,rpc_rpcs,rpc_errors,"
                              "rss_bytes,hedges_issued,hedge_win_rate,"
                              "measured_j,measured_w,ipc,"
                              "cache_miss_pct\n");
        }
    }

    const bool tty = isatty(STDOUT_FILENO) != 0;
    long polls = 0;
    long failures = 0;
    std::vector<Sample> samples(endpoints.size());
    for (long i = 0; (count == 0 || i < count) && !g_interrupted; ++i) {
        if (i > 0)
            interruptibleSleep(interval);
        if (g_interrupted)
            break;

        std::size_t up = 0;
        for (std::size_t e = 0; e < endpoints.size(); ++e) {
            samples[e] = pollEndpoint(endpoints[e]);
            if (samples[e].up)
                ++up;
        }
        if (up == 0) {
            ++failures;
            std::fprintf(stderr,
                         "hermes_monitor: poll %ld reached none of %zu "
                         "endpoint(s) (%ld failures so far)\n", i + 1,
                         endpoints.size(), failures);
            if (failures >= 5 && polls == 0) {
                std::fprintf(stderr,
                             "hermes_monitor: giving up — are the "
                             "serving binaries running with "
                             "--http-port?\n");
                break;
            }
            continue;
        }
        ++polls;

        if (tty)
            std::printf("\x1b[H\x1b[J"); // home + clear: redraw in place

        // The first /load-serving endpoint (the broker) gets the rich
        // dashboard; everyone gets a fleet-table row.
        bool rendered_load = false;
        for (std::size_t e = 0; e < endpoints.size(); ++e) {
            if (!samples[e].has_load)
                continue;
            renderLoadDashboard(samples[e].load.value,
                                endpoints[e].label,
                                samples[e].rss_bytes, polls);
            rendered_load = true;
            break;
        }
        if (!rendered_load) {
            std::printf("hermes fleet   poll %ld   %zu/%zu endpoints "
                        "up\n\n", polls, up, endpoints.size());
        }
        if (endpoints.size() > 1 || !rendered_load)
            renderFleetTable(endpoints, samples);
        std::fflush(stdout);

        if (csv) {
            for (std::size_t e = 0; e < endpoints.size(); ++e) {
                const Sample &s = samples[e];
                if (!s.up) {
                    // A down endpoint still gets its row — source and
                    // poll index with every metric cell empty — so the
                    // column grid stays aligned across the file and a
                    // mid-run outage reads as a gap, not a shifted row.
                    std::fprintf(csv, "%s,%ld,,,,,,,,,,,,,,,,,\n",
                                 csvQuote(endpoints[e].label).c_str(),
                                 polls);
                    continue;
                }
                const Value *load =
                    s.has_load ? &s.load.value : nullptr;
                const double hedges_issued =
                    load ? num(*load, "hedges_issued") : 0.0;
                const double hedge_win_rate = hedges_issued > 0.0
                    ? num(*load, "hedges_won") / hedges_issued
                    : 0.0;
                // Hardware columns stay empty (not 0) when /perf has no
                // data — absence of measurement, not a measured zero.
                char perf_cells[80] = ",,,";
                if (s.has_perf) {
                    std::snprintf(perf_cells, sizeof(perf_cells),
                                  "%.3f,%.3f,%.3f,%.4f",
                                  s.measured_package_j, s.measured_watts,
                                  s.ipc, s.cache_miss_pct);
                }
                std::fprintf(
                    csv,
                    "%s,%ld,%.3f,%.0f,%.3f,%.1f,%.1f,%.3f,%.3f,%.2f,"
                    "%.0f,%.0f,%.0f,%.0f,%.3f,%s\n",
                    csvQuote(endpoints[e].label).c_str(), polls,
                    s.uptime_s, s.requests,
                    load ? num(*load, "window_qps") : 0.0,
                    load ? num(*load, "window_p50_us") : 0.0,
                    load ? num(*load, "window_p99_us") : 0.0,
                    load ? num(*load, "max_mean_ratio") : 0.0,
                    load ? num(*load, "zipf_exponent") : 0.0,
                    load ? num(*load, "total_energy_joules") : 0.0,
                    s.rpc_rpcs, s.rpc_errors, s.rss_bytes,
                    hedges_issued, hedge_win_rate, perf_cells);
            }
            std::fflush(csv);
        }
    }

    if (csv)
        std::fclose(csv);
    std::printf("%shermes_monitor: %ld polls, %ld failed%s\n",
                tty ? "\n" : "", polls, failures,
                g_interrupted ? " (interrupted)" : "");
    return polls > 0 ? 0 : 1;
}
