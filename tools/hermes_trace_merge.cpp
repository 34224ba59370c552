/**
 * @file
 * Merge per-process Chrome trace dumps into one fleet-wide trace.
 *
 * The broker dump carries `rpc.clock_sync` instants (one per Health
 * handshake) that record each shard's trace-clock offset, so this tool
 * can align every shard's timestamps onto the broker's clock with no
 * cooperation from the shards beyond handing over their dumps.
 *
 * Usage:
 *   hermes_trace_merge --broker-trace=FILE
 *                      [--shards=host:port,host:port,...]
 *                      [--shard-file=FILE]...
 *                      [--out=FILE]
 *
 * --shards fetches /trace.json from each listed obs exporter endpoint
 * (a live fleet); --shard-file reads a dump a shard wrote on drain
 * (HERMES_TRACE_OUT / --trace-out). Both may be combined. The merged
 * trace goes to --out (default merged_trace.json) and loads in
 * chrome://tracing or https://ui.perfetto.dev with one row of
 * processes: broker pid 1, shards pid 2+.
 *
 * Exit status: 0 on success (even with per-shard warnings, which go to
 * stderr), 1 when the broker dump is missing or unparseable, 2 on bad
 * usage.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/exporter.hpp"
#include "serve/remote_node.hpp"
#include "serve/trace_merge.hpp"
#include "util/argparse.hpp"

namespace {

using hermes::util::matchOption;

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hermes;

    std::string broker_path;
    std::vector<std::string> shard_endpoints;
    std::vector<std::string> shard_files;
    std::string out_path = "merged_trace.json";
    for (int i = 1; i < argc; ++i) {
        if (const char *v = matchOption(argv[i], "--broker-trace"))
            broker_path = v;
        else if (const char *v = matchOption(argv[i], "--shards")) {
            for (const auto &endpoint : splitCommas(v))
                shard_endpoints.push_back(endpoint);
        } else if (const char *v = matchOption(argv[i], "--shard-file"))
            shard_files.push_back(v);
        else if (const char *v = matchOption(argv[i], "--out"))
            out_path = v;
        else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return 2;
        }
    }
    if (broker_path.empty()) {
        std::fprintf(stderr,
                     "usage: hermes_trace_merge --broker-trace=FILE "
                     "[--shards=host:port,...] [--shard-file=FILE]... "
                     "[--out=FILE]\n");
        return 2;
    }

    serve::TraceDumpInput broker;
    broker.source = broker_path;
    if (!readFile(broker_path, broker.json)) {
        std::fprintf(stderr, "error: cannot read broker trace %s\n",
                     broker_path.c_str());
        return 1;
    }

    std::vector<serve::TraceDumpInput> shards;
    for (const auto &endpoint : shard_endpoints) {
        std::string host;
        std::uint16_t port = 0;
        if (!serve::parseEndpoint(endpoint, host, port)) {
            std::fprintf(stderr, "error: bad endpoint %s\n",
                         endpoint.c_str());
            return 2;
        }
        serve::TraceDumpInput dump;
        dump.source = endpoint;
        if (!obs::httpGet(host, port, "/trace.json", &dump.json)) {
            std::fprintf(stderr,
                         "warning: fetch of %s/trace.json failed; "
                         "skipping that shard\n",
                         endpoint.c_str());
            continue;
        }
        shards.push_back(std::move(dump));
    }
    for (const auto &path : shard_files) {
        serve::TraceDumpInput dump;
        dump.source = path;
        if (!readFile(path, dump.json)) {
            std::fprintf(stderr,
                         "warning: cannot read %s; skipping that shard\n",
                         path.c_str());
            continue;
        }
        shards.push_back(std::move(dump));
    }

    serve::TraceMergeResult merged = serve::mergeTraces(broker, shards);
    for (const auto &warning : merged.warnings)
        std::fprintf(stderr, "warning: %s\n", warning.c_str());
    if (!merged.ok) {
        std::fprintf(stderr, "error: %s\n", merged.error.c_str());
        return 1;
    }

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << merged.json)) {
        std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
        return 1;
    }
    out.close();
    std::printf("hermes_trace_merge wrote %s events=%zu processes=%zu\n",
                out_path.c_str(), merged.events, merged.processes);
    return 0;
}
