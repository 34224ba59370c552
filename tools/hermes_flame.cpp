/**
 * @file
 * Fold Chrome trace dumps into flame-graph stacks.
 *
 * Input is any mix of TraceRecorder dumps (serving_demo --trace-out,
 * hermes_shard --trace-out, a /trace.json scrape) and merged fleet
 * traces from hermes_trace_merge. Ancestry is reconstructed from the
 * span identity each event carries (span_id/parent_span_id), so a
 * merged trace folds across processes: broker.query;rpc.search;
 * shard.search;node.search (one span name per layer, whether the RPC
 * carried one query or a coalesced batch). Weights are self-time
 * microseconds.
 *
 * Usage:
 *   hermes_flame --trace=FILE [--trace=FILE]...
 *                [--endpoint=host:port]... [--out=FILE]
 *
 * --endpoint fetches /trace.json from a live obs exporter instead of
 * (or alongside) files. Output goes to --out or stdout and loads
 * directly in speedscope (https://speedscope.app) or through
 * flamegraph.pl.
 *
 * Exit status: 0 on success (warnings on stderr), 1 when no input
 * parses or the output cannot be written, 2 on bad usage.
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace hermes;

    std::vector<std::string> trace_files;
    std::vector<std::string> endpoints;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        if (const char *v = matchOption(argv[i], "--trace"))
            trace_files.push_back(v);
        else if (const char *v = matchOption(argv[i], "--endpoint"))
            endpoints.push_back(v);
        else if (const char *v = matchOption(argv[i], "--out"))
            out_path = v;
        else {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return 2;
        }
    }
    if (trace_files.empty() && endpoints.empty()) {
        std::fprintf(stderr,
                     "usage: hermes_flame --trace=FILE "
                     "[--trace=FILE]... [--endpoint=host:port]... "
                     "[--out=FILE]\n");
        return 2;
    }

    std::vector<serve::TraceDumpInput> dumps;
    for (const auto &path : trace_files) {
        serve::TraceDumpInput dump;
        dump.source = path;
        if (!readFile(path, dump.json)) {
            std::fprintf(stderr,
                         "warning: cannot read %s; skipping\n",
                         path.c_str());
            continue;
        }
        dumps.push_back(std::move(dump));
    }
    for (const auto &endpoint : endpoints) {
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
                         "skipping\n",
                         endpoint.c_str());
            continue;
        }
        dumps.push_back(std::move(dump));
    }

    serve::FlameFoldResult fold = serve::foldStacks(dumps);
    for (const auto &warning : fold.warnings)
        std::fprintf(stderr, "warning: %s\n", warning.c_str());
    if (!fold.ok) {
        std::fprintf(stderr, "error: %s\n", fold.error.c_str());
        return 1;
    }

    if (out_path.empty()) {
        std::fputs(fold.folded.c_str(), stdout);
    } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        if (!out || !(out << fold.folded)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
    }
    std::fprintf(stderr,
                 "hermes_flame folded %zu spans into %zu stacks%s%s\n",
                 fold.spans, fold.stacks,
                 out_path.empty() ? "" : " -> ",
                 out_path.c_str());
    return 0;
}
