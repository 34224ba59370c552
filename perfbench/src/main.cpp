/**
 * @file
 * hermes_perfbench: the pinned serving benchmark.
 *
 *   hermes_perfbench --workload broker-small --seed 1 --seconds 10
 *                    --trace 0 --workdir .bench_build/work
 *
 * Prints progress lines, a run stamp, and as the last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}. --trace 0
 * reports the end-to-end metrics, --trace 1 the per-layer ones, both
 * as BENCHMARK.json lists them. Exits 1 when an output check fails.
 * --inputs-digest prints a hash of the seeded inputs instead of
 * running.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "loadgen.hpp"
#include "util/minijson.hpp"
#include "vecstore/simd_dispatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SPEC
#define PERFBENCH_SPEC "BENCHMARK.json"
#endif

namespace {

using namespace perfbench;

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** The end_to_end (or per_layer) metric list of BENCHMARK.json. */
std::vector<MetricSpec>
listedMetrics(bool per_layer)
{
    const std::string path = PERFBENCH_SPEC;
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = hermes::util::json::parse(text.str());
    const auto *list =
        parsed.ok ? parsed.value.find(per_layer ? "per_layer" : "end_to_end")
                  : nullptr;
    if (!list || !list->isArray())
        throw std::runtime_error("cannot read the metric list of " + path);
    std::vector<MetricSpec> specs;
    for (const auto &m : list->items()) {
        const auto *name = m.find("name");
        const auto *unit = m.find("unit");
        if (!name || !unit)
            throw std::runtime_error(path + ": a metric lacks name or unit");
        specs.push_back({name->stringOr(""), unit->stringOr("")});
    }
    return specs;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "hermes_perfbench: %s\n"
                 "usage: hermes_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>] "
                 "[--stamp <text>] [--inputs-digest]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Hash of everything a run derives from its seed before measuring. */
std::uint64_t
inputsDigest(const Options &o)
{
    const auto corpus =
        hermes::workload::generateCorpus(corpusConfig(o.workload));
    const auto pool = queryPool(corpus, o.settings.query_pool, o.seed);
    std::uint64_t h = 1469598103934665603ull;
    h = fnv(h, corpus.embeddings.data(),
            corpus.embeddings.rows() * corpus.embeddings.dim() *
                sizeof(float));
    h = fnv(h, pool.data(), pool.rows() * pool.dim() * sizeof(float));
    const OpenLoopConfig light = rateRun(o.settings.light_qps, 1.0, o, 1);
    const auto schedule =
        poissonSchedule(light.rate_qps, light.duration_s, light.seed);
    h = fnv(h, schedule.data(), schedule.size() * sizeof(double));
    const auto subset = checkSubset(0, 1000, kCheckQueries, o.seed);
    h = fnv(h, subset.data(), subset.size() * sizeof(std::size_t));
    return h;
}

void
printMetrics(const std::vector<MetricSpec> &specs, const Metrics &metrics,
             bool correct, std::size_t attempted, std::size_t failed)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const MetricSpec &spec : specs) {
        double value = 0.0;
        for (const auto &[name, v] : metrics.items()) {
            if (name == spec.name)
                value = v;
        }
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", spec.name.c_str(), value,
                    spec.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string stamp = "unknown";
    bool digest = false;
    bool have_seed = false, have_trace = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::stoull(value());
            have_seed = true;
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value());
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            options.trace = v == "1";
            have_trace = true;
        } else if (arg == "--workdir") {
            options.workdir = value();
        } else if (arg == "--stamp") {
            stamp = value();
        } else if (arg == "--inputs-digest") {
            digest = true;
        } else {
            usage("unknown argument " + arg);
        }
    }
    const auto *settings =
        std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const auto &w) { return options.workload == w.name; });
    if (settings == std::end(kWorkloads))
        usage("unknown workload '" + options.workload + "'");
    options.settings = *settings;
    if (!have_seed || (!digest && (!have_trace || !have_seconds)))
        usage("--seed, --seconds and --trace are required");
    if (options.seconds <= 0.0)
        usage("--seconds must be positive");
    options.senders = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 4);

    if (digest) {
        std::printf("{\"inputs_digest\": \"%016llx\"}\n",
                    static_cast<unsigned long long>(inputsDigest(options)));
        return 0;
    }

    // Sleeps in the load generator wake within microseconds instead of
    // the default 50 us timer slack, which would show up as lag.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    std::printf("{\"stamp\": {\"source\": \"%s\", \"nproc\": %u, "
                "\"senders\": %zu, \"isa\": \"%s\", \"build_type\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d}}\n",
                stamp.c_str(), std::thread::hardware_concurrency(),
                options.senders, hermes::vecstore::simd::activeIsa(),
                PERFBENCH_BUILD_TYPE, options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::fflush(stdout);

    RunOutcome out;
    std::vector<MetricSpec> specs;
    try {
        specs = listedMetrics(options.trace);
        if (options.workload == "shard-churn")
            runChurn(options, out);
        else
            runServing(options, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hermes_perfbench: %s\n", e.what());
        return 1;
    }

    // Every listed end-to-end metric must be measured (a per-layer one
    // of a layer the workload lacks reads 0), and nothing unlisted.
    auto measured = [&](const std::string &name) {
        for (const auto &m : out.metrics.items()) {
            if (m.first == name)
                return true;
        }
        return false;
    };
    for (const MetricSpec &spec : specs) {
        if (!options.trace && !measured(spec.name))
            out.errors.push_back("metric " + spec.name + " was not measured");
    }
    for (const auto &m : out.metrics.items()) {
        if (std::none_of(specs.begin(), specs.end(),
                         [&](const auto &s) { return s.name == m.first; }))
            out.errors.push_back("unlisted metric " + m.first);
    }
    if (out.failed > 0)
        out.errors.push_back(std::to_string(out.failed) + " of " +
                             std::to_string(out.attempted) +
                             " operations failed");
    for (const auto &e : out.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    const bool correct = out.errors.empty();
    printMetrics(specs, out.metrics, correct, out.attempted, out.failed);
    return correct ? 0 : 1;
}
