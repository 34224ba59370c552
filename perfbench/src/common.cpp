#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "obs/process_stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace hw = hermes::workload;
namespace hv = hermes::vecstore;

hw::CorpusConfig
corpusConfig(const std::string &workload, std::size_t extra_docs)
{
    hw::CorpusConfig cc;
    const bool small = workload != "shard-churn";
    cc.num_docs = (small ? 20000 : 60000) + extra_docs;
    cc.dim = small ? 32 : 384;
    cc.seed = 42;
    return cc;
}

hv::Matrix
queryPool(const hw::Corpus &corpus, std::size_t count, std::uint64_t seed)
{
    hw::QueryConfig qc;
    qc.num_queries = count;
    qc.topic_zipf = 0.9;
    // Spread small seeds over the generator's whole seed space.
    qc.seed = seed * 0x9e3779b97f4a7c15ull + 0x51ed;
    return hw::generateQueries(corpus, qc).embeddings;
}

bool
sameHits(const hv::HitList &a, const hv::HitList &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].id != b[i].id || a[i].score != b[i].score)
            return false;
    }
    return true;
}

double
memMib()
{
    const struct mallinfo2 heap = mallinfo2();
    double file_kib = 0.0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("RssFile:", 0) == 0)
            file_kib = std::stod(line.substr(8));
    }
    return static_cast<double>(heap.uordblks + heap.hblkhd) /
        (1024.0 * 1024.0) +
        file_kib / 1024.0;
}

double
majorFaults()
{
    return hermes::obs::readProcessStats().major_faults;
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
checkedRecall(const std::vector<hv::HitList> &got,
              const std::vector<hv::HitList> &truth, RunOutcome &out)
{
    const double recall = hermes::eval::meanRecallAtK(got, truth, kTopK);
    if (recall < kMinRecall) {
        out.errors.push_back("recall@5 " + std::to_string(recall) +
                             " below " + std::to_string(kMinRecall));
    }
    return recall;
}

std::string
spanPath(const Options &options)
{
    return (std::filesystem::path(options.workdir) /
            ("spans-" + options.workload + "-" +
             std::to_string(options.seed) + ".jsonl"))
        .string();
}

void
checkPool(std::size_t overruns, std::size_t pool_rows, RunOutcome &out)
{
    if (overruns > 0) {
        out.errors.push_back("query pool exhausted (" +
                             std::to_string(overruns) + " requests past " +
                             std::to_string(pool_rows) +
                             "); raise its query_pool in kWorkloads");
    }
}

bool
anotherSetup(const std::vector<double> &setup_seconds)
{
    double total = 0.0;
    for (double s : setup_seconds)
        total += s;
    return setup_seconds.size() < 3 ||
        (setup_seconds.size() < 15 && total < 1.5);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t>
checkSubset(std::size_t first_seq, std::size_t scheduled, std::size_t count,
            std::uint64_t seed)
{
    hermes::util::Rng rng(seed ^ 0xc0ffeeull);
    auto picks = rng.sampleWithoutReplacement(scheduled,
                                              std::min(count, scheduled));
    std::sort(picks.begin(), picks.end());
    for (auto &p : picks)
        p += first_seq;
    return picks;
}

OpenLoopConfig
rateRun(double rate_qps, double seconds, const Options &options,
        std::uint64_t salt)
{
    OpenLoopConfig config;
    config.rate_qps = rate_qps;
    config.duration_s = seconds;
    config.senders = options.senders;
    config.seed = options.seed * 7919u + salt;
    return config;
}

std::vector<hv::HitList>
groundTruth(const hv::Matrix &base, const hv::Matrix &queries)
{
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<hv::HitList>> parts(kThreads);
    std::vector<std::thread> threads;
    const std::size_t per = (queries.rows() + kThreads - 1) / kThreads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        std::vector<std::size_t> rows;
        const std::size_t end = std::min(queries.rows(), (t + 1) * per);
        for (std::size_t r = t * per; r < end; ++r)
            rows.push_back(r);
        threads.emplace_back([&, t, rows = std::move(rows)] {
            parts[t] = hermes::eval::exactGroundTruth(
                base, queries.gather(rows), kTopK, hv::Metric::L2);
        });
    }
    for (auto &thread : threads)
        thread.join();
    std::vector<hv::HitList> truth;
    for (auto &part : parts)
        truth.insert(truth.end(), part.begin(), part.end());
    return truth;
}

std::vector<std::size_t>
markCheckSubset(const OpenLoopConfig &run, std::size_t first_seq,
                const Options &options, std::vector<char> &keep)
{
    const std::size_t scheduled =
        poissonSchedule(run.rate_qps, run.duration_s, run.seed).size();
    auto subset =
        checkSubset(first_seq, scheduled, kCheckQueries, options.seed);
    for (std::size_t seq : subset) {
        if (seq < keep.size())
            keep[seq] = 1;
    }
    return subset;
}

namespace {

/**
 * Print the p50 and p99 of a light or heavy rate, run in one or more
 * parts (the median over the parts of each part's windowed percentile),
 * and the generator lag; report the light p50 as a metric. The other
 * three latency figures are printed but not metrics: across runs on a
 * shared 4-vCPU host they spread past any usable bound (README.md).
 */
void
reportRate(const char *label, const std::vector<LoadResult> &parts,
           RunOutcome &out)
{
    std::vector<double> p50s, p99s, all_us;
    double lag = 0.0;
    std::size_t backlog = 0;
    for (const LoadResult &run : parts) {
        p50s.push_back(windowedPercentile(run, 50.0));
        p99s.push_back(windowedPercentile(run, 99.0));
        all_us.insert(all_us.end(), run.latency_us.begin(),
                      run.latency_us.end());
        lag = std::max(lag, percentile(run.lag_us, 99.0));
        backlog = std::max(backlog, run.backlog_max);
        if (run.aborted)
            out.errors.push_back(std::string(label) +
                                 " run aborted on backlog");
    }
    const double p50 = median(p50s);
    if (std::string(label) == "light")
        out.metrics.set("p50_us.light", p50);
    std::printf("%s: %zu requests, p50_us.%s %.1f us, p99_us.%s %.1f us "
                "(p99 of all %.1f us), generator lag p99 %.1f us, backlog "
                "max %zu; p50 of each part:",
                label, all_us.size(), label, p50, label, median(p99s),
                percentile(all_us, 99.0), lag, backlog);
    for (double part_p50 : p50s)
        std::printf(" %.1f us", part_p50);
    std::printf("\n");
}

} // namespace

std::vector<std::size_t>
measureRates(const Options &options, std::size_t &seq,
             const RequestFn &request, RunOutcome &out,
             std::vector<char> &keep)
{
    const double S = options.seconds;
    const WorkloadSettings &ws = options.settings;
    auto account = [&](const LoadResult &run) {
        seq += run.attempted;
        out.attempted += run.attempted;
        out.failed += run.failed;
    };

    // Closed-loop saturation and the light rate each run in three parts
    // spread over the run, so a slow spell of the host that lasts
    // seconds sets one part, not the median. The first light part holds
    // the check subset. The qps_at_slo search comes last: the loopback
    // fleet served at a third of its speed for the rest of one run after
    // the search's over-capacity probes.
    std::vector<double> saturation;
    auto saturate = [&](double seconds) {
        const LoadResult run =
            runClosedLoop(options.senders, seconds, seq, request);
        account(run);
        saturation.push_back(run.throughput());
    };
    std::vector<LoadResult> light_parts;
    std::vector<std::size_t> subset;
    auto light = [&] {
        const OpenLoopConfig config = rateRun(
            ws.light_qps, 0.25 / 3 * S, options, 1 + 10 * light_parts.size());
        if (light_parts.empty())
            subset = markCheckSubset(config, seq, options, keep);
        light_parts.push_back(runOpenLoop(config, seq, request));
        account(light_parts.back());
    };

    light();
    saturate(0.0333 * S);
    light();
    const LoadResult heavy_run =
        runOpenLoop(rateRun(ws.heavy_qps, 0.1 * S, options, 2), seq, request);
    account(heavy_run);
    reportRate("heavy", {heavy_run}, out);
    saturate(0.0333 * S);
    light();
    saturate(0.0333 * S);
    reportRate("light", light_parts, out);

    SloSearchConfig search;
    search.p99_limit_us = ws.p99_limit_us;
    search.start_rate_qps = ws.heavy_qps;
    search.probe_s = 0.04 * S;
    search.min_probe_requests = 4 * kMinWindowRequests;
    search.senders = options.senders;
    search.seed = options.seed;
    const SloSearchResult slo = searchQpsAtSlo(search, seq, request);
    seq = slo.next_seq;
    out.attempted += slo.attempted;
    out.failed += slo.failed;
    // Printed, not a metric: a slow spell of the host that outlasts the
    // search fails every probe down to a fifth of the heavy rate.
    std::printf("qps_at_slo %.0f 1/s (0: no probed rate met the SLO); "
                "probes (rate pass/fail, windowed p99, last-window p50):",
                slo.qps);
    for (const auto &probe : slo.probes) {
        std::printf(" %.0f%s%s %.0f/%.0f us;", probe.rate_qps,
                    probe.pass ? "+" : "-", probe.aborted ? " aborted" : "",
                    probe.p99_us, probe.last_p50_us);
    }
    std::printf("\n");

    const double read_qps = median(saturation);
    std::printf("saturated closed loop: %.0f qps (blocks %.0f, %.0f, %.0f)\n",
                read_qps, saturation[0], saturation[1], saturation[2]);
    out.metrics.set("read_qps", read_qps);
    return subset;
}

void
reportLoadgen(const LoadResult &run, Metrics &metrics)
{
    metrics.set("loadgen.lag_p99_us", percentile(run.lag_us, 99.0));
    metrics.set("loadgen.sender_wait_p50_us",
                percentile(run.sender_wait_us, 50.0));
    metrics.set("loadgen.backlog_max", static_cast<double>(run.backlog_max));
}

} // namespace perfbench
