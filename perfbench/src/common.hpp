/**
 * @file
 * Shared pieces of the benchmark's workloads: run options, the metric
 * sink, the fixed per-workload settings and small helpers.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.hpp"
#include "vecstore/matrix.hpp"
#include "workload/corpus.hpp"

namespace perfbench {

/**
 * Fixed settings of one workload. The rates and limits were set once
 * from measurements of the seed program and are never rescaled.
 */
struct WorkloadSettings
{
    const char *name = "";
    double light_qps = 0.0;
    double heavy_qps = 0.0;

    /** p99 latency limit of qps_at_slo. */
    double p99_limit_us = 0.0;

    /** Distinct queries generated; a run that needs more fails. */
    std::size_t query_pool = 0;
};

/** Every workload the binary runs. BENCHMARK.json lists all but
 *  fleet-loopback, which stays runnable to reproduce the slowdown
 *  README.md records. */
inline constexpr WorkloadSettings kWorkloads[] = {
    {"broker-small", 4100, 9600, 4000, 250000},
    {"fleet-loopback", 1800, 4200, 8000, 150000},
    {"shard-churn", 1100, 2500, 6000, 100000},
};

/** Command-line options. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Scratch directory for deployment files and the span dump. */
    std::string workdir = ".";

    /** Sender threads (at most the host's hardware threads). */
    std::size_t senders = 4;

    WorkloadSettings settings;
};

/** Named metric values; BENCHMARK.json gives their units. */
class Metrics
{
  public:
    void set(const std::string &name, double value)
    {
        for (auto &m : items_) {
            if (m.first == name) {
                m.second = value;
                return;
            }
        }
        items_.emplace_back(name, value);
    }

    const std::vector<std::pair<std::string, double>> &items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, double>> items_;
};

/** What a workload run reports back to main(). */
struct RunOutcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    /** Correctness-gate failures, one line each; empty = passed. */
    std::vector<std::string> errors;

    Metrics metrics;
};

/** Search shape shared by every workload (ROADMAP baseline). */
inline constexpr std::size_t kTopK = 5;
inline constexpr std::size_t kClusters = 8;
inline constexpr std::size_t kSampleNprobe = 8;
inline constexpr std::size_t kDeepNprobe = 64;
inline constexpr std::size_t kDeepClusters = 3;

/** Queries in the seeded recall / parity subset of a light run. */
inline constexpr std::size_t kCheckQueries = 500;

/** recall@5 below this fails the correctness gate: a floor well below
 *  every workload's recall at the seed (0.60 to 0.97). */
inline constexpr double kMinRecall = 0.5;

/**
 * Whether a run should set up once more: setup_s is the median of at
 * least three setups, and of up to fifteen while they take under 1.5 s
 * in all, so the sub-second setups get enough samples to be steady.
 */
bool anotherSetup(const std::vector<double> &setup_seconds);

/**
 * The datastore of a workload: pinned (one corpus seed for every run),
 * like a deployed index. --seed draws the traffic instead: the query
 * pool, arrival schedules, check subset and churn picks. With the corpus
 * drawn from --seed too, cluster sizes, and with them per-query work,
 * differed between seeds by more than the benchmark's bounds.
 * @p extra_docs rows are appended (shard-churn's fresh rows).
 */
hermes::workload::CorpusConfig corpusConfig(const std::string &workload,
                                            std::size_t extra_docs = 0);

/** Query pool for @p seed: distinct Zipf-0.9 topic queries. */
hermes::vecstore::Matrix queryPool(const hermes::workload::Corpus &corpus,
                                   std::size_t count, std::uint64_t seed);

/** Bit-exact hit-list equality (ids and float scores). */
bool sameHits(const hermes::vecstore::HitList &a,
              const hermes::vecstore::HitList &b);

/**
 * Memory this process holds in MiB: heap bytes in use (malloc's own
 * count, so free pages left in its arenas do not count) plus resident
 * pages of mapped files (the binary and its libraries).
 */
double memMib();

/** Major page faults of this process so far. */
double majorFaults();

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/** @p num / @p den, or 0 when @p den is not positive. */
double ratio(double num, double den);

/** Mean recall@5 of @p got against @p truth; a value below kMinRecall
 *  fails the run. */
double checkedRecall(const std::vector<hermes::vecstore::HitList> &got,
                     const std::vector<hermes::vecstore::HitList> &truth,
                     RunOutcome &out);

/** Where a traced run writes its spans. */
std::string spanPath(const Options &options);

/** Fail the run when requests asked for rows past the query pool. */
void checkPool(std::size_t overruns, std::size_t pool_rows,
               RunOutcome &out);

/** Seconds since @p start. */
double secondsSince(Clock::time_point start);

/**
 * Seeded subset of a light run's requests, for the parity and recall
 * checks: @p count positions out of the run's @p scheduled requests,
 * offset by @p first_seq, ascending.
 */
std::vector<std::size_t> checkSubset(std::size_t first_seq,
                                     std::size_t scheduled,
                                     std::size_t count, std::uint64_t seed);

/** Exact top-k of @p queries over @p base (eval::exactGroundTruth,
 *  split over four threads). */
std::vector<hermes::vecstore::HitList>
groundTruth(const hermes::vecstore::Matrix &base,
            const hermes::vecstore::Matrix &queries);

/** Choose the check subset of the open-loop run @p run that will start
 *  at @p first_seq, and flag it in @p keep so its hit lists are kept. */
std::vector<std::size_t> markCheckSubset(const OpenLoopConfig &run,
                                         std::size_t first_seq,
                                         const Options &options,
                                         std::vector<char> &keep);

/**
 * The measured sequence every workload runs against its read path,
 * reporting read_qps and p50_us.light: a light part, whose check
 * subset is returned; a closed-loop saturation block; a second light
 * part; the heavy run (printed only); a second saturation block; a
 * third light part; a third saturation block; the qps_at_slo search,
 * starting at the heavy rate (printed only). read_qps and p50_us.light
 * are medians over the three parts.
 */
std::vector<std::size_t> measureRates(const Options &options,
                                      std::size_t &seq,
                                      const RequestFn &request,
                                      RunOutcome &out,
                                      std::vector<char> &keep);

/** Emit the loadgen.* per-layer metrics of @p run. */
void reportLoadgen(const LoadResult &run, Metrics &metrics);

/** Open-loop config of a light or heavy run of @p seconds. */
OpenLoopConfig rateRun(double rate_qps, double seconds,
                       const Options &options, std::uint64_t salt);

int runServing(const Options &options, RunOutcome &out);
int runChurn(const Options &options, RunOutcome &out);

} // namespace perfbench
