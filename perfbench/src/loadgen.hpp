/**
 * @file
 * Load generator for the serving benchmark: open-loop Poisson arrivals
 * with latency timed from each request's intended send time, a
 * closed-loop saturation run, and the qps-at-SLO rate search.
 *
 * The generator knows nothing about Hermes: a request is a callable
 * taking the request's sequence number and returning whether it
 * succeeded, so the same code drives a broker, a remote fleet or a bare
 * index.
 */

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * Issues one request; @p seq is the request's position in the run
 * (0, 1, 2, ...). Returns false when the request failed. Called
 * concurrently from every sender thread.
 */
using RequestFn = std::function<bool(std::size_t seq)>;

/** Open-loop run parameters. */
struct OpenLoopConfig
{
    /** Mean Poisson arrival rate (requests per second). */
    double rate_qps = 1000.0;

    /** Length of the arrival schedule in seconds. */
    double duration_s = 1.0;

    /** Sender threads; each sends one request at a time. */
    std::size_t senders = 4;

    /** Seed of the inter-arrival draws. */
    std::uint64_t seed = 1;

    /**
     * Stop claiming requests once more than this many are due but
     * unsent (0 = never). Keeps an over-capacity probe from queueing
     * for seconds.
     */
    std::size_t abort_backlog = 0;
};

/** Outcome of one load-generator run. */
struct LoadResult
{
    /** Requests sent. */
    std::size_t attempted = 0;

    /** Requests whose callable returned false. */
    std::size_t failed = 0;

    /** True when the run stopped early on abort_backlog. */
    bool aborted = false;

    /** Wall seconds from the first intended send to the last reply. */
    double elapsed_s = 0.0;

    /** Per request: reply time minus intended send time (us). Closed
     *  loop: reply time minus send time. */
    std::vector<double> latency_us;

    /** Per request: send time minus the later of its intended time and
     *  the moment its sender became free (us) — the generator's own
     *  lateness, not the system's. */
    std::vector<double> lag_us;

    /** Per request: how long its sender idled before sending (us). */
    std::vector<double> sender_wait_us;

    /** Most requests seen due but not yet sent, sampled at each send. */
    std::size_t backlog_max = 0;

    /** Per request: sequence number, intended send time (closed loop:
     *  send time) and reply time; the trace turns these into request
     *  spans. */
    struct Timeline
    {
        std::size_t seq;
        std::chrono::steady_clock::time_point intended;
        std::chrono::steady_clock::time_point done;
    };
    std::vector<Timeline> timeline;

    /** When the run started (the first intended or actual send). */
    Clock::time_point start{};

    /**
     * Replies per second: the median over ten equal windows of the run
     * of the replies each window received, so one host stall does not
     * set the figure.
     */
    double throughput() const;
};

/**
 * Seeded Poisson schedule: intended send offsets in seconds from the
 * start of the run, ascending, all below @p duration_s.
 */
std::vector<double> poissonSchedule(double rate_qps, double duration_s,
                                    std::uint64_t seed);

/**
 * Open-loop run: requests are due at poissonSchedule() offsets no
 * matter how the system keeps up; a request whose senders are all busy
 * is sent late and its latency includes the wait. Request sequence
 * numbers start at @p first_seq.
 */
LoadResult runOpenLoop(const OpenLoopConfig &config, std::size_t first_seq,
                       const RequestFn &request);

/**
 * Closed-loop run: @p senders threads each send their next request as
 * soon as the previous reply arrives, for @p duration_s seconds.
 */
LoadResult runClosedLoop(std::size_t senders, double duration_s,
                         std::size_t first_seq, const RequestFn &request);

/** Latency limit and probe shape of the qps-at-SLO search. */
struct SloSearchConfig
{
    /** p99 latency limit, from intended send time (us). */
    double p99_limit_us = 1000.0;

    /** First rate tried. The search grows (or shrinks) it by @c growth
     *  until one rate passes and one fails, then bisects between them. */
    double start_rate_qps = 1000.0;
    double growth = 1.5;

    /** Probes spent finding the bracket; 0 is reported when no rate
     *  passed within them. */
    std::size_t max_bracket_probes = 5;

    /** Bisection steps inside the bracket (log-spaced). */
    std::size_t steps = 3;

    /** Length of each probe's schedule in seconds, stretched where
     *  needed to schedule at least min_probe_requests requests, so the
     *  probe's windowed p99 is a median over several windows. A failing
     *  probe is run once more before the rate counts as failed: one
     *  stall of the host cannot end the search early. */
    double probe_s = 0.5;
    std::size_t min_probe_requests = 2000;

    std::size_t senders = 4;
    std::uint64_t seed = 1;
};

/** Result of the qps-at-SLO search. */
struct SloSearchResult
{
    /** Highest passing rate (requests per second). */
    double qps = 0.0;

    /** Every probe run, in order. */
    struct Probe
    {
        double rate_qps;
        bool pass;
        bool aborted;
        double p99_us;

        /** Median latency of the probe's last window (backlog check). */
        double last_p50_us;
    };
    std::vector<Probe> probes;

    /** Requests sent and failed across all probes. */
    std::size_t attempted = 0;
    std::size_t failed = 0;

    /** Next unused request sequence number. */
    std::size_t next_seq = 0;
};

/**
 * True when an open-loop run met the SLO: windowedPercentile() p99
 * within @p p99_limit_us, no failed request, not aborted, and the
 * backlog not growing — the last window's median latency within the
 * limit too.
 */
bool meetsSlo(const LoadResult &result, double p99_limit_us);

/**
 * Search for the highest Poisson rate that meets the SLO: bracket it
 * from the start rate, then bisect on a log scale. The result depends on
 * no earlier measurement, and is not capped. Each probe uses fresh
 * request sequence numbers starting at @p first_seq.
 */
SloSearchResult searchQpsAtSlo(const SloSearchConfig &config,
                               std::size_t first_seq,
                               const RequestFn &request);

/** p-th percentile (0..100) of @p xs by linear interpolation; 0 when
 *  empty. */
double percentile(std::vector<double> xs, double p);

/** Fewest requests a window of windowedPercentile() may hold: enough
 *  that each window's p99 has five samples beyond it. */
inline constexpr std::size_t kMinWindowRequests = 500;
inline constexpr std::size_t kMaxWindows = 20;

/**
 * The p-th latency percentile of each of the equal windows (by intended
 * send time) of an open-loop run, in time order, with as many windows
 * (at most kMaxWindows) as keep kMinWindowRequests in each.
 */
std::vector<double> windowPercentiles(const LoadResult &run, double p);

/**
 * Median of windowPercentiles(): a host stall that hits a few windows
 * moves the result no more than a quiet window would.
 */
double windowedPercentile(const LoadResult &run, double p);

} // namespace perfbench
