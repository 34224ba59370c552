#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/rng.hpp"

namespace perfbench {

namespace {

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

/** Per-sender sample buffers, merged once the senders have joined. */
struct SenderLog
{
    std::vector<double> latency_us;
    std::vector<double> lag_us;
    std::vector<double> wait_us;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t backlog_max = 0;
    std::vector<LoadResult::Timeline> timeline;
};

LoadResult
merge(std::vector<SenderLog> &logs, Clock::time_point start,
      Clock::time_point end)
{
    LoadResult result;
    for (auto &log : logs) {
        result.attempted += log.attempted;
        result.failed += log.failed;
        result.backlog_max = std::max(result.backlog_max, log.backlog_max);
        result.latency_us.insert(result.latency_us.end(),
                                 log.latency_us.begin(),
                                 log.latency_us.end());
        result.lag_us.insert(result.lag_us.end(), log.lag_us.begin(),
                             log.lag_us.end());
        result.sender_wait_us.insert(result.sender_wait_us.end(),
                                     log.wait_us.begin(), log.wait_us.end());
        result.timeline.insert(result.timeline.end(), log.timeline.begin(),
                               log.timeline.end());
    }
    result.elapsed_s = std::chrono::duration<double>(end - start).count();
    result.start = start;
    return result;
}

} // namespace

std::vector<double>
poissonSchedule(double rate_qps, double duration_s, std::uint64_t seed)
{
    hermes::util::Rng rng(seed);
    std::vector<double> offsets;
    offsets.reserve(static_cast<std::size_t>(rate_qps * duration_s * 1.1) +
                    16);
    double t = 0.0;
    for (;;) {
        // Inverse-CDF exponential draw; 1 - u keeps log() off zero.
        t += -std::log(1.0 - rng.uniform()) / rate_qps;
        if (t >= duration_s)
            break;
        offsets.push_back(t);
    }
    return offsets;
}

LoadResult
runOpenLoop(const OpenLoopConfig &config, std::size_t first_seq,
            const RequestFn &request)
{
    const std::vector<double> schedule =
        poissonSchedule(config.rate_qps, config.duration_s, config.seed);
    const std::size_t senders = std::max<std::size_t>(config.senders, 1);
    std::vector<SenderLog> logs(senders);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> abort{false};

    // Start a little in the future so every sender is parked before the
    // first arrival is due.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    auto due = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(schedule[i]));
    };

    auto sender = [&](SenderLog &log) {
        log.latency_us.reserve(schedule.size() / senders + 16);
        log.lag_us.reserve(schedule.size() / senders + 16);
        log.wait_us.reserve(schedule.size() / senders + 16);
        for (;;) {
            if (abort.load(std::memory_order_relaxed))
                return;
            const std::size_t i = next.fetch_add(1);
            if (i >= schedule.size())
                return;
            const Clock::time_point intended = due(i);
            const Clock::time_point free_at = Clock::now();
            if (intended > free_at)
                std::this_thread::sleep_until(intended);
            const Clock::time_point sent = Clock::now();

            // Requests due by now that no sender has claimed yet.
            const double now_s =
                std::chrono::duration<double>(sent - start).count();
            const std::size_t due_count = static_cast<std::size_t>(
                std::upper_bound(schedule.begin(), schedule.end(), now_s) -
                schedule.begin());
            const std::size_t claimed =
                std::min(next.load(std::memory_order_relaxed),
                         schedule.size());
            const std::size_t backlog =
                due_count > claimed ? due_count - claimed : 0;
            log.backlog_max = std::max(log.backlog_max, backlog);
            if (config.abort_backlog > 0 && backlog > config.abort_backlog)
                abort.store(true, std::memory_order_relaxed);

            const bool ok = request(first_seq + i);
            const Clock::time_point done = Clock::now();
            ++log.attempted;
            if (!ok)
                ++log.failed;
            log.latency_us.push_back(micros(done - intended));
            log.lag_us.push_back(micros(sent - std::max(intended, free_at)));
            log.wait_us.push_back(
                intended > free_at ? micros(intended - free_at) : 0.0);
            log.timeline.push_back({first_seq + i, intended, done});
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(senders);
    for (std::size_t s = 0; s < senders; ++s)
        threads.emplace_back(sender, std::ref(logs[s]));
    for (auto &t : threads)
        t.join();
    LoadResult result = merge(logs, start, Clock::now());
    result.aborted = abort.load();
    return result;
}

LoadResult
runClosedLoop(std::size_t senders, double duration_s, std::size_t first_seq,
              const RequestFn &request)
{
    senders = std::max<std::size_t>(senders, 1);
    std::vector<SenderLog> logs(senders);
    std::atomic<std::size_t> next{0};
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(duration_s));

    auto sender = [&](SenderLog &log) {
        while (Clock::now() < stop) {
            const std::size_t i = next.fetch_add(1);
            const Clock::time_point sent = Clock::now();
            const bool ok = request(first_seq + i);
            ++log.attempted;
            if (!ok)
                ++log.failed;
            const Clock::time_point done = Clock::now();
            log.latency_us.push_back(micros(done - sent));
            log.timeline.push_back({first_seq + i, sent, done});
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(senders);
    for (std::size_t s = 0; s < senders; ++s)
        threads.emplace_back(sender, std::ref(logs[s]));
    for (auto &t : threads)
        t.join();
    return merge(logs, start, Clock::now());
}

bool
meetsSlo(const LoadResult &result, double p99_limit_us)
{
    return !result.aborted && result.failed == 0 &&
        !result.latency_us.empty() &&
        windowPercentiles(result, 50.0).back() <= p99_limit_us &&
        windowedPercentile(result, 99.0) <= p99_limit_us;
}

SloSearchResult
searchQpsAtSlo(const SloSearchConfig &config, std::size_t first_seq,
               const RequestFn &request)
{
    SloSearchResult out;
    out.next_seq = first_seq;
    auto passes = [&](double rate) {
        bool pass = false;
        for (std::size_t attempt = 0; attempt < 2 && !pass; ++attempt) {
            OpenLoopConfig probe;
            probe.rate_qps = rate;
            probe.duration_s = std::max(
                config.probe_s,
                static_cast<double>(config.min_probe_requests) / rate);
            probe.senders = config.senders;
            probe.seed = config.seed * 1000003u + out.probes.size();
            // Arrivals of a tenth of a second queued unsent: past what a
            // host stall explains, so the probe is overloaded.
            probe.abort_backlog =
                static_cast<std::size_t>(std::max(16.0, rate * 0.1));
            const LoadResult result =
                runOpenLoop(probe, out.next_seq, request);
            out.next_seq += result.attempted;
            out.attempted += result.attempted;
            out.failed += result.failed;
            pass = meetsSlo(result, config.p99_limit_us);
            out.probes.push_back({rate, pass, result.aborted,
                                  windowedPercentile(result, 99.0),
                                  windowPercentiles(result, 50.0).back()});
        }
        return pass;
    };

    // Highest passing and lowest failing rate seen (0 = none yet).
    double lo = 0.0, hi = 0.0;
    double rate = config.start_rate_qps;
    for (std::size_t i = 0;
         i < config.max_bracket_probes && (lo == 0.0 || hi == 0.0); ++i) {
        if (passes(rate)) {
            lo = rate;
            rate *= config.growth;
        } else {
            hi = rate;
            rate /= config.growth;
        }
    }
    if (lo > 0.0 && hi > 0.0) {
        for (std::size_t step = 0; step < config.steps; ++step) {
            const double mid = std::sqrt(lo * hi);
            (passes(mid) ? lo : hi) = mid;
        }
    }
    out.qps = lo;
    return out;
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t below = static_cast<std::size_t>(rank);
    const std::size_t above = std::min(below + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(below);
    return xs[below] + frac * (xs[above] - xs[below]);
}

double
LoadResult::throughput() const
{
    constexpr std::size_t kWindows = 10;
    if (elapsed_s <= 0.0)
        return 0.0;
    std::vector<double> replies(kWindows, 0.0);
    for (const auto &t : timeline) {
        const double at =
            std::chrono::duration<double>(t.done - start).count();
        const auto w = static_cast<std::size_t>(at / elapsed_s * kWindows);
        replies[std::min(w, kWindows - 1)] += 1.0;
    }
    return percentile(std::move(replies), 50.0) * kWindows / elapsed_s;
}

std::vector<double>
windowPercentiles(const LoadResult &run, double p)
{
    if (run.timeline.empty())
        return {0.0};
    Clock::time_point first = run.timeline.front().intended;
    Clock::time_point last = first;
    for (const auto &t : run.timeline) {
        first = std::min(first, t.intended);
        last = std::max(last, t.intended);
    }
    const std::size_t windows = std::clamp<std::size_t>(
        run.timeline.size() / kMinWindowRequests, 1, kMaxWindows);
    const double span = std::chrono::duration<double>(last - first).count();
    std::vector<std::vector<double>> by_window(windows);
    for (const auto &t : run.timeline) {
        const double at = std::chrono::duration<double>(t.intended - first)
                              .count();
        const std::size_t w = std::min(
            windows - 1,
            static_cast<std::size_t>(span > 0.0 ? at / span * windows : 0));
        by_window[w].push_back(
            std::chrono::duration<double, std::micro>(t.done - t.intended)
                .count());
    }
    std::vector<double> per_window;
    for (auto &w : by_window)
        per_window.push_back(percentile(std::move(w), p));
    return per_window;
}

double
windowedPercentile(const LoadResult &run, double p)
{
    return percentile(windowPercentiles(run, p), 50.0);
}

} // namespace perfbench
