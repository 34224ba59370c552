/**
 * @file
 * Process-wide metrics registry: named counters, gauges and log-spaced
 * latency histograms with cheap thread-safe updates.
 *
 * The registry is the always-on half of the observability subsystem
 * (obs/trace.hpp is the opt-in half). Every update is a handful of
 * relaxed atomic operations, so instrumenting a hot path costs tens of
 * nanoseconds; snapshots and exports (JSON / Prometheus text) walk the
 * atomics without stopping writers, so a snapshot taken concurrently
 * with updates is per-field consistent but not a point-in-time cut.
 *
 * Layering: obs sits *below* util in the link order (hermes_util links
 * hermes_obs) so that ThreadPool and friends can be instrumented.
 * Nothing here may include util headers that require linking
 * hermes_util.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hermes {
namespace obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * One object's count of an event that also feeds a process-wide
 * registry series (a Counter, or a WindowedCounter for a rolling rate):
 * add() bumps both, value() reads only this object's count. Per-object
 * stats read value(); exports read the series, which sums every object
 * in the process. Registry::reset() zeroes only the series.
 */
template <typename Series = Counter>
class OwnedCounter
{
  public:
    explicit OwnedCounter(Series &series) : series_(series) {}

    void add(std::uint64_t n = 1)
    {
        own_.add(n);
        series_.add(n);
    }

    std::uint64_t value() const { return own_.value(); }

    const Series &series() const { return series_; }

  private:
    Counter own_;
    Series &series_;
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time copy of a Histogram; supports percentile extraction. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    /** Per-bucket counts; index i covers [bound(i-1), bound(i)), the
     *  last bucket is the overflow. */
    std::vector<std::uint64_t> buckets;

    double mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }

    /**
     * Percentile estimate in [min, max]: finds the covering bucket and
     * interpolates linearly inside it, so the error is bounded by the
     * bucket width (~19% at 4 buckets/decade). Exact for p=0 (min),
     * p=100 (max) and single-sample histograms. Returns 0 when empty.
     */
    double percentile(double p) const;
};

/**
 * Fixed-bucket latency histogram, log-spaced at 4 buckets per decade
 * from 0.1 us to 10 s (values outside land in the edge buckets). The
 * unit is microseconds by convention (metric names end in `_us`), but
 * nothing enforces it.
 *
 * observe() touches one bucket counter plus count/sum/min/max — all
 * relaxed atomics, safe from any thread.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBucketsPerDecade = 4;
    static constexpr int kMinExponent = -1; ///< 10^-1 us = 0.1 us
    static constexpr int kMaxExponent = 7;  ///< 10^7 us = 10 s
    static constexpr std::size_t kNumBounds =
        kBucketsPerDecade * (kMaxExponent - kMinExponent);
    static constexpr std::size_t kNumBuckets = kNumBounds + 1; ///< +overflow

    /** Upper bound of bucket @p i (+inf for the overflow bucket). */
    static double bucketUpperBound(std::size_t i);

    /** Bucket index for a value (clamped into [0, kNumBuckets)). */
    static std::size_t bucketIndex(double v);

    /** Record one sample. */
    void observe(double v);

    /** Copy the current state (concurrent-update tolerant). */
    HistogramSnapshot snapshot() const;

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    void reset();

  private:
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0}; ///< valid only when count_ > 0
    std::atomic<double> max_{0.0}; ///< valid only when count_ > 0
};

/**
 * Compact latency digest derived from a HistogramSnapshot — the shape
 * BrokerStats and the demo/tool dumps report.
 */
struct LatencySummary
{
    std::uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;

    static LatencySummary from(const HistogramSnapshot &snap);
};

class WindowedCounter;
class WindowedHistogram;

/**
 * Process-wide registry of named metrics.
 *
 * Metrics are created on first lookup and never destroyed, so the
 * returned references are stable for the life of the process — cache
 * them (e.g. in a function-local static) on hot paths to skip the
 * name lookup. reset() zeroes values in place without invalidating
 * references (tests rely on this).
 *
 * Naming convention: `<layer>.<operation>[_us]`, e.g.
 * `broker.query_latency_us`, `node.queue_wait_us`, `ivf.scan_us`
 * (obs/metric_names.hpp catalogs the canonical names).
 */
class Registry
{
  public:
    /** The process-wide instance. */
    static Registry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Counter with a rolling per-second window (obs/window.hpp). The
     * cumulative total is the plain counter of the same name, so the
     * counters section of every export is unchanged; exports grow a
     * windowed rate for the name.
     */
    WindowedCounter &windowedCounter(const std::string &name);

    /**
     * Histogram with a rolling per-second window. The cumulative part
     * is the plain histogram of the same name (hasHistogram() sees it);
     * exports grow windowed count/percentiles for the name.
     */
    WindowedHistogram &windowedHistogram(const std::string &name);

    /** True when a histogram of that name has been created. */
    bool hasHistogram(const std::string &name) const;

    /**
     * JSON object with "counters", "gauges" and "histograms" sections;
     * histograms carry count/mean/min/max/p50/p95/p99.
     */
    std::string toJson() const;

    /**
     * Prometheus text exposition: names are prefixed with `hermes_` and
     * dots become underscores; histograms emit cumulative `_bucket`
     * series plus `_sum` and `_count`.
     */
    std::string toPrometheus() const;

    /**
     * Write toJson() to @p path atomically (temp file in the same
     * directory + rename), so an external poller never reads a torn
     * file. Returns false (and warns) on error.
     */
    bool writeJson(const std::string &path) const;

    /** Write toPrometheus() to @p path atomically; false on error. */
    bool writePrometheus(const std::string &path) const;

    /** Zero every metric in place (references stay valid); windowed
     *  rings are cleared too. */
    void reset();

  private:
    Registry() = default;
    ~Registry(); // defined in metrics.cpp where window types are complete

    /** Lookup helpers that assume mutex_ is already held. */
    Counter &counterLocked(const std::string &name);
    Histogram &histogramLocked(const std::string &name);

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::unique_ptr<WindowedCounter>>
        windowed_counters_;
    std::map<std::string, std::unique_ptr<WindowedHistogram>>
        windowed_histograms_;
};

namespace detail {

/** Escape a string for embedding in a JSON document (no quotes added). */
std::string jsonEscape(const std::string &s);

/** Shortest round-trippable-ish formatting for a JSON number. */
std::string jsonNumber(double v);

} // namespace detail

} // namespace obs
} // namespace hermes
