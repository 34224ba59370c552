/**
 * @file
 * Per-query tracing: spans recorded into a process-wide TraceRecorder
 * and exported as Chrome trace-event JSON, loadable in chrome://tracing
 * or https://ui.perfetto.dev.
 *
 * Tracing is opt-in (default off) and sampled: TraceRecorder::start(N)
 * traces one in N queries. A query entry point (broker search, core
 * search, RAG generate) calls sampleQuery() and opens a TraceContext;
 * spans created while the thread's context is active are recorded,
 * everything else is a cheap no-op (one relaxed atomic load + one
 * thread-local read).
 *
 * Distributed identity: every traced query owns a 64-bit trace_id and
 * every span a span_id/parent_span_id pair, so a query's spans form a
 * tree that survives crossing threads *and processes*. The thread's
 * context (active flag + trace_id + current parent span) is captured
 * as a TraceContextSnapshot, propagated explicitly — into a node
 * request, or over the wire in an RPC (serve/rpc.hpp) — and re-adopted
 * on the far side with TraceContext(snapshot). Ids are drawn from a
 * process-seeded splitmix64 stream, so two processes never hand out
 * colliding span ids in practice and per-process dumps can be merged
 * into one trace (tools/hermes_trace_merge).
 *
 * Span naming follows the metric convention: `<layer>.<operation>`,
 * e.g. `broker.query` > `rpc.search` > `node.search` > `ivf.search`.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hermes {
namespace obs {

class Gauge;

/** One span attribute; numeric values are exported unquoted. */
struct TraceArg
{
    std::string key;
    std::string value;
    bool numeric = false;
};

/** One recorded event (complete span or instant marker). */
struct TraceSpan
{
    std::string name;
    std::uint32_t tid = 0;   ///< small per-thread id (not the OS tid)
    double ts_us = 0.0;      ///< start, microseconds since recorder epoch
    double dur_us = 0.0;     ///< 0 for instants
    bool instant = false;

    /** Query identity, shared by every span of one traced query
     *  (across threads and processes); 0 = recorded outside a trace
     *  context (a span handed straight to record()). */
    std::uint64_t trace_id = 0;

    /** This span's own id (0 for instants and context-less spans). */
    std::uint64_t span_id = 0;

    /** Enclosing span's id; 0 = root of its process-local subtree. */
    std::uint64_t parent_span_id = 0;

    std::vector<TraceArg> args;

    double end_us() const { return ts_us + dur_us; }
};

/**
 * Copy of a thread's trace context, safe to ship across threads and
 * (field-by-field) across the wire. `parent_span_id` names the span
 * that was open where the snapshot was taken — spans recorded under
 * an adopted snapshot become its children.
 */
struct TraceContextSnapshot
{
    bool active = false;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span_id = 0;
};

/**
 * The calling thread's current context. `active` is true only when the
 * recorder is enabled AND the thread is inside an active TraceContext
 * (same condition as traceActive()), so a snapshot taken on an
 * untraced path adopts to a no-op.
 */
TraceContextSnapshot currentTraceContext();

/** Fresh process-unique 64-bit id (never 0); used for trace and span
 *  ids, exposed for tests and hand-rolled span assembly. */
std::uint64_t newTraceId();

/** Process-wide span sink. All methods are thread-safe. */
class TraceRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    static TraceRecorder &instance();

    /**
     * Enable tracing, clearing previously recorded spans.
     * @param sample_every Trace one in this many sampled queries (>= 1).
     */
    void start(std::size_t sample_every = 1);

    /** Disable tracing (recorded spans are kept until the next start). */
    void stop();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Query-entry sampling decision: false when disabled; true when the
     * calling thread is already inside an active TraceContext (nested
     * entry points don't consume the sampling counter); otherwise true
     * for one in sample_every calls.
     */
    bool sampleQuery();

    /** Append a span (regardless of the thread's context). */
    void record(TraceSpan span);

    /**
     * Record a retroactive complete span under an explicit context —
     * for spans whose owning thread is not the recording thread (queue
     * waits, batch back-fill, adopted remote requests). No-op when
     * @p ctx is inactive.
     */
    void addSpan(std::string name, Clock::time_point start,
                 Clock::time_point end, std::vector<TraceArg> args,
                 const TraceContextSnapshot &ctx);

    /** As above, under a span id the caller already handed to
     *  children (from newTraceId()). */
    void addSpan(std::string name, Clock::time_point start,
                 Clock::time_point end, std::vector<TraceArg> args,
                 const TraceContextSnapshot &ctx, std::uint64_t span_id);

    /** Microseconds since the recorder epoch (start() resets it). */
    double toMicros(Clock::time_point tp) const;

    /** Small dense id for the calling thread (stable per thread). */
    static std::uint32_t currentThreadId();

    /** Copy of everything recorded so far. */
    std::vector<TraceSpan> snapshot() const;

    std::size_t spanCount() const;

    /** Spans discarded because the buffer cap was hit. */
    std::uint64_t droppedSpans() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    void clear();

    /**
     * Chrome trace-event JSON ({"traceEvents": [...]}). Span identity
     * rides in each event's args as zero-padded hex strings
     * ("trace_id"/"span_id"/"parent_span_id"). @p metadata entries, if
     * any, are emitted as a top-level "metadata" object — the merge
     * tool reads process/cluster labels and clock info from there.
     */
    std::string toJson(const std::vector<TraceArg> &metadata = {}) const;

    /** Write toJson() to @p path; false (and a warning) on error. */
    bool writeChromeTrace(const std::string &path,
                          const std::vector<TraceArg> &metadata = {}) const;

  private:
    TraceRecorder();

    /** Buffer cap: tracing is for short sessions, not unbounded logs. */
    static constexpr std::size_t kMaxSpans = 1 << 20;

    std::atomic<bool> enabled_{false};
    std::atomic<std::size_t> sample_every_{1};
    std::atomic<std::uint64_t> sample_counter_{0};
    std::atomic<std::uint64_t> dropped_{0};
    Clock::time_point epoch_;

    /** Registry gauges mirroring buffer occupancy / drops so trace
     *  truncation is visible on /metrics (never null; the recorder and
     *  the registry are both immortal singletons). */
    Gauge *buffer_gauge_;
    Gauge *dropped_gauge_;

    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
};

/**
 * True when spans on this thread should be recorded: the recorder is
 * enabled and the thread is inside an active TraceContext.
 */
bool traceActive();

/**
 * RAII marker that the current thread is (or is not) tracing the query
 * in flight. Nesting is additive: a nested TraceContext(false) inside
 * an active one leaves the thread active (and keeps its identity).
 *
 * TraceContext(true) at the top level mints a fresh trace_id; adopting
 * a TraceContextSnapshot instead joins an existing trace (possibly one
 * started in another process) with its parent span pre-set.
 */
class TraceContext
{
  public:
    explicit TraceContext(bool active);

    /** Adopt a propagated context (no-op when it is inactive or the
     *  thread is already tracing). */
    explicit TraceContext(const TraceContextSnapshot &snapshot);

    ~TraceContext();

    TraceContext(const TraceContext &) = delete;
    TraceContext &operator=(const TraceContext &) = delete;

  private:
    TraceContextSnapshot prev_;
};

/**
 * RAII complete-span: captures the start time at construction and
 * records [start, destruction) when the thread's trace context was
 * active at construction. Inactive instances cost two branches.
 *
 * An active span becomes the thread's current parent for its lifetime,
 * so spans opened inside it (same thread) chain to it automatically.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach an attribute (no-op when inactive). */
    void arg(const char *key, const std::string &value);
    void arg(const char *key, double value);
    void arg(const char *key, std::uint64_t value);

    bool active() const { return active_; }

    /** This span's id (0 when inactive) — what a propagated context
     *  should carry as parent_span_id for work nested under it. */
    std::uint64_t spanId() const { return span_id_; }

  private:
    bool active_;
    const char *name_;
    std::uint64_t trace_id_ = 0;
    std::uint64_t span_id_ = 0;
    std::uint64_t parent_span_id_ = 0;
    TraceRecorder::Clock::time_point start_;
    std::vector<TraceArg> args_;
};

/** Record an instant marker (no-op when the thread is not tracing). */
void instantEvent(const char *name, std::vector<TraceArg> args = {});

} // namespace obs
} // namespace hermes
