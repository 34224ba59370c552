#include "obs/trace.hpp"

#include <cstdio>

#include <unistd.h>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"

namespace hermes {
namespace obs {

namespace {

thread_local TraceContextSnapshot t_context;

std::atomic<std::uint32_t> next_thread_id{1};

/** splitmix64 finalizer: cheap, well-mixed 64-bit ids. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Per-process id-stream seed: pid + boot-relative clock, mixed. Two
 * shard processes started the same nanosecond still diverge on pid,
 * so merged traces keep span ids distinct without coordination.
 */
std::uint64_t
processSeed()
{
    static const std::uint64_t seed = mix64(
        static_cast<std::uint64_t>(::getpid()) ^
        (static_cast<std::uint64_t>(
             std::chrono::steady_clock::now().time_since_epoch().count())
         << 17));
    return seed;
}

/** 16-hex-digit zero-padded id rendering for JSON args. */
std::string
hexId(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::uint64_t
newTraceId()
{
    static std::atomic<std::uint64_t> counter{1};
    std::uint64_t id = mix64(
        processSeed() + counter.fetch_add(1, std::memory_order_relaxed));
    return id ? id : 1;
}

bool
traceActive()
{
    return t_context.active && TraceRecorder::instance().enabled();
}

TraceContextSnapshot
currentTraceContext()
{
    TraceContextSnapshot out = t_context;
    out.active = out.active && TraceRecorder::instance().enabled();
    return out;
}

TraceContext::TraceContext(bool active) : prev_(t_context)
{
    if (!prev_.active && active)
        t_context = TraceContextSnapshot{true, newTraceId(), 0};
}

TraceContext::TraceContext(const TraceContextSnapshot &snapshot)
    : prev_(t_context)
{
    // Additive like the bool form: a thread already tracing keeps its
    // own identity (nested entry points), otherwise adopt the
    // propagated one — minting a trace id if the producer had none.
    if (!prev_.active && snapshot.active) {
        t_context = snapshot;
        if (t_context.trace_id == 0)
            t_context.trace_id = newTraceId();
    }
}

TraceContext::~TraceContext()
{
    t_context = prev_;
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder()
    : epoch_(Clock::now()),
      buffer_gauge_(&Registry::instance().gauge(names::kTraceBufferSpans)),
      dropped_gauge_(&Registry::instance().gauge(names::kTraceDroppedSpans))
{
}

TraceRecorder &
TraceRecorder::instance()
{
    // Immortal for the same reason as Registry::instance(): the
    // atexit-registered trace dump must outlive ordinary statics.
    static TraceRecorder *recorder = new TraceRecorder();
    return *recorder;
}

void
TraceRecorder::start(std::size_t sample_every)
{
    clear();
    sample_every_.store(sample_every ? sample_every : 1,
                        std::memory_order_relaxed);
    sample_counter_.store(0, std::memory_order_relaxed);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        epoch_ = Clock::now();
    }
    enabled_.store(true, std::memory_order_release);
}

void
TraceRecorder::stop()
{
    enabled_.store(false, std::memory_order_release);
}

bool
TraceRecorder::sampleQuery()
{
    if (!enabled())
        return false;
    if (t_context.active)
        return true;
    std::uint64_t n = sample_counter_.fetch_add(1,
                                                std::memory_order_relaxed);
    return n % sample_every_.load(std::memory_order_relaxed) == 0;
}

std::uint32_t
TraceRecorder::currentThreadId()
{
    thread_local std::uint32_t id =
        next_thread_id.fetch_add(1, std::memory_order_relaxed);
    return id;
}

double
TraceRecorder::toMicros(Clock::time_point tp) const
{
    return std::chrono::duration<double, std::micro>(tp - epoch_).count();
}

void
TraceRecorder::record(TraceSpan span)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxSpans) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        dropped_gauge_->set(
            static_cast<double>(dropped_.load(std::memory_order_relaxed)));
        return;
    }
    spans_.push_back(std::move(span));
    buffer_gauge_->set(static_cast<double>(spans_.size()));
}

void
TraceRecorder::addSpan(std::string name, Clock::time_point start,
                       Clock::time_point end, std::vector<TraceArg> args,
                       const TraceContextSnapshot &ctx)
{
    if (ctx.active)
        addSpan(std::move(name), start, end, std::move(args), ctx,
                newTraceId());
}

void
TraceRecorder::addSpan(std::string name, Clock::time_point start,
                       Clock::time_point end, std::vector<TraceArg> args,
                       const TraceContextSnapshot &ctx,
                       std::uint64_t span_id)
{
    if (!ctx.active)
        return;
    TraceSpan span;
    span.name = std::move(name);
    span.tid = currentThreadId();
    span.ts_us = toMicros(start);
    span.dur_us =
        std::chrono::duration<double, std::micro>(end - start).count();
    span.trace_id = ctx.trace_id;
    span.parent_span_id = ctx.parent_span_id;
    span.span_id = span_id;
    span.args = std::move(args);
    record(std::move(span));
}

std::vector<TraceSpan>
TraceRecorder::snapshot() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return spans_;
}

std::size_t
TraceRecorder::spanCount() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return spans_.size();
}

void
TraceRecorder::clear()
{
    std::unique_lock<std::mutex> lock(mutex_);
    spans_.clear();
    dropped_.store(0, std::memory_order_relaxed);
    buffer_gauge_->set(0.0);
    dropped_gauge_->set(0.0);
}

std::string
TraceRecorder::toJson(const std::vector<TraceArg> &metadata) const
{
    auto spans = snapshot();
    std::string out = "{\"traceEvents\": [";
    char buf[64];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        out += i ? ",\n  " : "\n  ";
        out += "{\"name\": \"" + detail::jsonEscape(s.name) +
            "\", \"cat\": \"hermes\", \"ph\": \"";
        out += s.instant ? "i" : "X";
        out += "\", \"pid\": 1, \"tid\": " + std::to_string(s.tid);
        std::snprintf(buf, sizeof(buf), "%.3f", s.ts_us);
        out += std::string(", \"ts\": ") + buf;
        if (s.instant) {
            out += ", \"s\": \"t\"";
        } else {
            std::snprintf(buf, sizeof(buf), "%.3f", s.dur_us);
            out += std::string(", \"dur\": ") + buf;
        }
        bool has_ids = s.trace_id != 0;
        if (!s.args.empty() || has_ids) {
            out += ", \"args\": {";
            bool first = true;
            for (const auto &arg : s.args) {
                if (!first)
                    out += ", ";
                first = false;
                out += "\"" + detail::jsonEscape(arg.key) + "\": ";
                if (arg.numeric)
                    out += arg.value;
                else
                    out += "\"" + detail::jsonEscape(arg.value) + "\"";
            }
            if (has_ids) {
                // Hex strings, not numbers: 64-bit ids do not survive
                // consumers that parse JSON numbers as doubles.
                if (!first)
                    out += ", ";
                out += "\"trace_id\": \"" + hexId(s.trace_id) + "\"";
                if (s.span_id != 0)
                    out += ", \"span_id\": \"" + hexId(s.span_id) + "\"";
                if (s.parent_span_id != 0)
                    out += ", \"parent_span_id\": \"" +
                        hexId(s.parent_span_id) + "\"";
            }
            out += "}";
        }
        out += "}";
    }
    out += "\n]";
    if (!metadata.empty()) {
        out += ", \"metadata\": {";
        for (std::size_t m = 0; m < metadata.size(); ++m) {
            const auto &arg = metadata[m];
            if (m)
                out += ", ";
            out += "\"" + detail::jsonEscape(arg.key) + "\": ";
            if (arg.numeric)
                out += arg.value;
            else
                out += "\"" + detail::jsonEscape(arg.value) + "\"";
        }
        out += "}";
    }
    out += ", \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

bool
TraceRecorder::writeChromeTrace(const std::string &path,
                                const std::vector<TraceArg> &metadata) const
{
    std::string text = toJson(metadata);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "[warn] obs: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        std::fprintf(stderr, "[warn] obs: short write to %s\n", path.c_str());
    return ok;
}

// ---------------------------------------------------------------------------
// ScopedSpan / instantEvent
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char *name)
    : active_(traceActive()), name_(name)
{
    if (active_) {
        start_ = TraceRecorder::Clock::now();
        trace_id_ = t_context.trace_id;
        parent_span_id_ = t_context.parent_span_id;
        span_id_ = newTraceId();
        // This span is the parent of anything opened on this thread
        // until it closes (ScopedSpans nest LIFO by construction).
        t_context.parent_span_id = span_id_;
    }
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    t_context.parent_span_id = parent_span_id_;
    auto &recorder = TraceRecorder::instance();
    TraceSpan span;
    span.name = name_;
    span.tid = TraceRecorder::currentThreadId();
    span.ts_us = recorder.toMicros(start_);
    span.dur_us = std::chrono::duration<double, std::micro>(
                      TraceRecorder::Clock::now() - start_)
                      .count();
    span.trace_id = trace_id_;
    span.span_id = span_id_;
    span.parent_span_id = parent_span_id_;
    span.args = std::move(args_);
    recorder.record(std::move(span));
}

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (active_)
        args_.push_back({key, value, false});
}

void
ScopedSpan::arg(const char *key, double value)
{
    if (active_)
        args_.push_back({key, detail::jsonNumber(value), true});
}

void
ScopedSpan::arg(const char *key, std::uint64_t value)
{
    if (active_)
        args_.push_back({key, std::to_string(value), true});
}

void
instantEvent(const char *name, std::vector<TraceArg> args)
{
    if (!traceActive())
        return;
    auto &recorder = TraceRecorder::instance();
    TraceSpan span;
    span.name = name;
    span.tid = TraceRecorder::currentThreadId();
    span.ts_us = recorder.toMicros(TraceRecorder::Clock::now());
    span.instant = true;
    span.trace_id = t_context.trace_id;
    span.parent_span_id = t_context.parent_span_id;
    span.args = std::move(args);
    recorder.record(std::move(span));
}

} // namespace obs
} // namespace hermes
