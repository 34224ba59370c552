#include "serve/remote_node.hpp"

#include <cmath>
#include <stdexcept>

#include "util/logging.hpp"

namespace hermes {
namespace serve {

namespace {

/** Send budget for one request frame (the peer should always drain). */
constexpr double kSendBudgetMs = 5000.0;

/** Control-channel (stats/health) round-trip budget. */
constexpr double kControlBudgetMs = 2000.0;

/** Dial budget per (re)connect attempt. */
constexpr double kConnectTimeoutMs = 500.0;

/** Extra wait for a search response beyond the request's deadline. */
constexpr double kResponseSlackMs = 1000.0;

/** Search response wait cap when the request carries no deadline. */
constexpr double kMaxResponseWaitMs = 30000.0;

/** Coalescing cap per SearchBatch RPC: the node's default batch cap. */
constexpr std::size_t kMaxBatch = NodeConfig{}.max_batch;

/** Offset jump (µs) that marks a peer clock-epoch change (restart).
 *  Same-process drift + RTT noise over a serving run stays well under
 *  this; a process restart resets the trace clock by whole seconds. */
constexpr double kEpochJumpUs = 1e6;

const char *
errorCodeName(rpc::ErrorCode code)
{
    switch (code) {
      case rpc::ErrorCode::Timeout: return "timeout";
      case rpc::ErrorCode::BadRequest: return "bad_request";
      case rpc::ErrorCode::Internal: return "internal";
      case rpc::ErrorCode::Shutdown: return "shutdown";
    }
    return "unknown";
}

/** Fail every request of @p group with @p reason and empty it. */
void
failGroup(std::vector<NodeRequest> &group, const std::string &reason)
{
    for (auto &request : group) {
        request.promise.set_exception(std::make_exception_ptr(
            std::runtime_error("remote node: " + reason)));
    }
    group.clear();
}

/** The one frame round trip of both channels: send within @p send_ms,
 *  then wait up to @p recv_ms for the reply with the same @p id. On any
 *  failure @p socket is closed, so its next use re-dials. */
bool
exchange(net::Socket &socket, std::uint64_t id, rpc::Type type,
         std::string_view payload, net::Frame &reply, double send_ms,
         double recv_ms)
{
    // One outstanding RPC per connection, so the reply id must match;
    // anything else means the stream is desynced — poison the socket
    // so the next request starts from a clean dial.
    if (net::sendFrame(socket, static_cast<std::uint32_t>(type), id,
                       payload, net::Deadline::after(send_ms)) ==
            net::IoStatus::Ok &&
        net::recvFrame(socket, reply, net::Deadline::after(recv_ms)) ==
            net::IoStatus::Ok &&
        reply.id == id)
        return true;
    socket.close();
    return false;
}

} // namespace

bool
parseEndpoint(const std::string &spec, std::string &host,
              std::uint16_t &port)
{
    std::size_t colon = spec.rfind(':');
    std::string port_str;
    if (colon == std::string::npos) {
        host = "127.0.0.1";
        port_str = spec;
    } else {
        host = colon == 0 ? std::string("127.0.0.1") : spec.substr(0, colon);
        port_str = spec.substr(colon + 1);
    }
    // ASCII digits only: strtoul would also take a sign or leading
    // whitespace ("h:+80", "h: 80"). Empty reads as 0 and is rejected.
    std::uint32_t value = 0;
    for (char ch : port_str) {
        if (ch < '0' || ch > '9')
            return false;
        value = value * 10 + static_cast<std::uint32_t>(ch - '0');
        if (value > 65535)
            return false;
    }
    if (value == 0)
        return false;
    port = static_cast<std::uint16_t>(value);
    return true;
}

RemoteNodeClient::RemoteNodeClient(RemoteNodeOptions options)
    : options_(std::move(options)),
      endpoint_(options_.host + ":" + std::to_string(options_.port))
{
    HERMES_ASSERT(options_.connections >= 1,
                  "remote node needs at least one connection");
    workers_.reserve(options_.connections);
    for (std::size_t i = 0; i < options_.connections; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

RemoteNodeClient::~RemoteNodeClient()
{
    queue_.close();
    for (auto &worker : workers_)
        worker.join();
}

std::size_t
RemoteNodeClient::shardSize() const
{
    std::size_t cached = shard_vectors_.load();
    if (cached == 0) {
        // First ask (or an unreachable shard): try a health probe.
        health();
        cached = shard_vectors_.load();
    }
    return cached;
}

NodeStats
RemoteNodeClient::stats() const
{
    net::Frame reply;
    if (!controlRoundTrip(rpc::Type::StatsRequest, {},
                          rpc::Type::StatsResponse, reply))
        return NodeStats{};
    try {
        rpc::StatsResponse decoded =
            rpc::decodeStatsResponse(reply.payload);
        shard_vectors_.store(
            static_cast<std::size_t>(decoded.shard_vectors));
        return decoded.stats;
    } catch (const std::exception &) {
        // std::exception, not just FormatError: a decode throw of any
        // kind on a broker thread must degrade, never terminate.
        return NodeStats{};
    }
}

bool
RemoteNodeClient::health(rpc::HealthResponse *out) const
{
    auto &recorder = obs::TraceRecorder::instance();
    // Bracket the RPC on the local trace clock: the shard's
    // trace_now_us was read somewhere inside [t0, t1], so mapping it
    // to the midpoint bounds the epoch-offset error by RTT/2.
    auto t0 = obs::TraceRecorder::Clock::now();
    net::Frame reply;
    if (!controlRoundTrip(rpc::Type::HealthRequest,
                          rpc::encodeHealthRequest(rpc::kProtocolVersion),
                          rpc::Type::HealthResponse, reply))
        return false;
    auto t1 = obs::TraceRecorder::Clock::now();
    try {
        rpc::HealthResponse decoded =
            rpc::decodeHealthResponse(reply.payload);
        if (decoded.protocol_version != rpc::kProtocolVersion)
            return false;
        shard_vectors_.store(
            static_cast<std::size_t>(decoded.shard_vectors));
        double local_t0 = recorder.toMicros(t0);
        double local_t1 = recorder.toMicros(t1);
        double rtt = local_t1 - local_t0;
        double offset = (local_t0 + local_t1) / 2.0 - decoded.trace_now_us;
        bool kept = false;
        {
            std::unique_lock<std::mutex> lock(clock_sync_mutex_);
            // A big jump in the measured offset means the peer's trace
            // epoch moved — a restarted shard process — so the old
            // sample (however tight its RTT) refers to a clock that no
            // longer exists and must be replaced.
            bool epoch_changed = clock_sync_.valid &&
                std::fabs(offset - clock_sync_.offset_us) > kEpochJumpUs;
            if (!clock_sync_.valid || epoch_changed ||
                rtt <= clock_sync_.rtt_us) {
                clock_sync_.valid = true;
                clock_sync_.node_id = decoded.node_id;
                clock_sync_.offset_us = offset;
                clock_sync_.rtt_us = rtt;
                kept = true;
            }
        }
        // The gauge mirrors the kept (lowest-RTT) estimate, not every
        // raw handshake — a slow scrape-time handshake must not
        // overwrite a tight earlier measurement.
        if (kept) {
            obs::Registry::instance()
                .gauge(obs::names::rpcNodeMetric(
                    decoded.node_id, obs::names::kRpcClockOffsetUs))
                .set(offset);
        }
        if (recorder.enabled()) {
            // Drop the measurement into the local span stream: the
            // trace-merge tool reads rpc.clock_sync events out of the
            // broker dump to align each shard's timestamps, long after
            // this process has exited.
            obs::TraceSpan sync;
            sync.name = "rpc.clock_sync";
            sync.tid = obs::TraceRecorder::currentThreadId();
            sync.ts_us = local_t1;
            sync.instant = true;
            sync.args = {
                {"node_id", std::to_string(decoded.node_id), true},
                {"endpoint", endpoint_, false},
                {"offset_us", obs::detail::jsonNumber(offset), true},
                {"rtt_us", obs::detail::jsonNumber(rtt), true}};
            recorder.record(std::move(sync));
        }
        if (out)
            *out = decoded;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

RemoteClockSync
RemoteNodeClient::clockSync() const
{
    std::unique_lock<std::mutex> lock(clock_sync_mutex_);
    return clock_sync_;
}

RemoteNodeClientStats
RemoteNodeClient::clientStats() const
{
    RemoteNodeClientStats stats;
    stats.rpcs_sent = rpcs_sent_.value();
    stats.batched_rpcs = batched_rpcs_.load();
    stats.batched_requests = batched_requests_.load();
    stats.reconnects = reconnects_.value();
    stats.transport_failures = transport_failures_.value();
    stats.remote_errors = remote_errors_.value();
    return stats;
}

void
RemoteNodeClient::workerLoop()
{
    net::Socket socket; // worker-owned connection, re-dialed on demand
    for (;;) {
        // Wire-level micro-batching: every compatible request already
        // queued rides the same RPC (no added waiting — the shard's own
        // batch window supplies the hold).
        std::vector<NodeRequest> group = queue_.popGroup(kMaxBatch, 0.0);
        if (group.empty())
            return; // closed
        runRpc(socket, group);
    }
}

bool
RemoteNodeClient::ensureConnected(net::Socket &socket)
{
    if (socket.valid())
        return true;
    std::string error;
    socket = net::connectTo(options_.host, options_.port,
                            kConnectTimeoutMs, &error);
    if (!socket.valid()) {
        HERMES_DEBUG("remote node dial failed: ", error);
        return false;
    }
    // Hard version check on every dial: no search frame goes to a shard
    // that has not answered a same-version Health, and a redial after a
    // shard restart re-measures the new process's clock epoch (the old
    // offset is meaningless against it). Dials are rare, so the extra
    // control RPC is noise.
    if (!health()) {
        HERMES_DEBUG("remote node handshake failed: ", endpoint_);
        socket.close();
        return false;
    }
    reconnects_.add();
    return true;
}

void
RemoteNodeClient::runRpc(net::Socket &socket,
                         std::vector<NodeRequest> &group)
{
    if (!ensureConnected(socket)) {
        failGroup(group, "cannot reach " + endpoint_);
        return;
    }

    const auto &head = group.front();
    rpc::SearchBatchRequest request;
    request.k = head.k;
    request.params = head.params;
    request.deadline_ms = options_.request_deadline_ms;
    request.dim = head.query.size();
    request.queries.reserve(group.size() * request.dim);
    for (const auto &member : group) {
        request.queries.insert(request.queries.end(), member.query.begin(),
                               member.query.end());
    }
    if (group.size() > 1) {
        ++batched_rpcs_;
        batched_requests_ += group.size();
    }

    net::Frame reply;
    bool sent_ok;
    {
        // One rpc.search span per RPC, opened in the first traced
        // member's context; the injected context's parent is the span
        // itself, so shard-side spans nest under it. Members of *other*
        // traces (a coalesced RPC can mix them) keep their own identity
        // on the wire, parented to their original broker-side span. The
        // scope closes before the reply is acted on, so a re-sent
        // member never runs inside another request's context.
        const obs::TraceContextSnapshot span_ctx = firstTraced(group);
        obs::TraceContext trace_context(span_ctx);
        obs::ScopedSpan span("rpc.search");
        span.arg("endpoint", endpoint_);
        span.arg("requests", static_cast<std::uint64_t>(group.size()));
        if (span.active()) {
            request.traces.resize(group.size());
            for (std::size_t i = 0; i < group.size(); ++i) {
                const auto &trace = group[i].trace;
                if (!trace.active)
                    continue;
                request.traces[i] = trace;
                if (trace.trace_id == span_ctx.trace_id)
                    request.traces[i].parent_span_id = span.spanId();
            }
        }
        m_batch_size_.observe(static_cast<double>(group.size()));
        const std::string payload = rpc::encodeSearchBatchRequest(request);
        rpcs_sent_.add();
        m_request_bytes_.add(net::kFrameHeaderBytes + payload.size());
        const double response_ms = options_.request_deadline_ms > 0.0
            ? options_.request_deadline_ms + kResponseSlackMs
            : kMaxResponseWaitMs;
        auto rpc_start = obs::TraceRecorder::Clock::now();
        sent_ok = exchange(socket, next_id_++, rpc::Type::SearchBatchRequest,
                           payload, reply, kSendBudgetMs, response_ms);
        if (sent_ok) {
            m_response_bytes_.add(net::kFrameHeaderBytes +
                                  reply.payload.size());
            m_round_trip_us_.observe(
                std::chrono::duration<double, std::micro>(
                    obs::TraceRecorder::Clock::now() - rpc_start)
                    .count());
        }
    }
    if (!sent_ok) {
        transport_failures_.add();
        failGroup(group, "transport failure to " + endpoint_);
        return;
    }

    switch (static_cast<rpc::Type>(reply.type)) {
      case rpc::Type::SearchBatchResponse: {
        std::vector<NodeResponse> responses;
        try {
            responses = rpc::decodeSearchBatchResponse(reply.payload);
        } catch (const std::exception &e) {
            socket.close();
            failGroup(group, e.what());
            return;
        }
        if (responses.size() != group.size()) {
            socket.close();
            failGroup(group, "batch response cardinality mismatch");
            return;
        }
        for (std::size_t i = 0; i < group.size(); ++i)
            group[i].promise.set_value(std::move(responses[i]));
        group.clear();
        return;
      }
      case rpc::Type::ErrorResponse: {
        rpc::ErrorBody body;
        try {
            body = rpc::decodeError(reply.payload);
        } catch (const std::exception &e) {
            body.message = e.what();
        }
        remote_errors_.add();
        // Error replies are rare; the per-code lookup can afford the
        // registry lock (unlike the cached hot-path counters).
        obs::Registry::instance()
            .counter(obs::names::rpcErrorMetric(errorCodeName(body.code)))
            .add(1);
        if (group.size() == 1) {
            failGroup(group, body.message);
            return;
        }
        // A batch-level fault (one poisoned query, a shard-side
        // timeout) must not fail its neighbours: re-send each request
        // as its own batch of one so only the guilty one carries the
        // error.
        for (auto &member : group) {
            std::vector<NodeRequest> single;
            single.push_back(std::move(member));
            runRpc(socket, single);
        }
        group.clear();
        return;
      }
      default:
        socket.close();
        failGroup(group,
                  "unexpected frame type " + std::to_string(reply.type));
        return;
    }
}

bool
RemoteNodeClient::controlRoundTrip(rpc::Type type,
                                   std::string_view payload,
                                   rpc::Type expect, net::Frame &reply) const
{
    std::unique_lock<std::mutex> lock(control_mutex_);
    // Two attempts at most. A failure over a pre-existing connection
    // usually means the socket went stale behind our back (shard
    // restarted since the last stats call); one fresh dial answers
    // instead of reporting the shard down. A failure right after a
    // successful dial is final.
    for (int attempt = 0; attempt < 2; ++attempt) {
        bool dialed = false;
        if (!control_socket_.valid()) {
            control_socket_ = net::connectTo(options_.host, options_.port,
                                             kConnectTimeoutMs);
            dialed = control_socket_.valid();
        }
        if (control_socket_.valid() &&
            exchange(control_socket_, next_id_++, type, payload, reply,
                     kControlBudgetMs, kControlBudgetMs))
            return static_cast<rpc::Type>(reply.type) == expect;
        if (dialed)
            return false;
    }
    return false;
}

} // namespace serve
} // namespace hermes
