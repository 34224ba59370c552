#include "serve/shard_server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace hermes {
namespace serve {

namespace {

/**
 * Gate a propagated context on this process's recorder: adopting a
 * remote context only records spans when the shard itself has tracing
 * enabled (hermes_shard --trace-out / HERMES_TRACE_OUT).
 */
obs::TraceContextSnapshot
gateRemoteContext(obs::TraceContextSnapshot ctx)
{
    ctx.active =
        ctx.active && obs::TraceRecorder::instance().enabled();
    return ctx;
}

/** Accept-poll tick: how often the accept loop re-checks stopping_. */
constexpr double kAcceptTickMs = 100.0;

/** Idle-poll tick for connection readers and node-future waits. */
constexpr int kIdleTickMs = 100;

/** I/O budget for one frame once bytes have started flowing. */
constexpr double kFrameIoMs = 5000.0;

/** Node wait cap for requests that carry no deadline (deadline_ms <= 0):
 *  a fault-dropped request must not hold a connection thread hostage
 *  forever. */
constexpr double kMaxWaitMs = 30000.0;

} // namespace

ShardServer::ShardServer(const index::AnnIndex &shard,
                         ShardServerOptions options)
    : shard_(shard), options_(std::move(options))
{
}

ShardServer::~ShardServer()
{
    stop();
}

bool
ShardServer::start()
{
    if (running_.load())
        return true;
    std::string error;
    if (!listener_.open(options_.bind_address, options_.port, 64, &error)) {
        std::fprintf(stderr, "[warn] shard: %s\n", error.c_str());
        return false;
    }
    node_ = std::make_unique<RetrievalNode>(shard_, options_.node);
    stopping_.store(false);
    running_.store(true);
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
ShardServer::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);
    if (accept_thread_.joinable())
        accept_thread_.join();
    listener_.close();
    std::vector<ConnectionThread> threads;
    {
        std::unique_lock<std::mutex> lock(threads_mutex_);
        threads.swap(connection_threads_);
    }
    for (auto &entry : threads) {
        if (entry.thread.joinable())
            entry.thread.join();
    }
    node_.reset();
}

ShardServerStats
ShardServer::stats() const
{
    ShardServerStats stats;
    stats.connections_accepted = connections_accepted_.load();
    stats.connections_reaped = connections_reaped_.load();
    stats.requests_served = requests_served_.load();
    stats.errors_returned = errors_returned_.load();
    return stats;
}

NodeStats
ShardServer::nodeStats() const
{
    return node_ ? node_->stats() : NodeStats{};
}

void
ShardServer::acceptLoop()
{
    while (!stopping_.load()) {
        reapFinishedConnections();
        net::Socket socket = listener_.acceptFor(kAcceptTickMs);
        if (!socket.valid())
            continue;
        ++connections_accepted_;
        ConnectionThread entry;
        entry.done = std::make_shared<std::atomic<bool>>(false);
        entry.thread = std::thread(
            [this, sock = std::move(socket), done = entry.done]() mutable {
                // Catch-all backstop: an exception escaping a handler
                // thread is std::terminate for the whole shard process.
                // dispatch() already answers decode/search failures
                // in-protocol; anything that still escapes (bad_alloc
                // while encoding a reply, a non-wire decode throw) must
                // only cost this connection.
                try {
                    handleConnection(std::move(sock));
                } catch (const std::exception &e) {
                    std::fprintf(stderr,
                                 "[warn] shard: connection dropped: %s\n",
                                 e.what());
                } catch (...) {
                    std::fprintf(stderr, "[warn] shard: connection "
                                         "dropped: unknown exception\n");
                }
                done->store(true);
            });
        std::unique_lock<std::mutex> lock(threads_mutex_);
        connection_threads_.push_back(std::move(entry));
    }
}

void
ShardServer::reapFinishedConnections()
{
    std::vector<ConnectionThread> finished;
    {
        std::unique_lock<std::mutex> lock(threads_mutex_);
        auto it = connection_threads_.begin();
        while (it != connection_threads_.end()) {
            if (it->done->load()) {
                finished.push_back(std::move(*it));
                it = connection_threads_.erase(it);
            } else {
                ++it;
            }
        }
    }
    // Join outside the lock; these threads have already returned, so
    // each join is immediate.
    for (auto &entry : finished) {
        if (entry.thread.joinable())
            entry.thread.join();
    }
    connections_reaped_ += finished.size();
}

void
ShardServer::handleConnection(net::Socket socket)
{
    while (!stopping_.load()) {
        // Idle wait in slices so stop() is never blocked on a silent
        // client; once bytes arrive the frame gets a real I/O budget.
        net::IoStatus readable = net::waitReadable(
            socket.fd(), net::Deadline::infinite(), kIdleTickMs);
        if (readable == net::IoStatus::Timeout)
            continue;
        if (readable != net::IoStatus::Ok)
            return;
        net::Frame frame;
        net::IoStatus status = net::recvFrame(
            socket, frame, net::Deadline::after(kFrameIoMs),
            net::kDefaultMaxFramePayload);
        if (status != net::IoStatus::Ok)
            return; // closed, torn frame, bad magic or oversized: drop
        if (!dispatch(socket, frame))
            return;
    }
}

bool
ShardServer::sendReply(net::Socket &socket, rpc::Type type,
                       std::uint64_t id, std::string_view payload)
{
    return net::sendFrame(socket, static_cast<std::uint32_t>(type), id,
                          payload, net::Deadline::after(kFrameIoMs)) ==
        net::IoStatus::Ok;
}

bool
ShardServer::sendError(net::Socket &socket, std::uint64_t id,
                       rpc::ErrorCode code, const std::string &message)
{
    ++errors_returned_;
    return sendReply(socket, rpc::Type::ErrorResponse, id,
                     rpc::encodeError(code, message));
}

bool
ShardServer::waitForNode(std::future<NodeResponse> &future,
                         const net::Deadline &deadline,
                         NodeResponse &response, rpc::ErrorCode &code,
                         std::string &message)
{
    for (;;) {
        if (stopping_.load()) {
            code = rpc::ErrorCode::Shutdown;
            message = "shard stopping";
            return false;
        }
        double slice =
            std::min(deadline.remainingMs(), double(kIdleTickMs));
        auto status = future.wait_for(
            std::chrono::duration<double, std::milli>(slice));
        if (status == std::future_status::ready)
            break;
        if (deadline.expired()) {
            code = rpc::ErrorCode::Timeout;
            message = "node wait exceeded the request deadline";
            return false;
        }
    }
    try {
        response = future.get();
        return true;
    } catch (const std::exception &e) {
        code = rpc::ErrorCode::Internal;
        message = e.what();
    } catch (...) {
        code = rpc::ErrorCode::Internal;
        message = "non-standard shard exception";
    }
    return false;
}

bool
ShardServer::dispatch(net::Socket &socket, const net::Frame &frame)
{
    ++requests_served_;
    switch (static_cast<rpc::Type>(frame.type)) {
      case rpc::Type::HealthRequest: {
        std::uint32_t client_version = 0;
        try {
            client_version = rpc::decodeHealthRequest(frame.payload);
        } catch (const std::exception &e) {
            return sendError(socket, frame.id, rpc::ErrorCode::BadRequest,
                             e.what());
        }
        if (client_version != rpc::kProtocolVersion) {
            return sendError(socket, frame.id, rpc::ErrorCode::BadRequest,
                             "protocol version " +
                                 std::to_string(client_version) +
                                 " != shard version " +
                                 std::to_string(rpc::kProtocolVersion));
        }
        rpc::HealthResponse health;
        health.node_id = static_cast<std::uint32_t>(options_.node.node_id);
        health.dim = static_cast<std::uint32_t>(shard_.dim());
        health.shard_vectors = shard_.size();
        health.trace_now_us = obs::TraceRecorder::instance().toMicros(
            obs::TraceRecorder::Clock::now());
        return sendReply(socket, rpc::Type::HealthResponse, frame.id,
                         rpc::encodeHealthResponse(health));
      }
      case rpc::Type::StatsRequest: {
        rpc::StatsResponse stats;
        stats.stats = node_->stats();
        stats.queue_depth = node_->queueDepth();
        stats.shard_vectors = shard_.size();
        return sendReply(socket, rpc::Type::StatsResponse, frame.id,
                         rpc::encodeStatsResponse(stats));
      }
      case rpc::Type::SearchBatchRequest:
        return handleSearch(socket, frame);
      default:
        return sendError(socket, frame.id, rpc::ErrorCode::BadRequest,
                         "unknown frame type " +
                             std::to_string(frame.type));
    }
}

bool
ShardServer::handleSearch(net::Socket &socket, const net::Frame &frame)
{
    const auto arrived = obs::TraceRecorder::Clock::now();
    rpc::SearchBatchRequest request;
    try {
        request = rpc::decodeSearchBatchRequest(frame.payload);
    } catch (const std::exception &e) {
        // std::exception, not just FormatError: a hostile length prefix
        // that slips past validation must surface as a BadRequest
        // reply, never escape the connection thread.
        return sendError(socket, frame.id, rpc::ErrorCode::BadRequest,
                         e.what());
    }
    // One wait budget for the whole RPC, anchored as soon as the frame
    // is decoded: every member's wait draws on it, so a q-query batch
    // is answered within one budget, not q. The client's deadline plus
    // slack, capped so a deadline-less request against a fault-dropped
    // promise still unblocks this thread eventually.
    const net::Deadline deadline = net::Deadline::after(
        request.deadline_ms > 0.0
            ? request.deadline_ms + options_.deadline_slack_ms
            : kMaxWaitMs);
    if (request.dim != shard_.dim()) {
        return sendError(socket, frame.id, rpc::ErrorCode::BadRequest,
                         "query dim " + std::to_string(request.dim) +
                             " != shard dim " +
                             std::to_string(shard_.dim()));
    }
    // Back-to-back node submissions: the queue drain groups them into
    // one list-major searchBatch (same k/params), so one RPC rides the
    // same micro-batching as concurrent in-process callers.
    //
    // One shard.search span per RPC, under the first traced member.
    // Members of that trace parent their node.* spans to it; members of
    // other traces (a coalesced RPC can carry several) keep their own
    // parent. The span id is minted up front so children can name it.
    const std::size_t q = request.numQueries();
    obs::TraceContextSnapshot span_ctx;
    std::uint64_t span_id = 0;
    std::vector<std::future<NodeResponse>> futures;
    futures.reserve(q);
    for (std::size_t i = 0; i < q; ++i) {
        obs::TraceContextSnapshot ctx = i < request.traces.size()
            ? gateRemoteContext(request.traces[i])
            : obs::TraceContextSnapshot{};
        if (ctx.active && !span_ctx.active) {
            span_ctx = ctx;
            span_id = obs::newTraceId();
        }
        if (ctx.active && ctx.trace_id == span_ctx.trace_id)
            ctx.parent_span_id = span_id;
        obs::TraceContext adopt(ctx);
        futures.push_back(node_->submit(
            vecstore::VecView(request.queries.data() + i * request.dim,
                              request.dim),
            request.k, request.params));
    }
    std::vector<NodeResponse> responses(q);
    rpc::ErrorCode code = rpc::ErrorCode::Internal;
    std::string message;
    bool ok = true;
    for (std::size_t i = 0; i < q && ok; ++i) {
        // One lost member fails the whole RPC; the client re-sends
        // each member alone so a poisoned query only fails itself
        // (mirrors the node's batch-throw fallback).
        ok = waitForNode(futures[i], deadline, responses[i], code, message);
    }
    if (span_ctx.active) {
        obs::TraceRecorder::instance().addSpan(
            "shard.search", arrived, obs::TraceRecorder::Clock::now(),
            {{"cluster", std::to_string(options_.node.node_id), true},
             {"requests", std::to_string(q), true}},
            span_ctx, span_id);
    }
    if (!ok)
        return sendError(socket, frame.id, code, message);
    return sendReply(socket, rpc::Type::SearchBatchResponse, frame.id,
                     rpc::encodeSearchBatchResponse(responses));
}

} // namespace serve
} // namespace hermes
