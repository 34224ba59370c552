/**
 * @file
 * The serving side of a shard-per-process fleet: one RetrievalNode
 * behind the framed RPC protocol (serve/rpc.hpp) on a TCP listener.
 *
 * `hermes_shard` wraps this in a process; tests run it in-process over
 * loopback. Each accepted connection gets a handler thread that decodes
 * request frames, submits them to the node's queue, and writes framed
 * responses — so concurrent connections' requests coalesce in the node
 * exactly like concurrent broker threads do in-process, preserving
 * PR 5 micro-batching behind the wire.
 *
 * Failure model:
 *  - An undecodable payload or dimension mismatch answers
 *    ErrorCode::BadRequest; the connection survives.
 *  - A shard search that throws (real or injected fault) answers
 *    ErrorCode::Internal; the connection survives.
 *  - A search whose node futures are not all ready within the
 *    request's deadline (plus slack; 30 s when it carries none),
 *    counted once from the frame's arrival, answers
 *    ErrorCode::Timeout — a dropped request can wedge neither the
 *    connection nor shutdown.
 *  - A frame whose advertised payload exceeds
 *    net::kDefaultMaxFramePayload drops the connection.
 *  - A Health request naming another protocol version answers
 *    ErrorCode::BadRequest.
 *  - stop() answers in-flight waits with ErrorCode::Shutdown, joins
 *    every handler, then tears down the node.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "index/ann_index.hpp"
#include "net/frame.hpp"
#include "net/net.hpp"
#include "serve/node.hpp"
#include "serve/rpc.hpp"

namespace hermes {
namespace serve {

/** Shard server configuration. */
struct ShardServerOptions
{
    /** Bind address; default loopback (single-host fleets, CI). */
    std::string bind_address = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;

    /** Node queue/batching/fault parameters (node_id tags metrics). */
    NodeConfig node;

    /**
     * Extra milliseconds past a request's own deadline_ms the server
     * will wait on the node future before answering Timeout. Covers
     * clock skew between client submit and server dispatch.
     */
    double deadline_slack_ms = 250.0;
};

/** Serving statistics of one shard server. */
struct ShardServerStats
{
    std::uint64_t connections_accepted = 0;

    /** Finished handler threads joined by the accept loop. */
    std::uint64_t connections_reaped = 0;

    std::uint64_t requests_served = 0;
    std::uint64_t errors_returned = 0;
};

/** One shard process's serving core. */
class ShardServer
{
  public:
    /**
     * @param shard   Trained index this shard serves (must outlive the
     *                server).
     * @param options Listener + node parameters.
     */
    ShardServer(const index::AnnIndex &shard, ShardServerOptions options);

    /** Stops the server if still running. */
    ~ShardServer();

    ShardServer(const ShardServer &) = delete;
    ShardServer &operator=(const ShardServer &) = delete;

    /**
     * Bind, listen, start the node worker and the accept thread.
     * Returns false with the reason on stderr when the port cannot be
     * bound.
     */
    bool start();

    /** Join every connection, stop accepting, tear down the node. */
    void stop();

    bool running() const { return running_.load(); }

    /** Actual bound port (resolves port 0 after start()). */
    std::uint16_t port() const { return listener_.port(); }

    /** Counters (connections, requests, error replies). */
    ShardServerStats stats() const;

    /** The wrapped node's counters (also served via the Stats RPC). */
    NodeStats nodeStats() const;

  private:
    void acceptLoop();

    /** Join and drop every connection thread whose handler returned. */
    void reapFinishedConnections();

    void handleConnection(net::Socket socket);

    /** Handle one decoded request frame; false = drop the connection. */
    bool dispatch(net::Socket &socket, const net::Frame &frame);

    /** Answer one SearchBatchRequest frame (every search is one). */
    bool handleSearch(net::Socket &socket, const net::Frame &frame);

    /**
     * Wait for @p future until @p deadline, in slices that observe
     * stopping_. True with @p response filled; false with the error
     * @p code and @p message to send.
     */
    bool waitForNode(std::future<NodeResponse> &future,
                     const net::Deadline &deadline, NodeResponse &response,
                     rpc::ErrorCode &code, std::string &message);

    bool sendReply(net::Socket &socket, rpc::Type type, std::uint64_t id,
                   std::string_view payload);
    bool sendError(net::Socket &socket, std::uint64_t id,
                   rpc::ErrorCode code, const std::string &message);

    const index::AnnIndex &shard_;
    ShardServerOptions options_;
    std::unique_ptr<RetrievalNode> node_;
    net::Listener listener_;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::thread accept_thread_;

    /**
     * One handler thread per live connection. The done flag is set by
     * the handler on exit so the accept loop can join and erase
     * finished entries each tick — a long-lived shard serving many
     * short connections must not accumulate exited-but-unjoined
     * threads until stop().
     */
    struct ConnectionThread
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };

    std::mutex threads_mutex_;
    std::vector<ConnectionThread> connection_threads_;

    /** ShardServerStats fields, bumped lock-free on the frame path. */
    std::atomic<std::uint64_t> connections_accepted_{0};
    std::atomic<std::uint64_t> connections_reaped_{0};
    std::atomic<std::uint64_t> requests_served_{0};
    std::atomic<std::uint64_t> errors_returned_{0};
};

} // namespace serve
} // namespace hermes
