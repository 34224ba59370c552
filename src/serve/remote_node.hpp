/**
 * @file
 * The broker's client for a shard that lives in another process: a
 * NodeClient backed by a pool of framed-RPC connections to a
 * ShardServer / hermes_shard endpoint.
 *
 * submit() never blocks on the network — requests are queued and the
 * pool's I/O workers carry them, fulfilling the returned futures, so
 * the broker's scatter/gather, deadlines, retries and degradation run
 * exactly as they do against in-process nodes.
 *
 * Every search RPC is a SearchBatch. Requests wait in the serving
 * layer's RequestQueue (serve/node.hpp); a worker pops the oldest one's
 * group — every queued request with identical (k, params, dim), up to
 * 64 — as one RPC, which the shard fans back into its node queue
 * back-to-back. So list-major batching (DESIGN.md §8) engages across
 * the wire with one round trip instead of Q; a lone request is a batch
 * of one.
 *
 * Version check: every successful dial runs a Health handshake, and a
 * connection counts (and carries searches) only once the shard has
 * answered with this build's kProtocolVersion. A shard of another
 * version never sees a search frame.
 *
 * Failure model:
 *  - Connect failure / failed handshake / peer reset / torn response:
 *    every request that rode that RPC gets its future failed with an
 *    exception (the broker counts a failure and retries), the
 *    connection is dropped and re-dialed on the next request — which
 *    is what makes a shard restart invisible beyond the degraded
 *    window.
 *  - A typed ErrorResponse fails only the requests of that RPC; when
 *    it answers a batch of more than one, each member is re-sent as
 *    its own batch of one, so one poisoned query cannot fail its
 *    neighbours.
 *  - Responses are matched by frame id; a mismatched id (stale reply
 *    after a local timeout) poisons the connection, never a future.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/net.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "serve/node_client.hpp"
#include "serve/rpc.hpp"

namespace hermes {
namespace serve {

/** Remote node endpoint + client tuning. */
struct RemoteNodeOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    /** Pool size = max in-flight RPCs to this shard. */
    std::size_t connections = 2;

    /**
     * Deadline stamped on each request (the broker's node_deadline_ms;
     * the shard bounds its own wait by it). <= 0 = none.
     */
    double request_deadline_ms = 0.0;
};

/** Client-side counters of one RemoteNodeClient (observability +
 *  tests); the rpc.* registry series sum every client in the process. */
struct RemoteNodeClientStats
{
    std::uint64_t rpcs_sent = 0;
    std::uint64_t batched_rpcs = 0;      ///< search RPCs of > 1 request
    std::uint64_t batched_requests = 0;  ///< requests that rode them
    std::uint64_t reconnects = 0;
    std::uint64_t transport_failures = 0;
    std::uint64_t remote_errors = 0;     ///< typed ErrorResponses
};

/**
 * Clock alignment for one remote shard, measured by the Health
 * handshake: a shard-clock timestamp T (microseconds since the shard's
 * trace epoch) maps to T + offset_us on this process's trace clock.
 * The alignment error is bounded by rtt_us / 2; the stored sample is
 * the lowest-RTT handshake seen so far.
 */
struct RemoteClockSync
{
    bool valid = false;
    std::uint32_t node_id = 0;
    double offset_us = 0.0;
    double rtt_us = 0.0;
};

/** NodeClient over the framed shard protocol. */
class RemoteNodeClient final : public NodeClient
{
  public:
    explicit RemoteNodeClient(RemoteNodeOptions options);

    /** Fails all pending requests and joins the pool. */
    ~RemoteNodeClient() override;

    RemoteNodeClient(const RemoteNodeClient &) = delete;
    RemoteNodeClient &operator=(const RemoteNodeClient &) = delete;

    std::future<NodeResponse>
    submit(vecstore::VecView query, std::size_t k,
           const index::SearchParams &params) override
    {
        return queue_.push(query, k, params);
    }

    /** Stats RPC; zeros when the shard is unreachable. */
    NodeStats stats() const override;

    /** Client-side queue depth (requests not yet on the wire). */
    std::size_t queueDepth() const override { return queue_.depth(); }

    /** Shard size from the last successful Health/Stats RPC. */
    std::size_t shardSize() const override;

    /**
     * Health RPC on the control channel. True only when the shard
     * answers with a HealthResponse of this build's kProtocolVersion;
     * fills @p out when given. Also refreshes the cached shard size and
     * the clock-sync estimate.
     */
    bool health(rpc::HealthResponse *out = nullptr) const;

    /** Best (lowest-RTT) clock alignment measured so far. */
    RemoteClockSync clockSync() const;

    RemoteNodeClientStats clientStats() const;

  private:
    void workerLoop();

    /**
     * Run one SearchBatch RPC for @p group on @p socket ((re)dialing as
     * needed). Fulfils every promise in the group, one way or the other.
     */
    void runRpc(net::Socket &socket, std::vector<NodeRequest> &group);

    /** Dial when @p socket is closed; true once a same-version Health
     *  handshake has succeeded (only then is the dial counted). */
    bool ensureConnected(net::Socket &socket);

    /** Control-channel round trip (stats/health), serialized; false
     *  unless the reply is an @p expect frame. */
    bool controlRoundTrip(rpc::Type type, std::string_view payload,
                          rpc::Type expect, net::Frame &reply) const;

    RemoteNodeOptions options_;

    /** "host:port", resolved once for span args and error strings. */
    std::string endpoint_;

    /** Canonical rpc.* metric family (obs/metric_names.hpp), resolved
     *  once — runRpc() is on the per-RPC hot path. The owned counters
     *  are this client's RemoteNodeClientStats; the rest are registry
     *  only. */
    obs::OwnedCounter<> rpcs_sent_{
        obs::Registry::instance().counter(obs::names::kRpcRpcs)};
    obs::OwnedCounter<> reconnects_{
        obs::Registry::instance().counter(obs::names::kRpcRedials)};
    obs::OwnedCounter<> transport_failures_{
        obs::Registry::instance().counter(obs::names::kRpcTransportFailures)};
    obs::OwnedCounter<> remote_errors_{
        obs::Registry::instance().counter(obs::names::kRpcRemoteErrors)};
    std::atomic<std::uint64_t> batched_rpcs_{0};
    std::atomic<std::uint64_t> batched_requests_{0};
    obs::Counter &m_request_bytes_ =
        obs::Registry::instance().counter(obs::names::kRpcRequestBytes);
    obs::Counter &m_response_bytes_ =
        obs::Registry::instance().counter(obs::names::kRpcResponseBytes);
    obs::Histogram &m_round_trip_us_ =
        obs::Registry::instance().histogram(obs::names::kRpcRoundTripUs);
    obs::Histogram &m_batch_size_ =
        obs::Registry::instance().histogram(obs::names::kRpcBatchSize);

    RequestQueue queue_;

    std::vector<std::thread> workers_;

    /** Dedicated connection for stats/health so control traffic never
     *  queues behind a large search batch. */
    mutable std::mutex control_mutex_;
    mutable net::Socket control_socket_;

    mutable std::atomic<std::uint64_t> next_id_{1};
    mutable std::atomic<std::size_t> shard_vectors_{0};

    mutable std::mutex clock_sync_mutex_;
    mutable RemoteClockSync clock_sync_;
};

/** Parse "host:port" (or bare ":port"/"port" for loopback). */
bool parseEndpoint(const std::string &spec, std::string &host,
                   std::uint16_t &port);

} // namespace serve
} // namespace hermes
