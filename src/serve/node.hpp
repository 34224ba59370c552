/**
 * @file
 * A retrieval node: one cluster index behind the serving layer's
 * request queue, with its own worker thread.
 *
 * This is the online-serving half of the paper's system (Fig 9 right):
 * each similarity cluster's IVF index lives on its own node; the broker
 * (serve/broker.hpp) fans sampling and deep-search requests out to nodes
 * and aggregates. Within a node, queued requests are drained in batches,
 * mirroring FAISS's batch scheduling.
 *
 * RequestQueue is the one request queue of the serving layer: the node's
 * worker and RemoteNodeClient's connection workers (serve/remote_node.hpp)
 * both loop "pop a compatible group, execute it". Only the executor
 * differs: a shard search here, one SearchBatch RPC there.
 *
 * Fault model: a shard search that throws fulfils the request's promise
 * via set_exception, so the caller sees the error instead of a broken
 * future (and the worker thread survives). NodeConfig::faults injects
 * probabilistic failures/delays/drops for tests and benches.
 */

#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "index/ann_index.hpp"
#include "obs/trace.hpp"
#include "sim/hardware.hpp"
#include "util/rng.hpp"

namespace hermes {
namespace serve {

/** One node-level search response. */
struct NodeResponse
{
    /** Hits from this node's shard, best first. */
    vecstore::HitList hits;

    /** Work counters for this request. */
    index::SearchStats stats;
};

/**
 * Deterministic fault injection knobs (all off by default). Decisions
 * are drawn per request from a util::Rng seeded with @p seed, so a run
 * is exactly reproducible.
 */
struct FaultInjector
{
    /** Probability a request fails with an injected exception. */
    double fail_probability = 0.0;

    /**
     * Probability a request is dropped: the promise is parked unfulfilled
     * until node shutdown, so the caller's future never becomes ready —
     * a dead node, observable only through a deadline.
     */
    double drop_probability = 0.0;

    /** Probability a request is served after an added delay. */
    double delay_probability = 0.0;

    /** Added delay in milliseconds for delayed requests. */
    double delay_ms = 0.0;

    /** Seed for the per-node fault stream. */
    std::uint64_t seed = 0x5eedfa11ull;

    /** True when any fault class is enabled. */
    bool
    enabled() const
    {
        return fail_probability > 0.0 || drop_probability > 0.0 ||
               delay_probability > 0.0;
    }
};

/** Node configuration. */
struct NodeConfig
{
    /** Max requests drained per processing round. */
    std::size_t max_batch = 64;

    /**
     * Micro-batching window in microseconds (0 = off). After the first
     * request of a round arrives, the worker keeps the drain open until
     * either max_batch requests compatible with the oldest are queued or
     * the *oldest* one has been enqueued for this long — so the added
     * latency per request is bounded by the window. A round executes one
     * compatible group (equal k, SearchParams, dim) through the shard's
     * list-major searchBatch, amortizing hot-list scans across the batch
     * (paper §6 throughput mode). That happens whenever several
     * compatible requests are queued, window or not; the window only
     * makes it likelier under load.
     */
    double batch_window_us = 0.0;

    /** Fault injection (tests/benches only; defaults to disabled). */
    FaultInjector faults;

    /**
     * Cluster id of the shard this node serves, attached to trace spans
     * and debug logs (the broker sets it; standalone nodes default to 0).
     */
    std::size_t node_id = 0;
};

/**
 * Modeled CPU for energy attribution (sim::cpuProfile). Each node worker
 * accrues busy-interval dynamic energy for its one core into
 * NodeStats::energy_joules and the `node.<c>.energy_j` gauge,
 * reproducing the paper's per-node energy accounting (Fig 18) on live
 * traffic; the idle/static share is added by the broker's LoadReport
 * from wall time.
 */
inline constexpr sim::CpuModel kEnergyCpuModel =
    sim::CpuModel::XeonGold6448Y;

/** Runtime statistics of a node. */
struct NodeStats
{
    /** Requests completed. */
    std::uint64_t requests = 0;

    /** Processing rounds executed (one compatible group each). */
    std::uint64_t batches = 0;

    /** Total seconds spent searching. */
    double busy_seconds = 0.0;

    /** Vectors scanned across all requests. */
    std::uint64_t vectors_scanned = 0;

    /** Requests that completed with an exception (real or injected). */
    std::uint64_t failures = 0;

    /** Requests dropped by fault injection (never fulfilled). */
    std::uint64_t dropped = 0;

    /** Hits returned across all completed requests. */
    std::uint64_t hits_returned = 0;

    /**
     * Modeled dynamic energy (joules) of this node's busy intervals
     * under kEnergyCpuModel.
     */
    double energy_joules = 0.0;
};

/** One queued search, as RequestQueue::push copied it. */
struct NodeRequest
{
    std::vector<float> query;
    std::size_t k = 0;
    index::SearchParams params;
    std::promise<NodeResponse> promise;

    /** Enqueue time, for the queue-wait histogram and trace span. */
    std::chrono::steady_clock::time_point enqueued;

    /** Submitting thread's trace context (identity + parent span),
     *  re-adopted on the worker thread so this request's spans stay
     *  in the submitter's trace — which may have started in another
     *  process when the submitter is a ShardServer handler. */
    obs::TraceContextSnapshot trace;
};

/** First traced member's context (inactive if none): the parent of a
 *  group's one batch-level span. */
obs::TraceContextSnapshot firstTraced(const std::vector<NodeRequest> &group);

/**
 * The serving layer's request queue: any number of producers push, any
 * number of workers pop compatible groups. A pop takes the oldest
 * request plus every queued request with the same (k, SearchParams,
 * dim), in arrival order, up to a cap, so a group can ride one
 * list-major searchBatch (or one SearchBatch RPC); the rest keep their
 * place. close() fails every queued request and every later push with
 * "shutting down"; popped requests are their worker's to complete.
 */
class RequestQueue
{
  public:
    /** Enqueue a copy of @p query; on a closed queue the future
     *  already holds the shutdown error. */
    std::future<NodeResponse> push(vecstore::VecView query, std::size_t k,
                                   const index::SearchParams &params);

    /**
     * Block until a request is queued, then take the oldest request's
     * group of at most @p max. With @p window_us > 0, first hold until
     * @p max such requests are queued or the oldest has waited
     * @p window_us. Empty only once the queue is closed.
     */
    std::vector<NodeRequest> popGroup(std::size_t max, double window_us);

    /** Requests currently queued. */
    std::size_t depth() const;

    /** Fail every queued request, reject later pushes, wake workers. */
    void close();

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<NodeRequest> queue_;
    bool closed_ = false;
};

/**
 * Asynchronous wrapper around one shard index.
 *
 * Thread-safe: any number of producers may submit() concurrently; a
 * single worker thread owns the underlying (immutable) index during
 * serving. The referenced index must outlive the node.
 */
class RetrievalNode
{
  public:
    /**
     * @param shard  The cluster's index (not owned; must be trained).
     * @param config Queue/batching parameters.
     */
    RetrievalNode(const index::AnnIndex &shard, const NodeConfig &config);

    RetrievalNode(const RetrievalNode &) = delete;
    RetrievalNode &operator=(const RetrievalNode &) = delete;

    /** Fails queued requests, finishes the running round, joins. */
    ~RetrievalNode();

    /**
     * Enqueue a search. The query is copied, so the caller's buffer may
     * be reused immediately. The returned future either yields a
     * response or rethrows the shard's exception; with drop-injection
     * it may only become ready (broken promise) at node shutdown, and a
     * request still queued at shutdown fails with "shutting down".
     */
    std::future<NodeResponse> submit(vecstore::VecView query, std::size_t k,
                                     const index::SearchParams &params);

    /** Snapshot of runtime statistics. */
    NodeStats stats() const;

    /** Requests currently waiting in the queue. */
    std::size_t queueDepth() const { return queue_.depth(); }

    /** Vectors stored on this node. */
    std::size_t shardSize() const { return shard_.size(); }

  private:
    void workerLoop();

    const index::AnnIndex &shard_;
    NodeConfig config_;

    RequestQueue queue_;

    mutable std::mutex stats_mutex_;
    NodeStats stats_;

    /** Fault stream; touched only by the worker thread. */
    util::Rng fault_rng_;

    /** Promises of dropped requests, parked until shutdown so their
     *  futures stay pending (simulating a dead node). */
    std::vector<std::promise<NodeResponse>> dropped_;

    std::thread worker_;
};

} // namespace serve
} // namespace hermes
