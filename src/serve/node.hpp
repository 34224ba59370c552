/**
 * @file
 * A retrieval node: one cluster index behind an asynchronous request
 * queue with its own worker thread.
 *
 * This is the online-serving half of the paper's system (Fig 9 right):
 * each similarity cluster's IVF index lives on its own node; the broker
 * (serve/broker.hpp) fans sampling and deep-search requests out to nodes
 * and aggregates. Within a node, queued requests are drained in batches,
 * mirroring FAISS's batch scheduling.
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
     * either max_batch requests are queued or the *oldest* waiting
     * request has been enqueued for this long — so the added latency per
     * request is bounded by the window. Coalesced requests with equal
     * (k, nprobe, ef_search, prune_ratio) are executed through the
     * shard's list-major searchBatch, amortizing hot-list scans across
     * the batch (paper §6 throughput mode). Grouped execution happens
     * whenever a drain yields multiple compatible requests, window or
     * not; the window only makes such drains likelier under load.
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

    /** Processing rounds executed. */
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

    /** Drains the queue and joins the worker. */
    ~RetrievalNode();

    /**
     * Enqueue a search. The query is copied, so the caller's buffer may
     * be reused immediately. The returned future either yields a
     * response or rethrows the shard's exception; with drop-injection
     * it may only become ready (broken promise) at node shutdown.
     */
    std::future<NodeResponse> submit(vecstore::VecView query, std::size_t k,
                                     const index::SearchParams &params);

    /** Snapshot of runtime statistics. */
    NodeStats stats() const;

    /** Requests currently waiting in the queue. */
    std::size_t queueDepth() const;

    /** Vectors stored on this node. */
    std::size_t shardSize() const { return shard_.size(); }

  private:
    struct Request
    {
        std::vector<float> query;
        std::size_t k;
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

    void workerLoop();

    const index::AnnIndex &shard_;
    NodeConfig config_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Request> queue_;
    bool stopping_ = false;
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
