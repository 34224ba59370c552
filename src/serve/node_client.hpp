/**
 * @file
 * The broker's view of a retrieval node, abstracted over placement.
 *
 * HermesBroker fans requests out to NodeClient instances; whether a
 * node is an in-process RetrievalNode thread (LocalNodeClient) or a
 * separate hermes_shard process across a socket (RemoteNodeClient,
 * serve/remote_node.hpp) is invisible to the scheduling logic — both
 * return std::future<NodeResponse> from submit(), and both surface
 * failures as exceptions through the future so the broker's PR 1
 * deadline / retry / degradation machinery applies unchanged.
 *
 * Both placements queue in the same serve::RequestQueue
 * (serve/node.hpp) with the same grouping rule; only the worker that
 * executes a popped group differs (a shard search vs one SearchBatch
 * RPC). A request still queued when its client is destroyed fails with
 * "request queue shutting down" either way.
 */

#pragma once

#include <future>
#include <memory>

#include "serve/node.hpp"

namespace hermes {
namespace serve {

/** Placement-agnostic handle to one retrieval node. */
class NodeClient
{
  public:
    virtual ~NodeClient() = default;

    /**
     * Enqueue a search. The query is copied before return. The future
     * yields a response, rethrows the node's failure, or — for a dead
     * or dropping node — may never become ready, which the broker's
     * deadline converts into a timeout.
     */
    virtual std::future<NodeResponse>
    submit(vecstore::VecView query, std::size_t k,
           const index::SearchParams &params) = 0;

    /** Node counters (remote: an RPC; zeros when unreachable). */
    virtual NodeStats stats() const = 0;

    /** Requests waiting (local queue; remote: client-side pending). */
    virtual std::size_t queueDepth() const = 0;

    /** Vectors stored on the node's shard. */
    virtual std::size_t shardSize() const = 0;
};

/**
 * In-process node: owns a RetrievalNode worker over a shard index.
 * This is the pre-fleet deployment shape (threads sharing one
 * DistributedStore) and the bit-parity reference for the remote path.
 */
class LocalNodeClient final : public NodeClient
{
  public:
    LocalNodeClient(const index::AnnIndex &shard, const NodeConfig &config)
        : node_(std::make_unique<RetrievalNode>(shard, config))
    {
    }

    std::future<NodeResponse>
    submit(vecstore::VecView query, std::size_t k,
           const index::SearchParams &params) override
    {
        return node_->submit(query, k, params);
    }

    NodeStats stats() const override { return node_->stats(); }
    std::size_t queueDepth() const override { return node_->queueDepth(); }
    std::size_t shardSize() const override { return node_->shardSize(); }

    /** The wrapped node (tests and tools). */
    RetrievalNode &node() { return *node_; }

  private:
    std::unique_ptr<RetrievalNode> node_;
};

} // namespace serve
} // namespace hermes
