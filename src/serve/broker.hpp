/**
 * @file
 * The Hermes scheduler/broker (paper Fig 9: "Hermes Scheduler").
 *
 * Owns a fleet of NodeClients — in-process RetrievalNode workers or
 * RemoteNodeClients speaking the framed protocol to hermes_shard
 * processes — and executes the hierarchical search protocol across
 * them:
 *   1. broadcast a cheap sampling request to every cluster (in parallel),
 *   2. rank clusters by their best sampled document,
 *   3. send deep-search requests to the top clusters (in parallel),
 *   4. merge, dedupe and truncate to the final top-k.
 *
 * On a fault-free run, results are bit-identical to core::HermesSearch on
 * the same store; the broker adds the concurrency and queueing of a real
 * deployment.
 *
 * Skew mitigation (paper §6 turned from observation into action): a
 * cluster may be served by R > 1 bit-identical replicas (ReplicaMap).
 * Each probe for a replicated cluster is routed by power-of-two-choices
 * over live queue depth — sample two replicas, pick the shallower queue
 * — which bounds the hot cluster's queueing tail at a fraction of the
 * cost of tracking global state. Straggling sample-phase probes are
 * hedged: once a probe outlives the windowed p95 of recent probe
 * latencies, a duplicate is sent to a second replica and the first
 * response wins; the loser's future is simply abandoned (futures are
 * promise-backed on both node client kinds, so discarding a late
 * response never blocks or leaks). Replicas hold copies of the same
 * immutable index, so routing and hedging cannot change results —
 * unreplicated clusters draw no routing randomness and never hedge.
 *
 * The plan itself — rank, all-lost fallback, cap and adaptive prune —
 * is core::chooseDeepClusters, the same function core::HermesSearch
 * runs; the broker only executes it across nodes.
 *
 * Fault model: a probe (one cluster's request in steps 1 or 3) makes up
 * to max_retries + 1 attempts, each with a deadline of node_deadline_ms
 * from its own submit. An attempt ends when a lane answers, when every
 * lane threw (one BrokerStats::failures each) or at its deadline (one
 * BrokerStats::timeouts); a hedge is a second lane. Retries rotate to
 * the next replica, so a dead node's traffic drains to its peers. A
 * phase's probes run their attempts side by side, so a phase costs at
 * most (max_retries + 1) deadlines however many nodes are dead. A
 * probe with no attempts left is lost: the query degrades gracefully by
 * merging whatever partial results arrived — padded with the sampling
 * hits when a deep probe was lost — and only returns fewer than k hits
 * when every deep node failed. BrokerStats::degraded_queries counts the
 * queries that lost a probe; one whose faults all recovered is not
 * degraded.
 */

#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "core/distributed_store.hpp"
#include "obs/obs.hpp"
#include "serve/load_report.hpp"
#include "serve/node.hpp"
#include "serve/node_client.hpp"
#include "serve/replica_map.hpp"

namespace hermes {
namespace serve {

/** Hedged-request tuning for straggling sample-phase probes. */
struct HedgeConfig
{
    /** Master switch; off = no probe ever gets a second lane. */
    bool enabled = true;

    /** Probe-latency percentile that arms the hedge (p95: a probe
     *  slower than 95% of its recent peers is a straggler). */
    double quantile = 95.0;

    /** Probe latencies that must be in the window before the trigger
     *  is trusted (cold brokers never hedge). */
    std::size_t min_samples = 32;

    /** Floor on the trigger so microsecond-fast fleets don't hedge
     *  every probe on scheduling jitter. */
    double min_trigger_us = 200.0;
};

/** Broker configuration. */
struct BrokerConfig
{
    /** Per-node queue/batching parameters. Opt into micro-batching by
     *  setting node.batch_window_us > 0: concurrent search() callers
     *  whose sample/deep requests land on the same node within the
     *  window are coalesced into one list-major shard scan. The window
     *  bounds the latency it can add per request, so PR 1 deadlines and
     *  degradation semantics are unchanged (the deadline clock starts at
     *  submit and already covers queue time). */
    NodeConfig node;

    /**
     * Per-node fault-injection overrides (tests/benches): when
     * non-empty, node c uses node_faults[c] instead of node.faults,
     * letting a single cluster of many be failed. Shorter-than-numNodes
     * vectors leave the remaining nodes on node.faults. Replicas built
     * by `replicate` inherit their cluster's override.
     */
    std::vector<FaultInjector> node_faults;

    /**
     * Deadline in milliseconds for each attempt of a probe (sampling and
     * deep search alike), counted from that attempt's submit. An attempt
     * with no answer by then counts as one timeout and is retried or
     * the probe is lost. 0 waits forever (a dead node then hangs the
     * query) and disables hedging.
     */
    double node_deadline_ms = 2000.0;

    /** Bounded resubmits after a timeout or failure (per probe). */
    std::size_t max_retries = 1;

    /**
     * Static replication for the store-backed constructor: (cluster,
     * total replicas) pairs; each listed cluster is served by that many
     * LocalNodeClients over the same immutable shard index. Counts of
     * 0/1 are no-ops. Ignored by the node-list constructor (use
     * replica_map there).
     */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> replicate;

    /**
     * Cluster->node assignment for the node-list constructor. Empty =
     * identity (node i serves cluster i, the pre-replication shape).
     * When set it must be complete() and reference exactly the nodes
     * passed in.
     */
    ReplicaMap replica_map;

    /** Hedged-request policy for sample-phase probes. Only engages for
     *  clusters with >= 2 replicas; an unreplicated probe never gets a
     *  second lane. */
    HedgeConfig hedge;
};

/**
 * Aggregate serving statistics. The counts are this broker's alone,
 * from construction on; the registry series of the same names
 * (`broker.*`) are process totals over every broker.
 */
struct BrokerStats
{
    /** Queries served end-to-end. */
    std::uint64_t queries = 0;

    /** Deep-search requests issued (queries x clusters searched). */
    std::uint64_t deep_requests = 0;

    /** Attempts that missed their deadline (a retry that times out
     *  again counts twice). */
    std::uint64_t timeouts = 0;

    /** Node requests that completed with an exception. */
    std::uint64_t failures = 0;

    /** Queries that lost at least one sample or deep probe (no answer
     *  after every retry, failover and hedge) and were answered from
     *  partial results. A probe that recovered counts in timeouts /
     *  failures but does not degrade its query. */
    std::uint64_t degraded_queries = 0;

    /** Hedged sample probes issued / won by the duplicate / issued but
     *  the primary still won (duplicate work discarded). */
    std::uint64_t hedges_issued = 0;
    std::uint64_t hedges_won = 0;
    std::uint64_t hedges_wasted = 0;

    /**
     * Latency digests sourced from the process-wide obs histograms
     * (`broker.query_latency_us` and friends). Unlike the counts above
     * these aggregate over every broker in the process — with a single
     * broker, which is the deployment shape, they are exactly this
     * broker's. So does the hedge trigger's `broker.sample_probe_us`
     * window: every broker in a process arms hedges off the same one.
     */
    obs::LatencySummary query_latency;   ///< end-to-end search()
    obs::LatencySummary sample_phase;    ///< sampling broadcast + collect
    obs::LatencySummary deep_phase;      ///< deep fan-out + collect
    obs::LatencySummary merge_phase;     ///< final merge/dedupe/truncate

    /** Per-node runtime statistics, in node order (replicas included). */
    std::vector<NodeStats> nodes;

    /** Cluster served by each node in `nodes` (node_clusters[i] is the
     *  cluster of nodes[i]; identity when unreplicated). */
    std::vector<std::uint32_t> node_clusters;
};

/** Distributed hierarchical-search front end. */
class HermesBroker
{
  public:
    /**
     * @param store  Distributed store whose cluster indices the nodes
     *               serve (must outlive the broker).
     * @param config Broker parameters; config.replicate adds extra
     *               in-process replicas over the same shard indices.
     */
    explicit HermesBroker(const core::DistributedStore &store,
                          const BrokerConfig &config = {});

    /**
     * Placement-agnostic constructor: NodeClients assigned to clusters
     * by config.replica_map (empty = one node per cluster, in
     * cluster-id order). This is how an out-of-process fleet is wired —
     * RemoteNodeClients pointing at hermes_shard endpoints — but any
     * mix of local and remote nodes works; scheduling, deadlines,
     * retries and degradation are identical either way.
     *
     * @param hermes_config The store configuration (sampling / deep
     *                      depths, clusters_to_search, ...). Must match
     *                      what the shards were built with for results
     *                      to mean anything.
     */
    HermesBroker(const core::HermesConfig &hermes_config,
                 std::vector<std::unique_ptr<NodeClient>> nodes,
                 const BrokerConfig &config = {});

    ~HermesBroker();

    HermesBroker(const HermesBroker &) = delete;
    HermesBroker &operator=(const HermesBroker &) = delete;

    /**
     * Execute one hierarchical search. Sampling and deep-search requests
     * run concurrently across node workers; the calling thread blocks
     * only on aggregation. Safe to call from many threads at once.
     * Never throws on node faults; see the file-level fault model.
     */
    vecstore::HitList search(vecstore::VecView query, std::size_t k) const;

    /** Like search(), but also reports which clusters were deep-searched. */
    vecstore::HitList search(vecstore::VecView query, std::size_t k,
                             std::vector<std::uint32_t>
                                 &deep_clusters) const;

    /**
     * Attach another replica of @p cluster at runtime (any NodeClient;
     * its shard must be a bit-identical copy of the cluster's index).
     * In-flight queries keep the topology snapshot they started with
     * and see the new replica on their next search.
     */
    void addReplica(std::uint32_t cluster,
                    std::unique_ptr<NodeClient> node);

    /**
     * Act on the live load report: plan extra replicas for hot clusters
     * (ReplicaMap::planFromLoad) and spin up LocalNodeClients over the
     * store's shard indices. Only available on store-backed brokers
     * (the node-list constructor has no shard to clone; returns 0).
     * Returns the number of replicas added.
     */
    std::size_t autoReplicate(const ReplicationPolicy &policy = {});

    /** Replicas currently serving @p cluster. */
    std::size_t replicaCount(std::uint32_t cluster) const;

    /** Snapshot of serving statistics. */
    BrokerStats stats() const;

    /**
     * Fleet-level load snapshot: per-cluster traffic/queue/energy plus
     * skew diagnostics over the deep-request distribution. @p window_s
     * bounds the windowed QPS/latency figures (clamped to the ring).
     * Safe to call concurrently with search().
     */
    LoadReport loadReport(
        std::size_t window_s = obs::kDefaultWindowSeconds) const;

    /** Number of serving nodes (replicas included). */
    std::size_t numNodes() const;

    /** Number of clusters (fixed at construction). */
    std::size_t numClusters() const { return cluster_counters_.size(); }

  private:
    /** One replica of one cluster, as seen by the router. */
    struct ReplicaSlot
    {
        /** Borrowed from nodes_; valid for the broker's lifetime
         *  (nodes are never removed, only added). */
        NodeClient *node = nullptr;

        /** Index into nodes_ / BrokerStats::nodes. */
        std::uint32_t node_index = 0;

        /** This broker's broker.route.<cluster>.<slot> count; points
         *  into route_counters_. */
        obs::OwnedCounter<> *routed = nullptr;
    };

    /** Per-cluster replica slots; copied per query under a shared lock
     *  so addReplica() can grow it concurrently. */
    using Topology = std::vector<std::vector<ReplicaSlot>>;

    /**
     * Power-of-two-choices: with one slot return it outright (no RNG —
     * the unreplicated path stays byte-for-byte deterministic);
     * otherwise sample two distinct slots uniformly and take the
     * shallower queue, ties to the first (itself uniformly random, so
     * idle fleets spread uniformly instead of pinning slot 0).
     */
    std::size_t pickSlot(const std::vector<ReplicaSlot> &slots) const;

    /** Which phase a gather() runs: sample probes count in
     *  node.<c>.sample_requests and feed the hedge trigger's latency
     *  window; deep probes count in node.<c>.deep_requests. */
    enum class Phase { Sample, Deep };

    /** One cluster's request in one phase (defined in broker.cpp). */
    struct Probe;

    /**
     * Run one phase: submit a probe to each of @p clusters in order,
     * routed by pickSlot(), and wait for all of them under the fault
     * model (file comment). One watcher blocks on a single future until
     * the next attempt deadline or hedge time, then sweeps every pending
     * probe. Replicated clusters hedge @p hedge_trigger_us (<= 0: never)
     * after first submit. Returns each probe's hits in @p clusters
     * order; nullopt for a lost probe.
     */
    std::vector<std::optional<vecstore::HitList>>
    gather(Phase phase, const Topology &topology,
           const std::vector<std::uint32_t> &clusters,
           vecstore::VecView query, std::size_t k,
           const index::SearchParams &params,
           double hedge_trigger_us) const;

    /** LocalNodeClient over the store's shard of @p cluster, with the
     *  cluster's fault override (store-backed brokers only). */
    std::unique_ptr<NodeClient> makeLocalNode(std::uint32_t cluster,
                                              std::size_t node_id) const;

    /** Build topology_/node_clusters_ and the per-cluster and route
     *  counters from @p map (constructors). */
    void initTopology(const ReplicaMap &map);

    core::HermesConfig hermes_config_;
    BrokerConfig config_;

    /** Shard source for autoReplicate(); null for node-list brokers. */
    const core::DistributedStore *store_ = nullptr;

    /** All node clients, primaries first (node index = position).
     *  Append-only: replicas are pushed, never removed, so borrowed
     *  NodeClient pointers in topology snapshots stay valid. */
    std::vector<std::unique_ptr<NodeClient>> nodes_;

    /** Cluster -> replica slots; guarded by topology_mutex_ together
     *  with nodes_, node_clusters_ and route_counters_ (append-only
     *  storage, so the slots' routed pointers stay valid in snapshots). */
    Topology topology_;
    std::vector<std::uint32_t> node_clusters_;
    std::deque<obs::OwnedCounter<>> route_counters_;
    mutable std::shared_mutex topology_mutex_;

    /** Cached refs into the process-wide metrics registry (stable).
     *  Query latency carries a rolling window so the live endpoints can
     *  report last-N-seconds percentiles; the per-probe histogram feeds
     *  the hedge trigger. */
    obs::WindowedHistogram &h_query_latency_ =
        obs::Registry::instance().windowedHistogram(
            obs::names::kBrokerQueryLatencyUs);
    obs::Histogram &h_sample_phase_ = obs::Registry::instance().histogram(
        obs::names::kBrokerSamplePhaseUs);
    obs::Histogram &h_deep_phase_ = obs::Registry::instance().histogram(
        obs::names::kBrokerDeepPhaseUs);
    obs::Histogram &h_merge_phase_ = obs::Registry::instance().histogram(
        obs::names::kBrokerMergePhaseUs);
    obs::WindowedHistogram &h_sample_probe_us_ =
        obs::Registry::instance().windowedHistogram(
            obs::names::kBrokerSampleProbeUs);

    /** Per-cluster request accounting (index = cluster id), feeding
     *  the node.<c>.* series; fixed at construction. */
    struct ClusterCounters
    {
        explicit ClusterCounters(std::size_t cluster);

        obs::OwnedCounter<> sample_requests;
        obs::OwnedCounter<> deep_requests;
        obs::OwnedCounter<> hits_returned;
    };
    mutable std::deque<ClusterCounters> cluster_counters_;

    /** Construction time, for uptime/utilization in loadReport(). */
    std::chrono::steady_clock::time_point start_time_ =
        std::chrono::steady_clock::now();

    /** This broker's BrokerStats counts, each also feeding its
     *  broker.* series; the query series is windowed for /load's QPS. */
    mutable obs::OwnedCounter<obs::WindowedCounter> queries_{
        obs::Registry::instance().windowedCounter(obs::names::kBrokerQueries)};
    mutable obs::OwnedCounter<> deep_requests_{
        obs::Registry::instance().counter(obs::names::kBrokerDeepRequests)};
    mutable obs::OwnedCounter<> timeouts_{
        obs::Registry::instance().counter(obs::names::kBrokerTimeouts)};
    mutable obs::OwnedCounter<> failures_{
        obs::Registry::instance().counter(obs::names::kBrokerFailures)};
    mutable obs::OwnedCounter<> degraded_queries_{
        obs::Registry::instance().counter(
            obs::names::kBrokerDegradedQueries)};
    mutable obs::OwnedCounter<> hedges_issued_{
        obs::Registry::instance().counter(obs::names::kBrokerHedgesIssued)};
    mutable obs::OwnedCounter<> hedges_won_{
        obs::Registry::instance().counter(obs::names::kBrokerHedgesWon)};
    mutable obs::OwnedCounter<> hedges_wasted_{
        obs::Registry::instance().counter(obs::names::kBrokerHedgesWasted)};
};

} // namespace serve
} // namespace hermes
