#include "serve/broker.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>

#include "cluster/imbalance.hpp"
#include "core/search_strategy.hpp"
#include "obs/perf.hpp"
#include "sim/hardware.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "vecstore/topk.hpp"

namespace hermes {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Poll granularity of the hedged first-response-wins race. */
constexpr std::chrono::microseconds kHedgePoll{100};

std::chrono::microseconds
microsFromDouble(double us)
{
    return std::chrono::microseconds(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(us)));
}

/** what() of the exception being handled (call inside a catch). */
std::string
currentErrorMessage()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "non-standard exception";
    }
}

} // namespace

HermesBroker::HermesBroker(const core::DistributedStore &store,
                           const BrokerConfig &config)
    : hermes_config_(store.config()), config_(config), store_(&store)
{
    nodes_.reserve(store.numClusters());
    for (std::size_t c = 0; c < store.numClusters(); ++c)
        nodes_.push_back(makeLocalNode(static_cast<std::uint32_t>(c), c));
    initTopology(ReplicaMap::identity(nodes_.size()));

    // Static replication: extra LocalNodeClients over the same immutable
    // shard indices — bit-identical replicas by construction.
    for (const auto &[cluster, total] : config_.replicate) {
        HERMES_ASSERT(cluster < store.numClusters(),
                      "replicate spec names a cluster the store lacks");
        for (std::uint32_t r = 1; r < total; ++r)
            addReplica(cluster, makeLocalNode(cluster, nodes_.size()));
    }
}

HermesBroker::HermesBroker(const core::HermesConfig &hermes_config,
                           std::vector<std::unique_ptr<NodeClient>> nodes,
                           const BrokerConfig &config)
    : hermes_config_(hermes_config), config_(config),
      nodes_(std::move(nodes))
{
    HERMES_ASSERT(!nodes_.empty(), "broker needs at least one node");
    if (config_.replica_map.empty()) {
        initTopology(ReplicaMap::identity(nodes_.size()));
    } else {
        HERMES_ASSERT(config_.replica_map.complete(),
                      "replica map must cover every cluster with "
                      "disjoint nodes");
        HERMES_ASSERT(config_.replica_map.numNodes() == nodes_.size(),
                      "replica map references a different node count "
                      "than was passed in");
        initTopology(config_.replica_map);
    }
}

std::unique_ptr<NodeClient>
HermesBroker::makeLocalNode(std::uint32_t cluster, std::size_t node_id) const
{
    NodeConfig node_config = config_.node;
    if (cluster < config_.node_faults.size())
        node_config.faults = config_.node_faults[cluster];
    node_config.node_id = node_id;
    return std::make_unique<LocalNodeClient>(store_->clusterIndex(cluster),
                                             node_config);
}

HermesBroker::ClusterCounters::ClusterCounters(std::size_t cluster)
    : sample_requests(obs::Registry::instance().counter(
          obs::names::nodeMetric(cluster, obs::names::kNodeSampleRequests))),
      deep_requests(obs::Registry::instance().counter(
          obs::names::nodeMetric(cluster, obs::names::kNodeDeepRequests))),
      hits_returned(obs::Registry::instance().counter(
          obs::names::nodeMetric(cluster, obs::names::kNodeHitsReturned)))
{
}

void
HermesBroker::initTopology(const ReplicaMap &map)
{
    auto &registry = obs::Registry::instance();
    topology_.resize(map.numClusters());
    node_clusters_.assign(nodes_.size(), 0);
    for (std::size_t c = 0; c < map.numClusters(); ++c) {
        cluster_counters_.emplace_back(c);
        const std::vector<std::uint32_t> &nodes = map.replicas(c);
        topology_[c].reserve(nodes.size());
        for (std::size_t slot = 0; slot < nodes.size(); ++slot) {
            std::uint32_t node = nodes[slot];
            topology_[c].push_back(ReplicaSlot{
                nodes_[node].get(), node,
                &route_counters_.emplace_back(
                    registry.counter(obs::names::routeMetric(c, slot)))});
            node_clusters_[node] = static_cast<std::uint32_t>(c);
        }
    }
}

HermesBroker::~HermesBroker() = default;

void
HermesBroker::addReplica(std::uint32_t cluster,
                         std::unique_ptr<NodeClient> node)
{
    auto &registry = obs::Registry::instance();
    std::unique_lock<std::shared_mutex> lock(topology_mutex_);
    HERMES_ASSERT(cluster < topology_.size(),
                  "addReplica: cluster out of range");
    const std::uint32_t node_index =
        static_cast<std::uint32_t>(nodes_.size());
    const std::size_t slot = topology_[cluster].size();
    nodes_.push_back(std::move(node));
    node_clusters_.push_back(cluster);
    topology_[cluster].push_back(ReplicaSlot{
        nodes_.back().get(), node_index,
        &route_counters_.emplace_back(
            registry.counter(obs::names::routeMetric(cluster, slot)))});
    HERMES_INFORM("cluster ", cluster, " now served by ",
                topology_[cluster].size(), " replicas (node ", node_index,
                " attached)");
}

std::size_t
HermesBroker::autoReplicate(const ReplicationPolicy &policy)
{
    if (store_ == nullptr) {
        HERMES_WARN("autoReplicate: no store to clone shards from "
                    "(node-list broker); ignoring");
        return 0;
    }
    const std::vector<ReplicaPlanEntry> plan =
        ReplicaMap::planFromLoad(loadReport(), policy);
    std::size_t added = 0;
    for (const ReplicaPlanEntry &entry : plan) {
        for (std::uint32_t r = 0; r < entry.extras; ++r) {
            addReplica(entry.cluster,
                       makeLocalNode(entry.cluster, numNodes()));
            ++added;
        }
    }
    return added;
}

std::size_t
HermesBroker::replicaCount(std::uint32_t cluster) const
{
    std::shared_lock<std::shared_mutex> lock(topology_mutex_);
    return cluster < topology_.size() ? topology_[cluster].size() : 0;
}

std::size_t
HermesBroker::numNodes() const
{
    std::shared_lock<std::shared_mutex> lock(topology_mutex_);
    return nodes_.size();
}

vecstore::HitList
HermesBroker::search(vecstore::VecView query, std::size_t k) const
{
    std::vector<std::uint32_t> unused;
    return search(query, k, unused);
}

std::size_t
HermesBroker::pickSlot(const std::vector<ReplicaSlot> &slots) const
{
    const std::size_t n = slots.size();
    if (n == 1)
        return 0;
    // Seeded per thread: routing never affects results (replicas are
    // bit-identical), so cross-run determinism is not required here.
    thread_local util::Rng rng(
        0x0b5e55ed5eedULL ^
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::size_t i = static_cast<std::size_t>(rng.uniformInt(n));
    std::size_t j = static_cast<std::size_t>(rng.uniformInt(n - 1));
    if (j >= i)
        ++j;
    const std::size_t qi = slots[i].node->queueDepth();
    const std::size_t qj = slots[j].node->queueDepth();
    // Ties go to i: i is uniformly random, so an idle fleet spreads
    // uniformly instead of pinning the lower-indexed replica.
    return qj < qi ? j : i;
}

HermesBroker::NodeOutcome
HermesBroker::collect(std::future<NodeResponse> future,
                      const std::vector<ReplicaSlot> &slots,
                      std::size_t primary_slot, vecstore::VecView query,
                      std::size_t k, const index::SearchParams &params) const
{
    NodeOutcome out;
    for (std::size_t attempt = 0;; ++attempt) {
        if (config_.node_deadline_ms > 0.0 &&
            future.wait_for(std::chrono::duration<double, std::milli>(
                config_.node_deadline_ms)) != std::future_status::ready) {
            timeouts_.add();
            obs::instantEvent(
                "broker.timeout",
                {{"attempt", std::to_string(attempt + 1), true}});
            HERMES_WARN("node request missed its ",
                        config_.node_deadline_ms, " ms deadline "
                        "(attempt ", attempt + 1, ")");
        } else {
            try {
                out.response = future.get();
                out.ok = true;
                return out;
            } catch (...) {
                failures_.add();
                obs::instantEvent(
                    "broker.failure",
                    {{"attempt", std::to_string(attempt + 1), true}});
                HERMES_WARN("node request failed: ", currentErrorMessage(),
                            " (attempt ", attempt + 1, ")");
            }
        }
        if (attempt >= config_.max_retries)
            return out;
        obs::instantEvent("broker.retry");
        // Retry on the next replica: with R = 1 this is the same node
        // (the pre-replication behaviour); with R > 1 a dead replica's
        // retries drain to its peers.
        const std::size_t next =
            (primary_slot + attempt + 1) % slots.size();
        if (next != primary_slot)
            slots[next].routed->add(1);
        future = slots[next].node->submit(query, k, params);
    }
}

HermesBroker::NodeOutcome
HermesBroker::collectHedged(std::future<NodeResponse> future,
                            const std::vector<ReplicaSlot> &slots,
                            std::size_t primary_slot,
                            Clock::time_point submitted, double trigger_us,
                            vecstore::VecView query, std::size_t k,
                            const index::SearchParams &params) const
{
    struct Lane
    {
        std::future<NodeResponse> future;
        std::size_t slot = 0;
        bool hedge = false;
        bool dead = false;
    };

    NodeOutcome out;
    // Both the deadline and the hedge trigger are anchored at SUBMIT
    // time, not collection time: probes are collected in cluster order,
    // so by the time a later cluster is collected its probe has already
    // aged — a trigger measured from now would systematically under-arm.
    const auto deadline_tp =
        submitted + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            config_.node_deadline_ms));
    const auto hedge_at = submitted + microsFromDouble(trigger_us);

    std::vector<Lane> lanes;
    lanes.reserve(2);
    lanes.push_back(Lane{std::move(future), primary_slot, false, false});
    std::vector<bool> used(slots.size(), false);
    used[primary_slot] = true;

    // Total submit budget: the primary, the hedge, and the same retry
    // allowance the unhedged path gets.
    std::size_t submits = 1;
    const std::size_t max_submits = 2 + config_.max_retries;
    bool hedge_armed = false;

    for (;;) {
        const auto now = Clock::now();

        // Arm the hedge once the primary outlives the trigger: duplicate
        // to the least-loaded unused replica and race the lanes.
        if (!hedge_armed && now >= hedge_at) {
            hedge_armed = true;
            if (submits < max_submits) {
                std::size_t best = slots.size();
                for (std::size_t s = 0; s < slots.size(); ++s) {
                    if (used[s])
                        continue;
                    if (best == slots.size() ||
                        slots[s].node->queueDepth() <
                            slots[best].node->queueDepth())
                        best = s;
                }
                if (best != slots.size()) {
                    slots[best].routed->add(1);
                    lanes.push_back(Lane{
                        slots[best].node->submit(query, k, params), best,
                        true, false});
                    used[best] = true;
                    ++submits;
                    hedges_issued_.add();
                    obs::instantEvent(
                        "broker.hedge",
                        {{"node",
                          std::to_string(slots[best].node_index), true}});
                }
            }
        }

        bool any_live = false;
        bool hedge_pending = std::any_of(
            lanes.begin(), lanes.end(),
            [](const Lane &l) { return l.hedge; });
        for (Lane &lane : lanes) {
            if (lane.dead)
                continue;
            any_live = true;
            auto status = lane.future.wait_for(kHedgePoll);
            if (status != std::future_status::ready)
                continue;
            try {
                out.response = lane.future.get();
                out.ok = true;
                if (lane.hedge)
                    hedges_won_.add();
                else if (hedge_pending)
                    hedges_wasted_.add();
                // The losing lane's future is abandoned here: both node
                // client kinds back it with a std::promise, so the late
                // response is dropped on the floor without blocking and
                // any pooled connection it rode stays healthy.
                return out;
            } catch (...) {
                failures_.add();
                lane.dead = true;
                obs::instantEvent("broker.failure",
                                  {{"hedged", "1", true}});
                HERMES_WARN("probe lane failed: ", currentErrorMessage());
            }
        }

        // Every lane died (exceptions, not stragglers): open a fresh
        // lane on the next replica while the budget lasts. This is
        // failover, not a hedge — there is no race to win.
        if (!any_live) {
            if (submits >= max_submits)
                return out;
            const std::size_t next =
                (primary_slot + submits) % slots.size();
            obs::instantEvent("broker.retry");
            if (next != primary_slot)
                slots[next].routed->add(1);
            lanes.push_back(Lane{slots[next].node->submit(query, k, params),
                                 next, false, false});
            used[next] = true;
            ++submits;
        }

        // Deadline check LAST: a probe that completed before we got to
        // collect it (the deadline is anchored at submit, and earlier
        // clusters' collection may have consumed the budget) must still
        // be returned, never discarded as a timeout.
        if (Clock::now() >= deadline_tp) {
            timeouts_.add();
            obs::instantEvent("broker.timeout",
                              {{"hedged", "1", true}});
            HERMES_WARN("hedged probe missed its ",
                        config_.node_deadline_ms, " ms deadline");
            return out;
        }
    }
}

vecstore::HitList
HermesBroker::search(vecstore::VecView query, std::size_t k,
                     std::vector<std::uint32_t> &deep_clusters) const
{
    const auto &config = hermes_config_;

    // Routing works off a topology snapshot: addReplica() may grow the
    // fleet mid-query, but this query sticks to the replicas it started
    // with. Slots borrow NodeClient pointers that stay valid for the
    // broker's lifetime, so the lock is released before any waiting.
    Topology topology;
    {
        std::shared_lock<std::shared_mutex> lock(topology_mutex_);
        topology = topology_;
    }
    const std::size_t n = topology.size();

    // Hedge trigger for this query: the windowed p95 (configurable) of
    // recent sample-probe latencies, once enough samples exist. The
    // probe latency measured below includes the collect loop's queueing
    // behind earlier probes, so the trigger is biased upward — a hedge
    // fires only for genuine stragglers.
    double hedge_trigger_us = -1.0;
    if (config_.hedge.enabled && config_.node_deadline_ms > 0.0) {
        auto probes =
            h_sample_probe_us_.windowSnapshot(obs::kDefaultWindowSeconds);
        if (probes.count >= config_.hedge.min_samples) {
            hedge_trigger_us =
                std::max(probes.percentile(config_.hedge.quantile),
                         config_.hedge.min_trigger_us);
            if (hedge_trigger_us >= config_.node_deadline_ms * 1000.0)
                hedge_trigger_us = -1.0; // deadline fires first anyway
        }
    }

    // Per-query tracing: sample 1-in-N queries; the context marks this
    // thread (and, via the request's traced flag, the node workers) as
    // recording for the duration of this query.
    obs::TraceContext trace_context(
        obs::TraceRecorder::instance().sampleQuery());
    obs::ScopedSpan query_span("broker.query");
    query_span.arg("k", static_cast<std::uint64_t>(k));
    util::Timer query_timer;

    // Phase 1: broadcast the sampling request (paper §4.2 step 2), each
    // cluster's probe routed to one replica by power-of-two-choices.
    util::Timer phase_timer;
    std::optional<obs::ScopedSpan> sample_span;
    sample_span.emplace("broker.sample");
    // Hardware-counter attribution for the phase (no-op unless --perf).
    std::optional<obs::PerfScope> sample_perf;
    sample_perf.emplace(obs::PerfPhase::Sample);
    index::SearchParams sample_params;
    sample_params.nprobe = config.sample_nprobe;
    std::vector<std::future<NodeResponse>> sample_futures;
    std::vector<std::size_t> sample_slots(n, 0);
    std::vector<Clock::time_point> sample_submitted(n);
    sample_futures.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
        const std::size_t slot = pickSlot(topology[c]);
        sample_slots[c] = slot;
        topology[c][slot].routed->add(1);
        cluster_counters_[c].sample_requests.add(1);
        sample_submitted[c] = Clock::now();
        sample_futures.push_back(topology[c][slot].node->submit(
            query, config.sample_k, sample_params));
    }

    // Collect the sampling hits. A cluster whose probe was lost
    // (timeout/failure after retry) stays nullopt, so the plan never
    // picks it for deep search this query.
    std::vector<std::optional<vecstore::HitList>> sampled(n);
    std::size_t sampled_ok = 0;
    for (std::size_t c = 0; c < n; ++c) {
        const bool hedgeable =
            hedge_trigger_us > 0.0 && topology[c].size() > 1;
        auto outcome = hedgeable
            ? collectHedged(std::move(sample_futures[c]), topology[c],
                            sample_slots[c], sample_submitted[c],
                            hedge_trigger_us, query, config.sample_k,
                            sample_params)
            : collect(std::move(sample_futures[c]), topology[c],
                      sample_slots[c], query, config.sample_k,
                      sample_params);
        if (!outcome.ok)
            continue;
        h_sample_probe_us_.observe(
            std::chrono::duration<double, std::micro>(
                Clock::now() - sample_submitted[c]).count());
        cluster_counters_[c].hits_returned.add(
            outcome.response.hits.size());
        sampled[c] = std::move(outcome.response.hits);
        ++sampled_ok;
    }
    // Rank, fall back and prune exactly as core::HermesSearch does.
    deep_clusters = core::chooseDeepClusters(
        sampled, config.clusters_to_search, config.adaptive_epsilon);
    sample_span->arg("clusters_sampled",
                     static_cast<std::uint64_t>(sampled_ok));
    sample_perf.reset();
    sample_span.reset();
    h_sample_phase_.observe(phase_timer.elapsedMicros());

    // Phase 2: deep-search the chosen clusters.
    const std::size_t deep = deep_clusters.size();
    phase_timer.reset();
    std::optional<obs::ScopedSpan> deep_span;
    deep_span.emplace("broker.deep");
    std::optional<obs::PerfScope> deep_perf;
    deep_perf.emplace(obs::PerfPhase::Deep);
    deep_span->arg("clusters", static_cast<std::uint64_t>(deep));
    index::SearchParams deep_params;
    deep_params.nprobe = config.deep_nprobe;
    std::vector<std::future<NodeResponse>> deep_futures;
    std::vector<std::size_t> deep_slots;
    for (std::uint32_t c : deep_clusters) {
        const std::size_t slot = pickSlot(topology[c]);
        deep_slots.push_back(slot);
        topology[c][slot].routed->add(1);
        cluster_counters_[c].deep_requests.add(1);
        deep_futures.push_back(
            topology[c][slot].node->submit(query, k, deep_params));
    }

    std::vector<vecstore::HitList> partials;
    partials.reserve(deep_futures.size());
    std::size_t deep_ok = 0;
    for (std::size_t i = 0; i < deep_futures.size(); ++i) {
        auto outcome =
            collect(std::move(deep_futures[i]),
                    topology[deep_clusters[i]], deep_slots[i], query, k,
                    deep_params);
        if (outcome.ok) {
            cluster_counters_[deep_clusters[i]].hits_returned.add(
                outcome.response.hits.size());
            partials.push_back(std::move(outcome.response.hits));
            ++deep_ok;
        }
    }
    deep_perf.reset();
    deep_span.reset();
    h_deep_phase_.observe(phase_timer.elapsedMicros());

    // Graceful degradation: when a deep node was lost, backfill with the
    // sampling hits already in hand so the merged answer keeps as many of
    // the top-k as possible. Fewer than k hits can only happen when every
    // deep node failed and sampling yielded too little. Fault-free
    // queries never take this path, preserving bit-parity with
    // core::HermesSearch.
    if (deep_ok < deep) {
        for (auto &hits : sampled) {
            if (hits)
                partials.push_back(std::move(*hits));
        }
    }
    // Degraded means some probe's outcome was lost. A probe that
    // recovered on retry, failover or hedge still counts in timeouts /
    // failures, but its answer is whole.
    const bool degraded = sampled_ok < n || deep_ok < deep;
    if (degraded) {
        HERMES_DEBUG("degraded query: lost ", n - sampled_ok, " of ", n,
                     " sample probes and ", deep - deep_ok, " of ", deep,
                     " deep probes");
        degraded_queries_.add();
    }
    queries_.add();
    deep_requests_.add(deep);

    phase_timer.reset();
    vecstore::HitList merged;
    {
        obs::ScopedSpan merge_span("broker.merge");
        obs::PerfScope merge_perf(obs::PerfPhase::Merge);
        merge_span.arg("partials",
                       static_cast<std::uint64_t>(partials.size()));
        merged = vecstore::mergeHitLists(partials, k);
    }
    h_merge_phase_.observe(phase_timer.elapsedMicros());
    query_span.arg("deep_clusters",
                   static_cast<std::uint64_t>(deep_clusters.size()));
    query_span.arg("degraded", static_cast<std::uint64_t>(degraded));
    h_query_latency_.observe(query_timer.elapsedMicros());
    return merged;
}

BrokerStats
HermesBroker::stats() const
{
    BrokerStats stats;
    stats.queries = queries_.value();
    stats.deep_requests = deep_requests_.value();
    stats.timeouts = timeouts_.value();
    stats.failures = failures_.value();
    stats.degraded_queries = degraded_queries_.value();
    stats.hedges_issued = hedges_issued_.value();
    stats.hedges_won = hedges_won_.value();
    stats.hedges_wasted = hedges_wasted_.value();
    stats.query_latency =
        obs::LatencySummary::from(h_query_latency_.cumulative().snapshot());
    stats.sample_phase =
        obs::LatencySummary::from(h_sample_phase_.snapshot());
    stats.deep_phase =
        obs::LatencySummary::from(h_deep_phase_.snapshot());
    stats.merge_phase =
        obs::LatencySummary::from(h_merge_phase_.snapshot());
    {
        std::shared_lock<std::shared_mutex> lock(topology_mutex_);
        stats.nodes.reserve(nodes_.size());
        for (const auto &node : nodes_)
            stats.nodes.push_back(node->stats());
        stats.node_clusters = node_clusters_;
    }
    return stats;
}

LoadReport
HermesBroker::loadReport(std::size_t window_s) const
{
    LoadReport report;
    report.uptime_seconds = std::chrono::duration<double>(
        Clock::now() - start_time_).count();
    report.queries = queries_.value();
    report.timeouts = timeouts_.value();
    report.failures = failures_.value();
    report.degraded_queries = degraded_queries_.value();
    report.hedges_issued = hedges_issued_.value();
    report.hedges_won = hedges_won_.value();
    report.hedges_wasted = hedges_wasted_.value();

    report.window_seconds = static_cast<double>(window_s);
    report.window_qps = queries_.series().ratePerSecond(window_s);
    auto window = h_query_latency_.windowSnapshot(window_s);
    report.window_p50_us = window.percentile(50.0);
    report.window_p99_us = window.percentile(99.0);
    auto cumulative = h_query_latency_.cumulative().snapshot();
    report.cumulative_p50_us = cumulative.percentile(50.0);
    report.cumulative_p99_us = cumulative.percentile(99.0);

    // Idle power runs whether or not requests arrive; attribute each
    // node's static share here from wall time, on top of the dynamic
    // energy the worker accrued per busy interval (Fig 18 shape: joules
    // per query fall as load rises because the idle floor amortizes).
    // A replicated cluster pays the idle floor once per replica.
    const sim::CpuProfile &cpu = sim::cpuProfile(kEnergyCpuModel);
    const double idle_joules = report.uptime_seconds * cpu.idle_watts /
        static_cast<double>(cpu.cores);

    Topology topology;
    {
        std::shared_lock<std::shared_mutex> lock(topology_mutex_);
        topology = topology_;
    }

    report.clusters.reserve(topology.size());
    std::vector<std::size_t> deep_counts;
    deep_counts.reserve(topology.size());
    for (std::size_t c = 0; c < topology.size(); ++c) {
        const std::vector<ReplicaSlot> &slots = topology[c];
        ClusterLoad load;
        load.cluster = static_cast<std::uint32_t>(c);
        load.shard_vectors = slots.front().node->shardSize();
        load.sample_requests = cluster_counters_[c].sample_requests.value();
        load.deep_requests = cluster_counters_[c].deep_requests.value();
        load.hits_returned = cluster_counters_[c].hits_returned.value();
        load.replicas = static_cast<std::uint32_t>(slots.size());
        load.replica_routes.reserve(slots.size());
        for (const ReplicaSlot &slot : slots) {
            NodeStats node_stats = slot.node->stats();
            load.requests += node_stats.requests;
            load.batches += node_stats.batches;
            load.queue_depth += slot.node->queueDepth();
            load.busy_seconds += node_stats.busy_seconds;
            load.energy_joules += node_stats.energy_joules + idle_joules;
            load.replica_routes.push_back(slot.routed->value());
        }
        load.batch_occupancy = load.batches > 0
            ? static_cast<double>(load.requests) /
                static_cast<double>(load.batches)
            : 0.0;
        // Utilization of the cluster's replica set: busy time over the
        // replicas' combined capacity, so 1.0 still means saturated.
        load.utilization = report.uptime_seconds > 0.0
            ? load.busy_seconds /
                (report.uptime_seconds * static_cast<double>(slots.size()))
            : 0.0;
        report.total_energy_joules += load.energy_joules;
        deep_counts.push_back(
            static_cast<std::size_t>(load.deep_requests));
        report.clusters.push_back(std::move(load));
    }

    if (!deep_counts.empty()) {
        report.deep_imbalance = cluster::imbalance(deep_counts);
        double sum = 0.0;
        std::size_t max_count = 0;
        for (std::size_t n : deep_counts) {
            sum += static_cast<double>(n);
            max_count = std::max(max_count, n);
        }
        double mean = sum / static_cast<double>(deep_counts.size());
        report.max_mean_ratio =
            mean > 0.0 ? static_cast<double>(max_count) / mean : 0.0;
        std::vector<double> as_double(deep_counts.begin(),
                                      deep_counts.end());
        report.zipf_exponent = fitZipfExponent(std::move(as_double));
    }

    // Measured energy beside the model: whole-package RAPL joules since
    // the sampler started (invalid — and every field zero — unless
    // --perf is on and powercap is readable). The ratio is the live
    // falsifiability check on the Fig 18 model; on shared hardware it
    // includes co-tenant work, so treat it as an upper bound.
    obs::RaplSample rapl = obs::raplSample();
    if (rapl.valid) {
        report.measured_energy_valid = true;
        report.measured_package_joules = rapl.package_joules;
        report.measured_dram_joules = rapl.dram_joules;
        if (report.total_energy_joules > 0.0 &&
            rapl.package_joules > 0.0) {
            report.energy_model_error_ratio =
                rapl.package_joules / report.total_energy_joules;
            obs::Registry::instance()
                .gauge(obs::names::kEnergyModelErrorRatio)
                .set(report.energy_model_error_ratio);
        }
    }
    return report;
}

} // namespace serve
} // namespace hermes
