#include "serve/broker.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
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

/** Up to max_retries + 1 attempts; each races at most two lanes, the
 *  attempt's own replica and (once per sample probe) a hedge. */
struct HermesBroker::Probe
{
    const std::vector<ReplicaSlot> *slots = nullptr;
    std::size_t primary = 0; ///< first attempt's slot
    std::size_t attempt = 0; ///< retry n goes to slot primary + n
    Clock::time_point submitted; ///< first submit, for probe latency
    Clock::time_point deadline = Clock::time_point::max(); ///< attempt's
    Clock::time_point hedge_at = Clock::time_point::max(); ///< max: armed
    bool hedged = false; ///< a hedge lane was issued
    bool done = false; ///< answered or lost

    /** [0] the attempt's replica, [1] the hedge. A lane is live while
     *  its future is valid; get() consumes it, answer or throw. */
    std::future<NodeResponse> lanes[2];
};

std::vector<std::optional<vecstore::HitList>>
HermesBroker::gather(Phase phase, const Topology &topology,
                     const std::vector<std::uint32_t> &clusters,
                     vecstore::VecView query, std::size_t k,
                     const index::SearchParams &params,
                     double hedge_trigger_us) const
{
    const double deadline_ms = config_.node_deadline_ms;
    const auto budget = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(deadline_ms));
    const auto deadlineFrom = [&](Clock::time_point submitted) {
        return deadline_ms > 0.0 ? submitted + budget
                                 : Clock::time_point::max();
    };

    std::vector<Probe> probes(clusters.size());
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        const std::uint32_t c = clusters[i];
        Probe &probe = probes[i];
        probe.slots = &topology[c];
        probe.primary = pickSlot(topology[c]);
        topology[c][probe.primary].routed->add(1);
        (phase == Phase::Sample ? cluster_counters_[c].sample_requests
                                : cluster_counters_[c].deep_requests)
            .add(1);
        probe.submitted = Clock::now();
        probe.deadline = deadlineFrom(probe.submitted);
        if (hedge_trigger_us > 0.0 && topology[c].size() > 1)
            probe.hedge_at = probe.submitted +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(
                        hedge_trigger_us));
        probe.lanes[0] =
            topology[c][probe.primary].node->submit(query, k, params);
    }

    std::vector<std::optional<vecstore::HitList>> hits(clusters.size());
    // Bring probe i up to `now`: take an answer if a lane has one, end
    // the attempt if every lane threw or its deadline passed (retry, or
    // lose the probe), else arm the hedge once it is due. Answers come
    // first, so one that arrived in time is never counted as a timeout.
    const auto advance = [&](std::size_t i, Clock::time_point now) {
        Probe &probe = probes[i];
        const std::vector<ReplicaSlot> &slots = *probe.slots;
        const std::size_t attempt = probe.attempt + 1;
        for (std::size_t lane = 0; lane < 2; ++lane) {
            std::future<NodeResponse> &future = probe.lanes[lane];
            if (!future.valid() ||
                future.wait_for(Clock::duration::zero()) !=
                    std::future_status::ready)
                continue;
            try {
                NodeResponse response = future.get();
                if (lane == 1)
                    hedges_won_.add();
                else if (probe.hedged)
                    hedges_wasted_.add();
                if (phase == Phase::Sample)
                    h_sample_probe_us_.observe(
                        std::chrono::duration<double, std::micro>(
                            Clock::now() - probe.submitted).count());
                cluster_counters_[clusters[i]].hits_returned.add(
                    response.hits.size());
                hits[i] = std::move(response.hits);
                // The other lane's future is abandoned: both node client
                // kinds back it with a std::promise, so the late response
                // is dropped on the floor without blocking and any pooled
                // connection it rode stays healthy.
                probe.done = true;
                return;
            } catch (...) {
                failures_.add();
                obs::instantEvent("broker.failure",
                                  {{"attempt", std::to_string(attempt),
                                    true}});
                HERMES_WARN("node request failed: ", currentErrorMessage(),
                            " (attempt ", attempt, ")");
            }
        }

        const bool all_threw =
            !probe.lanes[0].valid() && !probe.lanes[1].valid();
        if (all_threw || now >= probe.deadline) {
            if (!all_threw) {
                timeouts_.add();
                obs::instantEvent("broker.timeout",
                                  {{"attempt", std::to_string(attempt),
                                    true}});
                HERMES_WARN("node request missed its ", deadline_ms,
                            " ms deadline (attempt ", attempt, ")");
            }
            if (probe.attempt >= config_.max_retries) {
                probe.done = true;
                return;
            }
            ++probe.attempt;
            obs::instantEvent("broker.retry");
            // Retry on the next replica: with R = 1 this is the same
            // node; with R > 1 a dead replica's retries drain to its
            // peers.
            const std::size_t next =
                (probe.primary + probe.attempt) % slots.size();
            if (next != probe.primary)
                slots[next].routed->add(1);
            probe.lanes[1] = {};
            probe.deadline = deadlineFrom(Clock::now());
            probe.lanes[0] = slots[next].node->submit(query, k, params);
            return;
        }

        if (now < probe.hedge_at)
            return;
        // Hedge to the least-loaded replica no attempt has used yet
        // (attempts took slots primary .. primary + attempt).
        probe.hedge_at = Clock::time_point::max();
        std::size_t best = slots.size();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if ((s + slots.size() - probe.primary) % slots.size() <=
                probe.attempt)
                continue;
            if (best == slots.size() ||
                slots[s].node->queueDepth() <
                    slots[best].node->queueDepth())
                best = s;
        }
        if (best == slots.size())
            return;
        slots[best].routed->add(1);
        probe.lanes[1] = slots[best].node->submit(query, k, params);
        probe.hedged = true;
        hedges_issued_.add();
        obs::instantEvent(
            "broker.hedge",
            {{"node", std::to_string(slots[best].node_index), true}});
    };

    // One watcher: block on the first pending probe's live lane until the
    // next due event, then sweep every pending probe.
    for (;;) {
        const Clock::time_point now = Clock::now();
        std::future<NodeResponse> *watch = nullptr;
        Clock::time_point due = Clock::time_point::max();
        bool racing = false;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            Probe &probe = probes[i];
            if (!probe.done)
                advance(i, now);
            if (probe.done)
                continue;
            if (watch == nullptr)
                watch = probe.lanes[0].valid() ? &probe.lanes[0]
                                               : &probe.lanes[1];
            racing = racing ||
                (probe.lanes[0].valid() && probe.lanes[1].valid());
            due = std::min({due, probe.deadline, probe.hedge_at});
        }
        if (watch == nullptr)
            return hits;
        // Two live lanes may answer in either order, and one future can
        // only watch one of them: poll while any probe races.
        if (racing)
            due = std::min(due, Clock::now() + kHedgePoll);
        if (due == Clock::time_point::max())
            watch->wait();
        else
            watch->wait_until(due);
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
    // recent sample-probe latencies, once enough samples exist. A probe's
    // latency is taken when the gather's sweep notices its answer, which
    // can trail the answer while the watcher blocks on an earlier probe,
    // so the trigger is biased upward — a hedge fires only for genuine
    // stragglers.
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
    // cluster's probe routed to one replica by power-of-two-choices. A
    // cluster whose probe was lost stays nullopt, so the plan never picks
    // it for deep search this query.
    util::Timer phase_timer;
    std::vector<std::optional<vecstore::HitList>> sampled;
    std::size_t sampled_ok = 0;
    {
        obs::ScopedSpan sample_span("broker.sample");
        // Hardware-counter attribution for the phase (no-op unless --perf).
        obs::PerfScope sample_perf(obs::PerfPhase::Sample);
        index::SearchParams sample_params;
        sample_params.nprobe = config.sample_nprobe;
        std::vector<std::uint32_t> all_clusters(n);
        std::iota(all_clusters.begin(), all_clusters.end(), 0u);
        sampled = gather(Phase::Sample, topology, all_clusters, query,
                         config.sample_k, sample_params, hedge_trigger_us);
        sampled_ok = static_cast<std::size_t>(std::count_if(
            sampled.begin(), sampled.end(),
            [](const auto &hits) { return hits.has_value(); }));
        // Rank, fall back and prune exactly as core::HermesSearch does.
        deep_clusters = core::chooseDeepClusters(
            sampled, config.clusters_to_search, config.adaptive_epsilon);
        sample_span.arg("clusters_sampled",
                        static_cast<std::uint64_t>(sampled_ok));
    }
    h_sample_phase_.observe(phase_timer.elapsedMicros());

    // Phase 2: deep-search the chosen clusters.
    const std::size_t deep = deep_clusters.size();
    phase_timer.reset();
    std::vector<vecstore::HitList> partials;
    {
        obs::ScopedSpan deep_span("broker.deep");
        obs::PerfScope deep_perf(obs::PerfPhase::Deep);
        deep_span.arg("clusters", static_cast<std::uint64_t>(deep));
        index::SearchParams deep_params;
        deep_params.nprobe = config.deep_nprobe;
        partials.reserve(deep);
        for (auto &hits : gather(Phase::Deep, topology, deep_clusters,
                                 query, k, deep_params, -1.0)) {
            if (hits)
                partials.push_back(std::move(*hits));
        }
    }
    const std::size_t deep_ok = partials.size();
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
