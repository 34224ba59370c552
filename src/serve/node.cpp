#include "serve/node.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/perf.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace hermes {
namespace serve {

namespace {

std::exception_ptr
shuttingDown()
{
    return std::make_exception_ptr(
        std::runtime_error("request queue shutting down"));
}

/** True when @p a and @p b can share one searchBatch call / RPC. */
bool
sameGroup(const NodeRequest &a, const NodeRequest &b)
{
    return a.k == b.k && a.params == b.params &&
        a.query.size() == b.query.size();
}

} // namespace

obs::TraceContextSnapshot
firstTraced(const std::vector<NodeRequest> &group)
{
    for (const auto &request : group) {
        if (request.trace.active)
            return request.trace;
    }
    return {};
}

std::future<NodeResponse>
RequestQueue::push(vecstore::VecView query, std::size_t k,
                   const index::SearchParams &params)
{
    NodeRequest request;
    request.query.assign(query.begin(), query.end());
    request.k = k;
    request.params = params;
    request.enqueued = std::chrono::steady_clock::now();
    request.trace = obs::currentTraceContext();
    auto future = request.promise.get_future();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (closed_) {
            request.promise.set_exception(shuttingDown());
            return future;
        }
        queue_.push_back(std::move(request));
    }
    cv_.notify_one();
    return future;
}

std::vector<NodeRequest>
RequestQueue::popGroup(std::size_t max, double window_us)
{
    const auto window =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::micro>(window_us));
    auto full = [&] { // max requests compatible with the oldest queued?
        std::size_t compatible = 0;
        for (const auto &request : queue_)
            compatible += sameGroup(request, queue_.front()) ? 1 : 0;
        return compatible >= max;
    };
    std::unique_lock<std::mutex> lock(mutex_);
    do {
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (window_us > 0.0 && !closed_) {
            // Micro-batching: hold the pop open until max compatible
            // requests are waiting or the oldest one has aged past the
            // window, bounding its added latency to the window.
            cv_.wait_until(lock, queue_.front().enqueued + window, [&] {
                return closed_ || queue_.empty() || full();
            });
        }
        if (closed_)
            return {};
    } while (queue_.empty()); // another worker took it: wait afresh
    std::vector<NodeRequest> group;
    for (auto it = queue_.begin(); it != queue_.end() && group.size() < max;) {
        if (group.empty() || sameGroup(*it, group.front())) {
            group.push_back(std::move(*it));
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
    return group;
}

std::size_t
RequestQueue::depth() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return queue_.size();
}

void
RequestQueue::close()
{
    std::deque<NodeRequest> abandoned;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        closed_ = true;
        abandoned.swap(queue_);
    }
    cv_.notify_all();
    for (auto &request : abandoned)
        request.promise.set_exception(shuttingDown());
}

RetrievalNode::RetrievalNode(const index::AnnIndex &shard,
                             const NodeConfig &config)
    : shard_(shard), config_(config), fault_rng_(config.faults.seed)
{
    HERMES_ASSERT(config_.max_batch >= 1, "node needs max_batch >= 1");
    HERMES_ASSERT(shard_.isTrained(), "node shard must be trained");
    worker_ = std::thread([this] { workerLoop(); });
}

RetrievalNode::~RetrievalNode()
{
    queue_.close();
    worker_.join();
    // Parked promises of dropped requests die here; any caller still
    // holding such a future sees a broken_promise error, not a hang.
}

std::future<NodeResponse>
RetrievalNode::submit(vecstore::VecView query, std::size_t k,
                      const index::SearchParams &params)
{
    HERMES_ASSERT(query.size() == shard_.dim(),
                  "node: query dim mismatch");
    return queue_.push(query, k, params);
}

void
RetrievalNode::workerLoop()
{
    const FaultInjector &faults = config_.faults;
    auto &registry = obs::Registry::instance();
    obs::Histogram &queue_wait =
        registry.histogram(obs::names::kNodeQueueWaitUs);
    obs::Histogram &batch_exec =
        registry.histogram(obs::names::kNodeBatchExecUs);
    obs::Gauge &queue_depth_gauge = registry.gauge(obs::names::nodeMetric(
        config_.node_id, obs::names::kNodeQueueDepth));
    obs::Gauge &energy_gauge = registry.gauge(obs::names::nodeMetric(
        config_.node_id, obs::names::kNodeEnergyJoules));
    obs::Histogram &occupancy = registry.histogram(obs::names::nodeMetric(
        config_.node_id, obs::names::kNodeBatchOccupancy));

    // Per-core dynamic power of the modeled CPU: what one busy worker
    // core adds on top of the package idle floor. Idle/static energy is
    // attributed from wall time at LoadReport level, not here.
    const sim::CpuProfile &cpu = sim::cpuProfile(kEnergyCpuModel);
    const double dynamic_watts_per_core =
        (cpu.tdp_watts - cpu.idle_watts) / static_cast<double>(cpu.cores);

    for (;;) {
        std::vector<NodeRequest> group =
            queue_.popGroup(config_.max_batch, config_.batch_window_us);
        if (group.empty())
            return; // closed
        queue_depth_gauge.set(static_cast<double>(queue_.depth()));
        occupancy.observe(static_cast<double>(group.size()));
        HERMES_DEBUG("node ", config_.node_id, ": drained batch of ",
                     group.size());

        // Queue wait per request: submit() to drain, the "time in line"
        // half of node latency (batch execution below is the other half).
        auto drained = std::chrono::steady_clock::now();
        for (const auto &request : group) {
            queue_wait.observe(
                std::chrono::duration<double, std::micro>(
                    drained - request.enqueued).count());
            obs::TraceRecorder::instance().addSpan(
                "node.queue_wait", request.enqueued, drained,
                {{"cluster", std::to_string(config_.node_id), true}},
                request.trace);
        }

        util::Timer timer;
        std::uint64_t scanned = 0;
        std::uint64_t hits = 0;
        std::uint64_t failures = 0;
        std::uint64_t dropped = 0;
        // Failed after the stats update below.
        std::vector<std::promise<NodeResponse>> injected;

        // Fault pre-pass in pop order: the injected-fault stream is
        // consumed one roll per request, so the same seed and the same
        // pops produce the same fail/drop/delay decisions. Survivors
        // stay in the group, in order.
        if (faults.enabled()) {
            std::vector<NodeRequest> survivors;
            for (auto &request : group) {
                double roll = fault_rng_.uniform();
                if (roll < faults.fail_probability) {
                    injected.push_back(std::move(request.promise));
                    continue;
                }
                if (roll < faults.fail_probability +
                               faults.drop_probability) {
                    dropped_.push_back(std::move(request.promise));
                    ++dropped;
                    continue;
                }
                if (roll < faults.fail_probability +
                               faults.drop_probability +
                               faults.delay_probability &&
                    faults.delay_ms > 0.0) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(
                            faults.delay_ms));
                }
                survivors.push_back(std::move(request));
            }
            group.swap(survivors);
            failures += injected.size();
        }

        // Per-survivor outcome: a response, or the exception to hand on.
        std::vector<NodeResponse> responses(group.size());
        std::vector<std::exception_ptr> errors(group.size());

        // Single-request execution (also the fallback if a batched group
        // throws): identical spans and error handling to the pre-batched
        // serving path.
        auto runSingle = [&](std::size_t i) {
            auto &request = group[i];
            obs::TraceContext trace_context(request.trace);
            obs::ScopedSpan span("node.search");
            span.arg("cluster",
                     static_cast<std::uint64_t>(config_.node_id));
            span.arg("k", static_cast<std::uint64_t>(request.k));
            try {
                responses[i].hits = shard_.search(
                    vecstore::VecView(request.query.data(),
                                      request.query.size()),
                    request.k, request.params, &responses[i].stats);
                scanned += responses[i].stats.vectors_scanned;
                hits += responses[i].hits.size();
                span.arg("vectors_scanned",
                         responses[i].stats.vectors_scanned);
            } catch (...) {
                // A failing shard must never leave a broken future or
                // kill the worker: hand the exception to the caller.
                errors[i] = std::current_exception();
                ++failures;
            }
        };

        // Run the whole group through one list-major searchBatch; false
        // when it throws, so the caller retries member by member.
        auto runBatch = [&] {
            vecstore::Matrix queries(shard_.dim());
            queries.reserveRows(group.size());
            for (const auto &request : group) {
                queries.append(vecstore::VecView(request.query.data(),
                                                 request.query.size()));
            }
            std::vector<index::SearchStats> per_stats;
            std::vector<vecstore::HitList> batch_hits;
            auto exec_start = std::chrono::steady_clock::now();
            {
                // One batch-level span; per-request node.search child
                // spans are back-filled below so traces keep one
                // node.search per request either way.
                obs::TraceContext trace_context(firstTraced(group));
                obs::ScopedSpan span("node.search_batch");
                span.arg("cluster",
                         static_cast<std::uint64_t>(config_.node_id));
                span.arg("requests",
                         static_cast<std::uint64_t>(group.size()));
                try {
                    batch_hits = shard_.searchBatch(
                        queries, group.front().k, group.front().params,
                        &per_stats);
                } catch (...) {
                    return false;
                }
            }
            auto exec_end = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < group.size(); ++i) {
                responses[i].hits = std::move(batch_hits[i]);
                responses[i].stats = per_stats[i];
                scanned += responses[i].stats.vectors_scanned;
                hits += responses[i].hits.size();
                obs::TraceRecorder::instance().addSpan(
                    "node.search", exec_start, exec_end,
                    {{"cluster", std::to_string(config_.node_id), true},
                     {"k", std::to_string(group[i].k), true},
                     {"vectors_scanned",
                      std::to_string(responses[i].stats.vectors_scanned),
                      true}},
                    group[i].trace);
            }
            return true;
        };

        {
            // Hardware-counter attribution for the shard scan phase —
            // the whole execution of this group (no-op unless --perf).
            obs::PerfScope scan_perf(obs::PerfPhase::Scan);
            if (group.size() == 1) {
                runSingle(0);
            } else if (group.size() > 1 && !runBatch()) {
                // The batch faulted as a unit: retry requests one at a
                // time so a single poisoned query only fails itself.
                for (std::size_t i = 0; i < group.size(); ++i)
                    runSingle(i);
            }
        }
        double elapsed = timer.elapsedSeconds();
        batch_exec.observe(elapsed * 1e6);
        double joules = elapsed * dynamic_watts_per_core;
        if (joules > 0.0)
            energy_gauge.add(joules);

        // Record statistics before fulfilling promises so a caller that
        // observes its response also observes the stats that produced it.
        {
            std::unique_lock<std::mutex> lock(stats_mutex_);
            stats_.requests += group.size() + injected.size() + dropped;
            stats_.batches += 1;
            stats_.busy_seconds += elapsed;
            stats_.vectors_scanned += scanned;
            stats_.failures += failures;
            stats_.dropped += dropped;
            stats_.hits_returned += hits;
            stats_.energy_joules += joules;
        }
        for (std::size_t i = 0; i < group.size(); ++i) {
            if (errors[i])
                group[i].promise.set_exception(errors[i]);
            else
                group[i].promise.set_value(std::move(responses[i]));
        }
        for (auto &promise : injected) {
            promise.set_exception(std::make_exception_ptr(
                std::runtime_error("injected node fault")));
        }
    }
}

NodeStats
RetrievalNode::stats() const
{
    std::unique_lock<std::mutex> lock(stats_mutex_);
    return stats_;
}

} // namespace serve
} // namespace hermes
