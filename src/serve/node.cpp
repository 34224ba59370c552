#include "serve/node.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/perf.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace hermes {
namespace serve {

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
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
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
    Request request;
    request.query.assign(query.begin(), query.end());
    request.k = k;
    request.params = params;
    request.enqueued = std::chrono::steady_clock::now();
    request.trace = obs::currentTraceContext();
    auto future = request.promise.get_future();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        HERMES_ASSERT(!stopping_, "submit to a stopping node");
        queue_.push_back(std::move(request));
    }
    cv_.notify_one();
    return future;
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
        std::vector<Request> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty() && stopping_)
                return;
            if (config_.batch_window_us > 0.0 && !stopping_ &&
                queue_.size() < config_.max_batch) {
                // Micro-batching: hold the drain open until max_batch
                // requests are waiting or the oldest one has aged past
                // the window, bounding its added latency to the window.
                auto deadline =
                    queue_.front().enqueued +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::micro>(
                            config_.batch_window_us));
                cv_.wait_until(lock, deadline, [this] {
                    return stopping_ ||
                           queue_.size() >= config_.max_batch;
                });
            }
            while (!queue_.empty() && batch.size() < config_.max_batch) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            queue_depth_gauge.set(static_cast<double>(queue_.size()));
        }
        occupancy.observe(static_cast<double>(batch.size()));
        HERMES_DEBUG("node ", config_.node_id, ": drained batch of ",
                     batch.size());

        // Queue wait per request: submit() to drain, the "time in line"
        // half of node latency (batch execution below is the other half).
        auto drained = std::chrono::steady_clock::now();
        for (const auto &request : batch) {
            queue_wait.observe(
                std::chrono::duration<double, std::micro>(
                    drained - request.enqueued).count());
            obs::TraceRecorder::instance().addSpan(
                "node.queue_wait", request.enqueued, drained,
                {{"cluster", std::to_string(config_.node_id), true}},
                request.trace);
        }

        // Per-request outcome, computed before any promise is fulfilled.
        enum class Outcome { Ok, Failed, Dropped };
        util::Timer timer;
        std::uint64_t scanned = 0;
        std::uint64_t hits = 0;
        std::uint64_t failures = 0;
        std::uint64_t dropped = 0;
        std::vector<NodeResponse> responses(batch.size());
        std::vector<std::exception_ptr> errors(batch.size());
        std::vector<Outcome> outcomes(batch.size(), Outcome::Ok);

        // Fault pre-pass in drain order: the injected-fault stream must
        // be consumed one roll per request in arrival order, so the same
        // seed produces the same fail/drop/delay decisions regardless of
        // how the surviving requests are grouped for execution below.
        if (faults.enabled()) {
            for (std::size_t i = 0; i < batch.size(); ++i) {
                double roll = fault_rng_.uniform();
                if (roll < faults.fail_probability) {
                    outcomes[i] = Outcome::Failed;
                    errors[i] = std::make_exception_ptr(std::runtime_error(
                        "injected node fault"));
                    ++failures;
                    continue;
                }
                if (roll < faults.fail_probability +
                               faults.drop_probability) {
                    outcomes[i] = Outcome::Dropped;
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
            }
        }

        // Single-request execution (also the fallback if a batched group
        // throws): identical spans and error handling to the pre-batched
        // serving path.
        auto runSingle = [&](std::size_t i) {
            auto &request = batch[i];
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
                outcomes[i] = Outcome::Failed;
                errors[i] = std::current_exception();
                ++failures;
            }
        };

        // Group surviving requests by search parameters: requests that
        // share k and every SearchParams field can ride one
        // list-major searchBatch call. First-occurrence order keeps the
        // schedule deterministic.
        struct Group
        {
            std::size_t k;
            index::SearchParams params;
            std::vector<std::size_t> members;
        };
        std::vector<Group> groups;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (outcomes[i] != Outcome::Ok)
                continue;
            const auto &request = batch[i];
            Group *group = nullptr;
            for (auto &g : groups) {
                if (g.k == request.k && g.params == request.params) {
                    group = &g;
                    break;
                }
            }
            if (group == nullptr) {
                groups.push_back({request.k, request.params, {}});
                group = &groups.back();
            }
            group->members.push_back(i);
        }

        // Hardware-counter attribution for the shard scan phase — the
        // whole execution sweep over this batch (no-op unless --perf).
        std::optional<obs::PerfScope> scan_perf;
        scan_perf.emplace(obs::PerfPhase::Scan);
        for (const auto &group : groups) {
            if (group.members.size() == 1) {
                runSingle(group.members[0]);
                continue;
            }
            obs::TraceContextSnapshot group_ctx; // first traced member
            for (std::size_t i : group.members) {
                if (batch[i].trace.active) {
                    group_ctx = batch[i].trace;
                    break;
                }
            }
            vecstore::Matrix group_queries(shard_.dim());
            group_queries.reserveRows(group.members.size());
            for (std::size_t i : group.members) {
                group_queries.append(vecstore::VecView(
                    batch[i].query.data(), batch[i].query.size()));
            }
            std::vector<index::SearchStats> per_stats;
            std::vector<vecstore::HitList> group_hits;
            bool batched_ok = true;
            auto exec_start = std::chrono::steady_clock::now();
            {
                // One batch-level span; per-request node.search child
                // spans are back-filled below so traces keep one
                // node.search per request either way.
                obs::TraceContext trace_context(group_ctx);
                obs::ScopedSpan span("node.search_batch");
                span.arg("cluster",
                         static_cast<std::uint64_t>(config_.node_id));
                span.arg("requests",
                         static_cast<std::uint64_t>(group.members.size()));
                try {
                    group_hits = shard_.searchBatch(group_queries, group.k,
                                                    group.params,
                                                    &per_stats);
                } catch (...) {
                    batched_ok = false;
                }
            }
            if (!batched_ok) {
                // The batch faulted as a unit; retry requests one at a
                // time so a single poisoned query only fails itself.
                for (std::size_t i : group.members)
                    runSingle(i);
                continue;
            }
            auto exec_end = std::chrono::steady_clock::now();
            for (std::size_t m = 0; m < group.members.size(); ++m) {
                const std::size_t i = group.members[m];
                responses[i].hits = std::move(group_hits[m]);
                responses[i].stats = per_stats[m];
                scanned += responses[i].stats.vectors_scanned;
                hits += responses[i].hits.size();
                obs::TraceRecorder::instance().addSpan(
                    "node.search", exec_start, exec_end,
                    {{"cluster", std::to_string(config_.node_id), true},
                     {"k", std::to_string(batch[i].k), true},
                     {"vectors_scanned",
                      std::to_string(responses[i].stats.vectors_scanned),
                      true}},
                    batch[i].trace);
            }
        }
        scan_perf.reset();
        double elapsed = timer.elapsedSeconds();
        batch_exec.observe(elapsed * 1e6);
        double joules = elapsed * dynamic_watts_per_core;
        if (joules > 0.0)
            energy_gauge.add(joules);

        // Record statistics before fulfilling promises so a caller that
        // observes its response also observes the stats that produced it.
        {
            std::unique_lock<std::mutex> lock(mutex_);
            stats_.requests += batch.size();
            stats_.batches += 1;
            stats_.busy_seconds += elapsed;
            stats_.vectors_scanned += scanned;
            stats_.failures += failures;
            stats_.dropped += dropped;
            stats_.hits_returned += hits;
            stats_.energy_joules += joules;
        }
        for (std::size_t i = 0; i < batch.size(); ++i) {
            switch (outcomes[i]) {
              case Outcome::Ok:
                batch[i].promise.set_value(std::move(responses[i]));
                break;
              case Outcome::Failed:
                batch[i].promise.set_exception(errors[i]);
                break;
              case Outcome::Dropped:
                dropped_.push_back(std::move(batch[i].promise));
                break;
            }
        }
    }
}

NodeStats
RetrievalNode::stats() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
RetrievalNode::queueDepth() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return queue_.size();
}

} // namespace serve
} // namespace hermes
