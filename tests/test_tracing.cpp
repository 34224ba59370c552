/**
 * @file
 * Distributed-tracing coverage: the trace-context wire format, the
 * Health handshake's hard version check on both sides, trace-context
 * propagation across the RPC boundary (with bit-parity against the
 * in-process path), Health-handshake clock sync, and the trace-merge
 * pipeline that assembles per-process dumps into one Chrome trace.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/distributed_store.hpp"
#include "net/frame.hpp"
#include "net/net.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/broker.hpp"
#include "serve/remote_node.hpp"
#include "serve/rpc.hpp"
#include "serve/shard_server.hpp"
#include "serve/trace_merge.hpp"
#include "util/minijson.hpp"
#include "util/serialize.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

/** Stop + clear the recorder even when a test fails mid-way. */
struct RecorderCleanup
{
    ~RecorderCleanup()
    {
        obs::TraceRecorder::instance().stop();
        obs::TraceRecorder::instance().clear();
    }
};

const obs::TraceSpan *
findSpan(const std::vector<obs::TraceSpan> &spans, const char *name)
{
    for (const auto &span : spans) {
        if (span.name == name)
            return &span;
    }
    return nullptr;
}

/** Corpus + store shared by the integration tests below. */
struct TracingData
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    core::HermesConfig config;
    std::unique_ptr<core::DistributedStore> store;
};

const TracingData &
tracingData()
{
    static TracingData data = [] {
        TracingData out;
        workload::CorpusConfig cc;
        cc.num_docs = 3000;
        cc.dim = 16;
        cc.num_topics = 10;
        cc.seed = 171;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 16;
        qc.seed = 172;
        out.queries = workload::generateQueries(out.corpus, qc);

        out.config.num_clusters = 4;
        out.config.clusters_to_search = 2;
        out.config.sample_nprobe = 2;
        out.config.deep_nprobe = 16;
        out.config.partition.seeds_to_try = 2;
        out.store = std::make_unique<core::DistributedStore>(
            core::DistributedStore::build(out.corpus.embeddings,
                                          out.config));
        return out;
    }();
    return data;
}

} // namespace

// ---------------------------------------------------------------------------
// Wire format and version check

TEST(RpcProtocol, SearchBatchSparseTraceRoundTrip)
{
    serve::rpc::SearchBatchRequest request;
    request.k = 3;
    request.dim = 2;
    request.queries = {1, 2, 3, 4, 5, 6}; // 3 queries
    request.traces.resize(3);
    request.traces[1] = {true, 0xaaull, 0xb0ull};
    request.traces[2] = {true, 0xccull, 0xd0ull};

    auto decoded = serve::rpc::decodeSearchBatchRequest(
        serve::rpc::encodeSearchBatchRequest(request));
    ASSERT_EQ(decoded.traces.size(), 3u);
    EXPECT_FALSE(decoded.traces[0].active);
    EXPECT_TRUE(decoded.traces[1].active);
    EXPECT_EQ(decoded.traces[1].trace_id, 0xaaull);
    EXPECT_EQ(decoded.traces[1].parent_span_id, 0xb0ull);
    EXPECT_TRUE(decoded.traces[2].active);
    EXPECT_EQ(decoded.traces[2].trace_id, 0xccull);

    // All-inactive contexts are omitted entirely: no trailing list.
    serve::rpc::SearchBatchRequest untraced = request;
    untraced.traces.assign(3, {});
    std::string untraced_payload =
        serve::rpc::encodeSearchBatchRequest(untraced);
    untraced.traces.clear();
    EXPECT_EQ(untraced_payload,
              serve::rpc::encodeSearchBatchRequest(untraced));
    EXPECT_TRUE(serve::rpc::decodeSearchBatchRequest(untraced_payload)
                    .traces.empty());

    // A batch of one carries its context as a one-entry list:
    // u32 count + (u32 slot, u64 trace_id, u64 parent).
    serve::rpc::SearchBatchRequest one;
    one.k = 3;
    one.dim = 2;
    one.queries = {1, 2};
    std::string one_untraced = serve::rpc::encodeSearchBatchRequest(one);
    one.traces = {{true, 0xeeull, 0xf0ull}};
    std::string one_traced = serve::rpc::encodeSearchBatchRequest(one);
    EXPECT_EQ(one_traced.size(), one_untraced.size() + 24);
    auto one_decoded = serve::rpc::decodeSearchBatchRequest(one_traced);
    ASSERT_EQ(one_decoded.traces.size(), 1u);
    EXPECT_TRUE(one_decoded.traces[0].active);
    EXPECT_EQ(one_decoded.traces[0].trace_id, 0xeeull);
    EXPECT_EQ(one_decoded.traces[0].parent_span_id, 0xf0ull);

    // A trailing slot index beyond the query count is hostile input,
    // not a context to adopt.
    util::ByteWriter bad;
    bad.put<std::uint32_t>(1);
    bad.put<std::uint32_t>(7); // slot 7 of 3
    bad.put<std::uint64_t>(1);
    bad.put<std::uint64_t>(2);
    EXPECT_THROW(serve::rpc::decodeSearchBatchRequest(untraced_payload +
                                                      bad.bytes()),
                 util::FormatError);
}

TEST(RpcProtocol, ShardRejectsOtherVersionHealthAsBadRequest)
{
    const auto &data = tracingData();
    serve::ShardServerOptions options;
    options.node.node_id = 0;
    serve::ShardServer server(data.store->clusterIndex(0), options);
    ASSERT_TRUE(server.start());

    net::Socket conn = net::connectTo("127.0.0.1", server.port(), 1000.0);
    ASSERT_TRUE(conn.valid());

    using serve::rpc::Type;
    auto health = [&](std::uint64_t id, std::string_view payload) {
        net::Frame reply;
        EXPECT_EQ(net::sendFrame(
                      conn, static_cast<std::uint32_t>(Type::HealthRequest),
                      id, payload, net::Deadline::after(2000.0)),
                  net::IoStatus::Ok);
        EXPECT_EQ(net::recvFrame(conn, reply, net::Deadline::after(2000.0)),
                  net::IoStatus::Ok);
        EXPECT_EQ(reply.id, id);
        return reply;
    };

    // An empty payload (no version at all) and every other version are
    // answered with a typed BadRequest; the connection survives.
    const std::string requests[] = {
        std::string(),
        serve::rpc::encodeHealthRequest(0),
        serve::rpc::encodeHealthRequest(serve::rpc::kProtocolVersion - 1),
        serve::rpc::encodeHealthRequest(serve::rpc::kProtocolVersion + 1),
    };
    std::uint64_t id = 1;
    for (const auto &payload : requests) {
        net::Frame reply = health(id++, payload);
        ASSERT_EQ(reply.type,
                  static_cast<std::uint32_t>(Type::ErrorResponse));
        EXPECT_EQ(serve::rpc::decodeError(reply.payload).code,
                  serve::rpc::ErrorCode::BadRequest);
    }

    // Same connection, same version: a HealthResponse with the clock.
    net::Frame reply = health(
        id, serve::rpc::encodeHealthRequest(serve::rpc::kProtocolVersion));
    ASSERT_EQ(reply.type, static_cast<std::uint32_t>(Type::HealthResponse));
    auto decoded = serve::rpc::decodeHealthResponse(reply.payload);
    EXPECT_EQ(decoded.protocol_version, serve::rpc::kProtocolVersion);
    EXPECT_EQ(decoded.shard_vectors, data.store->clusterIndex(0).size());
    EXPECT_GT(decoded.trace_now_us, 0.0);
    conn.close();
    server.stop();
}

TEST(RpcProtocol, ClientSendsNoSearchToOtherVersionShard)
{
    // A fake shard that reports another protocol version in its
    // HealthResponse and records every frame type it receives.
    net::Listener listener;
    ASSERT_TRUE(listener.open("127.0.0.1", 0));
    std::atomic<bool> stop{false};
    std::atomic<int> healths{0};
    std::atomic<int> others{0};
    std::vector<std::thread> handlers;
    std::thread acceptor([&] {
        while (!stop.load()) {
            net::Socket conn = listener.acceptFor(100.0);
            if (!conn.valid())
                continue;
            handlers.emplace_back([&, sock = std::move(conn)]() mutable {
                net::Frame frame;
                while (net::recvFrame(sock, frame,
                                      net::Deadline::after(2000.0)) ==
                       net::IoStatus::Ok) {
                    using serve::rpc::Type;
                    if (frame.type !=
                        static_cast<std::uint32_t>(Type::HealthRequest)) {
                        ++others;
                        continue;
                    }
                    ++healths;
                    serve::rpc::HealthResponse health;
                    health.protocol_version =
                        serve::rpc::kProtocolVersion + 1;
                    health.dim = 4;
                    health.shard_vectors = 1;
                    net::sendFrame(
                        sock,
                        static_cast<std::uint32_t>(Type::HealthResponse),
                        frame.id, serve::rpc::encodeHealthResponse(health),
                        net::Deadline::after(2000.0));
                }
            });
        }
    });

    {
        serve::RemoteNodeOptions options;
        options.port = listener.port();
        options.connections = 1;
        options.request_deadline_ms = 2000.0;
        serve::RemoteNodeClient client(options);

        EXPECT_FALSE(client.health());
        EXPECT_FALSE(client.clockSync().valid);

        std::vector<float> query(4, 0.25f);
        auto future = client.submit(
            vecstore::VecView(query.data(), query.size()), 1,
            index::SearchParams{});
        EXPECT_THROW(future.get(), std::exception);
        EXPECT_EQ(client.clientStats().rpcs_sent, 0u);
        EXPECT_EQ(client.clientStats().reconnects, 0u);
    }

    EXPECT_GE(healths.load(), 2);
    EXPECT_EQ(others.load(), 0) << "a search frame reached the shard";
    stop.store(true);
    acceptor.join();
    for (auto &handler : handlers)
        handler.join();
}

// ---------------------------------------------------------------------------
// Trace propagation across the RPC boundary

TEST(DistributedTracing, RemoteSpansJoinTheBrokerTrace)
{
    const auto &data = tracingData();
    RecorderCleanup cleanup;
    auto &recorder = obs::TraceRecorder::instance();

    std::vector<std::unique_ptr<serve::ShardServer>> servers;
    std::vector<std::unique_ptr<serve::NodeClient>> remotes;
    for (std::size_t c = 0; c < data.store->numClusters(); ++c) {
        serve::ShardServerOptions so;
        so.node.node_id = c;
        servers.push_back(std::make_unique<serve::ShardServer>(
            data.store->clusterIndex(c), so));
        ASSERT_TRUE(servers.back()->start());

        serve::RemoteNodeOptions ro;
        ro.port = servers.back()->port();
        ro.request_deadline_ms = 5000.0;
        remotes.push_back(std::make_unique<serve::RemoteNodeClient>(ro));
    }
    serve::HermesBroker remote(data.config, std::move(remotes), {});
    serve::HermesBroker local(*data.store, {});

    recorder.start(1); // trace every query
    std::vector<vecstore::HitList> traced_hits;
    for (std::size_t q = 0; q < 4; ++q)
        traced_hits.push_back(
            remote.search(data.queries.embeddings.row(q), 10));
    recorder.stop();

    // Bit-parity: tracing on the remote path must not perturb results
    // relative to the (independently traced/untraced) in-process path.
    for (std::size_t q = 0; q < 4; ++q) {
        auto expect = local.search(data.queries.embeddings.row(q), 10);
        ASSERT_EQ(traced_hits[q].size(), expect.size()) << "query " << q;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(traced_hits[q][i].id, expect[i].id) << "query " << q;
            EXPECT_EQ(traced_hits[q][i].score, expect[i].score)
                << "query " << q;
        }
    }

    auto spans = recorder.snapshot();
    const obs::TraceSpan *broker_span = findSpan(spans, "broker.query");
    ASSERT_NE(broker_span, nullptr);
    ASSERT_NE(broker_span->trace_id, 0u);

    // The client-side rpc span, the shard-side adoption span and the
    // node-layer spans must all carry the broker's trace_id (same
    // process here, but they crossed a real TCP connection to get it).
    bool found_rpc = false;
    bool found_shard = false;
    bool found_node = false;
    bool found_queue_wait = false;
    std::vector<std::uint64_t> rpc_span_ids;
    for (const auto &span : spans) {
        if (span.trace_id != broker_span->trace_id)
            continue;
        if (span.name == "rpc.search" || span.name == "rpc.search_batch") {
            found_rpc = true;
            rpc_span_ids.push_back(span.span_id);
        } else if (span.name == "shard.search" ||
                   span.name == "shard.search_batch") {
            found_shard = true;
        } else if (span.name == "node.search" ||
                   span.name == "node.search_batch") {
            found_node = true;
        } else if (span.name == "node.queue_wait") {
            found_queue_wait = true;
        }
    }
    EXPECT_TRUE(found_rpc) << "no rpc.* span joined the broker trace";
    EXPECT_TRUE(found_shard) << "no shard.* span joined the broker trace";
    EXPECT_TRUE(found_node) << "no node.* span joined the broker trace";
    EXPECT_TRUE(found_queue_wait);

    // Shard-side spans chain under a client rpc span, completing the
    // cross-process parent chain broker.query > rpc.* > shard.*.
    bool shard_chained = false;
    for (const auto &span : spans) {
        if (span.trace_id != broker_span->trace_id)
            continue;
        if (span.name != "shard.search" && span.name != "shard.search_batch")
            continue;
        for (std::uint64_t id : rpc_span_ids) {
            if (span.parent_span_id == id)
                shard_chained = true;
        }
    }
    EXPECT_TRUE(shard_chained)
        << "shard spans did not chain under the client rpc span";

    // Satellite: recorder occupancy is mirrored into registry gauges.
    auto &registry = obs::Registry::instance();
    EXPECT_EQ(registry.gauge(obs::names::kTraceBufferSpans).value(),
              static_cast<double>(recorder.spanCount()));
    EXPECT_EQ(registry.gauge(obs::names::kTraceDroppedSpans).value(),
              static_cast<double>(recorder.droppedSpans()));

    for (auto &server : servers)
        server->stop();
}

TEST(DistributedTracing, UntracedRemoteMatchesTracedRemote)
{
    const auto &data = tracingData();
    serve::ShardServerOptions so;
    so.node.node_id = 1;
    serve::ShardServer server(data.store->clusterIndex(1), so);
    ASSERT_TRUE(server.start());

    serve::RemoteNodeOptions ro;
    ro.port = server.port();
    ro.request_deadline_ms = 5000.0;
    serve::RemoteNodeClient client(ro);

    index::SearchParams params;
    params.nprobe = 4;
    auto query = data.queries.embeddings.row(1);

    auto untraced = client.submit(query, 5, params).get();
    {
        RecorderCleanup cleanup;
        obs::TraceRecorder::instance().start(1);
        obs::TraceContext trace(true);
        auto traced = client.submit(query, 5, params).get();
        ASSERT_EQ(traced.hits.size(), untraced.hits.size());
        for (std::size_t i = 0; i < untraced.hits.size(); ++i) {
            EXPECT_EQ(traced.hits[i].id, untraced.hits[i].id);
            EXPECT_EQ(traced.hits[i].score, untraced.hits[i].score);
        }
    }
    server.stop();
}

TEST(DistributedTracing, SingleQuerySpanTreeCrossesTheWire)
{
    // A lone request goes as a batch of one and keeps the documented
    // tree: submitter > rpc.search > shard.search > node.*.
    const auto &data = tracingData();
    serve::ShardServerOptions so;
    so.node.node_id = 3;
    serve::ShardServer server(data.store->clusterIndex(3), so);
    ASSERT_TRUE(server.start());

    serve::RemoteNodeOptions ro;
    ro.port = server.port();
    ro.request_deadline_ms = 5000.0;
    serve::RemoteNodeClient client(ro);
    ASSERT_TRUE(client.health());

    RecorderCleanup cleanup;
    auto &recorder = obs::TraceRecorder::instance();
    recorder.start(1);
    obs::TraceContextSnapshot root;
    {
        obs::TraceContext trace(true);
        root = obs::currentTraceContext();
        index::SearchParams params;
        params.nprobe = 4;
        client.submit(data.queries.embeddings.row(2), 5, params).get();
    }
    recorder.stop();

    auto spans = recorder.snapshot();
    const obs::TraceSpan *rpc_span = findSpan(spans, "rpc.search");
    const obs::TraceSpan *shard_span = findSpan(spans, "shard.search");
    const obs::TraceSpan *node_span = findSpan(spans, "node.search");
    const obs::TraceSpan *wait_span = findSpan(spans, "node.queue_wait");
    ASSERT_NE(rpc_span, nullptr);
    ASSERT_NE(shard_span, nullptr);
    ASSERT_NE(node_span, nullptr);
    ASSERT_NE(wait_span, nullptr);
    EXPECT_EQ(rpc_span->trace_id, root.trace_id);
    EXPECT_EQ(rpc_span->parent_span_id, root.parent_span_id);
    EXPECT_EQ(shard_span->trace_id, root.trace_id);
    EXPECT_EQ(shard_span->parent_span_id, rpc_span->span_id);
    EXPECT_EQ(node_span->parent_span_id, shard_span->span_id);
    EXPECT_EQ(wait_span->parent_span_id, shard_span->span_id);
    EXPECT_EQ(findSpan(spans, "rpc.search_batch"), nullptr);
    EXPECT_EQ(findSpan(spans, "shard.search_batch"), nullptr);
    server.stop();
}

TEST(DistributedTracing, MixedTraceBatchKeepsEachMembersParent)
{
    // One RPC carrying members of two traces plus an untraced one: the
    // shard opens one shard.search under the first traced member; the
    // other trace's node spans keep their own wire parent, and the
    // untraced member records nothing.
    const auto &data = tracingData();
    serve::ShardServerOptions so;
    so.node.node_id = 0;
    serve::ShardServer server(data.store->clusterIndex(0), so);
    ASSERT_TRUE(server.start());
    net::Socket conn = net::connectTo("127.0.0.1", server.port(), 1000.0);
    ASSERT_TRUE(conn.valid());

    RecorderCleanup cleanup;
    auto &recorder = obs::TraceRecorder::instance();
    recorder.start(1);

    serve::rpc::SearchBatchRequest request;
    request.k = 3;
    request.params.nprobe = 2;
    request.dim = data.store->clusterIndex(0).dim();
    for (std::size_t q = 0; q < 3; ++q) {
        auto row = data.queries.embeddings.row(q);
        request.queries.insert(request.queries.end(), row.begin(),
                               row.end());
    }
    request.traces.resize(3);
    request.traces[0] = {true, 0xa1ull, 0xa2ull};
    request.traces[2] = {true, 0xb1ull, 0xb2ull};
    using serve::rpc::Type;
    ASSERT_EQ(net::sendFrame(
                  conn, static_cast<std::uint32_t>(Type::SearchBatchRequest),
                  5, serve::rpc::encodeSearchBatchRequest(request),
                  net::Deadline::after(2000.0)),
              net::IoStatus::Ok);
    net::Frame reply;
    ASSERT_EQ(net::recvFrame(conn, reply, net::Deadline::after(5000.0)),
              net::IoStatus::Ok);
    ASSERT_EQ(reply.type,
              static_cast<std::uint32_t>(Type::SearchBatchResponse));
    EXPECT_EQ(serve::rpc::decodeSearchBatchResponse(reply.payload).size(),
              3u);
    conn.close();
    server.stop();
    recorder.stop();

    auto spans = recorder.snapshot();
    std::vector<const obs::TraceSpan *> shard_spans;
    std::vector<const obs::TraceSpan *> node_a;
    std::vector<const obs::TraceSpan *> node_b;
    for (const auto &span : spans) {
        if (span.name == "shard.search")
            shard_spans.push_back(&span);
        if (span.name.rfind("node.", 0) != 0)
            continue;
        EXPECT_TRUE(span.trace_id == 0xa1ull || span.trace_id == 0xb1ull)
            << span.name << " recorded outside the propagated traces";
        (span.trace_id == 0xa1ull ? node_a : node_b).push_back(&span);
    }
    ASSERT_EQ(shard_spans.size(), 1u);
    EXPECT_EQ(shard_spans[0]->trace_id, 0xa1ull);
    EXPECT_EQ(shard_spans[0]->parent_span_id, 0xa2ull);
    ASSERT_FALSE(node_a.empty());
    ASSERT_FALSE(node_b.empty());
    // node.search_batch (when the node drains several members into
    // one call) sits under its group's first member; the per-member
    // node.queue_wait/node.search spans are the ones checked here.
    for (const auto *span : node_a) {
        if (span->name == "node.search_batch")
            continue;
        EXPECT_EQ(span->parent_span_id, shard_spans[0]->span_id)
            << span->name;
    }
    for (const auto *span : node_b) {
        if (span->name == "node.search_batch")
            continue;
        EXPECT_EQ(span->parent_span_id, 0xb2ull) << span->name;
    }
}

// ---------------------------------------------------------------------------
// Clock sync + merge

TEST(DistributedTracing, HealthHandshakeMeasuresClockOffset)
{
    const auto &data = tracingData();
    RecorderCleanup cleanup;
    obs::TraceRecorder::instance().start(1);

    serve::ShardServerOptions so;
    so.node.node_id = 2;
    serve::ShardServer server(data.store->clusterIndex(2), so);
    ASSERT_TRUE(server.start());

    serve::RemoteNodeOptions ro;
    ro.port = server.port();
    serve::RemoteNodeClient client(ro);
    ASSERT_TRUE(client.health());

    auto sync = client.clockSync();
    ASSERT_TRUE(sync.valid);
    EXPECT_EQ(sync.node_id, 2u);
    EXPECT_GE(sync.rtt_us, 0.0);
    // Client and shard share one process (and one recorder epoch), so
    // the true offset is 0; the estimate is bounded by RTT/2 plus a
    // little scheduling slack.
    EXPECT_LE(std::fabs(sync.offset_us), sync.rtt_us / 2.0 + 5000.0);

    // Repeated handshakes keep the lowest-RTT sample (monotone rtt).
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(client.health());
    auto best = client.clockSync();
    ASSERT_TRUE(best.valid);
    EXPECT_LE(best.rtt_us, sync.rtt_us);

    // The handshake drops an rpc.clock_sync instant into the local span
    // stream — that's what the merge tool mines from a broker dump.
    auto spans = obs::TraceRecorder::instance().snapshot();
    const obs::TraceSpan *instant = findSpan(spans, "rpc.clock_sync");
    ASSERT_NE(instant, nullptr);
    EXPECT_TRUE(instant->instant);

    // The per-node gauge mirrors a kept (lowest-RTT) estimate. It is
    // process-wide — other clients to node 2 may have written it — so
    // assert sanity, not identity: in-process, every honest estimate
    // is near zero.
    double gauge = obs::Registry::instance()
                       .gauge(obs::names::rpcNodeMetric(
                           2, obs::names::kRpcClockOffsetUs))
                       .value();
    EXPECT_LE(std::fabs(gauge), 10000.0);
    server.stop();
}

TEST(TraceMerge, AlignsShardClocksAndEmitsWellFormedChromeTrace)
{
    // Synthetic dumps with a known 500us offset for shard cluster 1;
    // the broker also carries a worse (higher-RTT) sync for the same
    // node that must lose to the better sample.
    const std::string broker_json = R"({"traceEvents": [
      {"name": "broker.query", "ph": "X", "pid": 77, "tid": 0,
       "ts": 1000.0, "dur": 900.0,
       "args": {"trace_id": "00000000000000aa"}},
      {"name": "rpc.clock_sync", "ph": "i", "pid": 77, "tid": 0,
       "ts": 10.0, "s": "t",
       "args": {"node_id": 1, "offset_us": 9999.0, "rtt_us": 80.0}},
      {"name": "rpc.clock_sync", "ph": "i", "pid": 77, "tid": 0,
       "ts": 20.0, "s": "t",
       "args": {"node_id": 1, "offset_us": 500.0, "rtt_us": 12.0}}
    ], "metadata": {"process": "broker"}, "displayTimeUnit": "ms"})";

    auto syncs = serve::extractClockSyncs(broker_json);
    ASSERT_EQ(syncs.size(), 1u);
    EXPECT_EQ(syncs[0].node_id, 1u);
    EXPECT_EQ(syncs[0].offset_us, 500.0);
    EXPECT_EQ(syncs[0].rtt_us, 12.0);

    const std::string shard_json = R"({"traceEvents": [
      {"name": "shard.search", "ph": "X", "pid": 5, "tid": 1,
       "ts": 600.0, "dur": 100.0,
       "args": {"trace_id": "00000000000000aa"}},
      {"name": "node.search", "ph": "X", "pid": 5, "tid": 1,
       "ts": 650.0, "dur": 40.0, "args": {}}
    ], "metadata": {"process": "hermes_shard", "cluster": 1}})";

    serve::TraceMergeResult merged = serve::mergeTraces(
        {"broker.json", broker_json}, {{"127.0.0.1:9", shard_json}});
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_TRUE(merged.warnings.empty());
    EXPECT_EQ(merged.processes, 2u);
    EXPECT_EQ(merged.events, 5u);

    auto parsed = util::json::parse(merged.json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto *events = parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    double broker_start = 0.0, broker_end = 0.0;
    double shard_start = 0.0, shard_end = 0.0;
    double node_start = 0.0;
    int process_names = 0;
    for (const auto &event : events->items()) {
        const auto *name = event.find("name");
        ASSERT_NE(name, nullptr);
        const auto *pid = event.find("pid");
        ASSERT_NE(pid, nullptr);
        if (name->stringOr("") == "process_name") {
            ++process_names;
            continue;
        }
        double ts = event.find("ts")->numberOr(-1.0);
        double dur =
            event.find("dur") ? event.find("dur")->numberOr(0.0) : 0.0;
        if (name->stringOr("") == "broker.query") {
            EXPECT_EQ(pid->numberOr(0), 1.0); // broker pid rewritten
            broker_start = ts;
            broker_end = ts + dur;
        } else if (name->stringOr("") == "shard.search") {
            EXPECT_EQ(pid->numberOr(0), 2.0); // first shard pid
            shard_start = ts;
            shard_end = ts + dur;
        } else if (name->stringOr("") == "node.search") {
            node_start = ts;
        }
    }
    EXPECT_EQ(process_names, 2);

    // Alignment: shard ts shifted by +500us, so the remote span nests
    // inside the broker span, and relative order within the shard is
    // preserved (the shift is one constant per process — monotone).
    EXPECT_EQ(shard_start, 1100.0);
    EXPECT_GE(shard_start, broker_start);
    EXPECT_LE(shard_end, broker_end);
    EXPECT_EQ(node_start, 1150.0);
    EXPECT_GT(node_start, shard_start);
}

TEST(TraceMerge, RestartDropsStaleEpochSamplesDespiteLowerRtt)
{
    // Before a shard restart the broker measured a very tight sync
    // (rtt 5) whose offset refers to the dead process's clock. The
    // post-restart samples sit seconds away. The merge must anchor on
    // the latest epoch and pick its best RTT, never the stale sample.
    const std::string broker_json = R"({"traceEvents": [
      {"name": "rpc.clock_sync", "ph": "i", "pid": 1, "tid": 0,
       "ts": 10.0, "s": "t",
       "args": {"node_id": 1, "offset_us": 5000000.0, "rtt_us": 5.0}},
      {"name": "rpc.clock_sync", "ph": "i", "pid": 1, "tid": 0,
       "ts": 20.0, "s": "t",
       "args": {"node_id": 1, "offset_us": 730.0, "rtt_us": 60.0}},
      {"name": "rpc.clock_sync", "ph": "i", "pid": 1, "tid": 0,
       "ts": 30.0, "s": "t",
       "args": {"node_id": 1, "offset_us": 700.0, "rtt_us": 90.0}},
      {"name": "rpc.clock_sync", "ph": "i", "pid": 1, "tid": 0,
       "ts": 40.0, "s": "t",
       "args": {"node_id": 2, "offset_us": -300.0, "rtt_us": 25.0}}
    ], "metadata": {"process": "broker"}})";

    auto syncs = serve::extractClockSyncs(broker_json);
    ASSERT_EQ(syncs.size(), 2u);
    const serve::TraceClockSync *node1 = nullptr;
    const serve::TraceClockSync *node2 = nullptr;
    for (const auto &sync : syncs) {
        if (sync.node_id == 1)
            node1 = &sync;
        if (sync.node_id == 2)
            node2 = &sync;
    }
    ASSERT_NE(node1, nullptr);
    ASSERT_NE(node2, nullptr);
    // Node 1: the stale epoch's rtt-5 sample loses; within the final
    // epoch the rtt-60 sample beats the rtt-90 anchor.
    EXPECT_EQ(node1->offset_us, 730.0);
    EXPECT_EQ(node1->rtt_us, 60.0);
    EXPECT_EQ(node2->offset_us, -300.0);
}

TEST(TraceMerge, UnmatchedShardMergesUnshiftedWithWarning)
{
    const std::string broker_json =
        R"({"traceEvents": [], "metadata": {"process": "broker"}})";
    const std::string shard_json = R"({"traceEvents": [
      {"name": "x", "ph": "X", "pid": 3, "tid": 0, "ts": 42.0,
       "dur": 1.0, "args": {}}
    ], "metadata": {"cluster": 9}})";

    auto merged = serve::mergeTraces({"b", broker_json},
                                     {{"s", shard_json}, {"bad", "{oops"}});
    ASSERT_TRUE(merged.ok);
    EXPECT_EQ(merged.processes, 2u); // the unparseable dump is skipped
    ASSERT_EQ(merged.warnings.size(), 2u);

    auto parsed = util::json::parse(merged.json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    bool found = false;
    for (const auto &event : parsed.value.find("traceEvents")->items()) {
        if (event.find("name")->stringOr("") != "x")
            continue;
        found = true;
        EXPECT_EQ(event.find("ts")->numberOr(-1.0), 42.0); // unshifted
    }
    EXPECT_TRUE(found);

    // An unparseable broker dump is the one fatal input.
    auto failed = serve::mergeTraces({"b", "not json"}, {});
    EXPECT_FALSE(failed.ok);
    EXPECT_FALSE(failed.error.empty());
}
