/**
 * @file
 * Tests for the net:: transport (deadline I/O, framing, wire codec),
 * the shard RPC protocol, the out-of-process serving path (ShardServer
 * + RemoteNodeClient, including broker-level bit-parity with the
 * in-process path), and regression coverage for the HTTP exporter's
 * socket-layer fixes.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "core/distributed_store.hpp"
#include "net/frame.hpp"
#include "net/net.hpp"
#include "obs/exporter.hpp"
#include "serve/broker.hpp"
#include "serve/remote_node.hpp"
#include "serve/replica_map.hpp"
#include "serve/rpc.hpp"
#include "serve/shard_server.hpp"
#include "util/minijson.hpp"
#include "util/serialize.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

/** Listener + connected client/server socket pair on loopback. */
struct Loopback
{
    net::Listener listener;
    net::Socket client;
    net::Socket server;

    Loopback()
    {
        std::string error;
        EXPECT_TRUE(listener.open("127.0.0.1", 0, 16, &error)) << error;
        client = net::connectTo("127.0.0.1", listener.port(), 1000.0,
                                &error);
        EXPECT_TRUE(client.valid()) << error;
        server = listener.acceptFor(1000.0);
        EXPECT_TRUE(server.valid());
    }
};

/** Shared corpus/store for the serving-over-the-wire tests. */
struct NetServeData
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    core::HermesConfig config;
    std::unique_ptr<core::DistributedStore> store;
};

const NetServeData &
netServeData()
{
    static NetServeData data = [] {
        NetServeData out;
        workload::CorpusConfig cc;
        cc.num_docs = 4000;
        cc.dim = 16;
        cc.num_topics = 12;
        cc.seed = 77;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 32;
        qc.seed = 78;
        out.queries = workload::generateQueries(out.corpus, qc);

        out.config.num_clusters = 6;
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
// Framing

TEST(Frame, RoundTripOverLoopback)
{
    Loopback pair;
    std::string payload = "framed payload";
    ASSERT_EQ(net::sendFrame(pair.client, 3, 99, payload,
                             net::Deadline::after(1000.0)),
              net::IoStatus::Ok);

    net::Frame frame;
    ASSERT_EQ(net::recvFrame(pair.server, frame,
                             net::Deadline::after(1000.0)),
              net::IoStatus::Ok);
    EXPECT_EQ(frame.type, 3u);
    EXPECT_EQ(frame.id, 99u);
    EXPECT_EQ(frame.payload, payload);
}

TEST(Frame, LargePayloadSurvivesShortWrites)
{
    Loopback pair;
    // Well past any socket buffer, so writeAll must take many partial
    // sends and poll for writability in between.
    std::string payload(8u << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 2654435761u >> 16);

    std::thread sender([&] {
        EXPECT_EQ(net::sendFrame(pair.client, 1, 7, payload,
                                 net::Deadline::after(10000.0)),
                  net::IoStatus::Ok);
    });
    net::Frame frame;
    ASSERT_EQ(net::recvFrame(pair.server, frame,
                             net::Deadline::after(10000.0)),
              net::IoStatus::Ok);
    sender.join();
    ASSERT_EQ(frame.payload.size(), payload.size());
    EXPECT_EQ(frame.payload, payload);
}

TEST(Frame, TornFrameIsClosedNotShortOk)
{
    Loopback pair;
    // A valid header promising 100 bytes, then only 10 and a close.
    std::string torn;
    auto putU32 = [&](std::uint32_t v) {
        char buf[4];
        std::memcpy(buf, &v, 4);
        torn.append(buf, 4);
    };
    auto putU64 = [&](std::uint64_t v) {
        char buf[8];
        std::memcpy(buf, &v, 8);
        torn.append(buf, 8);
    };
    putU32(net::kFrameMagic);
    putU32(1);
    putU64(5);
    putU64(100);
    torn.append(10, 'x');
    ASSERT_TRUE(net::writeAll(pair.client, torn.data(), torn.size(),
                              net::Deadline::after(1000.0))
                    .ok());
    pair.client.close();

    net::Frame frame;
    EXPECT_EQ(net::recvFrame(pair.server, frame,
                             net::Deadline::after(1000.0)),
              net::IoStatus::Closed);
}

TEST(Frame, BadMagicAndOversizedLengthAreErrors)
{
    {
        Loopback pair;
        std::string garbage(net::kFrameHeaderBytes, '\x5a');
        ASSERT_TRUE(net::writeAll(pair.client, garbage.data(),
                                  garbage.size(),
                                  net::Deadline::after(1000.0))
                        .ok());
        net::Frame frame;
        EXPECT_EQ(net::recvFrame(pair.server, frame,
                                 net::Deadline::after(1000.0)),
                  net::IoStatus::Error);
    }
    {
        Loopback pair;
        std::string header;
        auto putU32 = [&](std::uint32_t v) {
            char buf[4];
            std::memcpy(buf, &v, 4);
            header.append(buf, 4);
        };
        auto putU64 = [&](std::uint64_t v) {
            char buf[8];
            std::memcpy(buf, &v, 8);
            header.append(buf, 8);
        };
        putU32(net::kFrameMagic);
        putU32(1);
        putU64(1);
        putU64(1u << 20); // over the 64 KiB cap below
        ASSERT_TRUE(net::writeAll(pair.client, header.data(),
                                  header.size(),
                                  net::Deadline::after(1000.0))
                        .ok());
        net::Frame frame;
        EXPECT_EQ(net::recvFrame(pair.server, frame,
                                 net::Deadline::after(1000.0),
                                 /*max_payload=*/64u << 10),
                  net::IoStatus::Error);
    }
}

TEST(Frame, DeadlineExpiryIsTimeout)
{
    Loopback pair;
    auto start = std::chrono::steady_clock::now();
    net::Frame frame;
    EXPECT_EQ(net::recvFrame(pair.server, frame,
                             net::Deadline::after(50.0)),
              net::IoStatus::Timeout);
    double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(waited_ms, 40.0);
    EXPECT_LE(waited_ms, 2000.0);
}

// ---------------------------------------------------------------------------
// EINTR robustness

namespace {
void
noopHandler(int)
{
}
} // namespace

TEST(Net, TransferSurvivesSignalStorm)
{
    // Install a SIGUSR1 handler WITHOUT SA_RESTART, so every signal
    // makes blocking syscalls fail with EINTR — the regression the old
    // exporter write loop had.
    struct sigaction action{};
    struct sigaction previous{};
    action.sa_handler = noopHandler;
    action.sa_flags = 0;
    sigemptyset(&action.sa_mask);
    ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

    Loopback pair;
    std::string payload(4u << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 40503u >> 8);

    std::atomic<bool> sender_done{false};
    std::atomic<bool> receiver_done{false};
    std::string received;
    std::thread sender([&] {
        EXPECT_EQ(net::sendFrame(pair.client, 1, 1, payload,
                                 net::Deadline::after(15000.0)),
                  net::IoStatus::Ok);
        sender_done.store(true);
    });
    std::thread receiver([&] {
        net::Frame frame;
        EXPECT_EQ(net::recvFrame(pair.server, frame,
                                 net::Deadline::after(15000.0)),
                  net::IoStatus::Ok);
        received = std::move(frame.payload);
        receiver_done.store(true);
    });
    // Handles taken on this thread, before the storm starts — no
    // cross-thread handoff to race on. Signaling stops before the
    // joins below, so the handles are live (or zombie, which
    // pthread_kill tolerates) for every kill.
    pthread_t sender_thread = sender.native_handle();
    pthread_t receiver_thread = receiver.native_handle();

    std::thread storm([&] {
        // Hammer both I/O threads with signals for the whole transfer.
        while (!sender_done.load() || !receiver_done.load()) {
            if (!sender_done.load())
                pthread_kill(sender_thread, SIGUSR1);
            if (!receiver_done.load())
                pthread_kill(receiver_thread, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    storm.join();
    sender.join();
    receiver.join();
    sigaction(SIGUSR1, &previous, nullptr);

    EXPECT_EQ(received, payload);
}

TEST(Net, AcceptForNonPositiveTimeoutPollsWithoutBlocking)
{
    net::Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("127.0.0.1", 0, 16, &error)) << error;

    // Contract: acceptFor(<= 0) is a non-blocking poll. It used to
    // feed 0 into Deadline::after(), which reads <= 0 as infinite and
    // blocked in poll() forever.
    auto start = std::chrono::steady_clock::now();
    net::Socket none = listener.acceptFor(0.0);
    double elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_FALSE(none.valid());
    EXPECT_LT(elapsed_ms, 1000.0);

    // With a connection pending, the zero-timeout poll must accept it.
    net::Socket client =
        net::connectTo("127.0.0.1", listener.port(), 1000.0, &error);
    ASSERT_TRUE(client.valid()) << error;
    net::Socket accepted;
    for (int i = 0; i < 200 && !accepted.valid(); ++i) {
        accepted = listener.acceptFor(0.0);
        if (!accepted.valid())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(accepted.valid());
}

// ---------------------------------------------------------------------------
// RPC codec

TEST(Rpc, SearchBatchRequestRoundTrip)
{
    serve::rpc::SearchBatchRequest request;
    request.k = 7;
    request.params.nprobe = 9;
    request.params.ef_search = 33;
    request.params.prune_ratio = 0.75;
    request.params.batch_min_scan_floats = 4096;
    request.deadline_ms = 1234.5;
    request.dim = 3;
    request.queries = {1.0f, -2.0f, 0.25f};

    auto decoded = serve::rpc::decodeSearchBatchRequest(
        serve::rpc::encodeSearchBatchRequest(request));
    EXPECT_EQ(decoded.k, request.k);
    EXPECT_EQ(decoded.params.nprobe, request.params.nprobe);
    EXPECT_EQ(decoded.params.ef_search, request.params.ef_search);
    EXPECT_EQ(decoded.params.prune_ratio, request.params.prune_ratio);
    EXPECT_EQ(decoded.params.batch_min_scan_floats,
              request.params.batch_min_scan_floats);
    EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
    EXPECT_EQ(decoded.dim, request.dim);
    EXPECT_EQ(decoded.queries, request.queries);
    EXPECT_EQ(decoded.numQueries(), 1u);
    EXPECT_TRUE(decoded.traces.empty());
}

TEST(Rpc, ResponsesAndErrorsRoundTrip)
{
    serve::NodeResponse response;
    response.hits.push_back({42, 0.125f});
    response.hits.push_back({7, -3.5f});
    response.stats.vectors_scanned = 100;
    response.stats.lists_probed = 4;

    auto single = serve::rpc::decodeSearchBatchResponse(
        serve::rpc::encodeSearchBatchResponse({response}));
    ASSERT_EQ(single.size(), 1u);
    const auto &decoded = single[0];
    ASSERT_EQ(decoded.hits.size(), 2u);
    EXPECT_EQ(decoded.hits[0].id, 42);
    EXPECT_EQ(decoded.hits[0].score, 0.125f);
    EXPECT_EQ(decoded.hits[1].id, 7);
    EXPECT_EQ(decoded.hits[1].score, -3.5f);
    EXPECT_EQ(decoded.stats.vectors_scanned, 100u);
    EXPECT_EQ(decoded.stats.lists_probed, 4u);

    auto batch = serve::rpc::decodeSearchBatchResponse(
        serve::rpc::encodeSearchBatchResponse({response, response}));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[1].hits.size(), 2u);

    auto error = serve::rpc::decodeError(serve::rpc::encodeError(
        serve::rpc::ErrorCode::Timeout, "deadline blown"));
    EXPECT_EQ(error.code, serve::rpc::ErrorCode::Timeout);
    EXPECT_EQ(error.message, "deadline blown");
}

TEST(Rpc, DecodeRejectsTruncatedAndTrailingBytes)
{
    // Every decoder of untrusted bytes, over a well-formed payload of
    // its message: each strict prefix and one trailing byte must throw
    // FormatError, never decode into something shorter. The one allowed
    // exception: a traced request cut exactly before its (optional)
    // trace list is the same batch, untraced — a well-formed message.
    using Decode = std::function<void(std::string_view)>;
    struct Case
    {
        const char *name;
        std::string payload;
        Decode decode;
        std::size_t untraced_prefix = 0;
    };

    serve::rpc::SearchBatchRequest one;
    one.k = 3;
    one.dim = 2;
    one.queries = {1.0f, 2.0f};
    serve::rpc::SearchBatchRequest one_traced = one;
    one_traced.traces = {{true, 0xabull, 0xcdull}};
    serve::rpc::SearchBatchRequest three = one;
    three.queries = {1, 2, 3, 4, 5, 6};
    serve::rpc::SearchBatchRequest three_traced = three;
    three_traced.traces.resize(3);
    three_traced.traces[1] = {true, 0x11ull, 0x22ull};

    serve::NodeResponse response;
    response.hits.push_back({42, 0.125f});
    response.stats.vectors_scanned = 9;

    serve::rpc::StatsResponse stats;
    stats.stats.requests = 5;
    stats.queue_depth = 2;

    serve::rpc::HealthResponse health;
    health.node_id = 1;
    health.dim = 16;
    health.trace_now_us = 12.5;

    const Decode batch_request = [](std::string_view p) {
        serve::rpc::decodeSearchBatchRequest(p);
    };
    const Decode batch_response = [](std::string_view p) {
        serve::rpc::decodeSearchBatchResponse(p);
    };
    const std::vector<Case> cases = {
        {"batch of one", serve::rpc::encodeSearchBatchRequest(one),
         batch_request},
        {"batch of one, traced",
         serve::rpc::encodeSearchBatchRequest(one_traced), batch_request,
         serve::rpc::encodeSearchBatchRequest(one).size()},
        {"batch of three", serve::rpc::encodeSearchBatchRequest(three),
         batch_request},
        {"batch of three, traced",
         serve::rpc::encodeSearchBatchRequest(three_traced), batch_request,
         serve::rpc::encodeSearchBatchRequest(three).size()},
        {"one response", serve::rpc::encodeSearchBatchResponse({response}),
         batch_response},
        {"two responses",
         serve::rpc::encodeSearchBatchResponse({response, response}),
         batch_response},
        {"stats", serve::rpc::encodeStatsResponse(stats),
         [](std::string_view p) { serve::rpc::decodeStatsResponse(p); }},
        {"health request",
         serve::rpc::encodeHealthRequest(serve::rpc::kProtocolVersion),
         [](std::string_view p) { serve::rpc::decodeHealthRequest(p); }},
        {"health response", serve::rpc::encodeHealthResponse(health),
         [](std::string_view p) { serve::rpc::decodeHealthResponse(p); }},
        {"error",
         serve::rpc::encodeError(serve::rpc::ErrorCode::Internal, "boom"),
         [](std::string_view p) { serve::rpc::decodeError(p); }},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        ASSERT_NO_THROW(c.decode(c.payload));
        for (std::size_t len = 0; len < c.payload.size(); ++len) {
            std::string_view prefix(c.payload.data(), len);
            if (len == c.untraced_prefix && len > 0) {
                EXPECT_TRUE(serve::rpc::decodeSearchBatchRequest(prefix)
                                .traces.empty());
                continue;
            }
            EXPECT_THROW(c.decode(prefix), util::FormatError)
                << "prefix of " << len << " bytes";
        }
        EXPECT_THROW(c.decode(c.payload + 'x'), util::FormatError);
    }
}

TEST(Rpc, DecodeBoundsClaimedCountsByPayloadSize)
{
    // Hit/response counts are untrusted u32s off the wire; a claim of
    // ~4e9 elements over a tiny payload must throw FormatError before
    // reserve() attempts a multi-GB allocation (bad_alloc previously
    // escaped the decode-error-only catches on broker worker threads).
    util::ByteWriter hits;
    hits.put<std::uint32_t>(1);           // one response ...
    hits.put<std::uint32_t>(0xfffffffeu); // ... claiming ~4e9 hits
    hits.put<std::int64_t>(3);
    hits.put<float>(1.0f);
    for (int i = 0; i < 4; ++i)
        hits.put<std::uint64_t>(0); // stats, so the claim is the only lie
    EXPECT_THROW(serve::rpc::decodeSearchBatchResponse(hits.bytes()),
                 util::FormatError);

    util::ByteWriter batch;
    batch.put<std::uint32_t>(0xfffffffeu);
    EXPECT_THROW(serve::rpc::decodeSearchBatchResponse(batch.bytes()),
                 util::FormatError);
}

TEST(Endpoint, ParseEndpointTable)
{
    struct Case
    {
        const char *spec;
        bool ok;
        const char *host;
        std::uint16_t port;
    };
    const Case cases[] = {
        {"h:1", true, "h", 1},
        {":8080", true, "127.0.0.1", 8080},
        {"8080", true, "127.0.0.1", 8080},
        {"h:65535", true, "h", 65535},
        {"h:0", false, "", 0},
        {"h:65536", false, "", 0},
        {"h:80x", false, "", 0},
        {"h: 80", false, "", 0},
        {"h:+80", false, "", 0},
        {"h:", false, "", 0},
        {"", false, "", 0},
    };
    for (const Case &c : cases) {
        std::string host;
        std::uint16_t port = 0;
        ASSERT_EQ(serve::parseEndpoint(c.spec, host, port), c.ok)
            << "'" << c.spec << "'";
        if (c.ok) {
            EXPECT_EQ(host, c.host) << c.spec;
            EXPECT_EQ(port, c.port) << c.spec;
        }
    }
}

// ---------------------------------------------------------------------------
// Shard server + remote client

TEST(ShardRpc, RemoteSearchMatchesDirectShard)
{
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(0);
    serve::ShardServer server(shard, {});
    ASSERT_TRUE(server.start());

    serve::RemoteNodeOptions options;
    options.port = server.port();
    serve::RemoteNodeClient client(options);

    serve::rpc::HealthResponse health;
    ASSERT_TRUE(client.health(&health));
    EXPECT_EQ(health.protocol_version, serve::rpc::kProtocolVersion);
    EXPECT_EQ(health.dim, 16u);
    EXPECT_EQ(health.shard_vectors, shard.size());
    EXPECT_EQ(client.shardSize(), shard.size());

    index::SearchParams params;
    params.nprobe = 8;
    for (std::size_t q = 0; q < 8; ++q) {
        auto remote =
            client.submit(data.queries.embeddings.row(q), 5, params)
                .get();
        auto direct =
            shard.search(data.queries.embeddings.row(q), 5, params);
        ASSERT_EQ(remote.hits.size(), direct.size());
        for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_EQ(remote.hits[i].id, direct[i].id);
            EXPECT_EQ(remote.hits[i].score, direct[i].score);
        }
    }

    auto stats = client.stats();
    EXPECT_EQ(stats.requests, 8u);
    server.stop();
}

TEST(ShardRpc, ConcurrentSubmitsCoalesceIntoBatchRpcs)
{
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(1);
    serve::ShardServer server(shard, {});
    ASSERT_TRUE(server.start());

    serve::RemoteNodeOptions options;
    options.port = server.port();
    options.connections = 1; // one wire => queue backs up => coalescing
    serve::RemoteNodeClient client(options);

    index::SearchParams params;
    params.nprobe = 4;
    std::vector<std::future<serve::NodeResponse>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(client.submit(
            data.queries.embeddings.row(i % 32), 3, params));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        auto remote = futures[i].get();
        auto direct = shard.search(
            data.queries.embeddings.row(i % 32), 3, params);
        ASSERT_EQ(remote.hits.size(), direct.size());
        for (std::size_t j = 0; j < direct.size(); ++j) {
            EXPECT_EQ(remote.hits[j].id, direct[j].id);
            EXPECT_EQ(remote.hits[j].score, direct[j].score);
        }
    }

    auto cs = client.clientStats();
    EXPECT_GT(cs.batched_rpcs, 0u) << "no SearchBatch RPC ever formed";
    EXPECT_GT(cs.batched_requests, cs.batched_rpcs);
    EXPECT_EQ(cs.transport_failures, 0u);
    EXPECT_EQ(cs.remote_errors, 0u);
    server.stop();
}

TEST(ShardRpc, InterleavedParamsCoalescePerGroup)
{
    // One wire, and a shard whose node delay fault holds every request
    // 100 ms. While the first request is on the wire, 16 more queue up
    // behind it with nprobe alternating between two values. The client
    // sends each nprobe's 8 as one RPC, three RPCs in all, not one RPC
    // per consecutive run of equal params (17).
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(1);
    serve::ShardServerOptions server_options;
    server_options.node.faults.delay_probability = 1.0;
    server_options.node.faults.delay_ms = 100.0;
    serve::ShardServer server(shard, server_options);
    ASSERT_TRUE(server.start());

    serve::RemoteNodeOptions options;
    options.port = server.port();
    options.connections = 1;
    serve::RemoteNodeClient client(options);

    index::SearchParams params[2];
    params[0].nprobe = 2;
    params[1].nprobe = 8;
    std::vector<std::future<serve::NodeResponse>> futures;
    std::vector<const index::SearchParams *> sent_params;
    auto submit = [&](std::size_t q, const index::SearchParams &p) {
        futures.push_back(
            client.submit(data.queries.embeddings.row(q), 3, p));
        sent_params.push_back(&p);
    };
    submit(0, params[0]);
    for (int i = 0; i < 5000 && client.queueDepth() > 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(client.queueDepth(), 0u) << "worker never took the first";
    for (std::size_t q = 1; q <= 16; ++q)
        submit(q, params[q % 2]);

    for (std::size_t q = 0; q < futures.size(); ++q) {
        auto remote = futures[q].get();
        auto direct =
            shard.search(data.queries.embeddings.row(q), 3, *sent_params[q]);
        ASSERT_EQ(remote.hits.size(), direct.size()) << "query " << q;
        for (std::size_t j = 0; j < direct.size(); ++j) {
            EXPECT_EQ(remote.hits[j].id, direct[j].id) << "query " << q;
            EXPECT_EQ(remote.hits[j].score, direct[j].score)
                << "query " << q;
        }
    }

    auto cs = client.clientStats();
    EXPECT_EQ(cs.rpcs_sent, 3u);
    EXPECT_EQ(cs.batched_rpcs, 2u);
    EXPECT_EQ(cs.batched_requests, 16u);
    EXPECT_EQ(cs.transport_failures, 0u);
    EXPECT_EQ(cs.remote_errors, 0u);
    server.stop();
}

TEST(ShardRpc, PeerDisconnectMidResponseFailsTheFuture)
{
    // A fake shard that accepts, reads the request frame, then hangs up
    // without answering — the client must fail the future (broker
    // semantics: counted failure, retried), not hang or crash.
    net::Listener listener;
    ASSERT_TRUE(listener.open("127.0.0.1", 0));
    std::thread fake([&] {
        for (int i = 0; i < 2; ++i) {
            net::Socket conn = listener.acceptFor(5000.0);
            if (!conn.valid())
                continue;
            net::Frame frame;
            net::recvFrame(conn, frame, net::Deadline::after(2000.0));
            conn.close(); // mid-RPC hangup
        }
    });

    serve::RemoteNodeOptions options;
    options.port = listener.port();
    options.connections = 1;
    options.request_deadline_ms = 1000.0;
    serve::RemoteNodeClient client(options);

    std::vector<float> query(16, 0.5f);
    index::SearchParams params;
    auto future = client.submit(
        vecstore::VecView(query.data(), query.size()), 3, params);
    EXPECT_THROW(future.get(), std::exception);
    fake.join();
}

TEST(ShardRpc, ClientReconnectsAfterShardRestart)
{
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(2);

    auto server = std::make_unique<serve::ShardServer>(
        shard, serve::ShardServerOptions{});
    ASSERT_TRUE(server->start());
    std::uint16_t port = server->port();

    serve::RemoteNodeOptions options;
    options.port = port;
    options.connections = 1;
    options.request_deadline_ms = 1000.0;
    serve::RemoteNodeClient client(options);

    index::SearchParams params;
    params.nprobe = 4;
    auto query = data.queries.embeddings.row(0);
    auto before = client.submit(query, 3, params).get();

    // Kill the shard: in-flight/new requests fail (the broker would
    // count failures and degrade) ...
    server->stop();
    server.reset();
    EXPECT_THROW(client.submit(query, 3, params).get(), std::exception);

    // ... and a restart on the same port is picked up by the client's
    // dial-on-demand without any explicit reset.
    serve::ShardServerOptions reopts;
    reopts.port = port;
    server = std::make_unique<serve::ShardServer>(shard, reopts);
    ASSERT_TRUE(server->start());

    serve::NodeResponse after;
    bool recovered = false;
    for (int attempt = 0; attempt < 5 && !recovered; ++attempt) {
        try {
            after = client.submit(query, 3, params).get();
            recovered = true;
        } catch (const std::exception &) {
        }
    }
    ASSERT_TRUE(recovered);
    ASSERT_EQ(after.hits.size(), before.hits.size());
    for (std::size_t i = 0; i < after.hits.size(); ++i) {
        EXPECT_EQ(after.hits[i].id, before.hits[i].id);
        EXPECT_EQ(after.hits[i].score, before.hits[i].score);
    }
    EXPECT_GT(client.clientStats().reconnects, 0u);
    server->stop();
}

TEST(ShardRpc, OverflowingLengthPrefixAnsweredAsBadRequest)
{
    // Regression for the wire-codec overflow: a crafted SearchBatch
    // request whose float-count prefix wraps n * sizeof(float) mod 2^64
    // used to throw std::length_error past the decode-error-only catch in
    // dispatch(), escaping the connection thread and std::terminate'ing
    // the shard process. It must answer BadRequest and keep serving.
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(0);
    serve::ShardServer server(shard, {});
    ASSERT_TRUE(server.start());

    std::string error;
    net::Socket client =
        net::connectTo("127.0.0.1", server.port(), 1000.0, &error);
    ASSERT_TRUE(client.valid()) << error;

    util::ByteWriter evil;
    evil.put<std::uint64_t>(1);           // k
    evil.put<std::uint64_t>(1);           // nprobe
    evil.put<std::uint64_t>(0);           // ef_search
    evil.put<double>(0.0);                // prune_ratio
    evil.put<std::uint64_t>(0);           // batch_min_scan_floats
    evil.put<double>(0.0);                // deadline_ms
    evil.put<std::uint64_t>(shard.dim()); // dim
    // Query float count: n * 4 wraps to 4.
    evil.put<std::uint64_t>((1ull << 62) + 1);
    evil.put<float>(0.0f);
    ASSERT_EQ(net::sendFrame(
                  client,
                  static_cast<std::uint32_t>(
                      serve::rpc::Type::SearchBatchRequest),
                  7, evil.bytes(), net::Deadline::after(1000.0)),
              net::IoStatus::Ok);

    net::Frame reply;
    ASSERT_EQ(net::recvFrame(client, reply, net::Deadline::after(5000.0)),
              net::IoStatus::Ok);
    ASSERT_EQ(static_cast<serve::rpc::Type>(reply.type),
              serve::rpc::Type::ErrorResponse);
    EXPECT_EQ(serve::rpc::decodeError(reply.payload).code,
              serve::rpc::ErrorCode::BadRequest);

    // Same connection, well-formed request: the shard must still serve.
    serve::rpc::SearchBatchRequest request;
    request.k = 3;
    request.params.nprobe = 1;
    request.dim = shard.dim();
    request.queries.assign(shard.dim(), 0.0f);
    ASSERT_EQ(net::sendFrame(
                  client,
                  static_cast<std::uint32_t>(
                      serve::rpc::Type::SearchBatchRequest),
                  8, serve::rpc::encodeSearchBatchRequest(request),
                  net::Deadline::after(1000.0)),
              net::IoStatus::Ok);
    ASSERT_EQ(net::recvFrame(client, reply, net::Deadline::after(5000.0)),
              net::IoStatus::Ok);
    EXPECT_EQ(static_cast<serve::rpc::Type>(reply.type),
              serve::rpc::Type::SearchBatchResponse);
    EXPECT_EQ(reply.id, 8u);
    server.stop();
}

TEST(ShardRpc, WaitBudgetCoversTheWholeBatch)
{
    // The deadline bounds the RPC, not each member: three queries that
    // the node serves one at a time, 40 ms apart, finish at ~120 ms,
    // past a 60 ms budget. A per-member budget would answer them all
    // (each wait is under 60 ms); one budget for the frame must time
    // out.
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(0);
    serve::ShardServerOptions options;
    options.node.max_batch = 1;
    options.node.faults.delay_probability = 1.0;
    options.node.faults.delay_ms = 40.0;
    options.deadline_slack_ms = 0.0;
    serve::ShardServer server(shard, options);
    ASSERT_TRUE(server.start());

    std::string error;
    net::Socket client =
        net::connectTo("127.0.0.1", server.port(), 1000.0, &error);
    ASSERT_TRUE(client.valid()) << error;

    serve::rpc::SearchBatchRequest request;
    request.k = 3;
    request.params.nprobe = 1;
    request.deadline_ms = 60.0;
    request.dim = shard.dim();
    for (std::size_t q = 0; q < 3; ++q) {
        auto row = data.queries.embeddings.row(q);
        request.queries.insert(request.queries.end(), row.begin(),
                               row.end());
    }
    ASSERT_EQ(net::sendFrame(
                  client,
                  static_cast<std::uint32_t>(
                      serve::rpc::Type::SearchBatchRequest),
                  9, serve::rpc::encodeSearchBatchRequest(request),
                  net::Deadline::after(1000.0)),
              net::IoStatus::Ok);
    net::Frame reply;
    ASSERT_EQ(net::recvFrame(client, reply, net::Deadline::after(5000.0)),
              net::IoStatus::Ok);
    ASSERT_EQ(static_cast<serve::rpc::Type>(reply.type),
              serve::rpc::Type::ErrorResponse);
    EXPECT_EQ(serve::rpc::decodeError(reply.payload).code,
              serve::rpc::ErrorCode::Timeout);
    server.stop();
}

TEST(ShardRpc, FinishedConnectionHandlersAreReaped)
{
    // A long-lived shard serving many short connections must join
    // handler threads as they finish, not hoard them until stop().
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(0);
    serve::ShardServer server(shard, {});
    ASSERT_TRUE(server.start());

    constexpr int kConnections = 4;
    for (int i = 0; i < kConnections; ++i) {
        std::string error;
        net::Socket client =
            net::connectTo("127.0.0.1", server.port(), 1000.0, &error);
        ASSERT_TRUE(client.valid()) << error;
        client.close();
    }

    // Handlers notice the close within an idle tick (~100 ms) and the
    // accept loop reaps on its next tick.
    bool reaped = false;
    for (int i = 0; i < 100 && !reaped; ++i) {
        reaped = server.stats().connections_reaped >= kConnections;
        if (!reaped)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(reaped) << "reaped " << server.stats().connections_reaped
                        << " of " << kConnections;
    server.stop();
}

TEST(ShardRpc, BrokerBitParityInProcessVsRemote)
{
    const auto &data = netServeData();

    // One ShardServer per cluster, a RemoteNodeClient each, and a
    // broker on top — against the reference broker over in-process
    // nodes on the same store. Hit lists must match bit for bit.
    std::vector<std::unique_ptr<serve::ShardServer>> servers;
    std::vector<std::unique_ptr<serve::NodeClient>> remotes;
    for (std::size_t c = 0; c < data.store->numClusters(); ++c) {
        serve::ShardServerOptions options;
        options.node.node_id = c;
        servers.push_back(std::make_unique<serve::ShardServer>(
            data.store->clusterIndex(c), options));
        ASSERT_TRUE(servers.back()->start());

        serve::RemoteNodeOptions ro;
        ro.port = servers.back()->port();
        ro.request_deadline_ms = 2000.0;
        remotes.push_back(
            std::make_unique<serve::RemoteNodeClient>(ro));
    }

    serve::HermesBroker local(*data.store, {});
    serve::HermesBroker remote(data.config, std::move(remotes), {});

    for (std::size_t q = 0; q < 16; ++q) {
        auto query = data.queries.embeddings.row(q);
        auto expect = local.search(query, 10);
        auto got = remote.search(query, 10);
        ASSERT_EQ(got.size(), expect.size()) << "query " << q;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].id, expect[i].id) << "query " << q;
            EXPECT_EQ(got[i].score, expect[i].score) << "query " << q;
        }
    }

    auto stats = remote.stats();
    EXPECT_EQ(stats.queries, 16u);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.timeouts, 0u);
    for (auto &server : servers)
        server->stop();
}

TEST(ShardRpc, ReplicatedRemoteBrokerParityAndFailover)
{
    const auto &data = netServeData();

    // Fleet: one ShardServer per cluster plus a second, bit-identical
    // copy of cluster 1 (same immutable shard, node index 6). The
    // broker's replica map routes cluster 1 over both copies via p2c.
    std::vector<std::unique_ptr<serve::ShardServer>> servers;
    std::vector<std::unique_ptr<serve::NodeClient>> remotes;
    auto addServer = [&](std::size_t cluster) {
        serve::ShardServerOptions options;
        options.node.node_id = cluster;
        servers.push_back(std::make_unique<serve::ShardServer>(
            data.store->clusterIndex(cluster), options));
        ASSERT_TRUE(servers.back()->start());
        serve::RemoteNodeOptions ro;
        ro.port = servers.back()->port();
        ro.request_deadline_ms = 1000.0;
        remotes.push_back(std::make_unique<serve::RemoteNodeClient>(ro));
    };
    for (std::size_t c = 0; c < data.store->numClusters(); ++c)
        addServer(c);
    addServer(1); // replica of cluster 1

    serve::BrokerConfig bc;
    bc.replica_map = serve::ReplicaMap::identity(data.store->numClusters());
    bc.replica_map.assign(1, 6);
    bc.node_deadline_ms = 1500.0;
    bc.max_retries = 1;
    bc.hedge.min_samples = 4;
    serve::HermesBroker local(*data.store, {});
    serve::HermesBroker remote(data.config, std::move(remotes), bc);

    auto expectParity = [&](std::size_t q) {
        auto query = data.queries.embeddings.row(q);
        auto expect = local.search(query, 10);
        auto got = remote.search(query, 10);
        ASSERT_EQ(got.size(), expect.size()) << "query " << q;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].id, expect[i].id) << "query " << q;
            EXPECT_EQ(got[i].score, expect[i].score) << "query " << q;
        }
    };

    for (std::size_t q = 0; q < 12; ++q)
        expectParity(q);

    // Kill the replica mid-run (SIGKILL equivalent: server torn down,
    // connections die). Every later query must still return the full,
    // bit-identical top-k off the surviving copy — routed-to-dead
    // probes fail fast or time out and fail over.
    servers.back()->stop();
    for (std::size_t q = 12; q < 24; ++q)
        expectParity(q);

    // Queries that hit the dead copy count failures/timeouts (and are
    // flagged degraded — that flag means "saw a fault", not "lost
    // hits"), but every one of them recovered to the full top-k above.
    auto stats = remote.stats();
    EXPECT_EQ(stats.queries, 24u);
    EXPECT_GT(stats.failures + stats.timeouts, 0u);
    ASSERT_EQ(stats.node_clusters.size(), 7u);
    EXPECT_EQ(stats.node_clusters[6], 1u);
    for (auto &server : servers)
        server->stop();
}

// ---------------------------------------------------------------------------
// Counters: one count per event

TEST(CountOnce, RegistrySeriesSumEveryBrokerAndClient)
{
    // Each counted event is one add() that feeds both the object's own
    // stats and the registry series of the same name, so after a reset
    // every series is exactly the sum over the objects in the process.
    const auto &data = netServeData();
    auto &registry = obs::Registry::instance();
    registry.reset();
    namespace n = obs::names;

    // Broker A: cluster 0 doubled and failing, cluster 1 dropping
    // requests, hedges armed early. Broker B: fault-free.
    serve::BrokerConfig faulty;
    faulty.replicate = {{0, 2}};
    faulty.node_faults.resize(2);
    faulty.node_faults[0].fail_probability = 0.3;
    faulty.node_faults[1].drop_probability = 0.1;
    faulty.node_deadline_ms = 50.0;
    faulty.hedge.quantile = 50.0;
    faulty.hedge.min_samples = 4;
    faulty.hedge.min_trigger_us = 1.0;
    serve::HermesBroker a(*data.store, faulty);
    serve::HermesBroker b(*data.store);
    for (std::size_t q = 0; q < 24; ++q) {
        a.search(data.queries.embeddings.row(q), 5);
        b.search(data.queries.embeddings.row(q + 8), 5);
    }
    const serve::BrokerStats sa = a.stats();
    const serve::BrokerStats sb = b.stats();
    EXPECT_GT(sa.failures + sa.timeouts, 0u) << "faults never fired";

    using Field = std::uint64_t serve::BrokerStats::*;
    const std::pair<const char *, Field> broker_fields[] = {
        {n::kBrokerQueries, &serve::BrokerStats::queries},
        {n::kBrokerDeepRequests, &serve::BrokerStats::deep_requests},
        {n::kBrokerTimeouts, &serve::BrokerStats::timeouts},
        {n::kBrokerFailures, &serve::BrokerStats::failures},
        {n::kBrokerDegradedQueries, &serve::BrokerStats::degraded_queries},
        {n::kBrokerHedgesIssued, &serve::BrokerStats::hedges_issued},
        {n::kBrokerHedgesWon, &serve::BrokerStats::hedges_won},
        {n::kBrokerHedgesWasted, &serve::BrokerStats::hedges_wasted},
    };
    for (const auto &[name, field] : broker_fields)
        EXPECT_EQ(registry.counter(name).value(), sa.*field + sb.*field)
            << name;

    // Per-cluster and per-route series sum the two load reports.
    const serve::LoadReport la = a.loadReport();
    const serve::LoadReport lb = b.loadReport();
    for (std::size_t c = 0; c < data.store->numClusters(); ++c) {
        const serve::ClusterLoad &ca = la.clusters[c];
        const serve::ClusterLoad &cb = lb.clusters[c];
        EXPECT_EQ(registry.counter(n::nodeMetric(c, n::kNodeSampleRequests))
                      .value(),
                  ca.sample_requests + cb.sample_requests) << c;
        EXPECT_EQ(registry.counter(n::nodeMetric(c, n::kNodeDeepRequests))
                      .value(),
                  ca.deep_requests + cb.deep_requests) << c;
        EXPECT_EQ(registry.counter(n::nodeMetric(c, n::kNodeHitsReturned))
                      .value(),
                  ca.hits_returned + cb.hits_returned) << c;
        for (std::size_t slot = 0; slot < ca.replica_routes.size(); ++slot) {
            const std::uint64_t from_b = slot < cb.replica_routes.size()
                ? cb.replica_routes[slot]
                : 0;
            EXPECT_EQ(registry.counter(n::routeMetric(c, slot)).value(),
                      ca.replica_routes[slot] + from_b)
                << c << "." << slot;
        }
    }

    // Two RPC clients of one shard; a wrong-dim query earns a typed
    // error reply.
    serve::ShardServer server(data.store->clusterIndex(0), {});
    ASSERT_TRUE(server.start());
    serve::RemoteNodeOptions ro;
    ro.port = server.port();
    serve::RemoteNodeClient c1(ro);
    serve::RemoteNodeClient c2(ro);
    index::SearchParams params;
    for (std::size_t q = 0; q < 6; ++q) {
        c1.submit(data.queries.embeddings.row(q), 3, params).get();
        c2.submit(data.queries.embeddings.row(q), 3, params).get();
    }
    std::vector<float> wrong_dim(3, 0.5f);
    EXPECT_THROW(c2.submit(vecstore::VecView(wrong_dim.data(),
                                             wrong_dim.size()),
                           3, params)
                     .get(),
                 std::exception);
    const serve::RemoteNodeClientStats r1 = c1.clientStats();
    const serve::RemoteNodeClientStats r2 = c2.clientStats();
    EXPECT_EQ(r2.remote_errors, 1u);
    EXPECT_EQ(registry.counter(n::kRpcRpcs).value(),
              r1.rpcs_sent + r2.rpcs_sent);
    EXPECT_EQ(registry.counter(n::kRpcRedials).value(),
              r1.reconnects + r2.reconnects);
    EXPECT_EQ(registry.counter(n::kRpcTransportFailures).value(),
              r1.transport_failures + r2.transport_failures);
    EXPECT_EQ(registry.counter(n::kRpcRemoteErrors).value(),
              r1.remote_errors + r2.remote_errors);
    server.stop();
}

// ---------------------------------------------------------------------------
// HTTP exporter regressions

namespace {

/** Raw one-shot HTTP exchange against the exporter. */
std::string
rawHttpExchange(std::uint16_t port, const std::string &request)
{
    net::Socket socket = net::connectTo("127.0.0.1", port, 1000.0);
    EXPECT_TRUE(socket.valid());
    EXPECT_TRUE(net::writeAll(socket, request.data(), request.size(),
                              net::Deadline::after(1000.0))
                    .ok());
    std::string response;
    char buf[4096];
    for (;;) {
        auto got = net::readSome(socket, buf, sizeof(buf),
                                 net::Deadline::after(3000.0));
        if (!got.ok())
            break;
        response.append(buf, got.bytes);
    }
    return response;
}

} // namespace

TEST(HttpExporter, BareLfRequestHeadIsServed)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string response = rawHttpExchange(
        exporter.port(), "GET /healthz HTTP/1.0\nHost: x\n\n");
    EXPECT_NE(response.find(" 200 "), std::string::npos) << response;
    EXPECT_NE(response.find("ok"), std::string::npos);
    exporter.stop();
}

TEST(HttpExporter, OversizedHeadGets400)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string request = "GET /healthz HTTP/1.0\r\nX-Pad: " +
        std::string(10000, 'a') + "\r\n\r\n";
    std::string response = rawHttpExchange(exporter.port(), request);
    EXPECT_NE(response.find(" 400 "), std::string::npos) << response;
    exporter.stop();
}

TEST(HttpExporter, GarbageHeadGets400)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string response = rawHttpExchange(
        exporter.port(), std::string("\x01\x02\x03 binary\r\n\r\n"));
    EXPECT_NE(response.find(" 400 "), std::string::npos) << response;
    exporter.stop();
}

TEST(HttpExporter, NotFoundHeadIsPlainTextWithJsonBody)
{
    // The 404 contract: a text/plain head (curl prints it as-is) whose
    // body is still machine-parseable JSON naming the bad path.
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string response = rawHttpExchange(
        exporter.port(), "GET /no-such-route HTTP/1.0\r\nHost: x\r\n\r\n");
    EXPECT_NE(response.find(" 404 "), std::string::npos) << response;
    EXPECT_NE(response.find("Content-Type: text/plain"),
              std::string::npos)
        << response;
    std::size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    auto parsed = util::json::parse(response.substr(body_at + 4));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.find("error")->stringOr(""), "unknown path");
    EXPECT_EQ(parsed.value.find("path")->stringOr(""), "/no-such-route");
    exporter.stop();
}

TEST(HttpExporter, HttpGetRoundTripAgainstExporter)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string body;
    std::string status;
    ASSERT_TRUE(obs::httpGet("127.0.0.1", exporter.port(), "/healthz",
                             &body, &status));
    EXPECT_EQ(body, "ok\n"); // exact: Content-Length honored
    EXPECT_NE(status.find("200"), std::string::npos);
    exporter.stop();
}

TEST(HttpExporter, HttpGetRejectsTruncatedBody)
{
    // A server that advertises 100 bytes, sends 10, and hangs up.
    net::Listener listener;
    ASSERT_TRUE(listener.open("127.0.0.1", 0));
    std::thread fake([&] {
        net::Socket conn = listener.acceptFor(5000.0);
        ASSERT_TRUE(conn.valid());
        char buf[1024];
        net::readSome(conn, buf, sizeof(buf),
                      net::Deadline::after(2000.0));
        std::string response = "HTTP/1.0 200 OK\r\n"
                               "Content-Length: 100\r\n"
                               "Connection: close\r\n\r\n"
                               "only ten b";
        net::writeAll(conn, response.data(), response.size(),
                      net::Deadline::after(2000.0));
        conn.close();
    });

    std::string body;
    std::string status;
    EXPECT_FALSE(obs::httpGet("127.0.0.1", listener.port(), "/x", &body,
                              &status));
    EXPECT_TRUE(body.empty());
    fake.join();
}
