#include "serve/rpc.hpp"

namespace hermes {
namespace serve {
namespace rpc {

namespace {

/** Encoded size of one Hit: i64 id + f32 score. */
constexpr std::size_t kHitWireBytes = 12;

/** Minimum encoded size of one NodeResponse: empty-hit u32 + 4 stats u64s. */
constexpr std::size_t kMinResponseWireBytes = 36;

void
encodeStats(net::WireWriter &writer, const index::SearchStats &stats)
{
    writer.u64(stats.lists_probed);
    writer.u64(stats.vectors_scanned);
    writer.u64(stats.distance_computations);
    writer.u64(stats.bytes_scanned);
}

index::SearchStats
decodeStats(net::WireReader &reader)
{
    index::SearchStats stats;
    stats.lists_probed = reader.u64();
    stats.vectors_scanned = reader.u64();
    stats.distance_computations = reader.u64();
    stats.bytes_scanned = reader.u64();
    return stats;
}

void
encodeHits(net::WireWriter &writer, const vecstore::HitList &hits)
{
    writer.u32(static_cast<std::uint32_t>(hits.size()));
    for (const auto &hit : hits) {
        writer.i64(hit.id);
        writer.f32(hit.score);
    }
}

vecstore::HitList
decodeHits(net::WireReader &reader)
{
    std::uint32_t n = reader.u32();
    // Bound the claimed count by the bytes actually present before
    // reserving: a corrupt frame claiming ~4e9 hits must fail as a
    // WireError, not as a multi-GB allocation attempt.
    reader.needCount(n, kHitWireBytes);
    vecstore::HitList hits;
    hits.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        vecstore::Hit hit;
        hit.id = reader.i64();
        hit.score = reader.f32();
        hits.push_back(hit);
    }
    return hits;
}

} // namespace

std::string
encodeSearchBatchRequest(const SearchBatchRequest &request)
{
    net::WireWriter writer;
    writer.u64(request.k);
    writer.u64(request.params.nprobe);
    writer.u64(request.params.ef_search);
    writer.f64(request.params.prune_ratio);
    writer.u64(request.params.batch_min_scan_floats);
    writer.f64(request.deadline_ms);
    writer.u64(request.dim);
    writer.floats(request.queries.data(), request.queries.size());
    std::uint32_t active = 0;
    for (const auto &trace : request.traces)
        active += trace.active ? 1 : 0;
    if (active > 0) {
        // Sparse trailing list: only traced slots go on the wire.
        writer.u32(active);
        for (std::size_t i = 0; i < request.traces.size(); ++i) {
            if (!request.traces[i].active)
                continue;
            writer.u32(static_cast<std::uint32_t>(i));
            writer.u64(request.traces[i].trace_id);
            writer.u64(request.traces[i].parent_span_id);
        }
    }
    return writer.take();
}

SearchBatchRequest
decodeSearchBatchRequest(std::string_view payload)
{
    net::WireReader reader(payload);
    SearchBatchRequest request;
    request.k = reader.u64();
    request.params.nprobe = reader.u64();
    request.params.ef_search = reader.u64();
    request.params.prune_ratio = reader.f64();
    request.params.batch_min_scan_floats = reader.u64();
    request.deadline_ms = reader.f64();
    request.dim = reader.u64();
    request.queries = reader.floats();
    if (request.dim == 0 || request.queries.size() % request.dim != 0)
        throw net::WireError("batch query block not a multiple of dim");
    if (!reader.atEnd()) {
        const std::size_t q = request.numQueries();
        std::uint32_t n = reader.u32();
        // 20 wire bytes per entry; bound the claimed count by both the
        // remaining payload and the batch size before allocating.
        reader.needCount(n, 20);
        if (n > q)
            throw net::WireError("more trace contexts than queries");
        request.traces.assign(q, obs::TraceContextSnapshot{});
        for (std::uint32_t e = 0; e < n; ++e) {
            std::uint32_t slot = reader.u32();
            if (slot >= q)
                throw net::WireError("trace context slot out of range");
            auto &trace = request.traces[slot];
            trace.active = true;
            trace.trace_id = reader.u64();
            trace.parent_span_id = reader.u64();
        }
    }
    reader.expectEnd();
    return request;
}

std::string
encodeSearchBatchResponse(const std::vector<NodeResponse> &responses)
{
    net::WireWriter writer;
    writer.u32(static_cast<std::uint32_t>(responses.size()));
    for (const auto &response : responses) {
        encodeHits(writer, response.hits);
        encodeStats(writer, response.stats);
    }
    return writer.take();
}

std::vector<NodeResponse>
decodeSearchBatchResponse(std::string_view payload)
{
    net::WireReader reader(payload);
    std::uint32_t n = reader.u32();
    reader.needCount(n, kMinResponseWireBytes);
    std::vector<NodeResponse> responses(n);
    for (auto &response : responses) {
        response.hits = decodeHits(reader);
        response.stats = decodeStats(reader);
    }
    reader.expectEnd();
    return responses;
}

std::string
encodeStatsResponse(const StatsResponse &response)
{
    net::WireWriter writer;
    writer.u64(response.stats.requests);
    writer.u64(response.stats.batches);
    writer.f64(response.stats.busy_seconds);
    writer.u64(response.stats.vectors_scanned);
    writer.u64(response.stats.failures);
    writer.u64(response.stats.dropped);
    writer.u64(response.stats.hits_returned);
    writer.f64(response.stats.energy_joules);
    writer.u64(response.queue_depth);
    writer.u64(response.shard_vectors);
    return writer.take();
}

StatsResponse
decodeStatsResponse(std::string_view payload)
{
    net::WireReader reader(payload);
    StatsResponse response;
    response.stats.requests = reader.u64();
    response.stats.batches = reader.u64();
    response.stats.busy_seconds = reader.f64();
    response.stats.vectors_scanned = reader.u64();
    response.stats.failures = reader.u64();
    response.stats.dropped = reader.u64();
    response.stats.hits_returned = reader.u64();
    response.stats.energy_joules = reader.f64();
    response.queue_depth = reader.u64();
    response.shard_vectors = reader.u64();
    reader.expectEnd();
    return response;
}

std::string
encodeHealthRequest(std::uint32_t client_version)
{
    net::WireWriter writer;
    writer.u32(client_version);
    return writer.take();
}

std::uint32_t
decodeHealthRequest(std::string_view payload)
{
    net::WireReader reader(payload);
    std::uint32_t version = reader.u32();
    reader.expectEnd();
    return version;
}

std::string
encodeHealthResponse(const HealthResponse &response)
{
    net::WireWriter writer;
    writer.u32(response.protocol_version);
    writer.u32(response.node_id);
    writer.u32(response.dim);
    writer.u64(response.shard_vectors);
    writer.f64(response.trace_now_us);
    return writer.take();
}

HealthResponse
decodeHealthResponse(std::string_view payload)
{
    net::WireReader reader(payload);
    HealthResponse response;
    response.protocol_version = reader.u32();
    response.node_id = reader.u32();
    response.dim = reader.u32();
    response.shard_vectors = reader.u64();
    response.trace_now_us = reader.f64();
    reader.expectEnd();
    return response;
}

std::string
encodeError(ErrorCode code, const std::string &message)
{
    net::WireWriter writer;
    writer.u32(static_cast<std::uint32_t>(code));
    writer.str(message);
    return writer.take();
}

ErrorBody
decodeError(std::string_view payload)
{
    net::WireReader reader(payload);
    ErrorBody body;
    body.code = static_cast<ErrorCode>(reader.u32());
    body.message = reader.str();
    reader.expectEnd();
    return body;
}

} // namespace rpc
} // namespace serve
} // namespace hermes
