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
encodeStats(util::ByteWriter &writer, const index::SearchStats &stats)
{
    writer.put<std::uint64_t>(stats.lists_probed);
    writer.put<std::uint64_t>(stats.vectors_scanned);
    writer.put<std::uint64_t>(stats.distance_computations);
    writer.put<std::uint64_t>(stats.bytes_scanned);
}

index::SearchStats
decodeStats(util::ByteReader &reader)
{
    index::SearchStats stats;
    stats.lists_probed = reader.get<std::uint64_t>();
    stats.vectors_scanned = reader.get<std::uint64_t>();
    stats.distance_computations = reader.get<std::uint64_t>();
    stats.bytes_scanned = reader.get<std::uint64_t>();
    return stats;
}

void
encodeHits(util::ByteWriter &writer, const vecstore::HitList &hits)
{
    writer.put(static_cast<std::uint32_t>(hits.size()));
    for (const auto &hit : hits) {
        writer.put<std::int64_t>(hit.id);
        writer.put<float>(hit.score);
    }
}

vecstore::HitList
decodeHits(util::ByteReader &reader)
{
    std::uint32_t n = reader.get<std::uint32_t>();
    // Bound the claimed count by the bytes actually present before
    // reserving: a corrupt frame claiming ~4e9 hits must fail as a
    // FormatError, not as a multi-GB allocation attempt.
    reader.needCount(n, kHitWireBytes);
    vecstore::HitList hits;
    hits.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        vecstore::Hit hit;
        hit.id = reader.get<std::int64_t>();
        hit.score = reader.get<float>();
        hits.push_back(hit);
    }
    return hits;
}

} // namespace

std::string
encodeSearchBatchRequest(const SearchBatchRequest &request)
{
    util::ByteWriter writer;
    writer.put<std::uint64_t>(request.k);
    writer.put<std::uint64_t>(request.params.nprobe);
    writer.put<std::uint64_t>(request.params.ef_search);
    writer.put<double>(request.params.prune_ratio);
    writer.put<std::uint64_t>(request.params.batch_min_scan_floats);
    writer.put<double>(request.deadline_ms);
    writer.put<std::uint64_t>(request.dim);
    writer.putVector(request.queries);
    std::uint32_t active = 0;
    for (const auto &trace : request.traces)
        active += trace.active ? 1 : 0;
    if (active > 0) {
        // Sparse trailing list: only traced slots go on the wire.
        writer.put<std::uint32_t>(active);
        for (std::size_t i = 0; i < request.traces.size(); ++i) {
            if (!request.traces[i].active)
                continue;
            writer.put(static_cast<std::uint32_t>(i));
            writer.put<std::uint64_t>(request.traces[i].trace_id);
            writer.put<std::uint64_t>(request.traces[i].parent_span_id);
        }
    }
    return writer.take();
}

SearchBatchRequest
decodeSearchBatchRequest(std::string_view payload)
{
    util::ByteReader reader(payload, "wire");
    SearchBatchRequest request;
    request.k = reader.get<std::uint64_t>();
    request.params.nprobe = reader.get<std::uint64_t>();
    request.params.ef_search = reader.get<std::uint64_t>();
    request.params.prune_ratio = reader.get<double>();
    request.params.batch_min_scan_floats = reader.get<std::uint64_t>();
    request.deadline_ms = reader.get<double>();
    request.dim = reader.get<std::uint64_t>();
    request.queries = reader.getVector<float>();
    if (request.dim == 0 || request.queries.size() % request.dim != 0)
        reader.fail(util::FormatErrorCode::Corrupt,
                    "batch query block not a multiple of dim");
    if (reader.remaining() > 0) {
        const std::size_t q = request.numQueries();
        std::uint32_t n = reader.get<std::uint32_t>();
        // 20 wire bytes per entry; bound the claimed count by both the
        // remaining payload and the batch size before allocating.
        reader.needCount(n, 20);
        if (n > q)
            reader.fail(util::FormatErrorCode::Corrupt,
                        "more trace contexts than queries");
        request.traces.assign(q, obs::TraceContextSnapshot{});
        for (std::uint32_t e = 0; e < n; ++e) {
            std::uint32_t slot = reader.get<std::uint32_t>();
            if (slot >= q)
                reader.fail(util::FormatErrorCode::Corrupt,
                            "trace context slot out of range");
            auto &trace = request.traces[slot];
            trace.active = true;
            trace.trace_id = reader.get<std::uint64_t>();
            trace.parent_span_id = reader.get<std::uint64_t>();
        }
    }
    reader.expectEnd();
    return request;
}

std::string
encodeSearchBatchResponse(const std::vector<NodeResponse> &responses)
{
    util::ByteWriter writer;
    writer.put(static_cast<std::uint32_t>(responses.size()));
    for (const auto &response : responses) {
        encodeHits(writer, response.hits);
        encodeStats(writer, response.stats);
    }
    return writer.take();
}

std::vector<NodeResponse>
decodeSearchBatchResponse(std::string_view payload)
{
    util::ByteReader reader(payload, "wire");
    std::uint32_t n = reader.get<std::uint32_t>();
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
    util::ByteWriter writer;
    writer.put<std::uint64_t>(response.stats.requests);
    writer.put<std::uint64_t>(response.stats.batches);
    writer.put<double>(response.stats.busy_seconds);
    writer.put<std::uint64_t>(response.stats.vectors_scanned);
    writer.put<std::uint64_t>(response.stats.failures);
    writer.put<std::uint64_t>(response.stats.dropped);
    writer.put<std::uint64_t>(response.stats.hits_returned);
    writer.put<double>(response.stats.energy_joules);
    writer.put<std::uint64_t>(response.queue_depth);
    writer.put<std::uint64_t>(response.shard_vectors);
    return writer.take();
}

StatsResponse
decodeStatsResponse(std::string_view payload)
{
    util::ByteReader reader(payload, "wire");
    StatsResponse response;
    response.stats.requests = reader.get<std::uint64_t>();
    response.stats.batches = reader.get<std::uint64_t>();
    response.stats.busy_seconds = reader.get<double>();
    response.stats.vectors_scanned = reader.get<std::uint64_t>();
    response.stats.failures = reader.get<std::uint64_t>();
    response.stats.dropped = reader.get<std::uint64_t>();
    response.stats.hits_returned = reader.get<std::uint64_t>();
    response.stats.energy_joules = reader.get<double>();
    response.queue_depth = reader.get<std::uint64_t>();
    response.shard_vectors = reader.get<std::uint64_t>();
    reader.expectEnd();
    return response;
}

std::string
encodeHealthRequest(std::uint32_t client_version)
{
    util::ByteWriter writer;
    writer.put<std::uint32_t>(client_version);
    return writer.take();
}

std::uint32_t
decodeHealthRequest(std::string_view payload)
{
    util::ByteReader reader(payload, "wire");
    std::uint32_t version = reader.get<std::uint32_t>();
    reader.expectEnd();
    return version;
}

std::string
encodeHealthResponse(const HealthResponse &response)
{
    util::ByteWriter writer;
    writer.put<std::uint32_t>(response.protocol_version);
    writer.put<std::uint32_t>(response.node_id);
    writer.put<std::uint32_t>(response.dim);
    writer.put<std::uint64_t>(response.shard_vectors);
    writer.put<double>(response.trace_now_us);
    return writer.take();
}

HealthResponse
decodeHealthResponse(std::string_view payload)
{
    util::ByteReader reader(payload, "wire");
    HealthResponse response;
    response.protocol_version = reader.get<std::uint32_t>();
    response.node_id = reader.get<std::uint32_t>();
    response.dim = reader.get<std::uint32_t>();
    response.shard_vectors = reader.get<std::uint64_t>();
    response.trace_now_us = reader.get<double>();
    reader.expectEnd();
    return response;
}

std::string
encodeError(ErrorCode code, const std::string &message)
{
    util::ByteWriter writer;
    writer.put(static_cast<std::uint32_t>(code));
    writer.putString(message);
    return writer.take();
}

ErrorBody
decodeError(std::string_view payload)
{
    util::ByteReader reader(payload, "wire");
    ErrorBody body;
    body.code = static_cast<ErrorCode>(reader.get<std::uint32_t>());
    body.message = reader.getString();
    reader.expectEnd();
    return body;
}

} // namespace rpc
} // namespace serve
} // namespace hermes
