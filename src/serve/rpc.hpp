/**
 * @file
 * The broker <-> shard RPC vocabulary: message types and their binary
 * encodings over net::Frame payloads (util::ByteWriter/ByteReader).
 *
 * Three request/response pairs carry the whole serving protocol:
 *
 *   SearchBatch   Q >= 1 queries  -> Q x (hits + SearchStats), the wire
 *                                    twin of RetrievalNode micro-batching;
 *                                    a single query is a batch of one
 *   Stats         -               -> NodeStats + queue depth + shard size
 *   Health        u32 version     -> version, dim, shard size, trace clock
 *
 * plus a typed Error response (timeout / bad request / internal /
 * shutting down). Request ids live in the frame header and are echoed
 * verbatim, so a client can match late responses after it has already
 * given up on them.
 *
 * Encoding invariants: decode functions throw util::FormatError on any
 * truncated, over-long or trailing-garbage payload — a torn frame can
 * never silently decode into a shorter hit list.
 *
 * Trace context rides a SearchBatchRequest as a sparse trailing list
 * [u32 n, n x (u32 slot, u64 trace_id, u64 parent_span_id)] of the
 * traced members only; the list is omitted when no member is traced.
 *
 * Version rule: broker and shard come from one build, so there is no
 * negotiation. A client names kProtocolVersion in its Health request;
 * the shard answers any other version (or an empty payload) with
 * ErrorCode::BadRequest, and the client sends no search frame until a
 * same-version HealthResponse has come back.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "index/ann_index.hpp"
#include "obs/trace.hpp"
#include "serve/node.hpp"
#include "util/serialize.hpp"

namespace hermes {
namespace serve {
namespace rpc {

/** Bump when the wire encoding changes; checked by the Health handshake. */
constexpr std::uint32_t kProtocolVersion = 3;

/** Frame types (net::Frame::type). Responses = request | 0x100. */
enum class Type : std::uint32_t {
    SearchBatchRequest = 2,
    StatsRequest = 3,
    HealthRequest = 4,

    SearchBatchResponse = 0x102,
    StatsResponse = 0x103,
    HealthResponse = 0x104,

    ErrorResponse = 0x1FF,
};

/** Typed failure classes carried by an ErrorResponse. */
enum class ErrorCode : std::uint32_t {
    Timeout = 1,    ///< Shard-side wait on the node future expired.
    BadRequest = 2, ///< Undecodable payload or dimension mismatch.
    Internal = 3,   ///< Shard search threw (real or injected fault).
    Shutdown = 4,   ///< Shard is stopping; retry elsewhere/later.
};

/** A search: Q >= 1 queries sharing (k, params). */
struct SearchBatchRequest
{
    std::size_t k = 0;
    index::SearchParams params;

    /**
     * Client-side deadline budget in ms for the whole RPC; the shard
     * bounds its wait on the node futures by this (plus slack) so a
     * dropped request cannot wedge the connection. <= 0 means no
     * deadline (the shard's 30 s wait cap applies).
     */
    double deadline_ms = 0.0;
    std::size_t dim = 0;

    /** Row-major Q x dim query block. */
    std::vector<float> queries;

    /**
     * Per-query trace contexts: empty, or exactly numQueries()
     * entries (inactive slots for untraced members). Encoded sparsely
     * as a trailing (slot, trace_id, parent_span_id) list of the
     * active entries only; an empty list is omitted entirely.
     */
    std::vector<obs::TraceContextSnapshot> traces;

    std::size_t
    numQueries() const
    {
        return dim ? queries.size() / dim : 0;
    }
};

/** Stats reply: the node's counters plus instantaneous queue/shard. */
struct StatsResponse
{
    NodeStats stats;
    std::uint64_t queue_depth = 0;
    std::uint64_t shard_vectors = 0;
};

/** Health reply: who am I, do we speak the same protocol. */
struct HealthResponse
{
    /** The shard's kProtocolVersion; a client accepts only its own. */
    std::uint32_t protocol_version = kProtocolVersion;
    std::uint32_t node_id = 0;
    std::uint32_t dim = 0;
    std::uint64_t shard_vectors = 0;

    /**
     * The shard's TraceRecorder clock ("microseconds since its
     * trace epoch") read while encoding this reply. The client brackets
     * the RPC on its own trace clock and derives the epoch offset
     * (error bounded by RTT/2) used to align merged traces.
     */
    double trace_now_us = 0.0;
};

/** Typed error body. */
struct ErrorBody
{
    ErrorCode code = ErrorCode::Internal;
    std::string message;
};

std::string encodeSearchBatchRequest(const SearchBatchRequest &request);
SearchBatchRequest decodeSearchBatchRequest(std::string_view payload);

std::string
encodeSearchBatchResponse(const std::vector<NodeResponse> &responses);
std::vector<NodeResponse>
decodeSearchBatchResponse(std::string_view payload);

std::string encodeStatsResponse(const StatsResponse &response);
StatsResponse decodeStatsResponse(std::string_view payload);

/** Health request body: the client's protocol version. */
std::string encodeHealthRequest(std::uint32_t client_version);
std::uint32_t decodeHealthRequest(std::string_view payload);

std::string encodeHealthResponse(const HealthResponse &response);
HealthResponse decodeHealthResponse(std::string_view payload);

std::string encodeError(ErrorCode code, const std::string &message);
ErrorBody decodeError(std::string_view payload);

} // namespace rpc
} // namespace serve
} // namespace hermes
