/**
 * @file
 * Seeded mutation test over every decoder of untrusted bytes that reads
 * through util::ByteReader: the RPC messages, each codec's parameter
 * blob and the HMAT matrix file.
 *
 * Each valid encoding is mutated a fixed number of times from a fixed
 * seed — bit flips, byte overwrites, truncation, and known length
 * prefixes forced to 2^32 - 1 or 2^60 — and decoded. A decode may
 * return or throw util::FormatError; any other exception fails the
 * test, and an abort or a sanitizer report fails the binary. Every case
 * names its seed and mutation, so a failure replays exactly.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <typeinfo>
#include <vector>

#include "quant/codec.hpp"
#include "serve/rpc.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "vecstore/matrix.hpp"

namespace {

using namespace hermes;

constexpr std::uint64_t kSeed = 0x5eed0c0dec;
constexpr int kMutationsPerInput = 256;

/** A count field inside an encoding: byte offset and width (4 or 8). */
struct Prefix
{
    std::size_t offset;
    std::size_t width;
};

struct Input
{
    std::string name;
    std::string bytes;
    std::vector<Prefix> prefixes;
    std::function<void(std::string_view)> decode;
};

/** One seeded mutation of @p input; @p what is set to describe it. */
std::string
mutate(const Input &input, util::Rng &rng, std::string &what)
{
    std::string bytes = input.bytes;
    const int kinds = input.prefixes.empty() ? 3 : 4;
    switch (rng.uniformInt(kinds)) {
    case 0: {
        const auto at = rng.uniformInt(bytes.size());
        const auto bit = rng.uniformInt(8);
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
        what = "flip bit " + std::to_string(bit) + " of byte " +
               std::to_string(at);
        break;
    }
    case 1: {
        const auto at = rng.uniformInt(bytes.size());
        const auto value = rng.uniformInt(256);
        bytes[at] = static_cast<char>(value);
        what = "overwrite byte " + std::to_string(at) + " with " +
               std::to_string(value);
        break;
    }
    case 2: {
        const auto len = rng.uniformInt(bytes.size());
        bytes.resize(len);
        what = "truncate to " + std::to_string(len) + " bytes";
        break;
    }
    default: {
        const Prefix &p =
            input.prefixes[rng.uniformInt(input.prefixes.size())];
        const std::uint64_t value =
            p.width == 8 && rng.uniformInt(2) == 0 ? 1ull << 60
                                                   : 0xffffffffull;
        std::memcpy(bytes.data() + p.offset, &value, p.width);
        what = "force the count at byte " + std::to_string(p.offset) +
               " to " + std::to_string(value);
        break;
    }
    }
    return bytes;
}

std::vector<Input>
rpcInputs()
{
    serve::rpc::SearchBatchRequest request;
    request.k = 4;
    request.dim = 2;
    request.queries = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
    request.traces.resize(3);
    request.traces[0] = {true, 0x11ull, 0x22ull};
    request.traces[2] = {true, 0x33ull, 0x44ull};
    // Seven fixed u64/f64 fields, the u64 float count, the floats, then
    // the u32 trace-entry count.
    const std::size_t trace_count_at = 64 + request.queries.size() * 4;

    serve::NodeResponse response;
    response.hits = {{7, 0.5f}, {9, 1.5f}};
    response.stats.vectors_scanned = 40;

    serve::rpc::StatsResponse stats;
    stats.stats.requests = 3;
    stats.queue_depth = 1;

    serve::rpc::HealthResponse health;
    health.protocol_version = serve::rpc::kProtocolVersion;
    health.dim = 2;

    return {
        {"SearchBatch request",
         serve::rpc::encodeSearchBatchRequest(request),
         {{56, 8}, {trace_count_at, 4}},
         [](std::string_view b) {
             (void)serve::rpc::decodeSearchBatchRequest(b);
         }},
        // u32 response count, then each response's u32 hit count.
        {"SearchBatch response",
         serve::rpc::encodeSearchBatchResponse({response, response}),
         {{0, 4}, {4, 4}, {4 + 4 + 2 * 12 + 32, 4}},
         [](std::string_view b) {
             (void)serve::rpc::decodeSearchBatchResponse(b);
         }},
        {"Stats response",
         serve::rpc::encodeStatsResponse(stats),
         {},
         [](std::string_view b) {
             (void)serve::rpc::decodeStatsResponse(b);
         }},
        {"Health request",
         serve::rpc::encodeHealthRequest(serve::rpc::kProtocolVersion),
         {},
         [](std::string_view b) {
             (void)serve::rpc::decodeHealthRequest(b);
         }},
        {"Health response",
         serve::rpc::encodeHealthResponse(health),
         {},
         [](std::string_view b) {
             (void)serve::rpc::decodeHealthResponse(b);
         }},
        {"Error response",
         serve::rpc::encodeError(serve::rpc::ErrorCode::Internal, "boom"),
         {{4, 4}},
         [](std::string_view b) { (void)serve::rpc::decodeError(b); }},
    };
}

std::vector<Input>
codecInputs()
{
    constexpr std::size_t kDim = 8;
    util::Rng rng(kSeed);
    vecstore::Matrix train(300, kDim);
    for (std::size_t i = 0; i < train.rows(); ++i)
        for (std::size_t j = 0; j < kDim; ++j)
            train.row(i)[j] = static_cast<float>(rng.gaussian());

    // Offsets of each blob's u64 vector counts (see the codecs' save()).
    const std::size_t sq_vdiff_at = 13 + 8 + kDim * 4;
    const std::size_t opq_pq_at = 17 + kDim * kDim * 4;
    const std::vector<std::pair<std::string, std::vector<Prefix>>> specs = {
        {"Flat", {}},
        {"SQ8", {{13, 8}, {sq_vdiff_at, 8}}},
        {"SQ4", {{13, 8}, {sq_vdiff_at, 8}}},
        {"PQ4", {{17, 8}}},
        {"OPQ4", {{9, 8}, {opq_pq_at + 17, 8}}},
    };
    std::vector<Input> inputs;
    for (const auto &[spec, prefixes] : specs) {
        auto codec = quant::makeCodec(spec, kDim);
        codec->train(train);
        util::ByteWriter blob;
        codec->save(blob);
        inputs.push_back(
            {spec + " codec blob", blob.take(), prefixes,
             [spec = spec](std::string_view b) {
                 auto fresh = quant::makeCodec(spec, kDim);
                 util::ByteReader reader(b, spec + " blob");
                 fresh->load(reader);
                 reader.expectEnd();
             }});
    }
    return inputs;
}

std::filesystem::path
matrixPath()
{
    return std::filesystem::temp_directory_path() / "hermes_mutation.hmat";
}

Input
matrixInput()
{
    const auto path = matrixPath();
    vecstore::Matrix m(4, 3);
    for (std::size_t i = 0; i < 12; ++i)
        m.data()[i] = static_cast<float>(i) - 5.5f;
    m.save(path.string());
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    // "HMAT", u32 version, u64 dim, then the u64 row-block count.
    return {"HMAT image", bytes, {{16, 8}},
            [path](std::string_view b) {
                {
                    std::ofstream out(path,
                                      std::ios::binary | std::ios::trunc);
                    out.write(b.data(),
                              static_cast<std::streamsize>(b.size()));
                }
                (void)vecstore::Matrix::load(path.string());
            }};
}

TEST(Mutation, EveryDecoderReturnsOrThrowsFormatError)
{
    std::vector<Input> inputs = rpcInputs();
    for (auto &input : codecInputs())
        inputs.push_back(std::move(input));
    inputs.push_back(matrixInput());

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Input &input = inputs[i];
        SCOPED_TRACE(input.name);
        ASSERT_NO_THROW(input.decode(input.bytes)) << "unmutated input";
        const std::uint64_t seed = kSeed + i;
        util::Rng rng(seed);
        int rejected = 0;
        for (int m = 0; m < kMutationsPerInput; ++m) {
            std::string what;
            const std::string bytes = mutate(input, rng, what);
            SCOPED_TRACE("seed " + std::to_string(seed) + " mutation " +
                         std::to_string(m) + ": " + what);
            try {
                input.decode(bytes);
            } catch (const util::FormatError &) {
                ++rejected; // the one allowed failure
            } catch (const std::exception &e) {
                ADD_FAILURE() << "escaped as " << typeid(e).name() << ": "
                              << e.what();
            }
        }
        // Truncations alone guarantee rejections: a count of zero would
        // mean the mutated bytes never reached the decoder.
        EXPECT_GT(rejected, 0);
    }
    std::filesystem::remove(matrixPath());
}

} // namespace
