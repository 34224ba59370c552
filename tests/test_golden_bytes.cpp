/**
 * @file
 * Golden bytes: the exact encodings of RPC payloads, codec parameter
 * blobs and HMAT matrix files. Every artifact here is either written
 * to disk once and served many times or sent between processes of one
 * fleet, so a change to the serializer must not move a single byte.
 *
 * The expected values are spelled out independently of the encoder:
 * hex literals for the short ones, and for PQ/OPQ codebooks a blob the
 * test assembles field by field (pinned by size and CRC-32). Codec
 * blobs reach the codec through the public index-file path — written
 * into an index file, opened, saved again — so the check covers both
 * the codec's load and its save.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "index/ivf_format.hpp"
#include "index/ivf_index.hpp"
#include "quant/codec.hpp"
#include "serve/rpc.hpp"
#include "util/mmap_file.hpp"
#include "util/serialize.hpp"
#include "vecstore/matrix.hpp"

namespace {

using namespace hermes;

std::string
toHex(const std::string &bytes)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (unsigned char c : bytes) {
        out += digits[c >> 4];
        out += digits[c & 0xf];
    }
    return out;
}

/** Append the native bytes of @p value (the test's own layout writer). */
template <typename T>
void
append(std::string &out, const T &value)
{
    out.append(reinterpret_cast<const char *>(&value), sizeof(T));
}

void
appendFloats(std::string &out, const std::vector<float> &v)
{
    append<std::uint64_t>(out, v.size());
    out.append(reinterpret_cast<const char *>(v.data()),
               v.size() * sizeof(float));
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/**
 * Write an empty one-list index file of codec @p spec whose codec
 * section is @p blob, open it, save it again, and return the codec
 * section of the saved file.
 */
std::string
resaveCodecBlob(const std::string &spec, std::size_t dim,
                const std::string &blob)
{
    const auto dir = std::filesystem::temp_directory_path();
    const auto in_path = dir / ("golden_in_" + spec + ".hivf");
    const auto out_path = dir / ("golden_out_" + spec + ".hivf");

    index::ivff::IndexMeta meta;
    meta.dim = dim;
    meta.nlist = 1;
    meta.code_size = quant::makeCodec(spec, dim)->codeSize();
    meta.codec_spec = spec;
    {
        index::ivff::IndexFileWriter w(in_path.string(), meta, {0},
                                       blob.size());
        w.write(w.sectionOffset(index::ivff::kCodecParams), blob.data(),
                blob.size());
        w.finish();
    }
    index::IvfIndex::openMapped(in_path.string())->save(out_path.string());

    util::MmapFile saved(out_path.string());
    const auto parsed = index::ivff::parseIndexFile(saved);
    std::string out(reinterpret_cast<const char *>(parsed.codec_blob),
                    parsed.codec_blob_bytes);
    std::filesystem::remove(in_path);
    std::filesystem::remove(out_path);
    return out;
}

/** n floats 0.5 * i + offset: exact in binary, distinct per position. */
std::vector<float>
ramp(std::size_t n, float offset)
{
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = 0.5f * static_cast<float>(i) + offset;
    return v;
}

TEST(GoldenBytes, SearchBatchRequestWithTwoTracedSlots)
{
    serve::rpc::SearchBatchRequest request;
    request.k = 5;
    request.params.nprobe = 3;
    request.params.ef_search = 24;
    request.params.prune_ratio = 0.5;
    request.params.batch_min_scan_floats = 4096;
    request.deadline_ms = 250.0;
    request.dim = 2;
    request.queries = {1.0f, -2.0f, 0.5f, 4.0f, 8.0f, -0.25f};
    request.traces.resize(3);
    request.traces[0] = {true, 0x1122334455667788ull, 0x99ull};
    request.traces[2] = {true, 0xabcdull, 0xef01ull};
    EXPECT_EQ(toHex(serve::rpc::encodeSearchBatchRequest(request)),
              "05000000000000000300000000000000180000000000000000000000"
              "0000e03f00100000000000000000000000406f400200000000000000"
              "06000000000000000000803f000000c00000003f0000804000000041"
              "000080be020000000000000088776655443322119900000000000000"
              "02000000cdab00000000000001ef000000000000");
}

TEST(GoldenBytes, SearchBatchResponse)
{
    serve::NodeResponse first;
    first.hits = {{42, 0.125f}, {-7, 3.5f}};
    first.stats.lists_probed = 2;
    first.stats.vectors_scanned = 300;
    first.stats.distance_computations = 310;
    first.stats.bytes_scanned = 9600;
    serve::NodeResponse empty;
    EXPECT_EQ(toHex(serve::rpc::encodeSearchBatchResponse({first, empty})),
              "02000000020000002a000000000000000000003ef9ffffffffffffff"
              "0000604002000000000000002c010000000000003601000000000000"
              "80250000000000000000000000000000000000000000000000000000"
              "00000000000000000000000000000000");
}

TEST(GoldenBytes, ErrorResponse)
{
    EXPECT_EQ(toHex(serve::rpc::encodeError(
                  serve::rpc::ErrorCode::Timeout, "deadline blown")),
              "010000000e000000646561646c696e6520626c6f776e");
}

TEST(GoldenBytes, FlatCodecBlob)
{
    std::string blob;
    append<std::uint64_t>(blob, 4); // dim
    EXPECT_EQ(toHex(resaveCodecBlob("Flat", 4, blob)), "0400000000000000");
}

TEST(GoldenBytes, ScalarCodecBlobs)
{
    for (std::int32_t bits : {8, 4}) {
        SCOPED_TRACE(bits);
        std::string blob;
        append<std::uint64_t>(blob, 4);   // dim
        append<std::int32_t>(blob, bits); // bits
        append<std::uint8_t>(blob, 1);    // trained
        appendFloats(blob, {-1.0f, 0.0f, 2.5f, -4.0f}); // vmin
        appendFloats(blob, {2.0f, 1.0f, 0.5f, 8.0f});   // vdiff
        const std::string spec = bits == 8 ? "SQ8" : "SQ4";
        EXPECT_EQ(toHex(resaveCodecBlob(spec, 4, blob)),
                  "0400000000000000" +
                      std::string(bits == 8 ? "08000000" : "04000000") +
                      "01"
                      "0400000000000000"
                      "000080bf0000000000002040000080c0"
                      "0400000000000000"
                      "000000400000803f0000003f00000041");
    }
}

TEST(GoldenBytes, ProductCodecBlobs)
{
    // PQ2 over dim 4: 2 sub-codebooks x 256 centroids x 2 floats.
    std::string pq;
    append<std::uint64_t>(pq, 4); // dim
    append<std::uint64_t>(pq, 2); // m
    append<std::uint8_t>(pq, 1);  // trained
    appendFloats(pq, ramp(256 * 4, -64.0f));
    EXPECT_EQ(resaveCodecBlob("PQ2", 4, pq), pq);
    EXPECT_EQ(pq.size(), 8u + 8 + 1 + 8 + 1024 * 4);
    EXPECT_EQ(util::crc32(pq.data(), pq.size()), 1980754668u);

    // OPQ2: dim, trained, a 4x4 rotation, then the PQ2 blob.
    std::string opq;
    append<std::uint64_t>(opq, 4); // dim
    append<std::uint8_t>(opq, 1);  // trained
    appendFloats(opq, ramp(16, 0.25f));
    opq += pq;
    EXPECT_EQ(resaveCodecBlob("OPQ2", 4, opq), opq);
    EXPECT_EQ(util::crc32(opq.data(), opq.size()), 370860175u);
}

TEST(GoldenBytes, MatrixFile)
{
    vecstore::Matrix m(2, 3);
    const float values[6] = {1.0f, -2.0f, 0.5f, 3.25f, 0.0f, -8.0f};
    std::memcpy(m.data(), values, sizeof(values));
    const auto path =
        std::filesystem::temp_directory_path() / "golden_2x3.hmat";
    m.save(path.string());
    EXPECT_EQ(toHex(readFile(path)),
              "484d415401000000030000000000000006000000000000000000803f"
              "000000c00000003f0000504000000000000000c1");
    std::filesystem::remove(path);
}

} // namespace
