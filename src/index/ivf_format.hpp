/**
 * @file
 * Version 3 on-disk IVF index format: a fixed self-describing header
 * plus flat, 64-byte-aligned sections designed to be searched directly
 * through an mmap with zero copies.
 *
 * Byte-level layout (all integers native little-endian, same-arch
 * contract as the net/ wire format; DESIGN.md §11 has the full table):
 *
 *   offset size  field
 *        0    4  magic "HIV3"
 *        4    4  u32 version = 3
 *        8    4  u32 header_bytes = 256
 *       12    4  u32 metric (0 = L2, 1 = InnerProduct)
 *       16    8  u64 dim
 *       24    8  u64 nlist
 *       32    8  u64 ntotal            (vectors across all lists)
 *       40    8  u64 code_size         (bytes per encoded vector)
 *       48    8  u64 n_centroids       (nlist when trained, else 0)
 *       56    8  u64 file_bytes        (total file size; truncation check)
 *       64    1  u8  trained
 *       65    1  u8  hnsw_coarse
 *       66    6  zero padding
 *       72   24  codec spec, NUL-padded ("SQ8", "PQ16", ...)
 *       96   80  section table: 5 x { u64 offset, u64 length }
 *      176   20  5 x u32 section CRC-32
 *      196    4  u32 header CRC-32 (over the 256-byte header with this
 *                field zeroed — covers the reserved tail too)
 *      200   56  reserved, zero
 *
 * Sections follow the header in fixed order, each starting on a 64-byte
 * boundary with zero-filled alignment gaps (validated on open, so every
 * byte of the file is covered by either a CRC or a must-be-zero rule):
 *
 *   centroids    n_centroids * dim float32, row-major
 *   list_table   nlist * { u64 offset, u64 count } — offsets count
 *                vectors into the ids/codes sections; entries tile
 *                [0, ntotal) in list order, so bounds are total
 *   ids          ntotal * i64 external ids, list-major
 *   codes        ntotal * code_size bytes, list-major
 *   codec        codec parameter blob (util::ByteWriter bytes, read
 *                back whole: trailing bytes are rejected)
 *
 * An empty section stores offset = 0, length = 0. The file ends exactly
 * where the last non-empty section does.
 *
 * Every validation failure throws util::FormatError (typed, never
 * std::terminate): length checks divide before multiplying so hostile
 * counts cannot overflow, and section CRCs reject single-bit flips.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/mmap_file.hpp"
#include "vecstore/types.hpp"

namespace hermes {
namespace index {
namespace ivff {

inline constexpr char kMagic[4] = {'H', 'I', 'V', '3'};
inline constexpr std::uint32_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 256;
inline constexpr std::size_t kSectionAlign = 64;
inline constexpr std::size_t kCodecSpecBytes = 24;

/** Fixed section order in the file. */
enum Section : std::size_t {
    kCentroids = 0,
    kListTable = 1,
    kIds = 2,
    kCodes = 3,
    kCodecParams = 4,
    kNumSections = 5,
};

/** One inverted list's slice of the ids/codes sections, in vectors. */
struct ListEntry
{
    std::uint64_t offset = 0; ///< first vector index
    std::uint64_t count = 0;  ///< vectors in this list
};
static_assert(sizeof(ListEntry) == 16);
static_assert(sizeof(vecstore::VecId) == 8);

/** Everything the header carries except the section table. */
struct IndexMeta
{
    vecstore::Metric metric = vecstore::Metric::L2;
    std::uint64_t dim = 0;
    std::uint64_t nlist = 0;
    std::uint64_t ntotal = 0;
    std::uint64_t code_size = 0;
    std::uint64_t n_centroids = 0;
    bool trained = false;
    bool hnsw_coarse = false;
    std::string codec_spec;
};

/** Decoded view of a validated index file (pointers into the mapping). */
struct ParsedIndex
{
    IndexMeta meta;

    /** n_centroids * dim floats (nullptr when empty). */
    const float *centroids = nullptr;

    /** nlist entries tiling [0, ntotal). */
    const ListEntry *list_table = nullptr;

    /** ntotal external ids, list-major. */
    const vecstore::VecId *ids = nullptr;

    /** ntotal * code_size code bytes, list-major. */
    const std::uint8_t *codes = nullptr;

    /** Codec parameter blob. */
    const std::uint8_t *codec_blob = nullptr;
    std::size_t codec_blob_bytes = 0;
};

/**
 * Validate @p file as a v3 index and return typed views into it.
 *
 * @param file             An open mapping of the candidate file.
 * @param verify_checksums Also CRC every section (reads the whole file
 *                         once; disable for huge >RAM deployments where
 *                         lazy faulting matters more than eager
 *                         verification — the structural checks still
 *                         run).
 * @throws util::FormatError on any structural or checksum violation.
 */
ParsedIndex parseIndexFile(const util::MmapFile &file,
                           bool verify_checksums = true);

/**
 * Low-level v3 writer shared by IvfIndex::save and the streaming
 * builder: computes the section layout from per-list counts up front,
 * lets callers pwrite section payloads at absolute offsets, then
 * finalizes CRCs + header in one pass. It writes `<path>.tmp` and
 * renames it over `<path>`, so a live mapping of `<path>` keeps its
 * bytes.
 */
class IndexFileWriter
{
  public:
    /**
     * Create/truncate `<path>.tmp` and fix the layout.
     * @param meta             Header fields (ntotal is the sum of
     *                         @p list_counts).
     * @param list_counts      Vectors per inverted list (size nlist).
     * @param codec_blob_bytes Length of the codec parameter section.
     * @throws util::FormatError (Io) when the file cannot be created.
     */
    IndexFileWriter(const std::string &path, const IndexMeta &meta,
                    const std::vector<std::uint64_t> &list_counts,
                    std::uint64_t codec_blob_bytes);

    /** Closes and unlinks `<path>.tmp` unless finish() succeeded. */
    ~IndexFileWriter();

    IndexFileWriter(const IndexFileWriter &) = delete;
    IndexFileWriter &operator=(const IndexFileWriter &) = delete;

    /** Absolute file offset of @p s (0 when the section is empty). */
    std::uint64_t sectionOffset(Section s) const;

    /** The derived list table (offsets are prefix sums of counts). */
    const std::vector<ListEntry> &table() const { return table_; }

    /** Write @p n bytes at absolute @p offset (pwrite). */
    void write(std::uint64_t offset, const void *data, std::size_t n);

    /**
     * Compute section CRCs (one sequential read-back of the file),
     * write the header, fsync, close and rename over `<path>`.
     * @throws util::FormatError (Io), e.g. when `<path>` is a directory.
     */
    void finish();

  private:
    int fd_ = -1;
    std::string path_;
    std::string tmp_path_;
    IndexMeta meta_;
    std::vector<ListEntry> table_;
    std::uint64_t section_offset_[kNumSections] = {};
    std::uint64_t section_length_[kNumSections] = {};
    std::uint64_t file_bytes_ = 0;
    bool finished_ = false;
};

} // namespace ivff
} // namespace index
} // namespace hermes
