#include "index/ivf_format.hpp"

#include <cstring>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace hermes {
namespace index {
namespace ivff {

namespace {

using util::FormatError;
using util::FormatErrorCode;

constexpr std::size_t kHeaderCrcOffset = 196;

std::uint64_t
align64(std::uint64_t offset)
{
    return (offset + (kSectionAlign - 1)) & ~std::uint64_t(kSectionAlign - 1);
}

/** Fixed-offset field access over a raw header buffer. */
template <typename T>
T
peek(const std::uint8_t *base, std::size_t offset)
{
    T value;
    std::memcpy(&value, base + offset, sizeof(T));
    return value;
}

template <typename T>
void
poke(std::uint8_t *base, std::size_t offset, T value)
{
    std::memcpy(base + offset, &value, sizeof(T));
}

[[noreturn]] void
reject(FormatErrorCode code, const std::string &path, const std::string &msg)
{
    throw FormatError(code, path + ": " + msg);
}

struct SectionView
{
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
};

/**
 * Validate one section's geometry: element count must be recoverable by
 * division (never reconstructed by multiplication, so a hostile header
 * cannot overflow the check), and the byte range must sit inside the
 * file.
 */
void
checkSectionShape(const SectionView &sec, std::uint64_t expected_count,
                  std::uint64_t elem_bytes, std::uint64_t file_bytes,
                  const char *what, const std::string &path)
{
    if (elem_bytes == 0 || expected_count == 0) {
        if (sec.length != 0)
            reject(FormatErrorCode::Corrupt, path,
                   std::string(what) + " section should be empty");
        return;
    }
    if (sec.length % elem_bytes != 0 ||
        sec.length / elem_bytes != expected_count) {
        reject(FormatErrorCode::Corrupt, path,
               std::string(what) + " section length disagrees with header");
    }
    // offset/length fit checks: pure additions guarded against wrap.
    if (sec.offset < kHeaderBytes || sec.offset % kSectionAlign != 0 ||
        sec.offset > file_bytes || sec.length > file_bytes - sec.offset) {
        reject(FormatErrorCode::Corrupt, path,
               std::string(what) + " section out of bounds");
    }
}

} // namespace

ParsedIndex
parseIndexFile(const util::MmapFile &file, bool verify_checksums)
{
    const std::string &path = file.path();
    const std::uint8_t *base = file.data();
    const std::uint64_t actual_bytes = file.size();

    if (actual_bytes < kHeaderBytes)
        reject(FormatErrorCode::Truncated, path,
               "truncated index file (smaller than header)");
    if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0)
        reject(FormatErrorCode::BadMagic, path,
               "not a v3 index file (bad magic)");
    if (peek<std::uint32_t>(base, 4) != kVersion)
        reject(FormatErrorCode::BadVersion, path,
               "unsupported index format version");
    if (peek<std::uint32_t>(base, 8) != kHeaderBytes)
        reject(FormatErrorCode::Corrupt, path, "unexpected header size");

    // Header CRC first: all later checks may then trust the fields.
    {
        std::uint8_t copy[kHeaderBytes];
        std::memcpy(copy, base, kHeaderBytes);
        poke<std::uint32_t>(copy, kHeaderCrcOffset, 0);
        const std::uint32_t want = peek<std::uint32_t>(base, kHeaderCrcOffset);
        if (util::crc32(copy, kHeaderBytes) != want)
            reject(FormatErrorCode::Checksum, path, "header checksum mismatch");
    }

    ParsedIndex parsed;
    IndexMeta &meta = parsed.meta;
    const std::uint32_t metric_raw = peek<std::uint32_t>(base, 12);
    if (metric_raw > 1)
        reject(FormatErrorCode::Corrupt, path, "unknown metric id");
    meta.metric = metric_raw == 0 ? vecstore::Metric::L2
                                  : vecstore::Metric::InnerProduct;
    meta.dim = peek<std::uint64_t>(base, 16);
    meta.nlist = peek<std::uint64_t>(base, 24);
    meta.ntotal = peek<std::uint64_t>(base, 32);
    meta.code_size = peek<std::uint64_t>(base, 40);
    meta.n_centroids = peek<std::uint64_t>(base, 48);
    const std::uint64_t file_bytes = peek<std::uint64_t>(base, 56);
    const std::uint8_t trained_raw = peek<std::uint8_t>(base, 64);
    const std::uint8_t hnsw_raw = peek<std::uint8_t>(base, 65);

    if (file_bytes > actual_bytes)
        reject(FormatErrorCode::Truncated, path, "truncated index file");
    if (file_bytes < actual_bytes)
        reject(FormatErrorCode::Corrupt, path,
               "trailing bytes past declared file size");
    if (meta.dim == 0 || meta.nlist == 0 || meta.code_size == 0)
        reject(FormatErrorCode::Corrupt, path, "degenerate geometry in header");
    // Sanity caps far above anything real, tight enough that the
    // element-size products below can never wrap std::uint64_t.
    if (meta.dim > (std::uint64_t(1) << 24) ||
        meta.nlist > (std::uint64_t(1) << 32) ||
        meta.code_size > (std::uint64_t(1) << 32) ||
        meta.n_centroids > meta.nlist) {
        reject(FormatErrorCode::Corrupt, path,
               "implausible geometry in header");
    }
    if (trained_raw > 1 || hnsw_raw > 1)
        reject(FormatErrorCode::Corrupt, path, "bad boolean flag in header");
    meta.trained = trained_raw != 0;
    meta.hnsw_coarse = hnsw_raw != 0;
    if (meta.trained && meta.n_centroids != meta.nlist)
        reject(FormatErrorCode::Corrupt, path,
               "trained index must carry exactly nlist centroids");
    if (!meta.trained && (meta.n_centroids != 0 || meta.ntotal != 0))
        reject(FormatErrorCode::Corrupt, path,
               "untrained index cannot carry centroids or vectors");
    for (std::size_t i = 66; i < 72; ++i) {
        if (base[i] != 0)
            reject(FormatErrorCode::Corrupt, path, "nonzero header padding");
    }
    {
        const char *spec = reinterpret_cast<const char *>(base + 72);
        std::size_t len = 0;
        while (len < kCodecSpecBytes && spec[len] != '\0')
            ++len;
        if (len == 0 || len == kCodecSpecBytes)
            reject(FormatErrorCode::Corrupt, path,
                   "codec spec missing or not NUL-terminated");
        // NUL padding after the spec must be clean too.
        for (std::size_t i = len; i < kCodecSpecBytes; ++i) {
            if (spec[i] != '\0')
                reject(FormatErrorCode::Corrupt, path,
                       "nonzero codec-spec padding");
        }
        meta.codec_spec.assign(spec, len);
    }
    for (std::size_t i = kHeaderCrcOffset + 4; i < kHeaderBytes; ++i) {
        if (base[i] != 0)
            reject(FormatErrorCode::Corrupt, path, "nonzero reserved bytes");
    }

    SectionView sections[kNumSections];
    for (std::size_t s = 0; s < kNumSections; ++s) {
        sections[s].offset = peek<std::uint64_t>(base, 96 + s * 16);
        sections[s].length = peek<std::uint64_t>(base, 96 + s * 16 + 8);
        if (sections[s].length == 0 && sections[s].offset != 0)
            reject(FormatErrorCode::Corrupt, path,
                   "empty section with nonzero offset");
    }

    checkSectionShape(sections[kCentroids], meta.n_centroids,
                      meta.dim * sizeof(float), file_bytes, "centroids", path);
    checkSectionShape(sections[kListTable], meta.nlist, sizeof(ListEntry),
                      file_bytes, "list table", path);
    checkSectionShape(sections[kIds], meta.ntotal, sizeof(vecstore::VecId),
                      file_bytes, "ids", path);
    checkSectionShape(sections[kCodes], meta.ntotal, meta.code_size,
                      file_bytes, "codes", path);
    // Codec blob: free-form length, but still bounds-checked.
    if (sections[kCodecParams].length != 0) {
        const SectionView &sec = sections[kCodecParams];
        if (sec.offset < kHeaderBytes || sec.offset % kSectionAlign != 0 ||
            sec.offset > file_bytes || sec.length > file_bytes - sec.offset) {
            reject(FormatErrorCode::Corrupt, path,
                   "codec section out of bounds");
        }
    }

    // Sections must appear in canonical order with zero-filled alignment
    // gaps, and the file must end exactly where the last section does —
    // between the CRCs and these rules, every byte of the file is
    // accounted for and any single-byte change is detectable.
    std::uint64_t cursor = kHeaderBytes;
    for (std::size_t s = 0; s < kNumSections; ++s) {
        if (sections[s].length == 0)
            continue;
        const std::uint64_t aligned = align64(cursor);
        if (sections[s].offset != aligned)
            reject(FormatErrorCode::Corrupt, path,
                   "section out of order or misplaced");
        for (std::uint64_t i = cursor; i < aligned; ++i) {
            if (base[i] != 0)
                reject(FormatErrorCode::Corrupt, path,
                       "nonzero section padding");
        }
        cursor = sections[s].offset + sections[s].length;
    }
    if (cursor != file_bytes)
        reject(FormatErrorCode::Corrupt, path,
               "file size disagrees with section layout");

    if (verify_checksums) {
        for (std::size_t s = 0; s < kNumSections; ++s) {
            const std::uint32_t want =
                peek<std::uint32_t>(base, 176 + s * 4);
            const std::uint32_t got =
                sections[s].length == 0
                    ? 0
                    : util::crc32(base + sections[s].offset,
                                  sections[s].length);
            if (got != want)
                reject(FormatErrorCode::Checksum, path,
                       "section checksum mismatch");
        }
    }

    if (sections[kCentroids].length != 0)
        parsed.centroids =
            reinterpret_cast<const float *>(base + sections[kCentroids].offset);
    parsed.list_table = reinterpret_cast<const ListEntry *>(
        base + sections[kListTable].offset);
    if (sections[kIds].length != 0)
        parsed.ids = reinterpret_cast<const vecstore::VecId *>(
            base + sections[kIds].offset);
    if (sections[kCodes].length != 0)
        parsed.codes = base + sections[kCodes].offset;
    if (sections[kCodecParams].length != 0) {
        parsed.codec_blob = base + sections[kCodecParams].offset;
        parsed.codec_blob_bytes = sections[kCodecParams].length;
    }

    // The list table must tile [0, ntotal) exactly in list order: with
    // that invariant checked once here, every later list access is
    // bounds-safe without per-query checks on the hot path.
    std::uint64_t expect_offset = 0;
    for (std::uint64_t l = 0; l < meta.nlist; ++l) {
        const ListEntry &e = parsed.list_table[l];
        if (e.offset != expect_offset ||
            e.count > meta.ntotal - expect_offset) {
            reject(FormatErrorCode::Corrupt, path,
                   "list table does not tile the vector sections");
        }
        expect_offset += e.count;
    }
    if (expect_offset != meta.ntotal)
        reject(FormatErrorCode::Corrupt, path,
               "list table count disagrees with ntotal");

    return parsed;
}

IndexFileWriter::IndexFileWriter(const std::string &path,
                                 const IndexMeta &meta,
                                 const std::vector<std::uint64_t> &list_counts,
                                 std::uint64_t codec_blob_bytes)
    : path_(path), tmp_path_(path + ".tmp"), meta_(meta)
{
    HERMES_ASSERT(list_counts.size() == meta.nlist,
                  "list_counts must cover every inverted list");
    table_.resize(list_counts.size());
    meta_.ntotal = 0;
    for (std::size_t l = 0; l < list_counts.size(); ++l) {
        table_[l] = {meta_.ntotal, list_counts[l]};
        meta_.ntotal += list_counts[l];
    }

    section_length_[kCentroids] =
        meta.n_centroids * meta.dim * sizeof(float);
    section_length_[kListTable] = meta.nlist * sizeof(ListEntry);
    section_length_[kIds] = meta_.ntotal * sizeof(vecstore::VecId);
    section_length_[kCodes] = meta_.ntotal * meta.code_size;
    section_length_[kCodecParams] = codec_blob_bytes;

    std::uint64_t cursor = kHeaderBytes;
    for (std::size_t s = 0; s < kNumSections; ++s) {
        if (section_length_[s] == 0) {
            section_offset_[s] = 0;
            continue;
        }
        cursor = align64(cursor);
        section_offset_[s] = cursor;
        cursor += section_length_[s];
    }
    file_bytes_ = cursor;

    // The bytes go to a temp file that finish() renames over the path,
    // so a mapping of the file already at the path never sees them.
    fd_ = ::open(tmp_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        throw FormatError(FormatErrorCode::Io,
                          tmp_path_ + ": cannot create index file");
    // Pre-size the file: alignment gaps come out zero-filled for free,
    // and the layout is committed before any payload lands.
    if (::ftruncate(fd_, static_cast<off_t>(file_bytes_)) != 0) {
        ::close(fd_);
        ::unlink(tmp_path_.c_str());
        throw FormatError(FormatErrorCode::Io,
                          tmp_path_ + ": cannot size index file");
    }
}

IndexFileWriter::~IndexFileWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (!finished_)
        ::unlink(tmp_path_.c_str());
}

std::uint64_t
IndexFileWriter::sectionOffset(Section s) const
{
    return section_offset_[s];
}

void
IndexFileWriter::write(std::uint64_t offset, const void *data, std::size_t n)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    while (n > 0) {
        const ssize_t wrote =
            ::pwrite(fd_, p, n, static_cast<off_t>(offset));
        if (wrote <= 0)
            throw FormatError(FormatErrorCode::Io,
                              tmp_path_ + ": short write to index file");
        p += wrote;
        offset += static_cast<std::uint64_t>(wrote);
        n -= static_cast<std::size_t>(wrote);
    }
}

void
IndexFileWriter::finish()
{
    HERMES_ASSERT(!finished_, "IndexFileWriter::finish called twice");
    // Written here, not in the constructor: a throw there would skip the
    // destructor that unlinks the temp file.
    write(section_offset_[kListTable], table_.data(),
          section_length_[kListTable]);

    // One sequential read-back pass to CRC the payload. Pages written
    // moments ago are still in cache, so this is memory-speed.
    std::uint32_t crcs[kNumSections] = {};
    std::vector<std::uint8_t> buf(std::size_t(1) << 20);
    for (std::size_t s = 0; s < kNumSections; ++s) {
        std::uint64_t remaining = section_length_[s];
        std::uint64_t offset = section_offset_[s];
        std::uint32_t crc = 0;
        while (remaining > 0) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(remaining, buf.size()));
            const ssize_t got =
                ::pread(fd_, buf.data(), want, static_cast<off_t>(offset));
            if (got <= 0)
                throw FormatError(FormatErrorCode::Io,
                                  tmp_path_ +
                                      ": cannot read back for checksum");
            crc = util::crc32(buf.data(), static_cast<std::size_t>(got), crc);
            offset += static_cast<std::uint64_t>(got);
            remaining -= static_cast<std::uint64_t>(got);
        }
        crcs[s] = crc;
    }

    std::uint8_t header[kHeaderBytes] = {};
    std::memcpy(header, kMagic, sizeof(kMagic));
    poke<std::uint32_t>(header, 4, kVersion);
    poke<std::uint32_t>(header, 8, static_cast<std::uint32_t>(kHeaderBytes));
    poke<std::uint32_t>(header, 12,
                        meta_.metric == vecstore::Metric::L2 ? 0u : 1u);
    poke<std::uint64_t>(header, 16, meta_.dim);
    poke<std::uint64_t>(header, 24, meta_.nlist);
    poke<std::uint64_t>(header, 32, meta_.ntotal);
    poke<std::uint64_t>(header, 40, meta_.code_size);
    poke<std::uint64_t>(header, 48, meta_.n_centroids);
    poke<std::uint64_t>(header, 56, file_bytes_);
    header[64] = meta_.trained ? 1 : 0;
    header[65] = meta_.hnsw_coarse ? 1 : 0;
    HERMES_ASSERT(!meta_.codec_spec.empty() &&
                      meta_.codec_spec.size() < kCodecSpecBytes,
                  "codec spec must fit the 24-byte header field");
    std::memcpy(header + 72, meta_.codec_spec.data(),
                meta_.codec_spec.size());
    for (std::size_t s = 0; s < kNumSections; ++s) {
        poke<std::uint64_t>(header, 96 + s * 16, section_offset_[s]);
        poke<std::uint64_t>(header, 96 + s * 16 + 8, section_length_[s]);
        poke<std::uint32_t>(header, 176 + s * 4, crcs[s]);
    }
    poke<std::uint32_t>(header, kHeaderCrcOffset, 0);
    poke<std::uint32_t>(header, kHeaderCrcOffset,
                        util::crc32(header, kHeaderBytes));
    write(0, header, kHeaderBytes);

    if (::fsync(fd_) != 0)
        throw FormatError(FormatErrorCode::Io, tmp_path_ + ": fsync failed");
    ::close(fd_);
    fd_ = -1;
    // Publish: a mapping of the old file keeps its inode; new opens see
    // the finished bytes.
    if (::rename(tmp_path_.c_str(), path_.c_str()) != 0)
        throw FormatError(FormatErrorCode::Io,
                          path_ + ": cannot publish index file");
    finished_ = true;
}

} // namespace ivff
} // namespace index
} // namespace hermes
