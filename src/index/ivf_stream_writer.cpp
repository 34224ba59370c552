#include "index/ivf_stream_writer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace hermes {
namespace index {

namespace {

/** Spill record framing: [u32 list][i64 id][code_size bytes]. */
constexpr std::size_t kRecordHeadBytes =
    sizeof(std::uint32_t) + sizeof(vecstore::VecId);

/** One list's scatter buffer: records not yet flushed to the output. */
struct ListBuffer
{
    std::vector<vecstore::VecId> ids;
    std::vector<std::uint8_t> codes;
};

} // namespace

IvfStreamWriter::IvfStreamWriter(const IvfIndex &prototype,
                                 const std::string &path)
    : IvfStreamWriter(prototype, path, Options())
{
}

IvfStreamWriter::IvfStreamWriter(const IvfIndex &prototype,
                                 const std::string &path, Options options)
    : prototype_(prototype), path_(path), options_(std::move(options)),
      code_size_(prototype.codec().codeSize()),
      counts_(prototype.config().nlist, 0)
{
    HERMES_ASSERT(prototype_.isTrained(),
                  "IvfStreamWriter needs a trained prototype");
    HERMES_ASSERT(prototype_.size() == 0,
                  "IvfStreamWriter prototype must have empty lists (its "
                  "vectors would not reach the output)");
    spill_path_ = path + ".spill";
    spill_ = std::fopen(spill_path_.c_str(), "wb+");
    if (spill_ == nullptr) {
        throw util::FormatError(util::FormatErrorCode::Io,
                                spill_path_ + ": cannot create spill file");
    }
}

IvfStreamWriter::~IvfStreamWriter()
{
    if (spill_ != nullptr) {
        std::fclose(spill_);
        std::remove(spill_path_.c_str());
    }
}

void
IvfStreamWriter::add(const vecstore::Matrix &data,
                     const std::vector<vecstore::VecId> &ids)
{
    HERMES_ASSERT(!finished_, "IvfStreamWriter::add after finish");
    HERMES_ASSERT(data.rows() == ids.size(),
                  "stream add: row/id count mismatch");
    HERMES_ASSERT(data.dim() == prototype_.dim(),
                  "stream add: dim mismatch");

    // The prototype's row encoder (the one add() uses) runs on the build
    // pool and records are spilled in row order, so the record stream is
    // the one a row-at-a-time add() would give.
    const auto rows = prototype_.encodeRows(data);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::uint32_t list = rows.lists[i];
        if (std::fwrite(&list, sizeof(list), 1, spill_) != 1 ||
            std::fwrite(&ids[i], sizeof(vecstore::VecId), 1, spill_) != 1 ||
            std::fwrite(rows.codes.data() + i * code_size_, code_size_, 1,
                        spill_) != 1) {
            throw util::FormatError(util::FormatErrorCode::Io,
                                    spill_path_ + ": spill write failed");
        }
        ++counts_[list];
    }
    ntotal_ += ids.size();
}

std::uint64_t
IvfStreamWriter::finish()
{
    HERMES_ASSERT(!finished_, "IvfStreamWriter::finish called twice");
    finished_ = true;

    auto w = prototype_.openFile(path_, counts_);

    // Scatter pass: replay the spill in arrival order, buffering per
    // list and flushing whole buffers with positioned writes. Arrival
    // order per list is preserved, so bytes match a save() of the
    // equivalent add()-built index exactly.
    const std::uint64_t ids_base = w->sectionOffset(ivff::kIds);
    const std::uint64_t codes_base = w->sectionOffset(ivff::kCodes);
    const auto &table = w->table();
    const std::size_t nlist = counts_.size();

    std::vector<ListBuffer> buffers(nlist);
    std::vector<std::uint64_t> written(nlist, 0);
    std::size_t buffered_bytes = 0;

    auto flushList = [&](std::size_t l) {
        ListBuffer &buf = buffers[l];
        const std::size_t m = buf.ids.size();
        if (m == 0)
            return;
        const std::uint64_t at = table[l].offset + written[l];
        w->write(ids_base + at * sizeof(vecstore::VecId), buf.ids.data(),
                 m * sizeof(vecstore::VecId));
        w->write(codes_base + at * code_size_, buf.codes.data(),
                 m * code_size_);
        written[l] += m;
        buffered_bytes -= m * (sizeof(vecstore::VecId) + code_size_);
        buf = ListBuffer(); // release the flushed capacity
    };

    if (std::fflush(spill_) != 0 || std::fseek(spill_, 0, SEEK_SET) != 0) {
        throw util::FormatError(util::FormatErrorCode::Io,
                                spill_path_ + ": cannot rewind spill file");
    }
    const std::size_t stride = kRecordHeadBytes + code_size_;
    // Read whole records in ~1 MiB gulps.
    const std::size_t records_per_chunk =
        std::max<std::size_t>((std::size_t(1) << 20) / stride, 1);
    std::vector<std::uint8_t> chunk(records_per_chunk * stride);
    std::uint64_t remaining = ntotal_;
    while (remaining > 0) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, records_per_chunk));
        if (std::fread(chunk.data(), stride, want, spill_) != want) {
            throw util::FormatError(util::FormatErrorCode::Io,
                                    spill_path_ + ": spill read failed");
        }
        for (std::size_t i = 0; i < want; ++i) {
            const std::uint8_t *rec = chunk.data() + i * stride;
            std::uint32_t list;
            vecstore::VecId id;
            std::memcpy(&list, rec, sizeof(list));
            std::memcpy(&id, rec + sizeof(list), sizeof(id));
            ListBuffer &buf = buffers[list];
            buf.ids.push_back(id);
            buf.codes.insert(buf.codes.end(), rec + kRecordHeadBytes,
                             rec + stride);
            buffered_bytes += sizeof(vecstore::VecId) + code_size_;
        }
        if (buffered_bytes >= options_.buffer_budget_bytes) {
            for (std::size_t l = 0; l < nlist; ++l)
                flushList(l);
        }
        remaining -= want;
    }
    for (std::size_t l = 0; l < nlist; ++l)
        flushList(l);

    w->finish();
    std::fclose(spill_);
    spill_ = nullptr;
    std::remove(spill_path_.c_str());
    return ntotal_;
}

} // namespace index
} // namespace hermes
