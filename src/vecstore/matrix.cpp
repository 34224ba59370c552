#include "vecstore/matrix.hpp"

#include <array>
#include <fstream>

#include "util/logging.hpp"
#include "util/mmap_file.hpp"
#include "util/serialize.hpp"

namespace hermes {
namespace vecstore {

namespace {
constexpr std::array<char, 4> kMatrixMagic = {'H', 'M', 'A', 'T'};
constexpr std::uint32_t kMatrixVersion = 1;
} // namespace

Matrix::Matrix(std::size_t dim) : dim_(dim) {}

Matrix::Matrix(std::size_t rows, std::size_t dim)
    : dim_(dim), data_(rows * dim, 0.f)
{
}

VecView
Matrix::row(std::size_t i) const
{
    HERMES_ASSERT(i < rows(), "matrix row ", i, " out of range ", rows());
    return VecView(data_.data() + i * dim_, dim_);
}

MutVecView
Matrix::row(std::size_t i)
{
    HERMES_ASSERT(i < rows(), "matrix row ", i, " out of range ", rows());
    return MutVecView(data_.data() + i * dim_, dim_);
}

void
Matrix::append(VecView v)
{
    HERMES_ASSERT(v.size() == dim_, "row dim ", v.size(),
                  " does not match matrix dim ", dim_);
    data_.insert(data_.end(), v.begin(), v.end());
}

void
Matrix::appendRows(const float *src, std::size_t n)
{
    data_.insert(data_.end(), src, src + n * dim_);
}

void
Matrix::resizeRows(std::size_t rows)
{
    data_.resize(rows * dim_, 0.f);
}

void
Matrix::reserveRows(std::size_t rows)
{
    data_.reserve(rows * dim_);
}

Matrix
Matrix::gather(const std::vector<std::size_t> &indices) const
{
    Matrix out(dim_);
    out.reserveRows(indices.size());
    for (std::size_t idx : indices)
        out.append(row(idx));
    return out;
}

void
Matrix::save(const std::string &path) const
{
    util::ByteWriter header;
    header.put(kMatrixMagic);
    header.put(kMatrixVersion);
    header.put<std::uint64_t>(dim_);
    // putVector's u64 count; the rows follow straight from data_.
    header.put<std::uint64_t>(data_.size());
    std::ofstream out(path, std::ios::binary);
    out.write(header.bytes().data(),
              static_cast<std::streamsize>(header.bytes().size()));
    out.write(reinterpret_cast<const char *>(data_.data()),
              static_cast<std::streamsize>(data_.size() * sizeof(float)));
    out.close();
    if (!out) {
        throw util::FormatError(util::FormatErrorCode::Io,
                                "cannot write matrix file: " + path);
    }
}

Matrix
Matrix::load(const std::string &path)
{
    const util::MmapFile file(path);
    util::ByteReader r(
        std::string_view(reinterpret_cast<const char *>(file.data()),
                         file.size()),
        path);
    if (r.get<std::array<char, 4>>() != kMatrixMagic)
        r.fail(util::FormatErrorCode::BadMagic, "not an HMAT file");
    const auto version = r.get<std::uint32_t>();
    if (version != kMatrixVersion) {
        r.fail(util::FormatErrorCode::BadVersion,
               util::detail::concat("HMAT version ", version,
                                    ", expected ", kMatrixVersion));
    }
    const auto dim = r.get<std::uint64_t>();
    Matrix m(static_cast<std::size_t>(dim));
    m.data_ = r.getVector<float>();
    r.expectEnd();
    if (dim == 0 ? !m.data_.empty() : m.data_.size() % dim != 0) {
        r.fail(util::FormatErrorCode::Corrupt,
               util::detail::concat(m.data_.size(),
                                    " floats do not fill rows of dim ",
                                    dim));
    }
    return m;
}

} // namespace vecstore
} // namespace hermes
