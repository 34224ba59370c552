/**
 * @file
 * Row-major float matrix used for embedding storage.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "vecstore/types.hpp"

namespace hermes {
namespace vecstore {

/**
 * Dense row-major matrix of float32 embeddings.
 *
 * Row = one embedding. Storage is contiguous so kernels can stream rows.
 */
class Matrix
{
  public:
    /** Empty matrix with fixed dimensionality. */
    explicit Matrix(std::size_t dim = 0);

    /** Pre-sized matrix of @p rows x @p dim zeros. */
    Matrix(std::size_t rows, std::size_t dim);

    std::size_t rows() const { return dim_ ? data_.size() / dim_ : 0; }
    std::size_t dim() const { return dim_; }
    bool empty() const { return data_.empty(); }

    /** Read-only view of row @p i. */
    VecView row(std::size_t i) const;

    /** Mutable view of row @p i. */
    MutVecView row(std::size_t i);

    /** Raw contiguous storage pointer. */
    const float *data() const { return data_.data(); }
    float *data() { return data_.data(); }

    /** Append one row (must match dim). */
    void append(VecView v);

    /** Append @p n rows from a contiguous buffer. */
    void appendRows(const float *src, std::size_t n);

    /** Resize to @p rows rows, zero-filling new rows. */
    void resizeRows(std::size_t rows);

    /** Reserve capacity for @p rows rows. */
    void reserveRows(std::size_t rows);

    /** Bytes of payload storage. */
    std::size_t memoryBytes() const { return data_.size() * sizeof(float); }

    /**
     * Gather a sub-matrix of the given row indices.
     */
    Matrix gather(const std::vector<std::size_t> &indices) const;

    /**
     * Persist to an HMAT file: "HMAT", u32 version, u64 dim, then the
     * rows as a u64-counted float vector (util::ByteWriter layout).
     * @throws util::FormatError (Io) when the file cannot be written.
     */
    void save(const std::string &path) const;

    /**
     * Load an HMAT file written by save().
     * @throws util::FormatError: Io, BadMagic, BadVersion, Truncated, or
     *         Corrupt (bad row count or trailing bytes).
     */
    static Matrix load(const std::string &path);

  private:
    std::size_t dim_;
    std::vector<float> data_;
};

} // namespace vecstore
} // namespace hermes
