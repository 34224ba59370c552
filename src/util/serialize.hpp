/**
 * @file
 * The one byte codec: codec parameter blobs inside index files, HMAT
 * matrix files and broker <-> shard RPC payloads are all written by
 * ByteWriter and read back by ByteReader.
 *
 * Encoding: values are memcpy'd in host byte order (native-endian), so
 * writer and reader must share an architecture (every supported target
 * is little-endian; a big-endian peer would need a handshake-level
 * guard, not silent byte-swapping). Vectors carry a u64 element count,
 * strings a u32 byte count.
 *
 * Failure discipline: the reader trusts nothing. A read past the end
 * throws FormatError(Truncated); a count larger than the bytes left,
 * leftover bytes at expectEnd() or a failed value check throws
 * FormatError(Corrupt). Counts are checked before anything is sized
 * from them, so a hostile prefix fails at decode, never as a wild
 * allocation. The codec never exits the process: binaries turn a
 * FormatError into a clean exit with core::loadOrFatal.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/logging.hpp"

namespace hermes {
namespace util {

/** What exactly a reader rejected about a malformed artifact. */
enum class FormatErrorCode {
    Io,        ///< open / stat / map failed
    BadMagic,  ///< wrong magic tag
    BadVersion,///< unsupported format version
    Truncated, ///< file ends before the structure it promises
    Corrupt,   ///< internal inconsistency (bounds, counts, padding)
    Checksum,  ///< stored checksum does not match the bytes
};

/** Human-readable name of a FormatErrorCode. */
const char *formatErrorCodeName(FormatErrorCode code);

/**
 * Typed rejection of a malformed artifact or payload. Thrown (never
 * fatal) by ByteReader and the v3 index parser, so callers can refuse
 * one bad input without taking the process down.
 */
class FormatError : public std::runtime_error
{
  public:
    FormatError(FormatErrorCode code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {
    }

    FormatErrorCode code() const { return code_; }

  private:
    FormatErrorCode code_;
};

/**
 * CRC-32 (IEEE 802.3 polynomial, the zlib crc32) of @p n bytes.
 * Feed the previous return value as @p seed to checksum in chunks.
 */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/**
 * Append-only writer into a std::string: native-endian values, u64
 * element counts before vectors, a u32 byte count before strings.
 */
class ByteWriter
{
  public:
    /** Append one trivially-copyable value. */
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        append(&value, sizeof(T));
    }

    /** Append a u64 element count, then the elements. */
    template <typename T>
    void
    putVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        put<std::uint64_t>(v.size());
        append(v.data(), v.size() * sizeof(T));
    }

    /** Append a u32 byte count, then the bytes. */
    void
    putString(std::string_view s)
    {
        HERMES_ASSERT(s.size() <= UINT32_MAX, "string of ", s.size(),
                      " bytes exceeds its u32 count");
        put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
        append(s.data(), s.size());
    }

    /** Bytes written so far. */
    const std::string &bytes() const { return buffer_; }

    /** Move the bytes out; the writer is spent afterwards. */
    std::string take() { return std::move(buffer_); }

  private:
    void
    append(const void *data, std::size_t n)
    {
        if (n)
            buffer_.append(static_cast<const char *>(data), n);
    }

    std::string buffer_;
};

/**
 * Bounds-checked reader over a byte span it does not own. Every read
 * checks the bytes left before it copies; every count is checked
 * against them before anything is sized from it. Any failure throws
 * FormatError whose message starts with the reader's name.
 */
class ByteReader
{
  public:
    /** Read @p bytes (which must outlive the reader); @p name labels errors. */
    ByteReader(std::string_view bytes, std::string name)
        : data_(bytes), name_(std::move(name))
    {
    }

    /** Read one trivially-copyable value (Truncated on underrun). */
    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (sizeof(T) > remaining()) {
            fail(FormatErrorCode::Truncated,
                 detail::concat("truncated: need ", sizeof(T),
                                " bytes, have ", remaining()));
        }
        T value;
        std::memcpy(&value, data_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    /** Read a u64 element count, then the elements (see needCount). */
    template <typename T>
    std::vector<T>
    getVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto n = get<std::uint64_t>();
        needCount(n, sizeof(T));
        std::vector<T> v(static_cast<std::size_t>(n));
        if (n)
            std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
        pos_ += static_cast<std::size_t>(n) * sizeof(T);
        return v;
    }

    /** Read a u32 byte count, then the bytes (see needCount). */
    std::string
    getString()
    {
        const auto n = get<std::uint32_t>();
        needCount(n, 1);
        std::string s(data_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    /**
     * Throws Corrupt unless @p n elements of @p elem_size bytes each
     * fit in the bytes left. It divides instead of multiplying, so a
     * hostile @p n cannot wrap the product, and a caller may size a
     * container from @p n once this returns.
     */
    void
    needCount(std::uint64_t n, std::size_t elem_size) const
    {
        if (n > remaining() / elem_size) {
            fail(FormatErrorCode::Corrupt,
                 detail::concat("count ", n, " x ", elem_size,
                                " bytes exceeds the ", remaining(),
                                " bytes left"));
        }
    }

    /** Bytes not yet read. */
    std::size_t remaining() const { return data_.size() - pos_; }

    /** Throws Corrupt unless every byte was read. */
    void
    expectEnd() const
    {
        if (remaining() != 0) {
            fail(FormatErrorCode::Corrupt,
                 detail::concat(remaining(), " trailing bytes"));
        }
    }

    /** Reject the input: throws FormatError(@p code, "<name>: <msg>"). */
    [[noreturn]] void
    fail(FormatErrorCode code, const std::string &msg) const
    {
        throw FormatError(code, name_ + ": " + msg);
    }

  private:
    std::string_view data_;
    std::size_t pos_ = 0;
    std::string name_;
};

} // namespace util
} // namespace hermes
