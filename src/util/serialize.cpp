#include "util/serialize.hpp"

#include <array>

namespace hermes {
namespace util {

const char *
formatErrorCodeName(FormatErrorCode code)
{
    switch (code) {
    case FormatErrorCode::Io:
        return "io";
    case FormatErrorCode::BadMagic:
        return "bad-magic";
    case FormatErrorCode::BadVersion:
        return "bad-version";
    case FormatErrorCode::Truncated:
        return "truncated";
    case FormatErrorCode::Corrupt:
        return "corrupt";
    case FormatErrorCode::Checksum:
        return "checksum";
    }
    return "unknown";
}

namespace {

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    static const auto table = makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace util
} // namespace hermes
