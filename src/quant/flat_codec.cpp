#include "quant/flat_codec.hpp"

#include <cstring>
#include <vector>

#include "util/logging.hpp"
#include "vecstore/distance.hpp"

namespace hermes {
namespace quant {

namespace {

class FlatDistance : public DistanceComputer
{
  public:
    FlatDistance(vecstore::Metric metric, vecstore::VecView query)
        : DistanceComputer(query.size() * sizeof(float)), metric_(metric),
          query_(query)
    {
    }

    float
    operator()(const std::uint8_t *code) const override
    {
        const float *v = reinterpret_cast<const float *>(code);
        return vecstore::distance(metric_, query_.data(), v, query_.size());
    }

    void
    scan(const std::uint8_t *codes, std::size_t n, float /*threshold*/,
         float *out) const override
    {
        // Flat codes are raw float rows, so the scan is exactly the
        // blocked dense kernel. Code offsets are multiples of 4*dim
        // bytes inside an allocator-aligned buffer, so the float
        // reinterpretation is aligned.
        vecstore::distanceBatch(metric_, query_.data(),
                                reinterpret_cast<const float *>(codes), n,
                                query_.size(), out);
    }

    void
    scanMulti(const DistanceComputer *const *peers, std::size_t q_count,
              const std::uint8_t *codes, std::size_t n,
              const float * /*thresholds*/,
              float *const *out) const override
    {
        std::vector<const float *> queries(q_count);
        for (std::size_t q = 0; q < q_count; ++q) {
            queries[q] =
                static_cast<const FlatDistance *>(peers[q])->query_.data();
        }
        vecstore::distanceBatchMulti(
            metric_, queries.data(), q_count,
            reinterpret_cast<const float *>(codes), n, query_.size(), out);
    }

  private:
    vecstore::Metric metric_;
    vecstore::VecView query_;
};

} // namespace

FlatCodec::FlatCodec(std::size_t dim) : dim_(dim)
{
    HERMES_ASSERT(dim_ > 0, "FlatCodec needs dim > 0");
}

void
FlatCodec::train(const vecstore::Matrix &)
{
}

void
FlatCodec::encode(vecstore::VecView v, std::uint8_t *code) const
{
    HERMES_ASSERT(v.size() == dim_, "encode dim mismatch");
    std::memcpy(code, v.data(), codeSize());
}

void
FlatCodec::decode(const std::uint8_t *code, vecstore::MutVecView out) const
{
    HERMES_ASSERT(out.size() == dim_, "decode dim mismatch");
    std::memcpy(out.data(), code, codeSize());
}

std::unique_ptr<DistanceComputer>
FlatCodec::distanceComputer(vecstore::Metric metric,
                            vecstore::VecView query) const
{
    return std::make_unique<FlatDistance>(metric, query);
}

void
FlatCodec::save(util::ByteWriter &w) const
{
    w.put<std::uint64_t>(dim_);
}

void
FlatCodec::load(util::ByteReader &r)
{
    auto dim = r.get<std::uint64_t>();
    if (dim != dim_)
        r.fail(util::FormatErrorCode::Corrupt,
               "FlatCodec dim mismatch on load");
}

} // namespace quant
} // namespace hermes
