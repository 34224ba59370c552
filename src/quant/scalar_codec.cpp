#include "quant/scalar_codec.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "vecstore/simd_dispatch.hpp"

namespace hermes {
namespace quant {

namespace {

/**
 * Decode-on-the-fly distance computer. For SQ8, reconstruction per element
 * is one multiply-add, so asymmetric distances stay cheap without tables.
 *
 * The batched SQ8 scan folds the reconstruction into the distance:
 * with scale[j] = vdiff[j]/255 the decoded value is
 * vmin[j] + scale[j]*code[j], so
 *
 *   L2: (q[j] - decoded)^2 = ((q[j] - vmin[j]) - scale[j]*code[j])^2
 *   IP: q[j]*decoded       = q[j]*vmin[j] + (q[j]*scale[j])*code[j]
 *
 * and the per-query operands (q - vmin, q*scale, dot(q, vmin)) are
 * precomputed once here. Both dispatch arms use this restructured form,
 * so scalar-vs-AVX2 results differ only by reduction-order ulps.
 */
class ScalarDistance : public DistanceComputer
{
  public:
    ScalarDistance(const ScalarCodec &codec, vecstore::Metric metric,
                   vecstore::VecView query)
        : DistanceComputer(codec.codeSize()), codec_(codec),
          metric_(metric), query_(query), buffer_(codec.dim())
    {
        if (codec_.bits() != 8)
            return;
        const std::size_t d = codec_.dim();
        const float inv_levels =
            1.f / static_cast<float>(codec_.levels() - 1);
        const auto &vmin = codec_.mins();
        const auto &vdiff = codec_.widths();
        a_.resize(d);
        if (metric_ == vecstore::Metric::L2) {
            b_.resize(d);
            for (std::size_t j = 0; j < d; ++j) {
                a_[j] = query_[j] - vmin[j];
                b_[j] = vdiff[j] * inv_levels;
            }
        } else {
            bias_ = 0.f;
            for (std::size_t j = 0; j < d; ++j) {
                a_[j] = query_[j] * vdiff[j] * inv_levels;
                bias_ += query_[j] * vmin[j];
            }
        }
    }

    float
    operator()(const std::uint8_t *code) const override
    {
        codec_.decode(code, vecstore::MutVecView(buffer_.data(),
                                                 buffer_.size()));
        float acc = 0.f;
        const std::size_t d = query_.size();
        if (metric_ == vecstore::Metric::L2) {
            for (std::size_t j = 0; j < d; ++j) {
                float diff = query_[j] - buffer_[j];
                acc += diff * diff;
            }
            return acc;
        }
        for (std::size_t j = 0; j < d; ++j)
            acc += query_[j] * buffer_[j];
        return -acc;
    }

    void
    scan(const std::uint8_t *codes, std::size_t n, float threshold,
         float *out) const override
    {
        if (codec_.bits() != 8) {
            // SQ4 keeps the decode-per-code path (half-byte unpack does
            // not batch profitably without a dedicated kernel).
            DistanceComputer::scan(codes, n, threshold, out);
            return;
        }
        const std::size_t d = codec_.dim();
        const auto &kt = vecstore::simd::active();
        if (metric_ == vecstore::Metric::L2)
            kt.sq8_scan_l2(a_.data(), b_.data(), codes, n, d, out);
        else
            kt.sq8_scan_ip(a_.data(), bias_, codes, n, d, out);
    }

    void
    scanMulti(const DistanceComputer *const *peers, std::size_t q_count,
              const std::uint8_t *codes, std::size_t n,
              const float *thresholds, float *const *out) const override
    {
        if (codec_.bits() != 8) {
            DistanceComputer::scanMulti(peers, q_count, codes, n,
                                        thresholds, out);
            return;
        }
        const std::size_t d = codec_.dim();
        const auto &kt = vecstore::simd::active();
        std::vector<const float *> a(q_count);
        for (std::size_t q = 0; q < q_count; ++q)
            a[q] = static_cast<const ScalarDistance *>(peers[q])->a_.data();
        if (metric_ == vecstore::Metric::L2) {
            // b_ (the per-dimension scale) is query-independent.
            kt.sq8_scan_l2_multi(a.data(), b_.data(), q_count, codes, n, d,
                                 out);
            return;
        }
        std::vector<float> biases(q_count);
        for (std::size_t q = 0; q < q_count; ++q) {
            biases[q] =
                static_cast<const ScalarDistance *>(peers[q])->bias_;
        }
        kt.sq8_scan_ip_multi(a.data(), biases.data(), q_count, codes, n, d,
                             out);
    }

  private:
    const ScalarCodec &codec_;
    vecstore::Metric metric_;
    vecstore::VecView query_;
    mutable std::vector<float> buffer_;
    std::vector<float> a_; ///< SQ8: q - vmin (L2) or q*scale (IP)
    std::vector<float> b_; ///< SQ8 L2: per-dimension scale
    float bias_ = 0.f;     ///< SQ8 IP: dot(q, vmin)
};

} // namespace

ScalarCodec::ScalarCodec(std::size_t dim, int bits) : dim_(dim), bits_(bits)
{
    HERMES_ASSERT(bits_ == 4 || bits_ == 8,
                  "ScalarCodec supports 4 or 8 bits, got ", bits_);
    HERMES_ASSERT(dim_ > 0, "ScalarCodec needs dim > 0");
    if (bits_ == 4) {
        HERMES_ASSERT(dim_ % 2 == 0, "SQ4 requires even dim, got ", dim_);
    }
}

std::size_t
ScalarCodec::codeSize() const
{
    return bits_ == 8 ? dim_ : dim_ / 2;
}

void
ScalarCodec::train(const vecstore::Matrix &data)
{
    HERMES_ASSERT(data.dim() == dim_, "train dim mismatch");
    HERMES_ASSERT(data.rows() > 0, "ScalarCodec: empty training set");

    vmin_.assign(dim_, std::numeric_limits<float>::max());
    std::vector<float> vmax(dim_, std::numeric_limits<float>::lowest());
    for (std::size_t i = 0; i < data.rows(); ++i) {
        auto row = data.row(i);
        for (std::size_t j = 0; j < dim_; ++j) {
            vmin_[j] = std::min(vmin_[j], row[j]);
            vmax[j] = std::max(vmax[j], row[j]);
        }
    }
    vdiff_.resize(dim_);
    for (std::size_t j = 0; j < dim_; ++j) {
        vdiff_[j] = vmax[j] - vmin_[j];
        if (vdiff_[j] <= 0.f)
            vdiff_[j] = 1e-20f; // constant dimension; decode to vmin
    }
    trained_ = true;
}

std::uint32_t
ScalarCodec::quantizeDim(std::size_t j, float x) const
{
    const float max_level = static_cast<float>(levels() - 1);
    float t = (x - vmin_[j]) / vdiff_[j] * max_level;
    t = std::clamp(t, 0.f, max_level);
    return static_cast<std::uint32_t>(t + 0.5f);
}

float
ScalarCodec::reconstruct(std::size_t j, std::uint32_t q) const
{
    const float max_level = static_cast<float>(levels() - 1);
    return vmin_[j] + vdiff_[j] * (static_cast<float>(q) / max_level);
}

void
ScalarCodec::encode(vecstore::VecView v, std::uint8_t *code) const
{
    HERMES_ASSERT(trained_, "ScalarCodec used before training");
    HERMES_ASSERT(v.size() == dim_, "encode dim mismatch");
    if (bits_ == 8) {
        for (std::size_t j = 0; j < dim_; ++j)
            code[j] = static_cast<std::uint8_t>(quantizeDim(j, v[j]));
        return;
    }
    for (std::size_t j = 0; j < dim_; j += 2) {
        std::uint32_t lo = quantizeDim(j, v[j]);
        std::uint32_t hi = quantizeDim(j + 1, v[j + 1]);
        code[j / 2] = static_cast<std::uint8_t>(lo | (hi << 4));
    }
}

void
ScalarCodec::decode(const std::uint8_t *code, vecstore::MutVecView out) const
{
    HERMES_ASSERT(trained_, "ScalarCodec used before training");
    HERMES_ASSERT(out.size() == dim_, "decode dim mismatch");
    if (bits_ == 8) {
        for (std::size_t j = 0; j < dim_; ++j)
            out[j] = reconstruct(j, code[j]);
        return;
    }
    for (std::size_t j = 0; j < dim_; j += 2) {
        std::uint8_t byte = code[j / 2];
        out[j] = reconstruct(j, byte & 0x0f);
        out[j + 1] = reconstruct(j + 1, byte >> 4);
    }
}

std::unique_ptr<DistanceComputer>
ScalarCodec::distanceComputer(vecstore::Metric metric,
                              vecstore::VecView query) const
{
    HERMES_ASSERT(trained_, "ScalarCodec used before training");
    return std::make_unique<ScalarDistance>(*this, metric, query);
}

std::string
ScalarCodec::name() const
{
    return bits_ == 8 ? "SQ8" : "SQ4";
}

void
ScalarCodec::save(util::ByteWriter &w) const
{
    w.put<std::uint64_t>(dim_);
    w.put<std::int32_t>(bits_);
    w.put<std::uint8_t>(trained_ ? 1 : 0);
    w.putVector(vmin_);
    w.putVector(vdiff_);
}

void
ScalarCodec::load(util::ByteReader &r)
{
    auto dim = r.get<std::uint64_t>();
    auto bits = r.get<std::int32_t>();
    if (dim != dim_ || bits != bits_)
        r.fail(util::FormatErrorCode::Corrupt,
               "ScalarCodec shape mismatch on load");
    trained_ = r.get<std::uint8_t>() != 0;
    vmin_ = r.getVector<float>();
    vdiff_ = r.getVector<float>();
    if (trained_ && (vmin_.size() != dim_ || vdiff_.size() != dim_))
        r.fail(util::FormatErrorCode::Corrupt,
               "ScalarCodec range tables have the wrong size");
}

} // namespace quant
} // namespace hermes
