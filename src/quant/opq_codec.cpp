#include "quant/opq_codec.hpp"

#include <algorithm>

#include "quant/linalg.hpp"
#include "util/logging.hpp"

namespace hermes {
namespace quant {

namespace {

/** Rotates the query once, then delegates to the inner PQ ADC computer. */
class RotatedDistance : public DistanceComputer
{
  public:
    RotatedDistance(std::vector<float> rotated_query,
                    std::unique_ptr<DistanceComputer> inner)
        : DistanceComputer(inner->codeSize()),
          rotated_query_(std::move(rotated_query)), inner_(std::move(inner))
    {
    }

    float
    operator()(const std::uint8_t *code) const override
    {
        return (*inner_)(code);
    }

    void
    scan(const std::uint8_t *codes, std::size_t n, float threshold,
         float *out) const override
    {
        inner_->scan(codes, n, threshold, out);
    }

    void
    scanMulti(const DistanceComputer *const *peers, std::size_t q_count,
              const std::uint8_t *codes, std::size_t n,
              const float *thresholds, float *const *out) const override
    {
        // Unwrap to the inner ADC computers so their scanMulti sweeps the
        // code list in query-major strips (rotation already happened at
        // construction; codes are plain PQ codes).
        std::vector<const DistanceComputer *> inner(q_count);
        for (std::size_t q = 0; q < q_count; ++q) {
            inner[q] =
                static_cast<const RotatedDistance *>(peers[q])->inner_.get();
        }
        inner[0]->scanMulti(inner.data(), q_count, codes, n, thresholds,
                            out);
    }

  private:
    std::vector<float> rotated_query_; // owns storage referenced by inner_
    std::unique_ptr<DistanceComputer> inner_;
};

} // namespace

OpqCodec::OpqCodec(std::size_t dim, std::size_t m, std::size_t iterations)
    : dim_(dim), iterations_(std::max<std::size_t>(iterations, 1)),
      pq_(dim, m)
{
}

void
OpqCodec::rotate(vecstore::VecView x, float *y) const
{
    linalg::vecmat(x.data(), rotation_.data(), y, dim_);
}

void
OpqCodec::train(const vecstore::Matrix &data)
{
    HERMES_ASSERT(data.dim() == dim_, "train dim mismatch");
    const std::size_t n = data.rows();

    rotation_ = linalg::randomRotation(dim_, 0x0b9c0de5ull);

    vecstore::Matrix rotated(n, dim_);
    std::vector<std::uint8_t> codes(pq_.codeSize());
    std::vector<float> recon(dim_);

    for (std::size_t iter = 0; iter < iterations_; ++iter) {
        // (1) Rotate the training data and fit PQ codebooks.
        for (std::size_t i = 0; i < n; ++i)
            rotate(data.row(i), rotated.row(i).data());
        pq_.train(rotated);

        if (iter + 1 == iterations_)
            break;

        // (2) Re-fit the rotation: minimize ||X R - Y||_F over orthogonal
        // R, where Y are the PQ reconstructions of X R. The minimizer is
        // the Procrustes solution for M = X^T Y (up to scaling), computed
        // here via the polar decomposition of M.
        std::vector<float> cross(dim_ * dim_, 0.f);
        for (std::size_t i = 0; i < n; ++i) {
            pq_.encode(rotated.row(i), codes.data());
            pq_.decode(codes.data(),
                       vecstore::MutVecView(recon.data(), dim_));
            auto x = data.row(i);
            for (std::size_t a = 0; a < dim_; ++a) {
                float xa = x[a];
                float *row = cross.data() + a * dim_;
                for (std::size_t b = 0; b < dim_; ++b)
                    row[b] += xa * recon[b];
            }
        }
        rotation_ = linalg::procrustes(cross, dim_);
    }
    trained_ = true;
}

void
OpqCodec::encode(vecstore::VecView v, std::uint8_t *code) const
{
    HERMES_ASSERT(trained_, "OpqCodec used before training");
    std::vector<float> rotated(dim_);
    rotate(v, rotated.data());
    pq_.encode(vecstore::VecView(rotated.data(), dim_), code);
}

void
OpqCodec::decode(const std::uint8_t *code, vecstore::MutVecView out) const
{
    HERMES_ASSERT(trained_, "OpqCodec used before training");
    // Decode in rotated space, then rotate back: x = y * R^T.
    std::vector<float> rotated(dim_);
    pq_.decode(code, vecstore::MutVecView(rotated.data(), dim_));
    auto rt = linalg::transpose(rotation_.data(), dim_);
    linalg::vecmat(rotated.data(), rt.data(), out.data(), dim_);
}

std::unique_ptr<DistanceComputer>
OpqCodec::distanceComputer(vecstore::Metric metric,
                           vecstore::VecView query) const
{
    HERMES_ASSERT(trained_, "OpqCodec used before training");
    // Rotation preserves L2 distances and dot products, so computing the
    // metric in rotated space against rotated-space codes is exact.
    std::vector<float> rotated(dim_);
    rotate(query, rotated.data());
    auto inner = pq_.distanceComputer(
        metric, vecstore::VecView(rotated.data(), dim_));
    return std::make_unique<RotatedDistance>(std::move(rotated),
                                             std::move(inner));
}

std::string
OpqCodec::name() const
{
    return "OPQ" + std::to_string(pq_.numSubquantizers());
}

void
OpqCodec::save(util::ByteWriter &w) const
{
    w.put<std::uint64_t>(dim_);
    w.put<std::uint8_t>(trained_ ? 1 : 0);
    w.putVector(rotation_);
    pq_.save(w);
}

void
OpqCodec::load(util::ByteReader &r)
{
    auto dim = r.get<std::uint64_t>();
    if (dim != dim_)
        r.fail(util::FormatErrorCode::Corrupt,
               "OpqCodec dim mismatch on load");
    trained_ = r.get<std::uint8_t>() != 0;
    rotation_ = r.getVector<float>();
    if (trained_ && rotation_.size() != dim_ * dim_)
        r.fail(util::FormatErrorCode::Corrupt,
               "OpqCodec rotation matrix has the wrong size");
    pq_.load(r);
}

} // namespace quant
} // namespace hermes
