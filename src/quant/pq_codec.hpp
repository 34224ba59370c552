/**
 * @file
 * Product Quantization (Jégou et al., 2010; Table 1 "PQ<M>").
 *
 * The vector is split into M contiguous subspaces of d/M dims; each
 * subspace is vector-quantized with its own 256-entry codebook, giving
 * M bytes per vector. Queries use asymmetric distance computation (ADC):
 * a per-query M x 256 lookup table turns each scan step into M table
 * lookups and adds.
 */

#pragma once

#include <vector>

#include "quant/codec.hpp"

namespace hermes {
namespace quant {

/** Product quantizer with 8-bit sub-codes. */
class PqCodec : public Codec
{
  public:
    /**
     * @param dim Embedding dimensionality.
     * @param m   Number of subquantizers; must divide dim.
     */
    PqCodec(std::size_t dim, std::size_t m);

    std::size_t dim() const override { return dim_; }
    std::size_t codeSize() const override { return m_; }
    bool isTrained() const override { return trained_; }
    void train(const vecstore::Matrix &data) override;
    void encode(vecstore::VecView v, std::uint8_t *code) const override;
    void decode(const std::uint8_t *code,
                vecstore::MutVecView out) const override;
    std::unique_ptr<DistanceComputer>
    distanceComputer(vecstore::Metric metric,
                     vecstore::VecView query) const override;
    std::string name() const override;
    void save(util::ByteWriter &w) const override;
    void load(util::ByteReader &r) override;

    std::size_t numSubquantizers() const { return m_; }
    std::size_t subDim() const { return dsub_; }
    static constexpr std::size_t kSubCodebookSize = 256;

    /** Centroid @p c of subquantizer @p m (dsub floats). */
    const float *subCentroid(std::size_t m, std::size_t c) const;

    /**
     * Fill a caller-provided M x 256 ADC table for @p query.
     * Entries are squared L2 partials (L2) or negated dot partials (IP).
     */
    void computeAdcTable(vecstore::Metric metric, vecstore::VecView query,
                         float *table) const;

  private:
    std::size_t dim_;
    std::size_t m_;
    std::size_t dsub_;
    bool trained_ = false;

    /** Codebooks: m_ * 256 * dsub_ floats, subquantizer-major. */
    std::vector<float> codebooks_;
};

} // namespace quant
} // namespace hermes
