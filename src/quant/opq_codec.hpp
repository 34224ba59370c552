/**
 * @file
 * Optimized Product Quantization (Table 1 "OPQ<M>").
 *
 * OPQ learns an orthogonal rotation R that redistributes variance across
 * PQ subspaces before quantization, reducing reconstruction error at the
 * same code size. Training alternates between (1) fitting PQ codebooks on
 * the rotated data and (2) solving the orthogonal Procrustes problem for
 * the rotation that best maps data onto its reconstructions.
 */

#pragma once

#include "quant/pq_codec.hpp"

namespace hermes {
namespace quant {

/** Rotation + PQ codec. */
class OpqCodec : public Codec
{
  public:
    /**
     * @param dim        Embedding dimensionality.
     * @param m          Number of PQ subquantizers (must divide dim).
     * @param iterations Alternating optimization rounds.
     */
    OpqCodec(std::size_t dim, std::size_t m, std::size_t iterations = 4);

    std::size_t dim() const override { return dim_; }
    std::size_t codeSize() const override { return pq_.codeSize(); }
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

    /** The learned rotation (d x d row-major); rows are orthonormal. */
    const std::vector<float> &rotation() const { return rotation_; }

  private:
    /** y = x * R (apply rotation to a row vector). */
    void rotate(vecstore::VecView x, float *y) const;

    std::size_t dim_;
    std::size_t iterations_;
    bool trained_ = false;
    PqCodec pq_;
    std::vector<float> rotation_;
};

} // namespace quant
} // namespace hermes
