/**
 * @file
 * Scalar quantization (Table 1 "SQ8"/"SQ4").
 *
 * Each dimension is linearly mapped to a b-bit integer using per-dimension
 * [min, max] ranges fit at train time. SQ8 is the codec the paper selects
 * for all at-scale experiments: 4x smaller than Flat with ~0.94 recall.
 */

#pragma once

#include <vector>

#include "quant/codec.hpp"

namespace hermes {
namespace quant {

/** Per-dimension b-bit scalar quantizer (b in {4, 8}). */
class ScalarCodec : public Codec
{
  public:
    /**
     * @param dim  Embedding dimensionality (even for 4-bit).
     * @param bits Bits per dimension: 4 or 8.
     */
    ScalarCodec(std::size_t dim, int bits);

    std::size_t dim() const override { return dim_; }
    std::size_t codeSize() const override;
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

    int bits() const { return bits_; }

    /** Per-dimension range minima (valid after train). */
    const std::vector<float> &mins() const { return vmin_; }

    /** Per-dimension range widths (valid after train). */
    const std::vector<float> &widths() const { return vdiff_; }

    /** Quantization levels per dimension (2^bits). */
    std::size_t levels() const { return std::size_t(1) << bits_; }

    /** Dequantized value of level @p q in dimension @p j. */
    float reconstruct(std::size_t j, std::uint32_t q) const;

  private:
    std::uint32_t quantizeDim(std::size_t j, float x) const;

    std::size_t dim_;
    int bits_;
    bool trained_ = false;
    std::vector<float> vmin_;  ///< Per-dimension range minimum.
    std::vector<float> vdiff_; ///< Per-dimension range width.
};

} // namespace quant
} // namespace hermes
