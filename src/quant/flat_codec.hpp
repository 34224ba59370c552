/**
 * @file
 * Identity codec: stores raw float32 (Table 1 "Flat", 4·d bytes).
 */

#pragma once

#include "quant/codec.hpp"

namespace hermes {
namespace quant {

/** Raw float32 storage; distances are exact. */
class FlatCodec : public Codec
{
  public:
    explicit FlatCodec(std::size_t dim);

    std::size_t dim() const override { return dim_; }
    std::size_t codeSize() const override { return dim_ * sizeof(float); }
    bool isTrained() const override { return true; }
    void train(const vecstore::Matrix &data) override;
    void encode(vecstore::VecView v, std::uint8_t *code) const override;
    void decode(const std::uint8_t *code,
                vecstore::MutVecView out) const override;
    std::unique_ptr<DistanceComputer>
    distanceComputer(vecstore::Metric metric,
                     vecstore::VecView query) const override;
    std::string name() const override { return "Flat"; }
    void save(util::ByteWriter &w) const override;
    void load(util::ByteReader &r) override;

  private:
    std::size_t dim_;
};

} // namespace quant
} // namespace hermes
