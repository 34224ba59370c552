/**
 * @file
 * Unit and property tests for the vector codecs (Table 1 machinery).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "quant/codec.hpp"
#include "quant/flat_codec.hpp"
#include "quant/linalg.hpp"
#include "quant/opq_codec.hpp"
#include "quant/pq_codec.hpp"
#include "quant/scalar_codec.hpp"
#include "util/rng.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/matrix.hpp"

namespace {

using namespace hermes;
using namespace hermes::quant;
using hermes::util::Rng;
using hermes::vecstore::Matrix;
using hermes::vecstore::Metric;

constexpr std::size_t kDim = 32;

Matrix
trainingData(std::size_t n, std::size_t d, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(n, d);
    for (std::size_t i = 0; i < n; ++i) {
        auto row = m.row(i);
        for (std::size_t j = 0; j < d; ++j)
            row[j] = static_cast<float>(rng.gaussian());
        vecstore::normalize(row.data(), d);
    }
    return m;
}

double
meanReconstructionError(Codec &codec, const Matrix &data)
{
    std::vector<std::uint8_t> code(codec.codeSize());
    std::vector<float> recon(codec.dim());
    double total = 0.0;
    for (std::size_t i = 0; i < data.rows(); ++i) {
        codec.encode(data.row(i), code.data());
        codec.decode(code.data(),
                     vecstore::MutVecView(recon.data(), recon.size()));
        total += vecstore::l2Sq(data.row(i).data(), recon.data(),
                                codec.dim());
    }
    return total / static_cast<double>(data.rows());
}

/** All codec specs behave per the Codec contract. */
class CodecContract : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        data_ = trainingData(600, kDim, 11);
        codec_ = makeCodec(GetParam(), kDim);
        codec_->train(data_);
    }

    Matrix data_{kDim};
    std::unique_ptr<Codec> codec_;
};

TEST_P(CodecContract, TrainedAfterTrain)
{
    EXPECT_TRUE(codec_->isTrained());
    EXPECT_EQ(codec_->dim(), kDim);
    EXPECT_GT(codec_->codeSize(), 0u);
}

TEST_P(CodecContract, EncodeDecodeIsDeterministic)
{
    std::vector<std::uint8_t> c1(codec_->codeSize()), c2(codec_->codeSize());
    codec_->encode(data_.row(0), c1.data());
    codec_->encode(data_.row(0), c2.data());
    EXPECT_EQ(c1, c2);
}

TEST_P(CodecContract, ReconstructionErrorBounded)
{
    // Unit vectors: any sane codec reconstructs with mean squared error
    // well below the vector norm of 1.
    double mse = meanReconstructionError(*codec_, data_);
    EXPECT_LT(mse, 0.5) << "codec " << codec_->name();
    EXPECT_GE(mse, 0.0);
}

TEST_P(CodecContract, DistanceComputerMatchesDecodedDistanceL2)
{
    Rng rng(12);
    std::vector<float> query(kDim);
    for (auto &x : query)
        x = static_cast<float>(rng.gaussian());

    auto computer = codec_->distanceComputer(
        Metric::L2, vecstore::VecView(query.data(), kDim));
    std::vector<std::uint8_t> code(codec_->codeSize());
    std::vector<float> recon(kDim);
    for (std::size_t i = 0; i < 20; ++i) {
        codec_->encode(data_.row(i), code.data());
        codec_->decode(code.data(), vecstore::MutVecView(recon.data(),
                                                         kDim));
        float via_decode = vecstore::l2Sq(query.data(), recon.data(), kDim);
        float via_computer = (*computer)(code.data());
        EXPECT_NEAR(via_computer, via_decode,
                    1e-3f * (1.f + via_decode))
            << "codec " << codec_->name();
    }
}

TEST_P(CodecContract, DistanceComputerMatchesDecodedDistanceIP)
{
    Rng rng(13);
    std::vector<float> query(kDim);
    for (auto &x : query)
        x = static_cast<float>(rng.gaussian());

    auto computer = codec_->distanceComputer(
        Metric::InnerProduct, vecstore::VecView(query.data(), kDim));
    std::vector<std::uint8_t> code(codec_->codeSize());
    std::vector<float> recon(kDim);
    for (std::size_t i = 0; i < 20; ++i) {
        codec_->encode(data_.row(i), code.data());
        codec_->decode(code.data(), vecstore::MutVecView(recon.data(),
                                                         kDim));
        float via_decode = -vecstore::dot(query.data(), recon.data(), kDim);
        float via_computer = (*computer)(code.data());
        EXPECT_NEAR(via_computer, via_decode,
                    1e-3f * (1.f + std::fabs(via_decode)))
            << "codec " << codec_->name();
    }
}

TEST_P(CodecContract, SaveLoadPreservesCodes)
{
    hermes::util::ByteWriter w;
    codec_->save(w);
    auto fresh = makeCodec(GetParam(), kDim);
    {
        hermes::util::ByteReader r(w.bytes(), "codec " + GetParam());
        fresh->load(r);
        EXPECT_NO_THROW(r.expectEnd());
    }
    std::vector<std::uint8_t> a(codec_->codeSize()), b(fresh->codeSize());
    for (std::size_t i = 0; i < 10; ++i) {
        codec_->encode(data_.row(i), a.data());
        fresh->encode(data_.row(i), b.data());
        EXPECT_EQ(a, b) << "codec " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecContract,
                         ::testing::Values("Flat", "SQ8", "SQ4", "PQ8",
                                           "PQ16", "OPQ8"));

TEST(FlatCodec, RoundTripIsExact)
{
    auto data = trainingData(10, kDim, 21);
    FlatCodec codec(kDim);
    std::vector<std::uint8_t> code(codec.codeSize());
    std::vector<float> recon(kDim);
    codec.encode(data.row(3), code.data());
    codec.decode(code.data(), vecstore::MutVecView(recon.data(), kDim));
    for (std::size_t j = 0; j < kDim; ++j)
        EXPECT_FLOAT_EQ(recon[j], data.row(3)[j]);
}

TEST(ScalarCodec, Sq8BeatsSq4)
{
    auto data = trainingData(500, kDim, 22);
    ScalarCodec sq8(kDim, 8), sq4(kDim, 4);
    sq8.train(data);
    sq4.train(data);
    EXPECT_LT(meanReconstructionError(sq8, data),
              meanReconstructionError(sq4, data));
}

TEST(ScalarCodec, CodeSizes)
{
    EXPECT_EQ(ScalarCodec(kDim, 8).codeSize(), kDim);
    EXPECT_EQ(ScalarCodec(kDim, 4).codeSize(), kDim / 2);
}

TEST(ScalarCodec, Sq8ErrorIsTiny)
{
    // Table 1: SQ8 keeps recall within ~2% of Flat. That requires per-
    // element quantization error around 1/255 of the range.
    auto data = trainingData(500, kDim, 23);
    ScalarCodec sq8(kDim, 8);
    sq8.train(data);
    EXPECT_LT(meanReconstructionError(sq8, data), 1e-3);
}

TEST(ScalarCodec, HandlesConstantDimension)
{
    Matrix data(50, 4);
    for (std::size_t i = 0; i < 50; ++i) {
        auto row = data.row(i);
        row[0] = 1.f; // constant
        row[1] = static_cast<float>(i);
        row[2] = -1.f; // constant
        row[3] = static_cast<float>(i % 7);
    }
    ScalarCodec sq8(4, 8);
    sq8.train(data);
    std::vector<std::uint8_t> code(sq8.codeSize());
    std::vector<float> recon(4);
    sq8.encode(data.row(10), code.data());
    sq8.decode(code.data(), vecstore::MutVecView(recon.data(), 4));
    EXPECT_NEAR(recon[0], 1.f, 1e-5);
    EXPECT_NEAR(recon[2], -1.f, 1e-5);
}

TEST(PqCodec, MoreSubquantizersReduceError)
{
    auto data = trainingData(800, kDim, 24);
    PqCodec pq4(kDim, 4), pq16(kDim, 16);
    pq4.train(data);
    pq16.train(data);
    EXPECT_LT(meanReconstructionError(pq16, data),
              meanReconstructionError(pq4, data));
}

TEST(PqCodec, CodeSizeEqualsM)
{
    EXPECT_EQ(PqCodec(kDim, 8).codeSize(), 8u);
    EXPECT_EQ(PqCodec(kDim, 16).codeSize(), 16u);
}

TEST(PqCodec, AdcTableMatchesSubCentroidDistances)
{
    auto data = trainingData(400, kDim, 25);
    PqCodec pq(kDim, 4);
    pq.train(data);

    Rng rng(26);
    std::vector<float> query(kDim);
    for (auto &x : query)
        x = static_cast<float>(rng.gaussian());

    std::vector<float> table(4 * PqCodec::kSubCodebookSize);
    pq.computeAdcTable(Metric::L2, vecstore::VecView(query.data(), kDim),
                       table.data());
    std::size_t dsub = pq.subDim();
    for (std::size_t m = 0; m < 4; ++m) {
        for (std::size_t c = 0; c < 16; ++c) { // spot-check 16 entries
            float expected = vecstore::l2Sq(query.data() + m * dsub,
                                            pq.subCentroid(m, c), dsub);
            EXPECT_FLOAT_EQ(table[m * PqCodec::kSubCodebookSize + c],
                            expected);
        }
    }
}

TEST(OpqCodec, RotationIsOrthogonal)
{
    auto data = trainingData(500, kDim, 27);
    OpqCodec opq(kDim, 4, 3);
    opq.train(data);
    EXPECT_LT(linalg::orthogonalityError(opq.rotation().data(), kDim),
              1e-3f);
}

TEST(OpqCodec, NotWorseThanPqOnAnisotropicData)
{
    // Data with wildly uneven per-dimension variance: classic case where
    // a rotation redistributes energy across PQ subspaces.
    Rng rng(28);
    Matrix data(600, kDim);
    for (std::size_t i = 0; i < 600; ++i) {
        auto row = data.row(i);
        for (std::size_t j = 0; j < kDim; ++j) {
            double scale = (j < kDim / 4) ? 4.0 : 0.25;
            row[j] = static_cast<float>(rng.gaussian(0.0, scale));
        }
    }
    PqCodec pq(kDim, 4);
    OpqCodec opq(kDim, 4, 4);
    pq.train(data);
    opq.train(data);
    double pq_err = meanReconstructionError(pq, data);
    double opq_err = meanReconstructionError(opq, data);
    EXPECT_LT(opq_err, pq_err * 1.10); // allow noise, expect no regression
}

TEST(CodecFactory, ParsesSpecs)
{
    EXPECT_EQ(makeCodec("Flat", kDim)->name(), "Flat");
    EXPECT_EQ(makeCodec("SQ8", kDim)->name(), "SQ8");
    EXPECT_EQ(makeCodec("SQ4", kDim)->name(), "SQ4");
    EXPECT_EQ(makeCodec("PQ8", kDim)->name(), "PQ8");
    EXPECT_EQ(makeCodec("OPQ4", kDim)->name(), "OPQ4");
}

TEST(CodecFactory, TableOneCodeSizes)
{
    // Table 1 geometry at d=768: Flat 3072 B, SQ8 768 B, SQ4 384 B,
    // PQ256 256 B, PQ384 384 B.
    const std::size_t d = 768;
    EXPECT_EQ(makeCodec("Flat", d)->codeSize(), 3072u);
    EXPECT_EQ(makeCodec("SQ8", d)->codeSize(), 768u);
    EXPECT_EQ(makeCodec("SQ4", d)->codeSize(), 384u);
    EXPECT_EQ(makeCodec("PQ256", d)->codeSize(), 256u);
    EXPECT_EQ(makeCodec("PQ384", d)->codeSize(), 384u);
    EXPECT_EQ(makeCodec("OPQ256", d)->codeSize(), 256u);
}

} // namespace
