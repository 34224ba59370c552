/**
 * @file
 * Vector codec interface (Table 1 of the paper).
 *
 * A codec compresses float32 embeddings into fixed-size codes and answers
 * asymmetric distance queries (float query vs compressed database vector).
 * IVF lists store codes, so the codec choice sets both the index's memory
 * footprint and its scan cost.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/serialize.hpp"
#include "vecstore/matrix.hpp"
#include "vecstore/types.hpp"

namespace hermes {
namespace quant {

/**
 * Per-query distance evaluator over codes.
 *
 * Codecs return a specialized computer (e.g. PQ lookup tables) so the hot
 * scan loop does no virtual dispatch per dimension — and, via scan(), no
 * virtual dispatch per vector either.
 */
class DistanceComputer
{
  public:
    /** @param code_size Bytes per encoded vector (the scan stride). */
    explicit DistanceComputer(std::size_t code_size)
        : code_size_(code_size)
    {
    }

    virtual ~DistanceComputer() = default;

    /** Distance ("smaller = closer") from the bound query to @p code. */
    virtual float operator()(const std::uint8_t *code) const = 0;

    /**
     * Batched scan over @p n contiguous codes (stride = codeSize bytes):
     * writes out[i] = distance to code i.
     *
     * Contract: @p threshold is a pruning hint. An implementation may
     * write any value strictly greater than @p threshold for a row whose
     * exact distance provably exceeds it, so callers must treat
     * out[i] > threshold as "not a candidate" rather than as an exact
     * distance. Pass +inf (TopK::worst() before the heap fills) to
     * request exact scores for every row. The default implementation
     * loops over operator(); codecs override it with blocked kernels.
     */
    virtual void scan(const std::uint8_t *codes, std::size_t n,
                      float threshold, float *out) const;

    /**
     * Multi-query scan: evaluate @p q_count computers over the same code
     * list in one pass, writing out[q][i] = peers[q]'s distance to code i.
     *
     * @p peers are computers produced by the *same* codec under the same
     * metric (peers[q] == this for some q is allowed but not required);
     * the call is made on peers[0]'s dynamic type. @p thresholds carries
     * one pruning hint per query with the same contract as scan(). Scores
     * per query are bitwise identical to peers[q]->scan(...): the default
     * loops the single-query scans in query-major strips (the codes stay
     * cache-resident between strips), and Flat/SQ8 override with fused
     * multi-query kernels.
     */
    virtual void scanMulti(const DistanceComputer *const *peers,
                           std::size_t q_count, const std::uint8_t *codes,
                           std::size_t n, const float *thresholds,
                           float *const *out) const;

    /** Bytes per encoded vector. */
    std::size_t codeSize() const { return code_size_; }

  protected:
    std::size_t code_size_;
};

/** Abstract vector codec. */
class Codec
{
  public:
    virtual ~Codec() = default;

    /** Embedding dimensionality. */
    virtual std::size_t dim() const = 0;

    /** Bytes per encoded vector. */
    virtual std::size_t codeSize() const = 0;

    /** True once train() has run (or training is unnecessary). */
    virtual bool isTrained() const = 0;

    /** Fit codec parameters on a representative sample. */
    virtual void train(const vecstore::Matrix &data) = 0;

    /** Encode one vector into codeSize() bytes at @p code. */
    virtual void encode(vecstore::VecView v, std::uint8_t *code) const = 0;

    /** Decode codeSize() bytes into a float vector. */
    virtual void decode(const std::uint8_t *code,
                        vecstore::MutVecView out) const = 0;

    /**
     * Build a distance computer for @p query under @p metric.
     * The view must outlive the computer.
     */
    virtual std::unique_ptr<DistanceComputer>
    distanceComputer(vecstore::Metric metric,
                     vecstore::VecView query) const = 0;

    /** Codec spec name, e.g. "SQ8", "PQ32". */
    virtual std::string name() const = 0;

    /** Serialize codec parameters. */
    virtual void save(util::ByteWriter &w) const = 0;

    /** Deserialize codec parameters (must match constructed shape). */
    virtual void load(util::ByteReader &r) = 0;
};

/**
 * Construct a codec from a spec string: "Flat", "SQ8", "SQ4", "PQ<M>" or
 * "OPQ<M>" where M divides the dimensionality.
 *
 * @param spec Codec spec.
 * @param dim  Embedding dimensionality.
 */
std::unique_ptr<Codec> makeCodec(const std::string &spec, std::size_t dim);

/**
 * True when makeCodec(spec, dim) would succeed. makeCodec treats a bad
 * spec as a fatal programming error; callers deserializing untrusted
 * bytes (index/ivf_format) must gate on this first so a hostile file
 * produces a typed format error instead of process death.
 */
bool codecSpecValid(const std::string &spec, std::size_t dim);

} // namespace quant
} // namespace hermes
