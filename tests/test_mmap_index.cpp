/**
 * @file
 * Zero-copy mmap datastore tests: bit-parity between in-memory, heap
 * reloaded and mmap-opened indices across every codec and both SIMD
 * arms; adversarial rejection of every truncation prefix and every
 * single-bit flip; read-only semantics; concurrent readers over one
 * shared mapping; byte-identity of the bounded-memory stream writer
 * against save(); add/removeIds sequences against a per-list model;
 * and publishing a file by rename, so a live mapping never sees a
 * rebuild's bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/kmeans.hpp"
#include "index/ivf_format.hpp"
#include "index/ivf_index.hpp"
#include "index/ivf_stream_writer.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "vecstore/simd_dispatch.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;
using namespace hermes::index;
using hermes::vecstore::Matrix;
using hermes::vecstore::Metric;

struct TestData
{
    Matrix base{0};
    Matrix queries{0};
};

const TestData &
sharedData()
{
    static TestData data = [] {
        workload::CorpusConfig cc;
        cc.num_docs = 3000;
        cc.dim = 24; // divisible by 4 so PQ4/OPQ4 are legal
        cc.num_topics = 12;
        cc.seed = 17;
        auto corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 32;
        qc.seed = 18;
        auto queries = workload::generateQueries(corpus, qc);

        TestData out;
        out.base = std::move(corpus.embeddings);
        out.queries = std::move(queries.embeddings);
        return out;
    }();
    return data;
}

std::filesystem::path
tempIndexPath(const std::string &tag)
{
    return std::filesystem::temp_directory_path() /
           ("hermes_mmap_" + tag + ".hivf");
}

/** Restores the startup dispatch arm when a test returns. */
class IsaGuard
{
  public:
    IsaGuard() : name_(vecstore::simd::activeIsa()) {}
    ~IsaGuard() { vecstore::simd::forceIsaForTesting(name_.c_str()); }

  private:
    std::string name_;
};

std::vector<std::uint8_t>
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good());
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
writeFile(const std::filesystem::path &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

/** Build a trained, populated index over the shared corpus. */
IvfIndex
buildIndex(const std::string &codec, Metric metric,
           bool hnsw_coarse = false)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 16;
    config.codec = codec;
    config.hnsw_coarse = hnsw_coarse;
    IvfIndex ivf(data.base.dim(), metric, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);
    return ivf;
}

/**
 * The tentpole invariant: searches through the mmap view are
 * bit-identical (ids AND float scores, exact ==) to the in-memory
 * index, for per-query search and the forced list-major batch path.
 */
void
expectSearchParity(const IvfIndex &expect, const IvfIndex &got)
{
    const auto &data = sharedData();
    const std::size_t k = 10;

    SearchParams params;
    params.nprobe = 8;
    for (std::size_t q = 0; q < data.queries.rows(); ++q) {
        auto a = expect.search(data.queries.row(q), k, params);
        auto b = got.search(data.queries.row(q), k, params);
        ASSERT_EQ(a, b) << "per-query drift at query " << q;
    }

    // Force the list-major multi-query kernel so the mapped bytes run
    // through scanMulti as well as scan.
    params.batch_min_scan_floats = 0;
    std::vector<SearchStats> stats_a;
    std::vector<SearchStats> stats_b;
    auto batch_a = expect.searchBatch(data.queries, k, params, &stats_a);
    auto batch_b = got.searchBatch(data.queries, k, params, &stats_b);
    ASSERT_EQ(batch_a, batch_b);
    ASSERT_EQ(stats_a.size(), stats_b.size());
    for (std::size_t q = 0; q < stats_a.size(); ++q) {
        EXPECT_EQ(stats_a[q].vectors_scanned, stats_b[q].vectors_scanned);
        EXPECT_EQ(stats_a[q].bytes_scanned, stats_b[q].bytes_scanned);
    }
}

void
runParity(const std::string &codec, Metric metric, const char *isa)
{
    IsaGuard guard;
    if (!vecstore::simd::forceIsaForTesting(isa))
        GTEST_SKIP() << isa << " arm unavailable";

    auto built = buildIndex(codec, metric);
    auto path = tempIndexPath(codec + (metric == Metric::L2 ? "_l2" : "_ip") +
                              "_" + isa);
    built.save(path.string());

    auto heap = IvfIndex::load(path.string());
    auto mapped = IvfIndex::openMapped(path.string());
    ASSERT_FALSE(heap->isMapped());
    ASSERT_TRUE(mapped->isMapped());
    EXPECT_EQ(mapped->size(), built.size());

    expectSearchParity(built, *heap);
    expectSearchParity(built, *mapped);
    std::filesystem::remove(path);
}

TEST(MmapParity, FlatScalar) { runParity("Flat", Metric::L2, "scalar"); }
TEST(MmapParity, FlatAvx2) { runParity("Flat", Metric::L2, "avx2"); }
TEST(MmapParity, Sq8Scalar) { runParity("SQ8", Metric::L2, "scalar"); }
TEST(MmapParity, Sq8Avx2) { runParity("SQ8", Metric::L2, "avx2"); }
TEST(MmapParity, Sq4Scalar) { runParity("SQ4", Metric::L2, "scalar"); }
TEST(MmapParity, Sq4Avx2) { runParity("SQ4", Metric::L2, "avx2"); }
TEST(MmapParity, Pq4Scalar) { runParity("PQ4", Metric::L2, "scalar"); }
TEST(MmapParity, Pq4Avx2) { runParity("PQ4", Metric::L2, "avx2"); }
TEST(MmapParity, Opq4Scalar) { runParity("OPQ4", Metric::L2, "scalar"); }
TEST(MmapParity, Opq4Avx2) { runParity("OPQ4", Metric::L2, "avx2"); }
TEST(MmapParity, Sq8InnerProductScalar)
{
    runParity("SQ8", Metric::InnerProduct, "scalar");
}
TEST(MmapParity, Sq8InnerProductAvx2)
{
    runParity("SQ8", Metric::InnerProduct, "avx2");
}

TEST(MmapParity, HnswCoarseRebuiltOnMappedOpen)
{
    auto built = buildIndex("SQ8", Metric::L2, /*hnsw_coarse=*/true);
    auto path = tempIndexPath("hnsw_coarse");
    built.save(path.string());
    auto mapped = IvfIndex::openMapped(path.string());
    ASSERT_TRUE(mapped->isMapped());
    expectSearchParity(built, *mapped);
    std::filesystem::remove(path);
}

TEST(MmapParity, PrefaultOptionSearchesIdentically)
{
    auto built = buildIndex("SQ8", Metric::L2);
    auto path = tempIndexPath("prefault");
    built.save(path.string());
    IvfIndex::MmapOptions options;
    options.prefault = true;
    auto mapped = IvfIndex::openMapped(path.string(), options);
    expectSearchParity(built, *mapped);
    std::filesystem::remove(path);
}

TEST(MmapView, IsReadOnly)
{
    const auto &data = sharedData();
    auto built = buildIndex("SQ8", Metric::L2);
    auto path = tempIndexPath("readonly");
    built.save(path.string());
    auto mapped = IvfIndex::openMapped(path.string());

    std::vector<vecstore::VecId> ids(data.base.rows());
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<vecstore::VecId>(i);
    EXPECT_THROW(mapped->train(data.base), std::logic_error);
    EXPECT_THROW(mapped->add(data.base, ids), std::logic_error);
    EXPECT_THROW((void)mapped->removeIds({0, 1}), std::logic_error);
    // The view itself stays consistent after the refusals.
    EXPECT_EQ(mapped->size(), built.size());
    std::filesystem::remove(path);
}

TEST(MmapView, LoadedIndexIsHeapOwnedAndMutable)
{
    // load() reads through the mapped view, then drops the mapping: the
    // result owns its lists, re-saves to the same bytes, and mutates.
    const auto &data = sharedData();
    auto built = buildIndex("SQ8", Metric::L2);
    auto path = tempIndexPath("loaded_heap");
    auto resaved = tempIndexPath("loaded_heap_resaved");
    built.save(path.string());
    auto heap = IvfIndex::load(path.string());
    ASSERT_FALSE(heap->isMapped());
    EXPECT_EQ(heap->mappedBytes(), 0u);
    EXPECT_EQ(heap->memoryBytes(), built.memoryBytes());
    heap->save(resaved.string());
    EXPECT_EQ(readFile(path), readFile(resaved));

    EXPECT_EQ(heap->removeIds({0, 1}), 2u);
    Matrix rows(data.base.dim());
    rows.append(data.base.row(0));
    heap->add(rows, {0});
    EXPECT_EQ(heap->size(), built.size() - 1);
    std::filesystem::remove(path);
    std::filesystem::remove(resaved);
}

TEST(MmapView, ReportsMappingFootprint)
{
    auto built = buildIndex("SQ8", Metric::L2);
    auto path = tempIndexPath("footprint");
    built.save(path.string());
    auto mapped = IvfIndex::openMapped(path.string());

    EXPECT_EQ(mapped->mappedBytes(),
              std::filesystem::file_size(path));
    EXPECT_LE(mapped->mappedResidentBytes(), mapped->mappedBytes());
    // The heap footprint of a view is just centroids + codec tables —
    // far below the full index payload.
    EXPECT_LT(mapped->memoryBytes(), built.memoryBytes());
    EXPECT_EQ(built.mappedBytes(), 0u);
    std::filesystem::remove(path);
}

/**
 * Every proper prefix of a valid index file must be rejected with a
 * typed error — no crashes, no std::terminate, no partial loads.
 */
TEST(MmapCorruption, EveryTruncationPrefixIsRejected)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 4;
    config.codec = "Flat";
    Matrix small(8);
    for (std::size_t i = 0; i < 64; ++i)
        small.append(data.base.row(i).first(8));
    IvfIndex ivf(8, Metric::L2, config);
    ivf.train(small);
    ivf.addSequential(small);

    auto path = tempIndexPath("truncate");
    ivf.save(path.string());
    const auto bytes = readFile(path);
    ASSERT_GT(bytes.size(), 256u);

    auto prefix_path = tempIndexPath("truncate_prefix");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeFile(prefix_path, std::vector<std::uint8_t>(
                                   bytes.begin(),
                                   bytes.begin() +
                                       static_cast<std::ptrdiff_t>(len)));
        EXPECT_THROW((void)IvfIndex::openMapped(prefix_path.string()),
                     util::FormatError)
            << "prefix of " << len << " bytes was accepted";
    }
    std::filesystem::remove(path);
    std::filesystem::remove(prefix_path);
}

/**
 * Single-bit corruption anywhere in the file must be caught: every
 * byte is covered by a section CRC, the header CRC, or a must-be-zero
 * padding rule.
 */
TEST(MmapCorruption, EveryBitFlipIsRejected)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 4;
    config.codec = "SQ8";
    Matrix small(8);
    for (std::size_t i = 0; i < 48; ++i)
        small.append(data.base.row(i).first(8));
    IvfIndex ivf(8, Metric::L2, config);
    ivf.train(small);
    ivf.addSequential(small);

    auto path = tempIndexPath("bitflip");
    ivf.save(path.string());
    auto bytes = readFile(path);

    auto flipped_path = tempIndexPath("bitflip_mut");
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const std::uint8_t mask =
            static_cast<std::uint8_t>(1u << (i % 8));
        bytes[i] ^= mask;
        writeFile(flipped_path, bytes);
        EXPECT_THROW((void)IvfIndex::openMapped(flipped_path.string()),
                     util::FormatError)
            << "bit flip at byte " << i << " was accepted";
        bytes[i] ^= mask;
    }
    std::filesystem::remove(path);
    std::filesystem::remove(flipped_path);
}

/** Growing the file must be rejected too (trailing garbage). */
TEST(MmapCorruption, TrailingBytesAreRejected)
{
    auto built = buildIndex("SQ8", Metric::L2);
    auto path = tempIndexPath("trailing");
    built.save(path.string());
    auto bytes = readFile(path);
    bytes.push_back(0);
    writeFile(path, bytes);
    EXPECT_THROW((void)IvfIndex::openMapped(path.string()),
                 util::FormatError);
    EXPECT_THROW((void)IvfIndex::load(path.string()), util::FormatError);
    std::filesystem::remove(path);
}

/**
 * A file that is valid in every checksum and layout rule but whose codec
 * section holds one byte more than the codec reads: the leftover byte is
 * rejected, not ignored.
 */
TEST(MmapCorruption, CodecSectionTrailingBytesAreRejected)
{
    const auto path = tempIndexPath("codec_trailing");
    const auto write = [&](const std::string &blob) {
        ivff::IndexMeta meta;
        meta.dim = 24;
        meta.nlist = 1;
        meta.code_size = 24 * sizeof(float);
        meta.codec_spec = "Flat";
        ivff::IndexFileWriter w(path.string(), meta, {0}, blob.size());
        w.write(w.sectionOffset(ivff::kCodecParams), blob.data(),
                blob.size());
        w.finish();
    };
    util::ByteWriter blob;
    blob.put<std::uint64_t>(24); // FlatCodec parameters: dim
    write(blob.bytes());
    EXPECT_NO_THROW((void)IvfIndex::openMapped(path.string()));

    write(blob.bytes() + '\0');
    try {
        (void)IvfIndex::openMapped(path.string());
        ADD_FAILURE() << "trailing codec byte accepted";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), util::FormatErrorCode::Corrupt) << e.what();
    }
    std::filesystem::remove(path);
}

/**
 * Many threads searching one shared mapping concurrently: results must
 * match the single-threaded baseline exactly. Run under TSan, this
 * also pins the read-only-ness of the hot path (no hidden caches or
 * lazily-built state behind the mapped view).
 */
TEST(MmapConcurrency, ConcurrentReadersShareOneMapping)
{
    const auto &data = sharedData();
    auto built = buildIndex("SQ8", Metric::L2);
    auto path = tempIndexPath("concurrent");
    built.save(path.string());
    auto mapped = IvfIndex::openMapped(path.string());

    SearchParams params;
    params.nprobe = 8;
    const std::size_t k = 10;
    auto baseline = mapped->searchBatch(data.queries, k, params);

    constexpr std::size_t kThreads = 4;
    constexpr int kRounds = 8;
    std::vector<std::thread> threads;
    std::vector<int> mismatches(kThreads, 0);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (std::size_t q = 0; q < data.queries.rows(); ++q) {
                    auto hits =
                        mapped->search(data.queries.row(q), k, params);
                    if (hits != baseline[q])
                        ++mismatches[t];
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "reader " << t << " drifted";
    std::filesystem::remove(path);
}

/**
 * The bounded-memory stream writer must produce the same bytes as
 * add() + save(), for any batch split, with or without a thread pool,
 * even with a budget small enough to force mid-scatter flushes.
 */
TEST(StreamWriter, ByteIdenticalToSave)
{
    // One row per header field the shared writer owns: the codec spec
    // and its parameter blob, the metric, and the hnsw_coarse flag.
    struct Row
    {
        const char *codec;
        Metric metric;
        bool hnsw_coarse;
    };
    const Row table[] = {
        {"SQ8", Metric::L2, false},
        {"PQ4", Metric::InnerProduct, false},
        {"Flat", Metric::L2, true},
    };
    const auto &data = sharedData();
    for (const Row &row : table) {
        SCOPED_TRACE(std::string(row.codec) + "/" +
                     vecstore::metricName(row.metric) +
                     (row.hnsw_coarse ? "/hnsw_coarse" : "/linear"));
        IvfConfig config;
        config.nlist = 16;
        config.codec = row.codec;
        config.hnsw_coarse = row.hnsw_coarse;

        IvfIndex reference(data.base.dim(), row.metric, config);
        reference.train(data.base);
        reference.addSequential(data.base);
        auto ref_path = tempIndexPath("stream_ref");
        reference.save(ref_path.string());

        IvfIndex prototype(data.base.dim(), row.metric, config);
        prototype.train(data.base);

        auto stream_path = tempIndexPath("stream_out");
        IvfStreamWriter::Options options;
        options.buffer_budget_bytes = 1024; // force repeated flushes
        IvfStreamWriter writer(prototype, stream_path.string(), options);
        const std::size_t batch = 257; // deliberately odd split
        for (std::size_t at = 0; at < data.base.rows(); at += batch) {
            const std::size_t n = std::min(batch, data.base.rows() - at);
            Matrix rows(data.base.dim());
            std::vector<vecstore::VecId> ids;
            for (std::size_t i = 0; i < n; ++i) {
                rows.append(data.base.row(at + i));
                ids.push_back(static_cast<vecstore::VecId>(at + i));
            }
            writer.add(rows, ids);
        }
        EXPECT_EQ(writer.finish(), data.base.rows());

        EXPECT_EQ(readFile(ref_path), readFile(stream_path));

        // And the streamed file round-trips through the mmap searcher.
        auto mapped = IvfIndex::openMapped(stream_path.string());
        expectSearchParity(reference, *mapped);
        std::filesystem::remove(ref_path);
        std::filesystem::remove(stream_path);
    }
}

/**
 * Per-list model of an index's contents: each list holds (id, code)
 * rows in the order add() and removeIds() must leave them — survivors
 * keep their order, new rows append in row order.
 */
struct ListModel
{
    struct Row
    {
        vecstore::VecId id;
        std::vector<std::uint8_t> code;
    };
    std::vector<std::vector<Row>> lists;

    void add(const IvfIndex &ivf, const Matrix &rows,
             const std::vector<vecstore::VecId> &ids)
    {
        for (std::size_t i = 0; i < rows.rows(); ++i) {
            Row row{ids[i], std::vector<std::uint8_t>(
                                ivf.codec().codeSize())};
            ivf.codec().encode(rows.row(i), row.code.data());
            lists[cluster::nearestCentroid(rows.row(i), ivf.centroids())]
                .push_back(std::move(row));
        }
    }

    std::size_t remove(const std::vector<vecstore::VecId> &ids)
    {
        std::size_t removed = 0;
        for (auto &list : lists) {
            const auto kept = std::remove_if(
                list.begin(), list.end(), [&](const Row &row) {
                    return std::find(ids.begin(), ids.end(), row.id) !=
                           ids.end();
                });
            removed += static_cast<std::size_t>(list.end() - kept);
            list.erase(kept, list.end());
        }
        return removed;
    }

    std::vector<vecstore::VecId> ids() const
    {
        std::vector<vecstore::VecId> out;
        for (const auto &list : lists) {
            for (const Row &row : list)
                out.push_back(row.id);
        }
        return out;
    }
};

/** Save @p ivf to @p path and compare the parsed file with @p model. */
void
expectFileMatchesModel(const IvfIndex &ivf, const ListModel &model,
                       const std::filesystem::path &path)
{
    ivf.save(path.string());
    util::MmapFile file(path.string());
    const auto parsed = ivff::parseIndexFile(file);
    const std::size_t code_size = ivf.codec().codeSize();
    ASSERT_EQ(parsed.meta.nlist, model.lists.size());
    std::uint64_t offset = 0;
    for (std::size_t l = 0; l < model.lists.size(); ++l) {
        const auto &entry = parsed.list_table[l];
        const auto &rows = model.lists[l];
        ASSERT_EQ(entry.offset, offset) << "list " << l;
        ASSERT_EQ(entry.count, rows.size()) << "list " << l;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::uint64_t at = offset + i;
            ASSERT_EQ(parsed.ids[at], rows[i].id) << "list " << l;
            ASSERT_EQ(std::memcmp(parsed.codes + at * code_size,
                                  rows[i].code.data(), code_size),
                      0)
                << "list " << l << " row " << i;
        }
        offset += entry.count;
    }
    EXPECT_EQ(parsed.meta.ntotal, offset);
    EXPECT_EQ(ivf.size(), offset);
}

/**
 * Seeded interleavings of add() and removeIds(): batches of 0, 1 and
 * many rows, duplicate ids, unknown and repeated ids in a removal, a
 * list emptied and the whole index emptied. After every step the saved
 * file must hold exactly the model's lists, and saving again after
 * load() or openMapped() must reproduce the same bytes.
 */
TEST(IvfMutation, RandomSequenceMatchesListModel)
{
    const auto &data = sharedData();
    constexpr std::size_t kDim = 8;
    constexpr int kSteps = 40;
    Matrix pool(kDim);
    for (std::size_t i = 0; i < 600; ++i)
        pool.append(data.base.row(i).first(kDim));

    for (const char *codec : {"Flat", "SQ8"}) {
        SCOPED_TRACE(codec);
        IvfConfig config;
        config.nlist = 6;
        config.codec = codec;
        IvfIndex ivf(kDim, Metric::L2, config);
        ivf.train(pool);
        ListModel model;
        model.lists.resize(config.nlist);

        util::Rng rng(0xadd5 + std::strlen(codec));
        vecstore::VecId next_id = 0;
        const auto path = tempIndexPath("mutation");
        const auto again = tempIndexPath("mutation_again");
        for (int step = 0; step < kSteps; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            const auto live = model.ids();
            const std::uint64_t op = rng.uniformInt(5);
            if (step == kSteps / 2 || (op == 4 && !live.empty())) {
                // Empty the whole index.
                EXPECT_EQ(ivf.removeIds(live), model.remove(live));
            } else if (op == 3 && !live.empty()) {
                // Empty one list.
                const auto &list =
                    model.lists[rng.uniformInt(config.nlist)];
                std::vector<vecstore::VecId> ids;
                for (const auto &row : list)
                    ids.push_back(row.id);
                EXPECT_EQ(ivf.removeIds(ids), model.remove(ids));
            } else if (op == 2 && !live.empty()) {
                // Some live ids, some twice, and some never added.
                std::vector<vecstore::VecId> ids;
                const std::uint64_t n = 1 + rng.uniformInt(8);
                for (std::uint64_t i = 0; i < n; ++i) {
                    const auto id = live[rng.uniformInt(live.size())];
                    ids.push_back(id);
                    if (rng.uniformInt(3) == 0)
                        ids.push_back(id);
                    if (rng.uniformInt(3) == 0)
                        ids.push_back(next_id + 1000 +
                                      static_cast<vecstore::VecId>(i));
                }
                EXPECT_EQ(ivf.removeIds(ids), model.remove(ids));
            } else {
                const std::uint64_t shape = rng.uniformInt(3);
                const std::size_t n =
                    shape == 0 ? 0 : shape == 1 ? 1 : 2 + rng.uniformInt(80);
                Matrix rows(kDim);
                std::vector<vecstore::VecId> ids;
                for (std::size_t i = 0; i < n; ++i) {
                    rows.append(pool.row(rng.uniformInt(pool.rows())));
                    // Now and then re-add an id that is already live.
                    ids.push_back(!live.empty() && rng.uniformInt(10) == 0
                                      ? live[rng.uniformInt(live.size())]
                                      : next_id++);
                }
                ivf.add(rows, ids);
                model.add(ivf, rows, ids);
            }
            expectFileMatchesModel(ivf, model, path);
            if (HasFatalFailure())
                return;

            const auto saved = readFile(path);
            IvfIndex::load(path.string())->save(again.string());
            EXPECT_EQ(readFile(again), saved) << "save -> load -> save";
            IvfIndex::openMapped(path.string())->save(again.string());
            EXPECT_EQ(readFile(again), saved) << "save -> openMapped -> save";
        }
        std::filesystem::remove(path);
        std::filesystem::remove(again);
    }
}

/**
 * A mapped index keeps answering from the file it opened while a
 * different index of the same size is saved to its path: save()
 * publishes a new file instead of rewriting the mapped one.
 */
TEST(IndexPublish, MappedViewSurvivesSaveOverItsPath)
{
    const auto &data = sharedData();
    auto first = buildIndex("SQ8", Metric::L2);
    IvfIndex second(data.base.dim(), Metric::L2, first.config());
    second.train(data.base);
    std::vector<vecstore::VecId> ids(data.base.rows());
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = static_cast<vecstore::VecId>(1000000 + i);
    second.add(data.base, ids);

    const auto path = tempIndexPath("publish");
    const auto other = tempIndexPath("publish_other");
    first.save(path.string());
    second.save(other.string());
    ASSERT_EQ(std::filesystem::file_size(path),
              std::filesystem::file_size(other));
    ASSERT_NE(readFile(path), readFile(other));

    auto mapped = IvfIndex::openMapped(path.string());
    SearchParams params;
    params.nprobe = 8;
    const auto before = mapped->searchBatch(data.queries, 10, params);
    second.save(path.string());
    EXPECT_TRUE(mapped->searchBatch(data.queries, 10, params) == before);
    expectSearchParity(first, *mapped);

    // New opens see the published index.
    EXPECT_EQ(readFile(path), readFile(other));
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
    std::filesystem::remove(path);
    std::filesystem::remove(other);
}

/**
 * An empty directory where the stream writer's output must go is an Io
 * error by finish(), like a save() to the same path, and the directory
 * is left alone.
 */
TEST(IndexPublish, StreamWriterRejectsDirectoryAtOutput)
{
    const auto &data = sharedData();
    IvfConfig config;
    config.nlist = 16;
    IvfIndex prototype(data.base.dim(), Metric::L2, config);
    prototype.train(data.base);

    const auto path = tempIndexPath("dir_output");
    std::filesystem::remove_all(path);
    std::filesystem::create_directory(path);
    try {
        IvfStreamWriter writer(prototype, path.string());
        std::vector<vecstore::VecId> ids(data.base.rows());
        for (std::size_t i = 0; i < ids.size(); ++i)
            ids[i] = static_cast<vecstore::VecId>(i);
        writer.add(data.base, ids);
        (void)writer.finish();
        ADD_FAILURE() << "stream writer replaced a directory";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), util::FormatErrorCode::Io) << e.what();
    }
    EXPECT_TRUE(std::filesystem::is_directory(path));
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".spill"));
    std::filesystem::remove_all(path);
}

/**
 * A writer destroyed before finish() leaves no file behind: neither a
 * partial index at the path nor its temp file, and an index already at
 * the path keeps its bytes.
 */
TEST(IndexPublish, UnfinishedWriterLeavesNoFile)
{
    const auto path = tempIndexPath("unfinished");
    const auto tmp = path.string() + ".tmp";
    const auto writeUnfinished = [&] {
        ivff::IndexMeta meta;
        meta.dim = 24;
        meta.nlist = 1;
        meta.code_size = 24 * sizeof(float);
        meta.codec_spec = "Flat";
        ivff::IndexFileWriter w(path.string(), meta, {0}, 8);
        const std::uint64_t blob = 24;
        w.write(w.sectionOffset(ivff::kCodecParams), &blob, sizeof(blob));
    };

    std::filesystem::remove(path);
    writeUnfinished();
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(tmp));

    auto built = buildIndex("SQ8", Metric::L2);
    built.save(path.string());
    const auto saved = readFile(path);
    writeUnfinished();
    EXPECT_EQ(readFile(path), saved);
    EXPECT_FALSE(std::filesystem::exists(tmp));
    std::filesystem::remove(path);
}

} // namespace
