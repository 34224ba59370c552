/**
 * @file
 * Tests for the tooling layer: argument parsing, deployment manifests,
 * and store assembly from serialized indices (the save -> reload ->
 * search round trip the tools/ binaries rely on).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>

#include "core/manifest.hpp"
#include "core/search_strategy.hpp"
#include "util/argparse.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

TEST(ArgParser, DefaultsAndOverrides)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("alpha", "7", "an int");
    args.addFlag("beta", "hello", "a string");
    args.addFlag("gamma", "0.5", "a double");
    args.addFlag("delta", "false", "a bool");

    const char *argv[] = {"test", "--alpha", "42", "--delta=true"};
    args.parse(4, const_cast<char **>(argv));

    EXPECT_EQ(args.getInt("alpha"), 42);
    EXPECT_TRUE(args.given("alpha"));
    EXPECT_EQ(args.get("beta"), "hello");
    EXPECT_FALSE(args.given("beta"));
    EXPECT_DOUBLE_EQ(args.getDouble("gamma"), 0.5);
    EXPECT_TRUE(args.getBool("delta"));
}

TEST(ArgParser, EqualsFormParsed)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("name", "", "value");
    const char *argv[] = {"test", "--name=with=equals"};
    args.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(args.get("name"), "with=equals");
}

TEST(ArgParser, UnknownFlagDies)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("known", "1", "known flag");
    const char *argv[] = {"test", "--bogus", "1"};
    EXPECT_EXIT(args.parse(3, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "unknown flag");
}

TEST(ArgParser, BadIntegerDies)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("n", "1", "an int");
    const char *argv[] = {"test", "--n", "nope"};
    args.parse(3, const_cast<char **>(argv));
    EXPECT_EXIT((void)args.getInt("n"), ::testing::ExitedWithCode(1),
                "expects an integer");
}

TEST(Manifest, SaveLoadRoundTrip)
{
    auto dir = std::filesystem::temp_directory_path() / "hermes_manifest";
    std::filesystem::create_directories(dir);

    core::Manifest manifest;
    manifest.type = "clustered";
    manifest.num_clusters = 3;
    manifest.dim = 16;
    manifest.codec = "SQ4";
    manifest.cluster_files = {"a.hivf", "b.hivf", "c.hivf"};
    manifest.save(dir);

    auto loaded = core::Manifest::load(dir);
    EXPECT_EQ(loaded.type, "clustered");
    EXPECT_EQ(loaded.num_clusters, 3u);
    EXPECT_EQ(loaded.dim, 16u);
    EXPECT_EQ(loaded.codec, "SQ4");
    EXPECT_EQ(loaded.cluster_files, manifest.cluster_files);
    std::filesystem::remove_all(dir);
}

/**
 * Write a ten-cluster manifest to @p dir, apply @p edit to its text, and
 * return the error code Manifest::load throws (nullopt: it loaded).
 */
std::optional<util::FormatErrorCode>
loadEditedManifest(const std::filesystem::path &dir,
                   const std::function<void(std::string &)> &edit)
{
    std::filesystem::create_directories(dir);
    core::Manifest manifest;
    manifest.num_clusters = 10;
    manifest.dim = 32;
    for (std::size_t c = 0; c < manifest.num_clusters; ++c)
        manifest.cluster_files.push_back("cluster_" + std::to_string(c) +
                                         ".hivf");
    manifest.save(dir);
    const auto path = dir / "manifest.txt";
    std::string text;
    {
        std::ifstream in(path);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    edit(text);
    std::ofstream(path, std::ios::trunc) << text;
    try {
        (void)core::Manifest::load(dir);
        return std::nullopt;
    } catch (const util::FormatError &e) {
        return e.code();
    }
}

void
replaceLine(std::string &text, const std::string &prefix,
            const std::string &line)
{
    const auto at = text.find(prefix);
    ASSERT_NE(at, std::string::npos) << prefix;
    text.replace(at, text.find('\n', at) - at, line);
}

TEST(Manifest, CorruptManifestThrowsFormatError)
{
    const auto dir =
        std::filesystem::temp_directory_path() / "hermes_bad_manifest";
    using util::FormatErrorCode;
    EXPECT_EQ(loadEditedManifest(dir, [](std::string &) {}), std::nullopt);
    EXPECT_EQ(loadEditedManifest(dir,
                                 [](std::string &t) {
                                     replaceLine(t, "num_clusters=",
                                                 "num_clusters=abc");
                                 }),
              FormatErrorCode::Corrupt);
    EXPECT_EQ(loadEditedManifest(dir,
                                 [](std::string &t) {
                                     replaceLine(t, "cluster_9=", "");
                                 }),
              FormatErrorCode::Corrupt);
    for (const char *bad : {"dim=", "dim=-3", "dim=12x", "dim= 12",
                            "dim=99999999999999999999999"}) {
        EXPECT_EQ(loadEditedManifest(dir,
                                     [&](std::string &t) {
                                         replaceLine(t, "dim=", bad);
                                     }),
                  FormatErrorCode::Corrupt)
            << bad;
    }

    std::filesystem::remove(dir / "manifest.txt");
    try {
        (void)core::Manifest::load(dir);
        ADD_FAILURE() << "missing manifest accepted";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), FormatErrorCode::Io) << e.what();
    }
    // An entry point turns the throw into a clean exit, not an abort.
    EXPECT_EXIT((void)core::loadOrFatal(
                    [&] { return core::Manifest::load(dir); }),
                ::testing::ExitedWithCode(1), "inaccessible archive");

    // Saving into a directory that does not exist is an Io error too.
    try {
        core::Manifest().save(dir / "absent");
        ADD_FAILURE() << "manifest written into a missing directory";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), FormatErrorCode::Io) << e.what();
    }
    std::filesystem::remove_all(dir);
}

/** Serialize @p store into @p dir like hermes_build_index does. */
void
saveDeployment(const core::DistributedStore &store,
               const vecstore::Matrix &corpus,
               const std::filesystem::path &dir)
{
    std::filesystem::create_directories(dir);
    core::Manifest manifest;
    manifest.num_clusters = store.numClusters();
    manifest.dim = corpus.dim();
    corpus.save((dir / manifest.corpus_file).string());
    store.centroids().save((dir / manifest.centroids_file).string());
    for (std::size_t c = 0; c < store.numClusters(); ++c) {
        std::string file = "cluster_" + std::to_string(c) + ".hivf";
        store.clusterIndex(c).save((dir / file).string());
        manifest.cluster_files.push_back(file);
    }
    manifest.save(dir);
}

TEST(StoreAssembly, ReloadedStoreSearchesIdentically)
{
    workload::CorpusConfig cc;
    cc.num_docs = 3000;
    cc.dim = 16;
    cc.num_topics = 9;
    cc.seed = 61;
    auto corpus = workload::generateCorpus(cc);

    core::HermesConfig config;
    config.num_clusters = 4;
    config.clusters_to_search = 2;
    config.sample_nprobe = 2;
    config.deep_nprobe = 16;
    config.partition.seeds_to_try = 2;
    auto store = core::DistributedStore::build(corpus.embeddings, config);

    auto dir =
        std::filesystem::temp_directory_path() / "hermes_assembly";
    saveDeployment(store, corpus.embeddings, dir);

    auto reloaded = core::loadStore(dir, core::Manifest::load(dir),
                                     config);
    EXPECT_EQ(reloaded.numClusters(), store.numClusters());
    EXPECT_EQ(reloaded.totalVectors(), store.totalVectors());

    core::HermesSearch original(store);
    core::HermesSearch restored(reloaded);
    workload::QueryConfig qc;
    qc.num_queries = 16;
    auto queries = workload::generateQueries(corpus, qc);
    for (std::size_t q = 0; q < queries.embeddings.rows(); ++q) {
        auto a = original.search(queries.embeddings.row(q), 5);
        auto b = restored.search(queries.embeddings.row(q), 5);
        ASSERT_EQ(a.hits.size(), b.hits.size());
        for (std::size_t i = 0; i < a.hits.size(); ++i) {
            EXPECT_EQ(a.hits[i].id, b.hits[i].id);
            EXPECT_FLOAT_EQ(a.hits[i].score, b.hits[i].score);
        }
        EXPECT_EQ(a.deep_clusters, b.deep_clusters);
    }
    std::filesystem::remove_all(dir);
}

TEST(StoreAssembly, CorruptCentroidsFileThrows)
{
    // A bad centroids.hmat is rejected like a bad .hivf: a typed throw
    // the caller can handle, never an exit from inside the library.
    workload::CorpusConfig cc;
    cc.num_docs = 600;
    cc.dim = 8;
    cc.num_topics = 4;
    cc.seed = 62;
    auto corpus = workload::generateCorpus(cc);
    core::HermesConfig config;
    config.num_clusters = 2;
    config.clusters_to_search = 1;
    config.partition.seeds_to_try = 1;
    auto store = core::DistributedStore::build(corpus.embeddings, config);

    auto dir = std::filesystem::temp_directory_path() /
               "hermes_bad_centroids";
    saveDeployment(store, corpus.embeddings, dir);
    const auto manifest = core::Manifest::load(dir);
    const auto centroids = dir / manifest.centroids_file;
    std::filesystem::resize_file(
        centroids, std::filesystem::file_size(centroids) - 1);
    try {
        (void)core::loadStore(dir, manifest, config);
        ADD_FAILURE() << "truncated centroids file accepted";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), util::FormatErrorCode::Corrupt) << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(StoreAssembly, MismatchedCountsDie)
{
    core::HermesConfig config;
    config.num_clusters = 2;
    config.clusters_to_search = 1;
    std::vector<std::unique_ptr<index::IvfIndex>> none;
    vecstore::Matrix centroids(2, 4);
    EXPECT_DEATH(core::DistributedStore::assemble(config, std::move(none),
                                                  std::move(centroids)),
                 "expected");
}

} // namespace
