/**
 * @file
 * Index construction tool (artifact appendix A.5 step 7, Table 3).
 *
 * Synthesizes a datastore (or loads a saved embedding matrix), partitions
 * it with the requested scheme, builds the per-cluster IVF indices, and
 * writes everything plus a manifest to the output directory so the
 * profiling and accuracy tools can reload the deployment.
 *
 * --stream=1 switches per-cluster construction to the bounded-memory
 * IvfStreamWriter path: each cluster trains a small prototype (centroids
 * + codec), then streams its rows through a spill-and-scatter writer in
 * fixed batches, so encoded lists are never resident — peak index-build
 * memory is O(one cluster's training set + --stream-budget-mb),
 * independent of the deployment's total index size, and the output
 * files are byte-identical to the default in-memory build. The summary
 * reports peak RSS (getrusage) in both modes so the saving is
 * measurable.
 */

#include <filesystem>
#include <system_error>

#include <sys/resource.h>

#include "cluster/partitioner.hpp"
#include "core/manifest.hpp"
#include "index/ivf_stream_writer.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"
#include "workload/corpus.hpp"

namespace {

/** Peak resident set size of this process, in MiB. */
double
peakRssMib()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Build the deployment @p args describe and write it to --output. */
int
buildDeployment(const hermes::util::ArgParser &args)
{
    using namespace hermes;

    std::filesystem::path dir(args.get("output"));
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error) {
        throw util::FormatError(util::FormatErrorCode::Io,
                                dir.string() + ": cannot create: " +
                                    error.message());
    }

    // Datastore embeddings: synthetic topic corpus or a user matrix.
    vecstore::Matrix data(0);
    if (args.given("corpus")) {
        data = vecstore::Matrix::load(args.get("corpus"));
        HERMES_INFORM("loaded ", data.rows(), " x ", data.dim(),
                      " embeddings from ", args.get("corpus"));
    } else {
        workload::CorpusConfig cc;
        cc.num_docs = static_cast<std::size_t>(args.getInt("num-docs"));
        cc.dim = static_cast<std::size_t>(args.getInt("dim"));
        cc.num_topics = static_cast<std::size_t>(args.getInt("num-topics"));
        cc.seed = static_cast<std::uint64_t>(args.getInt("seed"));
        data = workload::generateCorpus(cc).embeddings;
        HERMES_INFORM("synthesized ", data.rows(), " x ", data.dim(),
                      " embeddings (", cc.num_topics, " topics)");
    }

    core::Manifest manifest;
    manifest.type = args.get("type");
    manifest.dim = data.dim();
    manifest.codec = args.get("codec");

    core::HermesConfig config;
    config.codec = manifest.codec;
    config.nlist_per_cluster =
        static_cast<std::size_t>(args.getInt("nlist"));
    config.partition.seeds_to_try =
        static_cast<std::size_t>(args.getInt("seeds-to-try"));

    util::Timer timer;
    if (manifest.type == "monolithic") {
        config.num_clusters = 1;
        config.clusters_to_search = 1;
        config.partition.scheme = cluster::PartitionScheme::Contiguous;
    } else {
        config.num_clusters =
            static_cast<std::size_t>(args.getInt("num-indices"));
        config.clusters_to_search =
            std::min<std::size_t>(3, config.num_clusters);
        config.partition.scheme = manifest.type == "split"
            ? cluster::PartitionScheme::RoundRobin
            : cluster::PartitionScheme::Similarity;
        if (manifest.type != "split" && manifest.type != "clustered") {
            HERMES_FATAL("unknown --type '", manifest.type, "'");
        }
    }
    manifest.num_clusters = config.num_clusters;

    if (args.getInt("stream") != 0) {
        // Bounded-memory path: partition, then per cluster train a
        // prototype and stream the rows through the spill-and-scatter
        // writer. Clusters are built sequentially on purpose — the
        // point is the memory ceiling, and each cluster's k-means and
        // the writer's add() still fan out over the build pool.
        config.validate();
        config.partition.num_partitions = config.num_clusters;
        auto partition = cluster::partition(data, config.partition);

        data.save((dir / manifest.corpus_file).string());
        partition.centroids.save((dir / manifest.centroids_file).string());

        const std::size_t batch_rows = static_cast<std::size_t>(
            std::max<long>(args.getInt("stream-batch"), 1));
        index::IvfStreamWriter::Options sopts;
        sopts.buffer_budget_bytes =
            static_cast<std::size_t>(
                std::max<long>(args.getInt("stream-budget-mb"), 1))
            << 20;
        std::uintmax_t index_bytes = 0;
        for (std::size_t c = 0; c < config.num_clusters; ++c) {
            const auto &members = partition.members[c];
            HERMES_ASSERT(!members.empty(),
                          "partitioning produced empty cluster ", c);

            // Identical config + seed to DistributedStore::build, so
            // the streamed file is byte-identical to the in-memory
            // build's save() of the same cluster.
            index::IvfConfig ivf;
            ivf.codec = config.codec;
            ivf.nlist = config.nlist_per_cluster
                ? config.nlist_per_cluster
                : index::IvfIndex::suggestedNlist(members.size());
            ivf.nlist = std::min(ivf.nlist, members.size());
            ivf.seed = 0x1d10 + c;

            index::IvfIndex prototype(data.dim(), vecstore::Metric::L2,
                                      ivf);
            {
                vecstore::Matrix train_data = data.gather(members);
                prototype.train(train_data);
            } // training rows released before streaming starts

            std::string file = "cluster_" + std::to_string(c) + ".hivf";
            index::IvfStreamWriter writer(prototype,
                                          (dir / file).string(), sopts);
            for (std::size_t at = 0; at < members.size();
                 at += batch_rows) {
                const std::size_t n =
                    std::min(batch_rows, members.size() - at);
                std::vector<std::size_t> rows(
                    members.begin() + static_cast<std::ptrdiff_t>(at),
                    members.begin() + static_cast<std::ptrdiff_t>(at + n));
                std::vector<vecstore::VecId> ids(rows.begin(), rows.end());
                vecstore::Matrix batch = data.gather(rows);
                writer.add(batch, ids);
            }
            writer.finish();
            index_bytes += std::filesystem::file_size(dir / file);
            manifest.cluster_files.push_back(file);
        }
        manifest.save(dir);

        HERMES_INFORM("stream-built ", config.num_clusters, " ",
                      manifest.codec, " indices in ",
                      timer.elapsedSeconds(), " s (imbalance ",
                      partition.imbalance.max_min_ratio, ")");
        HERMES_INFORM("wrote deployment to ", dir.string(), " (",
                      index_bytes / 1024 / 1024,
                      " MiB of index files, peak RSS ", peakRssMib(),
                      " MiB)");
        return 0;
    }

    auto store = core::DistributedStore::build(data, config);
    HERMES_INFORM("built ", store.numClusters(), " ", manifest.codec,
                  " indices in ", timer.elapsedSeconds(), " s (imbalance ",
                  store.partitioning().imbalance.max_min_ratio, ")");

    data.save((dir / manifest.corpus_file).string());
    store.centroids().save((dir / manifest.centroids_file).string());
    for (std::size_t c = 0; c < store.numClusters(); ++c) {
        std::string file = "cluster_" + std::to_string(c) + ".hivf";
        store.clusterIndex(c).save((dir / file).string());
        manifest.cluster_files.push_back(file);
    }
    manifest.save(dir);

    HERMES_INFORM("wrote deployment to ", dir.string(), " (",
                  store.memoryBytes() / 1024 / 1024,
                  " MiB of indices, peak RSS ", peakRssMib(), " MiB)");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hermes;

    util::ArgParser args("hermes_build_index",
                         "build Hermes retrieval indices");
    args.addFlag("output", "hermes_index", "output directory");
    args.addFlag("type", "clustered",
                 "monolithic | split (round-robin) | clustered (Hermes)");
    args.addFlag("num-docs", "20000", "synthetic corpus size (chunks)");
    args.addFlag("dim", "64", "embedding dimensionality");
    args.addFlag("num-topics", "30", "latent topics in the corpus");
    args.addFlag("num-indices", "10", "cluster indices to build");
    args.addFlag("codec", "SQ8", "vector codec (Flat/SQ8/SQ4/PQ<M>)");
    args.addFlag("nlist", "0", "inverted lists per index (0 = sqrt(n))");
    args.addFlag("seeds-to-try", "4",
                 "K-means seeds for the balanced-seed search");
    args.addFlag("seed", "42", "corpus generation seed");
    args.addFlag("corpus", "",
                 "load this .hmat embedding matrix instead of synthesizing");
    args.addFlag("stream", "0",
                 "1 = bounded-memory streaming build (IvfStreamWriter)");
    args.addFlag("stream-batch", "8192",
                 "rows per streaming encode batch");
    args.addFlag("stream-budget-mb", "64",
                 "scatter-phase flush budget per cluster (MiB)");
    args.parse(argc, argv);

    // Every artifact read or written goes through one handler, so an
    // unreadable input or an unwritable output exits 1 with a [fatal]
    // line instead of escaping main as an uncaught throw.
    return core::loadOrFatal([&] { return buildDeployment(args); });
}
