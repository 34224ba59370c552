/**
 * @file
 * Accuracy evaluation tool (artifact appendix A.5 step 12).
 *
 * Reloads a deployment, computes an exhaustive brute-force ground truth,
 * and reports NDCG/recall for every search strategy across a sweep of
 * clusters searched — the data behind Fig 11 for a user's own indices.
 */

#include <filesystem>

#include "core/manifest.hpp"
#include "core/search_strategy.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "vecstore/distance.hpp"
#include "util/csv.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

vecstore::Matrix
makeQueries(const vecstore::Matrix &data, std::size_t count, double noise,
            std::uint64_t seed)
{
    util::Rng rng(seed);
    vecstore::Matrix queries(count, data.dim());
    for (std::size_t q = 0; q < count; ++q) {
        auto src = data.row(rng.uniformInt(data.rows()));
        auto dst = queries.row(q);
        for (std::size_t j = 0; j < data.dim(); ++j)
            dst[j] = src[j] + static_cast<float>(rng.gaussian(0.0, noise));
        vecstore::normalize(dst.data(), data.dim());
    }
    return queries;
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("hermes_eval_accuracy",
                         "evaluate retrieval accuracy vs brute force");
    args.addFlag("index", "hermes_index", "deployment directory");
    args.addFlag("num-queries", "128", "evaluation queries");
    args.addFlag("k", "5", "documents retrieved per query");
    args.addFlag("sample-nprobe", "8", "sampling nProbe");
    args.addFlag("deep-nprobe", "64", "deep-search nProbe");
    args.addFlag("noise", "0.3", "query perturbation noise");
    args.addFlag("seed", "11", "query seed");
    args.addFlag("csv", "", "optional CSV output path");
    args.parse(argc, argv);

    std::filesystem::path dir(args.get("index"));
    auto manifest =
        core::loadOrFatal([&] { return core::Manifest::load(dir); });

    core::HermesConfig config;
    config.sample_nprobe =
        static_cast<std::size_t>(args.getInt("sample-nprobe"));
    config.deep_nprobe =
        static_cast<std::size_t>(args.getInt("deep-nprobe"));
    config.clusters_to_search = 1;
    auto store = core::loadOrFatal(
        [&] { return core::loadStore(dir, manifest, config); });

    auto data = core::loadOrFatal([&] {
        return vecstore::Matrix::load((dir / manifest.corpus_file).string());
    });
    auto queries = makeQueries(
        data, static_cast<std::size_t>(args.getInt("num-queries")),
        args.getDouble("noise"),
        static_cast<std::uint64_t>(args.getInt("seed")));
    const auto k = static_cast<std::size_t>(args.getInt("k"));

    HERMES_INFORM("computing brute-force ground truth over ", data.rows(),
                  " vectors...");
    auto truth =
        eval::exactGroundTruth(data, queries, k, vecstore::Metric::L2);

    auto evaluate = [&](const core::SearchStrategy &strategy) {
        std::vector<vecstore::HitList> results;
        for (std::size_t q = 0; q < queries.rows(); ++q)
            results.push_back(strategy.search(queries.row(q), k).hits);
        return std::pair<double, double>(
            eval::meanNdcgAtK(results, truth, k),
            eval::meanRecallAtK(results, truth, k));
    };

    std::unique_ptr<util::CsvWriter> csv;
    if (args.given("csv")) {
        csv = std::make_unique<util::CsvWriter>(args.get("csv"));
        csv->header({"clusters", "strategy", "ndcg", "recall"});
    }

    util::TablePrinter table({10, 12, 10, 10});
    table.header({"clusters", "strategy", "NDCG", "recall"});
    for (std::size_t deep = 1; deep <= manifest.num_clusters; ++deep) {
        core::HermesSearch hermes(store, deep);
        core::CentroidRouting centroid(store, deep);
        for (const auto &[name, strategy] :
             std::vector<std::pair<std::string,
                                   const core::SearchStrategy *>>{
                 {"hermes", &hermes}, {"centroid", &centroid}}) {
            auto [ndcg, recall] = evaluate(*strategy);
            table.row({std::to_string(deep), name,
                       util::TablePrinter::num(ndcg, 3),
                       util::TablePrinter::num(recall, 3)});
            if (csv) {
                csv->cell(deep).cell(name).cell(ndcg).cell(recall);
                csv->endRow();
            }
        }
    }

    core::NaiveSplitSearch split(store);
    auto [ndcg, recall] = evaluate(split);
    table.row({"all", "split-all", util::TablePrinter::num(ndcg, 3),
               util::TablePrinter::num(recall, 3)});
    if (csv) {
        csv->cell(manifest.num_clusters).cell("split-all").cell(ndcg)
            .cell(recall);
        csv->endRow();
    }
    return 0;
}
