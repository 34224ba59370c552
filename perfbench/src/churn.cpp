/**
 * @file
 * shard-churn: one heap SQ8 IvfIndex under writes beside reads. Each
 * round removes 1% of the live ids, adds as many fresh rows from the
 * same topic model and reads with searchBatch; afterwards the churned
 * index serves open-loop single-query reads.
 */

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common.hpp"
#include "tracing.hpp"

#include "index/ivf_index.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace hi = hermes::index;
namespace hv = hermes::vecstore;
namespace hobs = hermes::obs;

constexpr std::size_t kBaseRows = 60000;
constexpr std::size_t kChurnPerRound = kBaseRows / 100;
constexpr std::size_t kReadBatch = 16;
constexpr std::size_t kReadBatchesPerRound = 16;

/** Coarse-quantizer training sample: about 64 rows per list keeps the
 *  K-means inside setup's budget without changing nlist. */
constexpr std::size_t kTrainingPoints = 16384;

/** Rounds per run: one per measured second, so a run's churn is fixed
 *  by its arguments. */
std::size_t
roundsFor(double seconds)
{
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(seconds)), 1, 60);
}

struct ChurnState
{
    hermes::workload::Corpus corpus;

    /** Rows indexed at setup (ids 0..kBaseRows-1) and the fresh rows
     *  the rounds add (id kBaseRows + j is fresh row j). */
    hv::Matrix base;
    hv::Matrix fresh;
    std::unique_ptr<hi::IvfIndex> index;

    std::vector<hv::VecId> live;
    std::size_t added = 0;

    hv::VecView
    rowOf(hv::VecId id) const
    {
        const auto u = static_cast<std::size_t>(id);
        return u < kBaseRows ? base.row(u) : fresh.row(u - kBaseRows);
    }
};

/** Build a fresh state; returns {total, build} seconds. */
std::pair<double, double>
setup(const Options &options, std::size_t rounds, ChurnState &state)
{
    state.index.reset();
    const Clock::time_point start = Clock::now();
    state.corpus = hermes::workload::generateCorpus(corpusConfig(
        options.workload, rounds * kChurnPerRound));
    std::vector<std::size_t> rows(kBaseRows);
    std::iota(rows.begin(), rows.end(), 0);
    state.base = state.corpus.embeddings.gather(rows);
    rows.resize(rounds * kChurnPerRound);
    std::iota(rows.begin(), rows.end(), kBaseRows);
    state.fresh = state.corpus.embeddings.gather(rows);

    const Clock::time_point build = Clock::now();
    hi::IvfConfig config;
    config.nlist = hi::IvfIndex::suggestedNlist(kBaseRows);
    config.codec = "SQ8";
    config.max_training_points = kTrainingPoints;
    state.index = std::make_unique<hi::IvfIndex>(state.base.dim(),
                                                 hv::Metric::L2, config);
    state.index->train(state.base);
    state.live.resize(kBaseRows);
    std::iota(state.live.begin(), state.live.end(), 0);
    state.index->add(state.base, state.live);
    state.added = 0;
    return {secondsSince(start), secondsSince(build)};
}

/** Totals of the churn rounds. */
struct ChurnTotals
{
    double remove_us = 0.0;
    double add_us = 0.0;

    /** Read throughput of each round (queries per second of
     *  searchBatch time); index.churn_batch_qps is their median. */
    std::vector<double> round_read_qps;
    std::size_t removed = 0;
    std::size_t added = 0;
    std::size_t read_queries = 0;
    std::size_t mismatched_batches = 0;
};

/**
 * Run the rounds. Reads go through @p reader (the index itself, or a
 * TimingAnnIndex over it in the traced run); after each round the first
 * read batch is checked against per-query search().
 */
ChurnTotals
churn(ChurnState &state, const hi::AnnIndex &reader, const hv::Matrix &pool,
      std::size_t rounds, std::uint64_t seed, std::size_t &seq,
      SpanLog *spans)
{
    hermes::util::Rng rng(seed ^ 0xc4u);
    hi::SearchParams params;
    params.nprobe = kDeepNprobe;
    ChurnTotals totals;
    for (std::size_t round = 0; round < rounds; ++round) {
        auto picks =
            rng.sampleWithoutReplacement(state.live.size(), kChurnPerRound);
        std::sort(picks.rbegin(), picks.rend());
        std::vector<hv::VecId> gone;
        gone.reserve(picks.size());
        for (std::size_t p : picks) {
            gone.push_back(state.live[p]);
            state.live[p] = state.live.back();
            state.live.pop_back();
        }
        Clock::time_point start = Clock::now();
        totals.removed += state.index->removeIds(gone);
        Clock::time_point end = Clock::now();
        totals.remove_us +=
            std::chrono::duration<double, std::micro>(end - start).count();
        if (spans)
            spans->add("churn.remove", -1, 0, start, end);

        std::vector<std::size_t> rows(kChurnPerRound);
        std::iota(rows.begin(), rows.end(), state.added);
        const hv::Matrix batch = state.fresh.gather(rows);
        std::vector<hv::VecId> ids(kChurnPerRound);
        std::iota(ids.begin(), ids.end(),
                  static_cast<hv::VecId>(kBaseRows + state.added));
        start = Clock::now();
        state.index->add(batch, ids);
        end = Clock::now();
        totals.add_us +=
            std::chrono::duration<double, std::micro>(end - start).count();
        if (spans)
            spans->add("churn.add", -1, 0, start, end);
        state.added += kChurnPerRound;
        totals.added += kChurnPerRound;
        state.live.insert(state.live.end(), ids.begin(), ids.end());

        double round_read_us = 0.0;
        for (std::size_t b = 0; b < kReadBatchesPerRound; ++b) {
            std::vector<std::size_t> qrows(kReadBatch);
            std::iota(qrows.begin(), qrows.end(), seq);
            seq += kReadBatch;
            if (seq > pool.rows())
                return totals;
            const hv::Matrix queries = pool.gather(qrows);
            start = Clock::now();
            auto hits = reader.searchBatch(
                queries, kTopK, params,
                static_cast<std::vector<hi::SearchStats> *>(nullptr));
            end = Clock::now();
            round_read_us +=
                std::chrono::duration<double, std::micro>(end - start)
                    .count();
            totals.read_queries += kReadBatch;
            if (spans) {
                for (std::size_t r : qrows) {
                    const auto row = static_cast<std::int64_t>(r);
                    spans->addWithId("churn.read", row,
                                     SpanLog::brokerSpanId(row), 0, start,
                                     end);
                }
            }
            if (b != 0)
                continue;
            for (std::size_t i = 0; i < queries.rows(); ++i) {
                if (!sameHits(hits[i], state.index->search(queries.row(i),
                                                           kTopK, params))) {
                    ++totals.mismatched_batches;
                    break;
                }
            }
        }
        totals.round_read_qps.push_back(
            static_cast<double>(kReadBatch * kReadBatchesPerRound) /
            (round_read_us * 1e-6));
    }
    return totals;
}

/** recall@5 of @p kept hit lists against exact search over the live
 *  rows, checked against the floor; records the ground-truth time. */
double
liveRecall(const ChurnState &state, const hv::Matrix &pool,
           const std::vector<std::size_t> &subset,
           const std::vector<hv::HitList> &kept, double &ground_truth_s,
           RunOutcome &out)
{
    hv::Matrix live_rows(0, state.base.dim());
    for (hv::VecId id : state.live)
        live_rows.append(state.rowOf(id));
    hv::Matrix queries(0, pool.dim());
    std::vector<hv::HitList> got;
    for (std::size_t seq : subset) {
        if (seq >= pool.rows() || kept[seq].empty()) {
            out.errors.push_back("check query " + std::to_string(seq) +
                                 " was not answered");
            continue;
        }
        queries.append(pool.row(seq));
        got.push_back(kept[seq]);
    }
    const Clock::time_point start = Clock::now();
    auto truth = groundTruth(live_rows, queries);
    ground_truth_s = secondsSince(start);
    for (auto &hits : truth) {
        for (auto &hit : hits)
            hit.id = state.live[static_cast<std::size_t>(hit.id)];
    }
    return checkedRecall(got, truth, out);
}

} // namespace

int
runChurn(const Options &options, RunOutcome &out)
{
    const double S = options.seconds;
    const WorkloadSettings &ws = options.settings;
    const std::size_t rounds = roundsFor(S);

    ChurnState state;
    std::vector<double> setup_s, build_s;
    while (anotherSetup(setup_s)) {
        auto [total, build] = setup(options, rounds, state);
        setup_s.push_back(total);
        build_s.push_back(build);
    }
    std::printf("setup: %.3f s median of %zu (train+add %.3f s)\n",
                median(setup_s), setup_s.size(), median(build_s));
    const hv::Matrix pool =
        queryPool(state.corpus, ws.query_pool, options.seed);

    std::size_t seq = 0;
    std::vector<char> keep(pool.rows(), 0);
    std::vector<hv::HitList> kept(pool.rows());
    std::atomic<std::size_t> overruns{0};
    const hi::AnnIndex *reader = state.index.get();
    SpanLog *spans = nullptr;
    hi::SearchParams params;
    params.nprobe = kDeepNprobe;
    auto request = [&](std::size_t s) {
        if (s >= pool.rows()) {
            overruns.fetch_add(1);
            return false;
        }
        const Clock::time_point start = Clock::now();
        hv::HitList hits = reader->search(pool.row(s), kTopK, params);
        if (spans) {
            const auto row = static_cast<std::int64_t>(s);
            spans->addWithId("churn.search", row, SpanLog::brokerSpanId(row),
                             SpanLog::requestSpanId(row), start,
                             Clock::now());
        }
        const bool ok = hits.size() == kTopK;
        if (keep[s])
            kept[s] = std::move(hits);
        return ok;
    };
    auto account = [&](const LoadResult &run) {
        seq += run.attempted;
        out.attempted += run.attempted;
        out.failed += run.failed;
    };
    account(runClosedLoop(options.senders, 0.02 * S, seq, request));

    SpanLog span_log(pool);
    TimingAnnIndex timed(*state.index, &span_log);
    if (options.trace) {
        spans = &span_log;
        hobs::Registry::instance().reset();
    } else {
        out.metrics.set("mem_mib", memMib());
    }
    const double faults_before = majorFaults();
    const ChurnTotals totals =
        churn(state, options.trace ? static_cast<const hi::AnnIndex &>(timed)
                                   : *state.index,
              pool, rounds, options.seed, seq, spans);
    out.attempted += totals.removed + totals.added + totals.read_queries;
    if (totals.mismatched_batches > 0) {
        out.errors.push_back(std::to_string(totals.mismatched_batches) +
                             " churn rounds where searchBatch differed "
                             "from per-query search");
    }
    if (totals.removed != rounds * kChurnPerRound)
        out.errors.push_back("removeIds removed fewer ids than asked");
    std::printf("churn: %zu rounds, %zu removed, %zu added, %zu queries "
                "read; read qps per round min %.0f, median %.0f, max %.0f\n",
                rounds, totals.removed, totals.added, totals.read_queries,
                percentile(totals.round_read_qps, 0.0),
                median(totals.round_read_qps),
                percentile(totals.round_read_qps, 100.0));

    double ground_truth_s = 0.0;
    std::vector<std::size_t> subset;
    if (!options.trace) {
        out.metrics.set("setup_s", median(setup_s));
        subset = measureRates(options, seq, request, out, keep);
    } else {
        out.metrics.set("setup.build_s", median(build_s));
        out.metrics.set("index.churn_batch_qps", median(totals.round_read_qps));
        out.metrics.set(
            "index.write_rows_per_s",
            ratio(static_cast<double>(totals.removed + totals.added),
                  (totals.remove_us + totals.add_us) * 1e-6));
        out.metrics.set(
            "index.add_us_per_row",
            ratio(totals.add_us, static_cast<double>(totals.added)));
        out.metrics.set(
            "index.remove_us_per_id",
            ratio(totals.remove_us, static_cast<double>(totals.removed)));
        double max_list = 0.0;
        for (std::size_t l = 0; l < state.index->nlist(); ++l)
            max_list = std::max(
                max_list, static_cast<double>(state.index->listSize(l)));
        out.metrics.set(
            "index.list_skew",
            ratio(max_list, static_cast<double>(state.index->size()) /
                                static_cast<double>(state.index->nlist())));

        spans = nullptr;
        const LoadResult plain = runOpenLoop(
            rateRun(ws.light_qps, 0.25 * S, options, 1), seq, request);
        account(plain);
        spans = &span_log;
        reader = &timed;
        const OpenLoopConfig light =
            rateRun(ws.light_qps, 0.25 * S, options, 3);
        subset = markCheckSubset(light, seq, options, keep);
        const LoadResult traced = runOpenLoop(light, seq, request);
        account(traced);
        reader = state.index.get();
        spans = nullptr;
        for (const auto &t : traced.timeline) {
            const auto row = static_cast<std::int64_t>(t.seq);
            span_log.addWithId("request", row, SpanLog::requestSpanId(row), 0,
                               t.intended, t.done);
        }
        reportLoadgen(traced, out.metrics);
        out.metrics.set("obs.trace_overhead_ratio",
                        ratio(percentile(traced.latency_us, 50.0),
                              percentile(plain.latency_us, 50.0)));
        out.metrics.set("process.major_faults", majorFaults() - faults_before);

        reportIndexLayer({&timed}, static_cast<double>(timed.queries()),
                         out.metrics);
    }

    const double recall =
        liveRecall(state, pool, subset, kept, ground_truth_s, out);
    if (options.trace) {
        out.metrics.set("setup.ground_truth_s", ground_truth_s);
        const std::string path = spanPath(options);
        if (!span_log.write(path))
            out.errors.push_back("could not write " + path);
    } else {
        out.metrics.set("recall_at_5", recall);
    }
    checkPool(overruns.load(), pool.rows(), out);
    return 0;
}

} // namespace perfbench
