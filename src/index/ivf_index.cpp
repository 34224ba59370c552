#include "index/ivf_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "cluster/kmeans.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/topk.hpp"

namespace hermes {
namespace index {

namespace {

/** Deterministic reconstruction of the coarse HNSW graph (cheap
 *  relative to its serialized size, so it is never persisted). */
void
rebuildCoarseGraph(std::size_t dim, const vecstore::Matrix &centroids,
                   std::unique_ptr<HnswIndex> &slot)
{
    HnswConfig hc;
    hc.m = 16;
    hc.ef_construction = 80;
    slot = std::make_unique<HnswIndex>(dim, vecstore::Metric::L2, hc);
    slot->addSequential(centroids);
}

/** Per-phase latency histograms, fed by both search executors. */
struct PhaseHistograms
{
    obs::Histogram &coarse = obs::Registry::instance().histogram(
        obs::names::kIvfCoarseUs);
    obs::Histogram &scan =
        obs::Registry::instance().histogram(obs::names::kIvfScanUs);
};

} // namespace

IvfIndex::IvfIndex(std::size_t dim, vecstore::Metric metric,
                   const IvfConfig &config)
    : dim_(dim), metric_(metric), config_(config),
      centroids_(dim), codec_(quant::makeCodec(config.codec, dim)),
      code_size_(codec_->codeSize())
{
    HERMES_ASSERT(dim_ > 0, "IvfIndex needs dim > 0");
    HERMES_ASSERT(config_.nlist > 0, "IvfIndex needs nlist > 0");
    adopt({std::vector<ivff::ListEntry>(config_.nlist), {}, {}});
}

std::size_t
IvfIndex::suggestedNlist(std::size_t n)
{
    auto nlist = static_cast<std::size_t>(
        std::sqrt(static_cast<double>(n)));
    return std::max<std::size_t>(nlist, 1);
}

void
IvfIndex::train(const vecstore::Matrix &data)
{
    assertMutable("train");
    HERMES_ASSERT(data.dim() == dim_, "train dim mismatch");
    HERMES_ASSERT(data.rows() >= config_.nlist,
                  "IVF training needs >= nlist points (", config_.nlist,
                  "), got ", data.rows());

    cluster::KMeansConfig km;
    km.k = config_.nlist;
    km.max_iterations = config_.train_iterations;
    km.seed = config_.seed;
    km.max_training_points = config_.max_training_points;
    auto run = cluster::kmeans(data, km);
    centroids_ = std::move(run.centroids);

    if (config_.hnsw_coarse)
        rebuildCoarseGraph(dim_, centroids_, coarse_graph_);

    codec_->train(data);
    trained_ = true;
}

void
IvfIndex::add(const vecstore::Matrix &data,
              const std::vector<vecstore::VecId> &ids)
{
    assertMutable("add");
    HERMES_ASSERT(trained_, "IvfIndex::add before train");
    HERMES_ASSERT(data.rows() == ids.size(), "add: row/id count mismatch");
    HERMES_ASSERT(data.dim() == dim_, "add: dim mismatch");

    // New rows append to their lists in row order, so the result is
    // identical to a row-by-row add().
    relayout(std::vector<std::uint8_t>(ntotal_, 1), ids, encodeRows(data));
}

IvfIndex::EncodedRows
IvfIndex::encodeRows(const vecstore::Matrix &data) const
{
    const std::size_t n = data.rows();
    EncodedRows rows;
    rows.lists.resize(n);
    rows.codes.resize(n * code_size_);
    util::ThreadPool::shared().parallelForBlocks(
        n, util::ThreadPool::blockFor((centroids_.rows() + 1) * dim_),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                auto v = data.row(i);
                rows.lists[i] = cluster::nearestCentroid(v, centroids_);
                codec_->encode(v, rows.codes.data() + i * code_size_);
            }
        });
    return rows;
}

void
IvfIndex::relayout(const std::vector<std::uint8_t> &keep,
                   const std::vector<vecstore::VecId> &ids,
                   const EncodedRows &rows)
{
    // New rows grouped by list; the stable sort keeps row order within
    // a list.
    std::vector<std::size_t> order(ids.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
        return rows.lists[a] < rows.lists[b];
    });
    const auto total = std::count(keep.begin(), keep.end(), 1) + ids.size();

    OwnedSections next;
    next.table.resize(config_.nlist);
    next.ids.reserve(total);
    next.codes.reserve(total * code_size_);
    auto append = [&](const vecstore::VecId *id, const std::uint8_t *code,
                      std::size_t n) {
        next.ids.insert(next.ids.end(), id, id + n);
        next.codes.insert(next.codes.end(), code, code + n * code_size_);
    };
    std::size_t at = 0; // next entry of order
    for (std::size_t l = 0; l < config_.nlist; ++l) {
        const ivff::ListEntry &old = sections_.table[l];
        const std::uint64_t end = old.offset + old.count;
        next.table[l].offset = next.ids.size();
        // The kept old rows, one run between dropped rows at a time.
        for (std::uint64_t r = old.offset, run; r < end; r = run + 1) {
            for (run = r; run < end && keep[run]; ++run) {
            }
            append(sections_.ids + r, sections_.codes + r * code_size_,
                   run - r);
        }
        for (; at < order.size() && rows.lists[order[at]] == l; ++at) {
            append(&ids[order[at]],
                   rows.codes.data() + order[at] * code_size_, 1);
        }
        next.table[l].count = next.ids.size() - next.table[l].offset;
    }
    adopt(std::move(next));
}

void
IvfIndex::adopt(OwnedSections owned)
{
    owned_ = std::move(owned);
    sections_ = {owned_.table.data(), owned_.ids.data(),
                 owned_.codes.data()};
    ntotal_ = owned_.ids.size();
}

void
IvfIndex::planProbes(vecstore::VecView query, const float *coarse_scores,
                     const SearchParams &params, ProbePlan &plan) const
{
    const std::size_t nprobe =
        std::min(std::max<std::size_t>(params.nprobe, 1), config_.nlist);

    // Coarse step: rank centroids by L2 regardless of metric — K-means
    // cells are Voronoi cells under L2 (FAISS does the same for IP via
    // normalized data; we keep L2 cell selection which is exact for the
    // normalized embeddings RAG encoders produce). With hnsw_coarse the
    // linear scan is replaced by a graph walk over the centroids.
    vecstore::HitList probe;
    plan.coarse_evals = config_.nlist;
    if (coarse_scores == nullptr) {
        SearchParams coarse_params;
        coarse_params.ef_search = nprobe + 16;
        SearchStats coarse_stats;
        probe = coarse_graph_->search(query, nprobe, coarse_params,
                                      &coarse_stats);
        plan.coarse_evals = coarse_stats.distance_computations;
    } else {
        vecstore::TopK coarse(nprobe);
        for (std::size_t c = 0; c < config_.nlist; ++c)
            coarse.push(static_cast<vecstore::VecId>(c), coarse_scores[c]);
        probe = coarse.take();
    }

    // SPANN-style pruning: skip candidate lists whose centroid distance
    // exceeds prune_ratio x the best centroid distance (probe list comes
    // out of the coarse selector best-first, so we can stop early).
    // Invariant: the multiplicative bound is only meaningful for the
    // always non-negative L2 coarse scores produced above (both the
    // linear scan and the coarse HNSW graph rank centroids by L2, even
    // for IP payload metrics). Guard against a negative best score so a
    // future coarse scorer on the IP score scale degrades to "no
    // pruning" instead of silently pruning every list but the first.
    const float prune_bound =
        params.prune_ratio > 0.0 && !probe.empty() &&
                probe.front().score >= 0.0f
            ? static_cast<float>(params.prune_ratio) * probe.front().score
            : std::numeric_limits<float>::max();
    plan.visits.clear();
    plan.visits.reserve(probe.size());
    plan.scanned = 0;
    for (const auto &candidate : probe) {
        if (candidate.score > prune_bound)
            break;
        const auto list = static_cast<std::uint32_t>(candidate.id);
        const std::size_t len = listRef(list).size;
        plan.visits.push_back({list, len});
        plan.scanned += len;
    }
}

void
IvfIndex::foldStats(const ProbePlan &plan, SearchStats *stats) const
{
    if (!stats)
        return;
    stats->lists_probed += plan.visits.size();
    stats->vectors_scanned += plan.scanned;
    stats->distance_computations += plan.scanned + plan.coarse_evals;
    stats->bytes_scanned += plan.scanned * codec_->codeSize();
}

vecstore::HitList
IvfIndex::search(vecstore::VecView query, std::size_t k,
                 const SearchParams &params, SearchStats *stats) const
{
    HERMES_ASSERT(trained_, "IvfIndex::search before train");
    HERMES_ASSERT(query.size() == dim_, "search: dim mismatch");

    static PhaseHistograms histograms;
    obs::ScopedSpan span("ivf.search");
    util::Timer timer;

    // Thread-local buffers, reused across queries: the coarse scores,
    // the plan's visit list and the list scan scores.
    static thread_local std::vector<float> coarse_scores;
    static thread_local ProbePlan plan;
    static thread_local std::vector<float> scan_scores;
    if (!coarse_graph_) {
        if (coarse_scores.size() < config_.nlist)
            coarse_scores.resize(config_.nlist);
        vecstore::l2SqBatch(query.data(), centroids_.data(), config_.nlist,
                            dim_, coarse_scores.data());
    }
    planProbes(query, coarse_graph_ ? nullptr : coarse_scores.data(), params,
               plan);
    histograms.coarse.observe(timer.elapsedMicros());
    timer.reset();

    // Block-oriented list scan: one scan() call per probed list (no
    // virtual dispatch per vector) into a buffer reused across lists and
    // queries, then a batched heap offer filtered against the current
    // worst retained score.
    auto computer = codec_->distanceComputer(metric_, query);
    vecstore::TopK selector(std::max<std::size_t>(k, 1));
    for (const auto &visit : plan.visits) {
        if (visit.len == 0)
            continue;
        const ListRef il = listRef(visit.list);
        if (scan_scores.size() < il.size)
            scan_scores.resize(il.size);
        computer->scan(il.codes, il.size, selector.worst(),
                       scan_scores.data());
        selector.pushBatch(il.ids, scan_scores.data(), il.size);
    }

    histograms.scan.observe(timer.elapsedMicros());
    span.arg("lists_probed", plan.visits.size());
    span.arg("vectors_scanned", plan.scanned);
    foldStats(plan, stats);

    auto hits = selector.take();
    if (hits.size() > k)
        hits.resize(k);
    return hits;
}

std::vector<vecstore::HitList>
IvfIndex::searchBatch(const vecstore::Matrix &queries, std::size_t k,
                      const SearchParams &params,
                      std::vector<SearchStats> *per_query) const
{
    HERMES_ASSERT(trained_, "IvfIndex::searchBatch before train");
    HERMES_ASSERT(queries.dim() == dim_, "searchBatch: dim mismatch");

    // A single query has nothing to amortize. The cost cutover (see
    // SearchParams::batch_min_scan_floats) estimates the scan assuming
    // uniformly filled lists and ignoring pruning, which is all it
    // needs — it only has to separate trivial scans (sampled indexes,
    // tiny dims) from ones worth amortizing. Both take the base class's
    // per-query loop.
    const std::size_t num_queries = queries.rows();
    const std::size_t probe_est =
        std::min(std::max<std::size_t>(params.nprobe, 1), config_.nlist);
    const std::size_t est_floats =
        ntotal_ * probe_est / config_.nlist * dim_;
    if (num_queries <= 1 || est_floats < params.batch_min_scan_floats)
        return AnnIndex::searchBatch(queries, k, params, per_query);

    std::vector<vecstore::HitList> results(num_queries);
    if (per_query)
        per_query->assign(num_queries, SearchStats{});

    static PhaseHistograms histograms;
    obs::ScopedSpan span("ivf.search_batch");
    span.arg("queries", num_queries);
    util::Timer timer;

    // -------------------------------------------------------------------
    // Coarse phase: plan every query. The linear scan goes through the
    // multi-query kernel in blocks (each centroid row is streamed once
    // per block, not once per query); per query the scores match
    // search()'s exactly, and the plan is the same function.
    // -------------------------------------------------------------------
    std::vector<ProbePlan> plans(num_queries);
    // Block the batch so the Q x nlist score tile stays modest.
    constexpr std::size_t kCoarseBlock = 64;
    std::vector<float> coarse_scores;
    std::vector<const float *> query_ptrs(kCoarseBlock);
    std::vector<float *> score_ptrs(kCoarseBlock, nullptr);
    for (std::size_t base = 0; base < num_queries; base += kCoarseBlock) {
        const std::size_t block = std::min(kCoarseBlock, num_queries - base);
        if (!coarse_graph_) {
            coarse_scores.resize(block * config_.nlist);
            for (std::size_t b = 0; b < block; ++b) {
                query_ptrs[b] = queries.row(base + b).data();
                score_ptrs[b] = coarse_scores.data() + b * config_.nlist;
            }
            vecstore::l2SqBatchMulti(query_ptrs.data(), block,
                                     centroids_.data(), config_.nlist,
                                     dim_, score_ptrs.data());
        }
        for (std::size_t b = 0; b < block; ++b) {
            planProbes(queries.row(base + b), score_ptrs[b], params,
                       plans[base + b]);
        }
    }
    histograms.coarse.observe(timer.elapsedMicros());
    timer.reset();

    // -------------------------------------------------------------------
    // Scan phase. Queries are partitioned into execution groups whose
    // buffered scores fit kScoreBufferCap (32 MiB); within a group,
    // (query, list) subscriptions are sorted by list id and each list is
    // scanned once via scanMulti with exact-score thresholds. Each query
    // then replays its pushBatch calls in plan order, reproducing the
    // per-query TopK feed (and its first-come tie behavior) bit for bit.
    // -------------------------------------------------------------------
    constexpr std::size_t kScoreBufferCap = std::size_t(8) << 20; // floats
    struct Subscription
    {
        std::uint32_t list;
        std::uint32_t query; // batch-relative index
        std::size_t offset;  // the visit's segment in the score buffer
    };
    SearchStats total;
    std::vector<float> buffer;
    std::vector<Subscription> subs;
    std::vector<std::unique_ptr<quant::DistanceComputer>> computers;
    std::vector<const quant::DistanceComputer *> peer_ptrs;
    std::vector<float *> out_ptrs;
    std::vector<float> thresholds;

    std::size_t group_begin = 0;
    while (group_begin < num_queries) {
        std::size_t group_end = group_begin;
        std::size_t group_scores = 0;
        while (group_end < num_queries &&
               (group_end == group_begin ||
                group_scores + plans[group_end].scanned <= kScoreBufferCap)) {
            group_scores += plans[group_end].scanned;
            ++group_end;
        }

        // Lay the group's visits out in the buffer, in (query, plan)
        // order, and collect subscriptions.
        subs.clear();
        std::size_t offset = 0;
        for (std::size_t qi = group_begin; qi < group_end; ++qi) {
            for (const auto &visit : plans[qi].visits) {
                if (visit.len == 0)
                    continue;
                subs.push_back({visit.list,
                                static_cast<std::uint32_t>(qi - group_begin),
                                offset});
                offset += visit.len;
            }
        }
        buffer.resize(offset);
        std::sort(subs.begin(), subs.end(),
                  [](const Subscription &a, const Subscription &b) {
                      if (a.list != b.list)
                          return a.list < b.list;
                      return a.query < b.query;
                  });

        computers.clear();
        for (std::size_t qi = group_begin; qi < group_end; ++qi) {
            computers.push_back(
                codec_->distanceComputer(metric_, queries.row(qi)));
        }

        // One scanMulti per distinct probed list: the code stream and
        // any shared dequant work are amortized over every subscriber.
        std::size_t s = 0;
        while (s < subs.size()) {
            std::size_t e = s;
            while (e < subs.size() && subs[e].list == subs[s].list)
                ++e;
            const ListRef il = listRef(subs[s].list);
            const std::size_t m = e - s;
            peer_ptrs.resize(m);
            out_ptrs.resize(m);
            thresholds.assign(m, std::numeric_limits<float>::max());
            for (std::size_t t = 0; t < m; ++t) {
                peer_ptrs[t] = computers[subs[s + t].query].get();
                out_ptrs[t] = buffer.data() + subs[s + t].offset;
            }
            peer_ptrs[0]->scanMulti(peer_ptrs.data(), m, il.codes, il.size,
                                    thresholds.data(), out_ptrs.data());
            s = e;
        }

        // Per-query emit: replay the buffered segments in plan order
        // into a fresh TopK — identical pushes, identical ties.
        offset = 0;
        for (std::size_t qi = group_begin; qi < group_end; ++qi) {
            vecstore::TopK selector(std::max<std::size_t>(k, 1));
            for (const auto &visit : plans[qi].visits) {
                selector.pushBatch(listRef(visit.list).ids,
                                   buffer.data() + offset, visit.len);
                offset += visit.len;
            }
            auto hits = selector.take();
            if (hits.size() > k)
                hits.resize(k);
            results[qi] = std::move(hits);

            foldStats(plans[qi], &total);
            foldStats(plans[qi], per_query ? &(*per_query)[qi] : nullptr);
        }
        group_begin = group_end;
    }

    histograms.scan.observe(timer.elapsedMicros());
    span.arg("lists_probed", total.lists_probed);
    span.arg("vectors_scanned", total.vectors_scanned);
    return results;
}

std::size_t
IvfIndex::memoryBytes() const
{
    // Heap footprint only: a mapped index owns no sections — the page
    // cache owns its bytes (mappedBytes() / mappedResidentBytes()).
    return centroids_.memoryBytes() +
           owned_.table.size() * sizeof(ivff::ListEntry) +
           owned_.ids.size() * sizeof(vecstore::VecId) + owned_.codes.size();
}

IvfIndex::ListRef
IvfIndex::listRef(std::size_t list) const
{
    const ivff::ListEntry &e = sections_.table[list];
    return {sections_.ids + e.offset, sections_.codes + e.offset * code_size_,
            static_cast<std::size_t>(e.count)};
}

void
IvfIndex::assertMutable(const char *op) const
{
    if (isMapped()) {
        throw std::logic_error(
            std::string("IvfIndex::") + op +
            ": index is a read-only mmap view (reopen with load() to "
            "mutate)");
    }
}

std::string
IvfIndex::name() const
{
    return "IVF" + std::to_string(config_.nlist) + "," + codec_->name();
}

std::size_t
IvfIndex::removeIds(const std::vector<vecstore::VecId> &ids)
{
    assertMutable("removeIds");
    const std::unordered_set<vecstore::VecId> doomed(ids.begin(), ids.end());
    std::vector<std::uint8_t> keep(ntotal_);
    for (std::size_t r = 0; r < ntotal_; ++r)
        keep[r] = doomed.count(sections_.ids[r]) == 0;
    const std::size_t before = ntotal_;
    relayout(keep, {}, {});
    return before - ntotal_;
}

std::size_t
IvfIndex::listSize(std::size_t list) const
{
    HERMES_ASSERT(list < config_.nlist, "listSize: bad list ", list);
    return listRef(list).size;
}

std::unique_ptr<ivff::IndexFileWriter>
IvfIndex::openFile(const std::string &path,
                   const std::vector<std::uint64_t> &counts) const
{
    // Codec parameters first: the blob's size is part of the layout.
    util::ByteWriter blob_writer;
    codec_->save(blob_writer);
    const std::string &blob = blob_writer.bytes();

    ivff::IndexMeta meta;
    meta.metric = metric_;
    meta.dim = dim_;
    meta.nlist = config_.nlist;
    meta.code_size = codec_->codeSize();
    meta.n_centroids = centroids_.rows();
    meta.trained = trained_;
    meta.hnsw_coarse = config_.hnsw_coarse;
    meta.codec_spec = config_.codec;

    auto w = std::make_unique<ivff::IndexFileWriter>(path, meta, counts,
                                                     blob.size());
    if (centroids_.rows() > 0) {
        w->write(w->sectionOffset(ivff::kCentroids), centroids_.data(),
                 centroids_.rows() * dim_ * sizeof(float));
    }
    if (!blob.empty())
        w->write(w->sectionOffset(ivff::kCodecParams), blob.data(),
                 blob.size());
    return w;
}

void
IvfIndex::save(const std::string &path) const
{
    std::vector<std::uint64_t> counts(config_.nlist);
    for (std::size_t l = 0; l < config_.nlist; ++l)
        counts[l] = sections_.table[l].count;

    auto w = openFile(path, counts);
    w->write(w->sectionOffset(ivff::kIds), sections_.ids,
             ntotal_ * sizeof(vecstore::VecId));
    w->write(w->sectionOffset(ivff::kCodes), sections_.codes,
             ntotal_ * code_size_);
    w->finish();
}

std::unique_ptr<IvfIndex>
IvfIndex::load(const std::string &path)
{
    // One parser for both paths: load() maps the file just long enough
    // to validate it and copy each list section out, then drops it.
    auto idx = openMapped(path);
    const Sections &mapped = idx->sections_;
    const std::size_t n = idx->ntotal_;
    idx->adopt({{mapped.table, mapped.table + idx->config_.nlist},
                {mapped.ids, mapped.ids + n},
                {mapped.codes, mapped.codes + n * idx->code_size_}});
    idx->file_.reset();
    return idx;
}

std::unique_ptr<IvfIndex>
IvfIndex::openMapped(const std::string &path)
{
    return openMapped(path, MmapOptions());
}

std::unique_ptr<IvfIndex>
IvfIndex::openMapped(const std::string &path, const MmapOptions &options)
{
    util::MmapFile file(path);
    auto parsed = ivff::parseIndexFile(file, options.verify_checksums);
    const ivff::IndexMeta &meta = parsed.meta;
    IvfConfig config;
    config.nlist = static_cast<std::size_t>(meta.nlist);
    config.codec = meta.codec_spec;
    config.hnsw_coarse = meta.hnsw_coarse;

    // makeCodec treats a bad spec as fatal; for bytes that came off
    // disk it must be a typed rejection instead (a hostile file can
    // carry any spec with recomputed checksums).
    if (!quant::codecSpecValid(config.codec,
                               static_cast<std::size_t>(meta.dim))) {
        throw util::FormatError(util::FormatErrorCode::Corrupt,
                                path + ": invalid codec spec '" +
                                    config.codec + "'");
    }
    auto idx = std::make_unique<IvfIndex>(
        static_cast<std::size_t>(meta.dim), meta.metric, config);
    idx->trained_ = meta.trained;
    idx->ntotal_ = static_cast<std::size_t>(meta.ntotal);

    // The only copied payload: nlist x dim floats, a rounding error next
    // to the code sections, and centroids() must expose a Matrix anyway.
    idx->centroids_ = vecstore::Matrix(
        static_cast<std::size_t>(meta.n_centroids), idx->dim_);
    std::copy_n(parsed.centroids, meta.n_centroids * meta.dim,
                idx->centroids_.data());

    if (parsed.codec_blob == nullptr) {
        throw util::FormatError(util::FormatErrorCode::Corrupt,
                                path + ": missing codec parameters");
    }
    {
        util::ByteReader blob(
            std::string_view(
                reinterpret_cast<const char *>(parsed.codec_blob),
                parsed.codec_blob_bytes),
            path + " (codec parameters)");
        idx->codec_->load(blob);
        blob.expectEnd();
    }
    if (idx->codec_->codeSize() != meta.code_size) {
        throw util::FormatError(
            util::FormatErrorCode::Corrupt,
            path + ": codec code size disagrees with header");
    }
    if (idx->config_.hnsw_coarse && idx->trained_)
        rebuildCoarseGraph(idx->dim_, idx->centroids_, idx->coarse_graph_);

    // The parsed pointers target the mapping itself; moving the
    // MmapFile moves ownership, not the mapped address, so they stay
    // valid for the life of file_.
    idx->owned_ = OwnedSections();
    idx->sections_ = {parsed.list_table, parsed.ids, parsed.codes};
    idx->file_ = std::move(file);
    if (options.prefault)
        idx->file_.advise(util::MapAdvice::WillNeed);
    return idx;
}

} // namespace index
} // namespace hermes
