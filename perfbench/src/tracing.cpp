#include "tracing.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "sim/cost_model.hpp"

namespace perfbench {

namespace hv = hermes::vecstore;
namespace hi = hermes::index;

namespace {

std::uint64_t
hashRow(hv::VecView v)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a
    const auto *bytes = reinterpret_cast<const unsigned char *>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

} // namespace

SpanLog::SpanLog(const hv::Matrix &queries)
    : queries_(queries), next_id_(2 * queries.rows() + 3)
{
    row_by_hash_.reserve(queries.rows());
    for (std::size_t r = 0; r < queries.rows(); ++r)
        row_by_hash_.emplace(hashRow(queries.row(r)),
                             static_cast<std::int64_t>(r));
}

std::int64_t
SpanLog::rowOf(hv::VecView query) const
{
    auto it = row_by_hash_.find(hashRow(query));
    if (it == row_by_hash_.end())
        return -1;
    hv::VecView row = queries_.row(static_cast<std::size_t>(it->second));
    return row.size() == query.size() &&
            std::memcmp(row.data(), query.data(),
                        query.size() * sizeof(float)) == 0
        ? it->second
        : -1;
}

void
SpanLog::add(const char *name, std::int64_t request, std::uint64_t parent,
             Clock::time_point start, Clock::time_point end)
{
    addWithId(name, request, next_id_.fetch_add(1), parent, start, end);
}

void
SpanLog::addWithId(const char *name, std::int64_t request, std::uint64_t id,
                   std::uint64_t parent, Clock::time_point start,
                   Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, request, id, parent, start, end});
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    Clock::time_point epoch = spans_.empty() ? Clock::time_point{}
                                             : spans_.front().start;
    for (const Span &s : spans_)
        epoch = std::min(epoch, s.start);
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"request\":%lld,\"id\":%llu,"
                     "\"parent\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     s.name, static_cast<long long>(s.request),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     micros(s.start - epoch), micros(s.end - epoch));
    }
    return std::fclose(f) == 0;
}

void
Samples::add(double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    values_.push_back(v);
}

std::vector<double>
Samples::values() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return values_;
}

TimingAnnIndex::TimingAnnIndex(const hi::AnnIndex &inner, SpanLog *spans)
    : inner_(inner), spans_(spans)
{
}

void
TimingAnnIndex::train(const hv::Matrix &)
{
    throw std::logic_error("TimingAnnIndex wraps a trained, read-only index");
}

void
TimingAnnIndex::add(const hv::Matrix &, const std::vector<hv::VecId> &)
{
    throw std::logic_error("TimingAnnIndex wraps a trained, read-only index");
}

hv::HitList
TimingAnnIndex::search(hv::VecView query, std::size_t k,
                       const hi::SearchParams &params,
                       hi::SearchStats *stats) const
{
    hi::SearchStats local;
    const Clock::time_point start = Clock::now();
    hv::HitList hits = inner_.search(query, k, params, &local);
    const Clock::time_point end = Clock::now();
    if (stats)
        stats->merge(local);
    const double us = micros(end - start);
    search_us_.add(us);
    queries_.fetch_add(1);
    account(local, us);
    if (spans_) {
        const std::int64_t row = spans_->rowOf(query);
        spans_->add("index.search", row,
                    row >= 0 ? SpanLog::brokerSpanId(row) : 0, start, end);
    }
    return hits;
}

std::vector<hv::HitList>
TimingAnnIndex::searchBatch(const hv::Matrix &queries, std::size_t k,
                            const hi::SearchParams &params,
                            std::vector<hi::SearchStats> *per_query) const
{
    std::vector<hi::SearchStats> local;
    const Clock::time_point start = Clock::now();
    auto hits = inner_.searchBatch(queries, k, params, &local);
    const Clock::time_point end = Clock::now();
    hi::SearchStats total;
    for (const auto &s : local)
        total.merge(s);
    if (per_query)
        *per_query = local;
    const double us = micros(end - start);
    search_batch_us_.add(us);
    queries_.fetch_add(queries.rows());
    account(total, us);
    if (spans_) {
        // One span per query row, so every request's spans share its id.
        for (std::size_t r = 0; r < queries.rows(); ++r) {
            const std::int64_t row = spans_->rowOf(queries.row(r));
            spans_->add("index.search_batch", row,
                        row >= 0 ? SpanLog::brokerSpanId(row) : 0, start,
                        end);
        }
    }
    return hits;
}

void
TimingAnnIndex::account(const hi::SearchStats &stats, double us) const
{
    calls_.fetch_add(1);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.merge(stats);
    busy_us_ += us;
}

double
TimingAnnIndex::busyUs() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return busy_us_;
}

hi::SearchStats
TimingAnnIndex::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

TimingNodeClient::TimingNodeClient(
    std::unique_ptr<hermes::serve::NodeClient> inner, SpanLog *spans)
    : inner_(std::move(inner)), spans_(spans)
{
}

std::future<hermes::serve::NodeResponse>
TimingNodeClient::submit(hv::VecView query, std::size_t k,
                         const hi::SearchParams &params)
{
    const Clock::time_point start = Clock::now();
    auto future = inner_->submit(query, k, params);
    const Clock::time_point end = Clock::now();
    submit_us_.add(micros(end - start));
    if (spans_) {
        const std::int64_t row = spans_->rowOf(query);
        spans_->add("node_client.submit", row,
                    row >= 0 ? SpanLog::brokerSpanId(row) : 0, start, end);
    }
    return future;
}

double
histogramPercentile(const char *name, double p)
{
    auto &registry = hermes::obs::Registry::instance();
    return registry.hasHistogram(name)
        ? registry.histogram(name).snapshot().percentile(p)
        : 0.0;
}

double
histogramMean(const char *name)
{
    auto &registry = hermes::obs::Registry::instance();
    return registry.hasHistogram(name)
        ? registry.histogram(name).snapshot().mean()
        : 0.0;
}

double
reportIndexLayer(const std::vector<const TimingAnnIndex *> &shards,
                 double queries, Metrics &metrics)
{
    std::vector<double> single_us, batch_us;
    double calls = 0.0, index_queries = 0.0, busy_us = 0.0;
    hi::SearchStats work;
    for (const TimingAnnIndex *timer : shards) {
        auto s = timer->searchUs().values();
        single_us.insert(single_us.end(), s.begin(), s.end());
        auto b = timer->searchBatchUs().values();
        batch_us.insert(batch_us.end(), b.begin(), b.end());
        calls += static_cast<double>(timer->calls());
        index_queries += static_cast<double>(timer->queries());
        busy_us += timer->busyUs();
        work.merge(timer->stats());
    }
    metrics.set("index.search_us.p50", percentile(single_us, 50.0));
    metrics.set("index.search_batch_us.p50", percentile(batch_us, 50.0));
    metrics.set("index.batch_size.mean", ratio(index_queries, calls));
    const double bytes_per_query =
        ratio(static_cast<double>(work.bytes_scanned), queries);
    metrics.set("index.vectors_scanned_per_query",
                ratio(static_cast<double>(work.vectors_scanned), queries));
    metrics.set("index.bytes_scanned_per_query", bytes_per_query);
    metrics.set("ivf.coarse_us.p50",
                histogramPercentile(hermes::obs::names::kIvfCoarseUs, 50.0));
    metrics.set("ivf.scan_us.p50",
                histogramPercentile(hermes::obs::names::kIvfScanUs, 50.0));
    metrics.set("index.scan_gbps",
                ratio(static_cast<double>(work.bytes_scanned), busy_us * 1e3));

    // The cost model's per-core scan rate against the measured index
    // time of the same bytes (ROADMAP: model beside measurement).
    const hermes::sim::RetrievalCostModel model(
        hermes::sim::cpuProfile(hermes::sim::CpuModel::XeonGold6448Y));
    metrics.set("sim.model_latency_ratio",
                ratio(ratio(busy_us, queries),
                      model.queryLatency(bytes_per_query) * 1e6));

    single_us.insert(single_us.end(), batch_us.begin(), batch_us.end());
    return percentile(std::move(single_us), 50.0);
}

} // namespace perfbench
