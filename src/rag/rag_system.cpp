#include "rag/rag_system.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hermes {
namespace rag {

RagSystem::RagSystem(const RagSystemConfig &config)
    : config_(config), encoder_(config.embedding_dim),
      reranker_(makeReranker(config.reranker)),
      embeddings_(config.embedding_dim)
{
}

RagSystem::~RagSystem() = default;

void
RagSystem::addDocument(const std::string &text)
{
    if (ready()) {
        HERMES_FATAL("RagSystem: addDocument after finalize is not "
                     "supported (rebuild the system to ingest more data)");
    }
    datastore_.addDocument(text, config_.chunking);
}

void
RagSystem::finalize()
{
    HERMES_ASSERT(!ready(), "finalize called twice");
    if (datastore_.size() < config_.hermes.num_clusters) {
        HERMES_FATAL("RagSystem: ", datastore_.size(),
                     " chunks cannot fill ", config_.hermes.num_clusters,
                     " clusters; ingest more documents or reduce "
                     "num_clusters");
    }

    embeddings_ = encoder_.encodeBatch(datastore_.texts());
    store_ = std::make_unique<core::DistributedStore>(
        core::DistributedStore::build(embeddings_, config_.hermes));
    search_ = std::make_unique<core::HermesSearch>(*store_);

    HERMES_INFORM("RagSystem ready: ", datastore_.size(), " chunks (",
                  datastore_.totalTokens(), " tokens) across ",
                  store_->numClusters(), " clusters; imbalance ",
                  store_->partitioning().imbalance.max_min_ratio);
}

vecstore::HitList
RagSystem::retrieve(const std::string &question, std::size_t k) const
{
    HERMES_ASSERT(ready(), "retrieve before finalize");
    obs::TraceContext trace_context(
        obs::TraceRecorder::instance().sampleQuery());
    obs::ScopedSpan span("rag.retrieve");
    span.arg("k", static_cast<std::uint64_t>(k));
    auto query = encoder_.encode(question);
    auto result = search_->search(
        vecstore::VecView(query.data(), query.size()), k);
    RerankRequest request;
    request.question = question;
    request.query = vecstore::VecView(query.data(), query.size());
    request.candidates = std::move(result.hits);
    return reranker_->rerank(request, embeddings_, datastore_);
}

GenerationResult
RagSystem::generate(const std::string &question,
                    std::optional<GenerationConfig> maybe_config) const
{
    HERMES_ASSERT(ready(), "generate before finalize");
    GenerationConfig gen = maybe_config.value_or(config_.generation);
    HERMES_ASSERT(gen.stride >= 1, "stride must be >= 1");

    std::size_t num_strides =
        std::max<std::size_t>(gen.output_tokens / gen.stride, 1);
    std::size_t k = config_.hermes.docs_to_retrieve;

    static obs::Histogram &h_stride = obs::Registry::instance().histogram(
        obs::names::kRagStrideTotalUs);
    static obs::Histogram &h_retrieval = obs::Registry::instance().histogram(
        obs::names::kRagStrideRetrievalUs);
    static obs::Counter &c_strides =
        obs::Registry::instance().counter(obs::names::kRagStrides);

    obs::TraceContext trace_context(
        obs::TraceRecorder::instance().sampleQuery());
    obs::ScopedSpan generate_span("rag.generate");
    generate_span.arg("strides",
                      static_cast<std::uint64_t>(num_strides));

    GenerationResult result;
    util::Rng rng(gen.seed);

    // The surrogate decoder tracks a "context" of generated words; each
    // stride re-retrieves with question + generated-so-far (retrieval
    // striding, Fig 3) and extends the answer with words drawn from the
    // best chunk.
    std::string context = question;
    std::vector<std::string> output_words;

    for (std::size_t s = 0; s < num_strides; ++s) {
        StrideEvent event;
        event.index = s;

        obs::ScopedSpan stride_span("rag.stride");
        stride_span.arg("index", static_cast<std::uint64_t>(s));
        util::Timer stride_timer;

        util::Timer timer;
        std::vector<float> query;
        {
            obs::ScopedSpan span("rag.encode");
            query = encoder_.encode(context);
        }
        auto search_result = search_->search(
            vecstore::VecView(query.data(), query.size()), k);
        event.retrieval_seconds = timer.elapsedSeconds();
        h_retrieval.observe(event.retrieval_seconds * 1e6);
        event.deep_clusters = search_result.deep_clusters;
        RerankRequest request;
        request.question = context;
        request.query = vecstore::VecView(query.data(), query.size());
        request.candidates = std::move(search_result.hits);
        {
            obs::ScopedSpan span("rag.rerank");
            event.retrieved = reranker_->rerank(request, embeddings_,
                                                datastore_);
        }

        if (!event.retrieved.empty()) {
            event.best_chunk = event.retrieved.front().id;
            const auto &chunk = datastore_.chunk(event.best_chunk);
            auto words = HashingEncoder::tokenize(chunk.text);
            if (!words.empty()) {
                std::size_t start = rng.uniformInt(words.size());
                for (std::size_t t = 0; t < gen.stride; ++t) {
                    const auto &w = words[(start + t) % words.size()];
                    output_words.push_back(w);
                    context += ' ';
                    context += w;
                }
            }
        }

        result.retrieval_wall_seconds += event.retrieval_seconds;
        result.strides.push_back(std::move(event));
        h_stride.observe(stride_timer.elapsedMicros());
        c_strides.add(1);
    }

    for (std::size_t i = 0; i < output_words.size(); ++i) {
        if (i)
            result.output_text += ' ';
        result.output_text += output_words[i];
    }
    return result;
}

const core::DistributedStore &
RagSystem::store() const
{
    HERMES_ASSERT(ready(), "store() before finalize");
    return *store_;
}

const core::SearchStrategy &
RagSystem::searchStrategy() const
{
    HERMES_ASSERT(ready(), "searchStrategy() before finalize");
    return *search_;
}

} // namespace rag
} // namespace hermes
