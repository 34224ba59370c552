/**
 * @file
 * Tests for the pluggable rerankers.
 */

#include <gtest/gtest.h>

#include "rag/encoder.hpp"
#include "rag/reranker.hpp"

namespace {

using namespace hermes;
using namespace hermes::rag;

struct RerankerFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        // Three chunks: 0 lexically matches the question, 1 is the dense
        // nearest neighbor, 2 is both worse.
        datastore.addDocument("solar panels convert light into power");
        datastore.addDocument("batteries store electrical energy cheaply");
        datastore.addDocument("the referee blew the whistle at halftime");

        HashingEncoder encoder(64);
        embeddings = encoder.encodeBatch(datastore.texts());

        question = "how do solar panels convert light";
        query = encoder.encode(question);

        request.question = question;
        request.query = vecstore::VecView(query.data(), query.size());
        request.candidates = {{0, 0.f}, {1, 0.f}, {2, 0.f}};
    }

    ChunkDatastore datastore;
    vecstore::Matrix embeddings{0};
    std::string question;
    std::vector<float> query;
    RerankRequest request;
};

TEST_F(RerankerFixture, InnerProductRanksDenseNearest)
{
    InnerProductReranker reranker;
    auto ranked = reranker.rerank(request, embeddings, datastore);
    ASSERT_EQ(ranked.size(), 3u);
    // The lexically-matching chunk is also the dense nearest; the order
    // of the two unrelated chunks is hashing noise, so only the top is
    // asserted.
    EXPECT_EQ(ranked[0].id, 0);
}

TEST_F(RerankerFixture, TermOverlapRanksLexicalMatch)
{
    TermOverlapReranker reranker;
    auto ranked = reranker.rerank(request, embeddings, datastore);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].id, 0);
    // Chunk 2 shares only stop-word-ish terms ("the").
    EXPECT_EQ(ranked.back().id, 2);
}

TEST_F(RerankerFixture, OverlapScoreMath)
{
    EXPECT_DOUBLE_EQ(
        TermOverlapReranker::overlapScore("alpha beta", "alpha gamma"),
        0.5);
    EXPECT_DOUBLE_EQ(
        TermOverlapReranker::overlapScore("alpha beta", "delta gamma"),
        0.0);
    EXPECT_DOUBLE_EQ(
        TermOverlapReranker::overlapScore("alpha", "alpha alpha alpha"),
        1.0);
    EXPECT_DOUBLE_EQ(TermOverlapReranker::overlapScore("", "anything"),
                     0.0);
}

TEST_F(RerankerFixture, HybridAlphaOneMatchesInnerProductOrder)
{
    HybridReranker hybrid(1.0);
    InnerProductReranker dense;
    auto a = hybrid.rerank(request, embeddings, datastore);
    auto b = dense.rerank(request, embeddings, datastore);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].id, b[i].id);
}

TEST_F(RerankerFixture, HybridAlphaZeroMatchesTermOverlapOrder)
{
    HybridReranker hybrid(0.0);
    TermOverlapReranker sparse;
    auto a = hybrid.rerank(request, embeddings, datastore);
    auto b = sparse.rerank(request, embeddings, datastore);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].id, b[i].id);
}

TEST_F(RerankerFixture, EmptyCandidatesStayEmpty)
{
    request.candidates.clear();
    for (const char *spec : {"inner-product", "term-overlap", "hybrid"}) {
        auto reranker = makeReranker(spec);
        EXPECT_TRUE(
            reranker->rerank(request, embeddings, datastore).empty());
    }
}

TEST(Rerank, OrdersByInnerProduct)
{
    // Hand-made rows with known inner products against the query (0.1,
    // 0.9, 0.5), so the whole order and every score is pinned, not just
    // the top hit.
    vecstore::Matrix embeddings(3, 2);
    embeddings.row(0)[0] = 0.1f;
    embeddings.row(1)[0] = 0.9f;
    embeddings.row(2)[0] = 0.5f;
    std::vector<float> query{1.f, 0.f};
    RerankRequest request;
    request.query = vecstore::VecView(query.data(), query.size());
    request.candidates = {{0, 0.f}, {1, 0.f}, {2, 0.f}};
    auto reranked =
        InnerProductReranker().rerank(request, embeddings, ChunkDatastore());
    ASSERT_EQ(reranked.size(), 3u);
    EXPECT_EQ(reranked[0].id, 1);
    EXPECT_EQ(reranked[1].id, 2);
    EXPECT_EQ(reranked[2].id, 0);
    EXPECT_EQ(reranked[0].score, -0.9f);
    EXPECT_EQ(reranked[1].score, -0.5f);
    EXPECT_EQ(reranked[2].score, -0.1f);
}

TEST(Rerank, EmptyInputIsEmpty)
{
    vecstore::Matrix embeddings(1, 2);
    std::vector<float> query{1.f, 0.f};
    RerankRequest request;
    request.query = vecstore::VecView(query.data(), query.size());
    EXPECT_TRUE(InnerProductReranker()
                    .rerank(request, embeddings, ChunkDatastore())
                    .empty());
}

TEST(RerankerFactory, ParsesSpecs)
{
    EXPECT_EQ(makeReranker("inner-product")->name(), "inner-product");
    EXPECT_EQ(makeReranker("term-overlap")->name(), "term-overlap");
    EXPECT_EQ(makeReranker("hybrid")->name(), "hybrid");
    EXPECT_EQ(makeReranker("hybrid:0.3")->name(), "hybrid");
}

TEST(RerankerFactory, RejectsUnknownSpec)
{
    EXPECT_EXIT((void)makeReranker("neural-xxl"),
                ::testing::ExitedWithCode(1), "unknown reranker");
}

} // namespace
