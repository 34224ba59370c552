/**
 * @file
 * Unit tests for the util substrate: RNG, statistics, CSV, the byte
 * codec, thread pool, JSON reader.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "util/argparse.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/minijson.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace hermes::util;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(9);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.uniformInt(bound), bound);
    }
}

TEST(Rng, UniformIntCoversSupport)
{
    Rng rng(11);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i)
        counts[rng.uniformInt(8)]++;
    for (int c : counts)
        EXPECT_GT(c, 800); // expected 1000, generous bound
}

TEST(Rng, GaussianMomentsApproximatelyStandard)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.03);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, SampleWithoutReplacementIsDistinct)
{
    Rng rng(17);
    for (std::size_t k : {1u, 5u, 50u, 99u}) {
        auto sample = rng.sampleWithoutReplacement(100, k);
        ASSERT_EQ(sample.size(), k);
        std::sort(sample.begin(), sample.end());
        EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
        for (auto v : sample)
            EXPECT_LT(v, 100u);
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(21);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Zipf, ExponentZeroIsUniform)
{
    ZipfSampler sampler(10, 0.0);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_NEAR(sampler.pmf(i), 0.1, 1e-12);
}

TEST(Zipf, PmfDecreasesWithRank)
{
    ZipfSampler sampler(50, 1.0);
    for (std::size_t i = 1; i < 50; ++i)
        EXPECT_GT(sampler.pmf(i - 1), sampler.pmf(i));
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler sampler(100, 0.8);
    double total = 0.0;
    for (std::size_t i = 0; i < 100; ++i)
        total += sampler.pmf(i);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SamplesFollowPmf)
{
    ZipfSampler sampler(10, 1.2);
    Rng rng(31);
    std::vector<int> counts(10, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        counts[sampler(rng)]++;
    for (std::size_t i = 0; i < 10; ++i) {
        double expected = sampler.pmf(i) * n;
        EXPECT_NEAR(counts[i], expected, 5.0 * std::sqrt(expected) + 10.0);
    }
}

TEST(RunningStats, BasicMoments)
{
    RunningStats stats;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 4u);
    EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 4.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 1.25);
    EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
}

TEST(RunningStats, MergeMatchesCombinedStream)
{
    Rng rng(37);
    RunningStats all, left, right;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.gaussian(3.0, 2.0);
        all.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySidePreservesEverything)
{
    RunningStats filled;
    filled.add(2.0);
    filled.add(8.0);
    RunningStats empty;

    // empty <- filled: adopts the filled accumulator wholesale.
    RunningStats into_empty = empty;
    into_empty.merge(filled);
    EXPECT_EQ(into_empty.count(), 2u);
    EXPECT_DOUBLE_EQ(into_empty.mean(), 5.0);
    EXPECT_DOUBLE_EQ(into_empty.min(), 2.0);
    EXPECT_DOUBLE_EQ(into_empty.max(), 8.0);

    // filled <- empty: a no-op that must not disturb min/max/moments.
    RunningStats into_filled = filled;
    into_filled.merge(empty);
    EXPECT_EQ(into_filled.count(), 2u);
    EXPECT_DOUBLE_EQ(into_filled.mean(), 5.0);
    EXPECT_DOUBLE_EQ(into_filled.variance(), filled.variance());
    EXPECT_DOUBLE_EQ(into_filled.min(), 2.0);
    EXPECT_DOUBLE_EQ(into_filled.max(), 8.0);

    // empty <- empty stays empty.
    RunningStats both;
    both.merge(empty);
    EXPECT_EQ(both.count(), 0u);
    EXPECT_DOUBLE_EQ(both.mean(), 0.0);
}

TEST(RunningStats, MergeSingleSampleAccumulators)
{
    RunningStats a, b;
    a.add(-3.0);
    b.add(7.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
    EXPECT_DOUBLE_EQ(a.max(), 7.0);
    EXPECT_DOUBLE_EQ(a.variance(), 25.0);
}

TEST(RunningStats, EmptyAccumulatorIsZero)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(Distribution, ExactPercentiles)
{
    Distribution dist;
    for (int i = 1; i <= 100; ++i)
        dist.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(dist.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(dist.percentile(100), 100.0);
    EXPECT_NEAR(dist.median(), 50.5, 1e-9);
    EXPECT_NEAR(dist.percentile(25), 25.75, 1e-9);
}

TEST(Distribution, SingleSample)
{
    Distribution dist;
    dist.add(42.0);
    EXPECT_DOUBLE_EQ(dist.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(dist.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(dist.percentile(100), 42.0);
}

TEST(Stats, GeometricMean)
{
    EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Logging, RuntimeLevelRoundTrip)
{
    auto prev = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    // In a debug-enabled build this prints to stdout; in Release (with
    // HERMES_ENABLE_DEBUG_LOG unset) it compiles away entirely. Either
    // way it must not crash or change the level.
    HERMES_DEBUG("debug smoke message");
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(prev);
}

TEST(ArgParse, MatchOptionTakesOnlyNameEqualsValue)
{
    using hermes::util::matchOption;
    EXPECT_STREQ(matchOption("--port=7000", "--port"), "7000");
    EXPECT_STREQ(matchOption("--port=", "--port"), "");
    EXPECT_EQ(matchOption("--port", "--port"), nullptr);
    EXPECT_EQ(matchOption("--portal=1", "--port"), nullptr);
    EXPECT_EQ(matchOption("--por=1", "--port"), nullptr);
    EXPECT_EQ(matchOption("7000", "--port"), nullptr);
}

TEST(Csv, WritesEscapedRows)
{
    auto path = std::filesystem::temp_directory_path() / "hermes_csv_test.csv";
    {
        CsvWriter csv(path.string());
        csv.header({"a", "b"});
        csv.cell(1).cell("plain").endRow();
        csv.cell(2.5).cell("has,comma").endRow();
        EXPECT_EQ(csv.rowsWritten(), 2u);
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,plain");
    std::getline(in, line);
    EXPECT_EQ(line, "2.5,\"has,comma\"");
    std::filesystem::remove(path);
}

/** The FormatErrorCode @p decode throws, failing the test if none. */
template <typename Fn>
FormatErrorCode
thrownCode(Fn &&decode)
{
    try {
        decode();
    } catch (const FormatError &e) {
        return e.code();
    }
    ADD_FAILURE() << "no FormatError thrown";
    return FormatErrorCode::Io;
}

TEST(ByteCodec, RoundTripsValuesVectorsStrings)
{
    ByteWriter w;
    w.put<std::uint8_t>(7);
    w.put<std::uint32_t>(0xdeadbeefu);
    w.put<std::uint64_t>(0x0123456789abcdefull);
    w.put<std::int64_t>(-42);
    w.put<float>(1.5f);
    w.put<double>(-2.25);
    w.putString("hello world");
    const std::vector<float> floats{0.0f, -1.0f, 3.25f};
    w.putVector(floats);
    w.putVector(std::vector<std::int64_t>{});
    const std::string bytes = w.take();
    EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 4 + 8 + (4 + 11) +
                                (8 + 3 * 4) + 8);

    ByteReader r(bytes, "test");
    EXPECT_EQ(r.get<std::uint8_t>(), 7u);
    EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
    EXPECT_EQ(r.get<std::uint64_t>(), 0x0123456789abcdefull);
    EXPECT_EQ(r.get<std::int64_t>(), -42);
    EXPECT_EQ(r.get<float>(), 1.5f);
    EXPECT_EQ(r.get<double>(), -2.25);
    EXPECT_EQ(r.getString(), "hello world");
    EXPECT_EQ(r.getVector<float>(), floats);
    EXPECT_TRUE(r.getVector<std::int64_t>().empty());
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(ByteCodec, TruncationAndTrailingBytesThrow)
{
    ByteWriter w;
    w.put<std::uint64_t>(1);
    w.putString("payload");
    w.putVector(std::vector<float>{1.0f, 2.0f});
    const std::string bytes = w.take();

    // Every proper prefix throws, never decodes short: a cut value is
    // Truncated, a cut string or vector body fails its count (Corrupt).
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        ByteReader r(std::string_view(bytes.data(), cut), "prefix");
        const FormatErrorCode code = thrownCode([&] {
            r.get<std::uint64_t>();
            r.getString();
            r.getVector<float>();
        });
        const bool in_value = cut < 12 || (cut >= 19 && cut < 27);
        EXPECT_EQ(code, in_value ? FormatErrorCode::Truncated
                                 : FormatErrorCode::Corrupt)
            << "prefix length " << cut;
    }

    const std::string padded = bytes + '\0';
    ByteReader r(padded, "padded");
    r.get<std::uint64_t>();
    r.getString();
    r.getVector<float>();
    EXPECT_EQ(r.remaining(), 1u);
    EXPECT_EQ(thrownCode([&] { r.expectEnd(); }), FormatErrorCode::Corrupt);
}

TEST(ByteCodec, HostileCountsThrowBeforeAllocating)
{
    // A count chosen so n * sizeof(float) wraps mod 2^64 to 4: a
    // multiplying bounds check would pass it against the 4 bytes that
    // follow and then size a vector of 2^62 + 1 floats. needCount
    // divides, so it is rejected before anything is allocated.
    ByteWriter wrap;
    wrap.put<std::uint64_t>((1ull << 62) + 1);
    wrap.put<float>(0.0f);
    ByteReader wrap_reader(wrap.bytes(), "wrap");
    EXPECT_EQ(thrownCode([&] { wrap_reader.getVector<float>(); }),
              FormatErrorCode::Corrupt);

    ByteWriter huge;
    huge.put<std::uint64_t>(0xffffffffffffffffull);
    ByteReader huge_reader(huge.bytes(), "huge");
    EXPECT_EQ(thrownCode([&] { huge_reader.getVector<float>(); }),
              FormatErrorCode::Corrupt);

    ByteWriter str;
    str.put<std::uint32_t>(0xffffffffu);
    str.put<std::uint32_t>(0);
    ByteReader str_reader(str.bytes(), "string");
    EXPECT_EQ(thrownCode([&] { str_reader.getString(); }),
              FormatErrorCode::Corrupt);

    ByteReader counts(std::string_view("12345678", 8), "counts");
    EXPECT_NO_THROW(counts.needCount(2, 4));
    EXPECT_NO_THROW(counts.needCount(0, 12));
    EXPECT_EQ(thrownCode([&] { counts.needCount(3, 3); }),
              FormatErrorCode::Corrupt);
}

TEST(ByteCodec, ErrorsNameTheInput)
{
    ByteReader r(std::string_view(), "cluster_3.hivf (codec parameters)");
    try {
        r.get<std::uint32_t>();
        FAIL() << "no FormatError thrown";
    } catch (const FormatError &e) {
        EXPECT_EQ(e.code(), FormatErrorCode::Truncated);
        EXPECT_EQ(std::string(e.what()).rfind(
                      "cluster_3.hivf (codec parameters): ", 0),
                  0u)
            << e.what();
    }
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> touched(257);
    pool.parallelFor(257, [&](std::size_t i) { touched[i]++; });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, SubmitAndWait)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { counter++; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelFor(5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

/** Percentile interpolation stays within sample range for any p. */
class PercentileSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PercentileSweep, WithinRange)
{
    Distribution dist;
    Rng rng(41);
    for (int i = 0; i < 500; ++i)
        dist.add(rng.uniform(-5.0, 5.0));
    double p = GetParam();
    double v = dist.percentile(p);
    EXPECT_GE(v, dist.min());
    EXPECT_LE(v, dist.max());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileSweep,
                         ::testing::Values(0.0, 1.0, 10.0, 25.0, 50.0, 75.0,
                                           90.0, 99.0, 100.0));

// ---------------------------------------------------------------------------
// minijson
// ---------------------------------------------------------------------------

TEST(Minijson, ParsesScalars)
{
    auto r = json::parse("  42.5 ");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_DOUBLE_EQ(r.value.numberOr(0.0), 42.5);

    EXPECT_TRUE(json::parse("true").value.boolOr(false));
    EXPECT_TRUE(json::parse("null").value.isNull());
    EXPECT_EQ(json::parse("\"hi\\n\\t\\\"there\\\"\"").value.stringOr(""),
              "hi\n\t\"there\"");
    EXPECT_DOUBLE_EQ(json::parse("-1.5e3").value.numberOr(0.0), -1500.0);
}

TEST(Minijson, ParsesNestedStructure)
{
    auto r = json::parse(
        "{\"a\": {\"b\": [1, 2, {\"c\": \"deep\"}]}, \"empty\": {},"
        " \"list\": []}");
    ASSERT_TRUE(r.ok) << r.error;
    const auto &root = r.value;
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.size(), 3u);

    const auto *b = root.at({"a", "b"});
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->size(), 3u);
    EXPECT_DOUBLE_EQ(b->index(0)->numberOr(0.0), 1.0);
    const auto *c = b->index(2)->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->stringOr(""), "deep");
    EXPECT_EQ(b->index(3), nullptr);
    EXPECT_EQ(root.at({"a", "missing"}), nullptr);
    EXPECT_TRUE(root.find("empty")->isObject());
    EXPECT_EQ(root.find("list")->size(), 0u);
}

TEST(Minijson, PreservesKeyOrder)
{
    auto r = json::parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.value.keys().size(), 3u);
    EXPECT_EQ(r.value.keys()[0], "z");
    EXPECT_EQ(r.value.keys()[1], "a");
    EXPECT_EQ(r.value.keys()[2], "m");
}

TEST(Minijson, UnicodeEscapes)
{
    auto r = json::parse("\"\\u0041\\u00e9\"");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.stringOr(""), "A\xc3\xa9"); // "Aé" in UTF-8
}

TEST(Minijson, RejectsMalformedInput)
{
    const char *bad[] = {
        "",                    // empty
        "{",                   // unterminated object
        "[1, 2",               // unterminated array
        "{\"a\" 1}",           // missing colon
        "{\"a\": 1,}",         // trailing comma then '}'
        "\"unterminated",      // unterminated string
        "truth",               // bad literal
        "1 2",                 // trailing garbage
        "\"bad \\x escape\"",  // unknown escape
    };
    for (const char *text : bad) {
        auto r = json::parse(text);
        EXPECT_FALSE(r.ok) << "should reject: " << text;
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(Minijson, RoundTripsRepoNumbers)
{
    // The exporters emit plain decimal/exponent forms; spot-check that
    // large counters survive the double round-trip exactly.
    auto r = json::parse("{\"n\": 1125899906842624}"); // 2^50
    ASSERT_TRUE(r.ok);
    EXPECT_DOUBLE_EQ(r.value.find("n")->numberOr(0.0), 1125899906842624.0);
}

} // namespace
