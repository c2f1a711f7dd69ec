/**
 * @file
 * Unit tests for the common utilities: math helpers, RNG determinism and
 * distribution sanity, CSV writer, the thread pool and the thread CPU
 * clock.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "src/common/cpu_clock.hh"
#include "src/common/csv.hh"
#include "src/common/math_util.hh"
#include "src/common/rng.hh"
#include "src/common/thread_pool.hh"

namespace gemini {
namespace {

// ---------------------------------------------------------------- math --

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 7), 1);
    EXPECT_EQ(ceilDiv<std::int64_t>(1'000'000'007, 2), 500'000'004);
}

TEST(MathUtil, RoundUp)
{
    EXPECT_EQ(roundUp(10, 4), 12);
    EXPECT_EQ(roundUp(12, 4), 12);
    EXPECT_EQ(roundUp(1, 64), 64);
}

TEST(MathUtil, DivisorsOfSmall)
{
    EXPECT_EQ(divisorsOf(1), (std::vector<std::int64_t>{1}));
    EXPECT_EQ(divisorsOf(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisorsOf(36),
              (std::vector<std::int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(MathUtil, DivisorsOfPrime)
{
    EXPECT_EQ(divisorsOf(97), (std::vector<std::int64_t>{1, 97}));
}

TEST(MathUtil, DivisorsAreSortedAndDivide)
{
    const auto divs = divisorsOf(360);
    for (std::size_t i = 1; i < divs.size(); ++i)
        EXPECT_LT(divs[i - 1], divs[i]);
    for (auto d : divs)
        EXPECT_EQ(360 % d, 0);
}

/** The factorizations forEachFactorization4 visits, in visit order. */
std::vector<Factor4>
visitedFactorizations4(std::int64_t n, const Factor4 &caps)
{
    std::vector<Factor4> out;
    forEachFactorization4(n, caps, [&](const Factor4 &f) {
        out.push_back(f);
        return true;
    });
    return out;
}

/** Brute-force count of the 4-tuples within `caps` whose product is n. */
std::int64_t
bruteFactorizations4(std::int64_t n, const Factor4 &caps)
{
    std::int64_t count = 0;
    for (std::int64_t a = 1; a <= caps[0]; ++a)
        for (std::int64_t b = 1; b <= caps[1]; ++b)
            for (std::int64_t c = 1; c <= caps[2]; ++c)
                for (std::int64_t d = 1; d <= caps[3]; ++d)
                    if (a * b * c * d == n)
                        ++count;
    return count;
}

TEST(MathUtil, Factorizations4Complete)
{
    // All ordered factorizations of 6 with no caps: 4 slots for each
    // divisor chain. Verify against a brute-force count.
    const auto f = visitedFactorizations4(6, {6, 6, 6, 6});
    EXPECT_EQ(static_cast<std::int64_t>(f.size()),
              bruteFactorizations4(6, {6, 6, 6, 6}));
    for (const auto &x : f)
        EXPECT_EQ(x[0] * x[1] * x[2] * x[3], 6);
}

TEST(MathUtil, Factorizations4RespectsCaps)
{
    const auto f = visitedFactorizations4(8, {2, 2, 1, 4});
    for (const auto &x : f) {
        EXPECT_LE(x[0], 2);
        EXPECT_LE(x[1], 2);
        EXPECT_LE(x[2], 1);
        EXPECT_LE(x[3], 4);
        EXPECT_EQ(x[0] * x[1] * x[2] * x[3], 8);
    }
    // (2,2,1,2), (2,1,1,4), (1,2,1,4) are the only options.
    EXPECT_EQ(f.size(), 3u);
}

TEST(MathUtil, Factorizations4ImpossiblePrime)
{
    // 7 cannot split into factors all <= 4: nothing is visited, and a
    // visit that ran to the end reports so.
    EXPECT_TRUE(forEachFactorization4(7, {4, 4, 4, 4},
                                      [](const Factor4 &) { return false; }));
    EXPECT_TRUE(visitedFactorizations4(7, {4, 4, 4, 4}).empty());
}

TEST(MathUtil, CountMatchesEnumeration)
{
    for (std::int64_t n : {1, 2, 12, 36, 60}) {
        const Factor4 caps{10, 10, 4, 20};
        EXPECT_EQ(static_cast<std::int64_t>(
                      visitedFactorizations4(n, caps).size()),
                  bruteFactorizations4(n, caps))
            << "n=" << n;
    }
}

TEST(MathUtil, Log10Factorial)
{
    EXPECT_NEAR(log10Factorial(0), 0.0, 1e-12);
    EXPECT_NEAR(log10Factorial(5), std::log10(120.0), 1e-9);
    // Stirling check: 100! ~ 9.33e157.
    EXPECT_NEAR(log10Factorial(100), 157.97, 0.01);
}

TEST(MathUtil, Log10Binomial)
{
    EXPECT_NEAR(log10Binomial(10, 3), std::log10(120.0), 1e-9);
    EXPECT_TRUE(std::isinf(log10Binomial(5, 7)));
    EXPECT_TRUE(std::isinf(log10Binomial(5, -1)));
    EXPECT_NEAR(log10Binomial(7, 0), 0.0, 1e-12);
}

TEST(MathUtil, Log10Add)
{
    // log10(100 + 10) = log10(110)
    EXPECT_NEAR(log10Add(2.0, 1.0), std::log10(110.0), 1e-9);
    const double neg_inf = -std::numeric_limits<double>::infinity();
    EXPECT_NEAR(log10Add(neg_inf, 3.0), 3.0, 1e-12);
    EXPECT_NEAR(log10Add(3.0, neg_inf), 3.0, 1e-12);
}

TEST(MathUtil, PartitionFunctionKnownValues)
{
    // OEIS A000041.
    EXPECT_DOUBLE_EQ(partitionFunction(0), 1.0);
    EXPECT_DOUBLE_EQ(partitionFunction(1), 1.0);
    EXPECT_DOUBLE_EQ(partitionFunction(5), 7.0);
    EXPECT_DOUBLE_EQ(partitionFunction(10), 42.0);
    EXPECT_DOUBLE_EQ(partitionFunction(36), 17977.0);
    EXPECT_DOUBLE_EQ(partitionFunction(100), 190569292.0);
}

TEST(MathUtil, ChunkOfEvenSplit)
{
    for (std::int64_t i = 0; i < 4; ++i) {
        const auto c = chunkOf(8, 4, i);
        EXPECT_EQ(c.length, 2);
        EXPECT_EQ(c.offset, 2 * i);
    }
}

TEST(MathUtil, ChunkOfUnevenSplitFrontLoaded)
{
    // 7 into 3: lengths 3, 2, 2 per the paper's "approximately equal".
    EXPECT_EQ(chunkOf(7, 3, 0).length, 3);
    EXPECT_EQ(chunkOf(7, 3, 1).length, 2);
    EXPECT_EQ(chunkOf(7, 3, 2).length, 2);
    EXPECT_EQ(chunkOf(7, 3, 0).offset, 0);
    EXPECT_EQ(chunkOf(7, 3, 1).offset, 3);
    EXPECT_EQ(chunkOf(7, 3, 2).offset, 5);
}

TEST(MathUtil, ChunkOfCoversExactly)
{
    for (std::int64_t total : {5, 12, 17, 36}) {
        for (std::int64_t parts = 1; parts <= total; ++parts) {
            std::int64_t covered = 0;
            std::int64_t expect_offset = 0;
            for (std::int64_t i = 0; i < parts; ++i) {
                const auto c = chunkOf(total, parts, i);
                EXPECT_EQ(c.offset, expect_offset);
                EXPECT_GE(c.length, 1);
                covered += c.length;
                expect_offset += c.length;
            }
            EXPECT_EQ(covered, total);
        }
    }
}

// ----------------------------------------------------------------- rng --

TEST(Rng, DeterministicUnderSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, NextIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.nextInt(17);
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 17);
    }
}

TEST(Rng, NextIntCoversAllValues)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextInt(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.nextRange(-2, 2));
    EXPECT_TRUE(seen.count(-2));
    EXPECT_TRUE(seen.count(2));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, WeightedRespectsZeroWeights)
{
    Rng rng(5);
    const std::vector<double> w{0.0, 1.0, 0.0, 3.0};
    int counts[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4000; ++i)
        ++counts[rng.nextWeighted(w)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(static_cast<double>(counts[3]) / counts[1], 3.0, 0.5);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    auto resorted = v;
    std::sort(resorted.begin(), resorted.end());
    EXPECT_EQ(resorted, sorted);
}

// ----------------------------------------------------------------- csv --

TEST(Csv, HeaderAndRows)
{
    CsvTable t({"a", "b"});
    t.addRow(1, "x");
    t.addRow(2.5, "y");
    EXPECT_EQ(t.toString(), "a,b\n1,x\n2.5,y\n");
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Csv, EscapesSpecialCharacters)
{
    CsvTable t({"v"});
    t.addRow("hello, world");
    t.addRow("say \"hi\"");
    EXPECT_EQ(t.toString(), "v\n\"hello, world\"\n\"say \"\"hi\"\"\"\n");
}

TEST(Csv, IncrementalRowBuilding)
{
    CsvTable t({"x", "y"});
    t.beginRow();
    t.add(1);
    t.add(2);
    t.beginRow();
    t.add(3);
    t.add(4);
    EXPECT_EQ(t.toString(), "x,y\n1,2\n3,4\n");
}

// ---------------------------------------------------------- thread pool --

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndices)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(57);
    pool.parallelFor(hits.size(),
                     [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns)
{
    ThreadPool pool(2);
    pool.waitIdle(); // must not deadlock
    SUCCEED();
}

TEST(ThreadPool, ReportsThreadCount)
{
    ThreadPool pool(5);
    EXPECT_EQ(pool.threadCount(), 5u);
}

// ------------------------------------------------------ thread cpu clock --

TEST(ThreadCpuClock, CountsWorkButNotSleep)
{
    // A DSE task is charged this clock, so time the thread spends off the
    // CPU (sleeping here, preempted on a crowded host) must not count.
    const double t0 = common::threadCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double slept = common::threadCpuSeconds() - t0;
    EXPECT_GE(slept, 0.0);
    EXPECT_LT(slept, 0.025);

    const auto wall = std::chrono::steady_clock::now();
    const double t1 = common::threadCpuSeconds();
    volatile double sink = 0.0;
    while (common::threadCpuSeconds() - t1 < 0.01 &&
           std::chrono::steady_clock::now() - wall < std::chrono::seconds(5))
        sink = sink + 1.0;
    EXPECT_GE(common::threadCpuSeconds() - t1, 0.01);
}

} // namespace
} // namespace gemini
