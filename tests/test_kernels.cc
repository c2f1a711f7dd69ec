/**
 * @file
 * Unit and differential tests of the vectorized-hot-path infrastructure:
 * every kernel-table entry fuzzed scalar-vs-AVX2 for bit-equality
 * (including odd sizes and vector tails), the SIMD dispatch policy, the
 * SmallVec small-buffer container, the bump arena, cpulist parsing /
 * NUMA topology detection, the topology-aware thread pool's worker
 * arenas, and the SA operators' SchemeUndoLog.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "src/common/arena.hh"
#include "src/common/rng.hh"
#include "src/common/simd.hh"
#include "src/common/small_vec.hh"
#include "src/common/thread_pool.hh"
#include "src/mapping/kernels.hh"
#include "src/mapping/operators.hh"

using namespace gemini;
using common::SimdLevel;

namespace {

/** Sizes straddling every AVX2 lane/tail boundary. */
const std::size_t kSizes[] = {0, 1, 2, 3,  4,  5,  7,   8,
                              9, 15, 16, 17, 31, 33, 100, 257};

std::vector<double>
randomDoubles(Rng &rng, std::size_t n)
{
    std::vector<double> v(n);
    for (double &x : v) {
        // Mixed magnitudes, signs, and exact zeros: the interesting
        // cases for compare+blend max semantics and rounding.
        const double mag = rng.nextDouble() * 1e6 - 5e5;
        x = rng.nextBool(0.1) ? 0.0 : mag;
    }
    return v;
}

class KernelDifferential : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (common::detectedSimdLevel() < SimdLevel::Avx2)
            GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
    }

    const mapping::kernels::KernelTable &scalar_ =
        mapping::kernels::tableFor(SimdLevel::Scalar);
    const mapping::kernels::KernelTable &avx2_ =
        mapping::kernels::tableFor(SimdLevel::Avx2);
};

TEST_F(KernelDifferential, AccumulateBitIdentical)
{
    Rng rng(0xACC0ull);
    for (std::size_t n : kSizes) {
        const std::vector<double> src = randomDoubles(rng, n);
        std::vector<double> a = randomDoubles(rng, n);
        std::vector<double> b = a;
        scalar_.accumulate(a.data(), src.data(), n);
        avx2_.accumulate(b.data(), src.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(a[i], b[i]) << "n=" << n << " i=" << i;
    }
}

TEST_F(KernelDifferential, MaxOfBitIdentical)
{
    Rng rng(0x3A10ull);
    for (std::size_t n : kSizes) {
        const std::vector<double> x = randomDoubles(rng, n);
        EXPECT_EQ(scalar_.maxOf(x.data(), n), avx2_.maxOf(x.data(), n))
            << "n=" << n;
    }
}

TEST_F(KernelDifferential, MaxOfSeedsWithPositiveZero)
{
    // The fold seeds with 0.0 and uses (x > acc) strictly: an
    // all-negative (or all -0.0) input must return +0.0 in both
    // variants, not the largest negative element.
    const std::vector<double> neg = {-1.0, -5.0, -0.0, -2.5};
    const double s = scalar_.maxOf(neg.data(), neg.size());
    const double v = avx2_.maxOf(neg.data(), neg.size());
    EXPECT_EQ(s, 0.0);
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(s));
    EXPECT_FALSE(std::signbit(v));
}

TEST_F(KernelDifferential, SecondsFromKindsBitIdentical)
{
    Rng rng(0x5EC0ull);
    const double noc_bps = 256.0e9;
    const double d2d_bps = 100.1e9; // deliberately not a power of two
    for (std::size_t n : kSizes) {
        std::vector<double> bytes(n);
        std::vector<std::uint8_t> kind(n);
        for (std::size_t i = 0; i < n; ++i) {
            bytes[i] = rng.nextDouble() * 1e9;
            kind[i] = static_cast<std::uint8_t>(rng.nextBool(0.5) ? 1 : 0);
        }
        std::vector<double> a(n, -1.0), b(n, -2.0);
        scalar_.secondsFromKinds(a.data(), bytes.data(), kind.data(),
                                 noc_bps, d2d_bps, n);
        avx2_.secondsFromKinds(b.data(), bytes.data(), kind.data(),
                               noc_bps, d2d_bps, n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(a[i], b[i]) << "n=" << n << " i=" << i;

        EXPECT_EQ(scalar_.maxSeconds(bytes.data(), kind.data(), noc_bps,
                                     d2d_bps, n),
                  avx2_.maxSeconds(bytes.data(), kind.data(), noc_bps,
                                   d2d_bps, n))
            << "n=" << n;
    }
}

TEST_F(KernelDifferential, PairMaxBitIdentical)
{
    Rng rng(0x9A13ull);
    for (std::size_t n : kSizes) {
        const std::vector<double> children = randomDoubles(rng, 2 * n);
        std::vector<double> a(n, -1.0), b(n, -2.0);
        scalar_.pairMax(a.data(), children.data(), n);
        avx2_.pairMax(b.data(), children.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(a[i], b[i]) << "n=" << n << " i=" << i;
    }
}

TEST(SimdDispatch, NamesAndForceRoundTrip)
{
    EXPECT_STREQ(common::simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(common::simdLevelName(SimdLevel::Avx2), "avx2");

    const SimdLevel before = common::activeSimdLevel();
    ASSERT_TRUE(common::forceSimdLevel(SimdLevel::Scalar));
    EXPECT_EQ(common::activeSimdLevel(), SimdLevel::Scalar);
    if (common::detectedSimdLevel() >= SimdLevel::Avx2) {
        ASSERT_TRUE(common::forceSimdLevel(SimdLevel::Avx2));
        EXPECT_EQ(common::activeSimdLevel(), SimdLevel::Avx2);
    } else {
        // Forcing an unsupported variant must refuse and change nothing.
        EXPECT_FALSE(common::forceSimdLevel(SimdLevel::Avx2));
        EXPECT_EQ(common::activeSimdLevel(), SimdLevel::Scalar);
    }
    ASSERT_TRUE(common::forceSimdLevel(before));
}

TEST(ParseCpuList, CoversRangesSinglesAndJunk)
{
    using V = std::vector<int>;
    EXPECT_EQ(parseCpuList("0-3,8,10-11"), (V{0, 1, 2, 3, 8, 10, 11}));
    EXPECT_EQ(parseCpuList("4\n"), (V{4}));
    EXPECT_EQ(parseCpuList(""), V{});
    EXPECT_EQ(parseCpuList("garbage"), V{});
    EXPECT_EQ(parseCpuList("3,1,2"), (V{1, 2, 3}));   // sorted
    EXPECT_EQ(parseCpuList("1,1,1-2"), (V{1, 2}));    // deduplicated
    EXPECT_EQ(parseCpuList("5-3"), V{});              // empty range skipped
    EXPECT_EQ(parseCpuList(" 0-1 , 7 \n"), (V{0, 1, 7}));
}

TEST(NumaTopology, DetectionNeverReportsZeroNodes)
{
    const NumaTopology topo = detectNumaTopology();
    ASSERT_GE(topo.nodeCount(), 1u);
    EXPECT_GE(topo.cpuCount(), 1u);
    for (const auto &node : topo.nodeCpus)
        EXPECT_FALSE(node.empty());
}

TEST(ThreadPoolNuma, WorkerArenasAreNodeLocalAndUsable)
{
    // Off-pool threads (this one) have no worker arena.
    EXPECT_EQ(ThreadPool::workerArena(), nullptr);

    ThreadPool::Options opts;
    opts.threads = 3;
    ThreadPool pool(opts);
    EXPECT_EQ(pool.threadCount(), 3u);
    ASSERT_GE(pool.numaNodeCount(), 1u);
    EXPECT_LE(pool.pinnedWorkers(), pool.threadCount());
    if (pool.numaNodeCount() == 1) {
        // Single-node hosts must skip pinning entirely.
        EXPECT_EQ(pool.pinnedWorkers(), 0u);
    }
    for (std::size_t w = 0; w < pool.threadCount(); ++w)
        EXPECT_LT(pool.workerNode(w), pool.numaNodeCount());

    // Every task sees a usable arena; distinct workers see distinct ones.
    std::mutex mu;
    std::set<common::BumpArena *> arenas;
    std::atomic<int> failures{0};
    pool.parallelFor(64, [&](std::size_t i) {
        common::BumpArena *arena = ThreadPool::workerArena();
        if (arena == nullptr) {
            ++failures;
            return;
        }
        auto span = arena->allocSpan<double>(16);
        span[0] = static_cast<double>(i);
        if (span.size() != 16)
            ++failures;
        std::lock_guard lock(mu);
        arenas.insert(arena);
    });
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(arenas.size(), 1u);
    EXPECT_LE(arenas.size(), pool.threadCount());
}

TEST(ThreadPoolNuma, SizeTCompatConstructorStillWorks)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.threadCount(), 2u);
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 45);
}

TEST(BumpArenaTest, ResetRetainsChunksAndCountsEvents)
{
    common::BumpArena arena(4096);
    EXPECT_EQ(arena.allocEvents(), 0u);
    auto s1 = arena.allocSpan<std::uint64_t>(64);
    s1[0] = 42;
    const std::uint64_t events = arena.allocEvents();
    EXPECT_GE(events, 1u);
    arena.reset();
    // Same-size reallocation after reset reuses the retained chunk: no
    // new allocation events — the zero-steady-state-alloc invariant the
    // delta-evaluation hot path depends on.
    auto s2 = arena.allocSpan<std::uint64_t>(64);
    EXPECT_EQ(s2.data(), s1.data());
    EXPECT_EQ(arena.allocEvents(), events);
}

TEST(SmallVecTest, InlineThenSpillKeepsContents)
{
    common::SmallVec<std::pair<std::uint64_t, double>, 4> v;
    EXPECT_TRUE(v.empty());
    for (std::uint64_t i = 0; i < 12; ++i)
        v.push_back({i, static_cast<double>(i) * 0.5});
    ASSERT_EQ(v.size(), 12u);
    for (std::uint64_t i = 0; i < 12; ++i) {
        EXPECT_EQ(v[i].first, i);
        EXPECT_EQ(v[i].second, static_cast<double>(i) * 0.5);
    }

    // Copy, move, and equality across the inline/heap boundary.
    common::SmallVec<std::pair<std::uint64_t, double>, 4> copy = v;
    EXPECT_TRUE(copy == v);
    common::SmallVec<std::pair<std::uint64_t, double>, 4> moved =
        std::move(copy);
    EXPECT_TRUE(moved == v);

    v.clear();
    EXPECT_TRUE(v.empty());
    v.assign(3, {7, 7.5});
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2].first, 7u);
    EXPECT_FALSE(moved == v);
}

TEST(SchemeUndoLogTest, RestoresReverseOrderAcrossRepeatSnapshots)
{
    mapping::LayerGroupMapping group;
    group.schemes.resize(2);
    group.schemes[0].part = {2, 1, 1, 2};
    group.schemes[0].coreGroup = {0, 1, 2, 3};
    group.schemes[1].part = {1, 1, 1, 1};
    group.schemes[1].coreGroup = {4};

    mapping::SchemeUndoLog undo;
    EXPECT_EQ(undo.size(), 0u);

    // Two mutations of the same layer: restore must rewind to the value
    // of the *first* snapshot (reverse-order replay).
    undo.snapshot(0, group.schemes[0]);
    group.schemes[0].part = {4, 1, 1, 1};
    undo.snapshot(0, group.schemes[0]);
    group.schemes[0].part = {1, 4, 1, 1};
    group.schemes[0].coreGroup = {9};
    undo.snapshot(1, group.schemes[1]);
    group.schemes[1].coreGroup = {5, 6};
    EXPECT_EQ(undo.size(), 3u);

    undo.restore(group);
    EXPECT_EQ(group.schemes[0].part, (mapping::Partition{2, 1, 1, 2}));
    EXPECT_EQ(group.schemes[0].coreGroup,
              (std::vector<CoreId>{0, 1, 2, 3}));
    EXPECT_EQ(group.schemes[1].coreGroup, (std::vector<CoreId>{4}));

    // reset() forgets the snapshots but keeps the entry storage.
    undo.reset();
    EXPECT_EQ(undo.size(), 0u);
    group.schemes[1].part = {1, 1, 1, 1};
    undo.restore(group); // no-op on an empty log
    EXPECT_EQ(group.schemes[1].part, (mapping::Partition{1, 1, 1, 1}));
}

} // namespace
