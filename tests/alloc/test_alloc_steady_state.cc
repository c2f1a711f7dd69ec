/**
 * @file
 * Allocation gate for the SA hot path. This binary replaces global
 * operator new/delete with a counting forwarder to malloc/free, which is
 * why it links alone: every other test keeps the default allocator.
 *
 * A warmed SA walk on a DSE-sized candidate (transformer on the paper's
 * 72-TOPs G-Arch, all five operators) must make no more heap allocations
 * than kWalkAllocBound over its next kMeasuredIters iterations (about
 * 49 per iteration before the proposal loop and the fragment caches
 * stopped allocating), and a fragment-cache wipe-and-refill cycle must
 * grow no cache buffer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/arch/presets.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/zoo.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/sa.hh"
#include "src/noc/interconnect.hh"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t align)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace gemini::mapping {
namespace {

/** Iterations of the measured walk. */
constexpr int kMeasuredIters = 4000;

/**
 * Heap allocations the measured walk may make: one per ten iterations,
 * so a single allocation per proposal (kMeasuredIters of them) fails the
 * gate. When the bound was set the warmed walk read 220 and the refill
 * walk of CacheWipeAndRefillGrowsNoBuffer 340; the code before the
 * fragment caches kept their storage read 80,780 and 62,086. Proposals
 * still reach states the warm-up never saw, and each such allocation
 * grows a retained buffer once: a fragment larger than the wiped one whose
 * storage it reuses (tile regions, link lists), a core group that
 * outgrows the copy it is assigned to (best-state snapshots, the undo
 * log, OP4's insert), or a new tile shape in the Explorer memo (one pool
 * block per 64 shapes).
 */
constexpr std::uint64_t kWalkAllocBound = kMeasuredIters / 10;

/** One SA stack over transformer on G-Arch72, seeded by stripe DP. */
class SteadyStateWalk : public ::testing::Test
{
  protected:
    SteadyStateWalk()
        : graph_(dnn::zoo::byName("transformer")), arch_(arch::gArch72()),
          noc_(arch_),
          explorer_(arch_.macsPerCore, arch_.glbBytes(), arch_.freqGHz),
          analyzer_(graph_, arch_, noc_, explorer_), costs_(arch_, {}),
          sa_(graph_, arch_, analyzer_, costs_)
    {
        MappingOptions options;
        options.maxGroupLayers = 6;
        options.runSa = false;
        start_ = MappingEngine(graph_, arch_, options).run().mapping;
        analyzer_.setCacheCapacity(options.analyzerCacheEntries);
    }

    /** Walk `iters` SA iterations from `mapping` with `seed`. */
    void
    walk(LpMapping &mapping, int iters, std::uint64_t seed)
    {
        SaOptions opt;
        opt.iterations = iters;
        opt.seed = seed;
        ASSERT_EQ(opt.operatorMask, 0x1Fu) << "all five operators";
        sa_.optimize(mapping, opt);
    }

    /** Heap allocations `fn` makes. */
    template <typename Fn>
    static std::uint64_t
    allocationsOf(Fn &&fn)
    {
        const std::uint64_t before = gAllocs.load();
        fn();
        return gAllocs.load() - before;
    }

    dnn::Graph graph_;
    arch::ArchConfig arch_;
    noc::InterconnectModel noc_;
    intracore::Explorer explorer_;
    Analyzer analyzer_;
    cost::CostStack costs_;
    SaEngine sa_;
    LpMapping start_;
};

TEST_F(SteadyStateWalk, WarmedWalkStaysUnderTheAllocationBound)
{
    LpMapping warm = start_;
    for (std::uint64_t seed : {11u, 12u, 13u, 14u})
        walk(warm, 6000, seed);

    // Per-call setup (the walk's copies of the mapping and its tables)
    // allocates the same in both calls; the difference is the
    // iterations' own allocations.
    LpMapping idle = warm;
    LpMapping busy = warm;
    const std::uint64_t setup =
        allocationsOf([&] { walk(idle, 0, 99); });
    const std::uint64_t total =
        allocationsOf([&] { walk(busy, kMeasuredIters, 99); });
    ASSERT_GE(total, setup);
    EXPECT_LE(total - setup, kWalkAllocBound)
        << "a warmed SA walk allocated " << (total - setup) << " times in "
        << kMeasuredIters << " iterations";
}

TEST_F(SteadyStateWalk, CacheWipeAndRefillGrowsNoBuffer)
{
    LpMapping first = start_;
    walk(first, 3000, 21);
    const std::uint64_t events = analyzer_.cacheAllocEvents();

    // The same walk again on wiped caches: every fragment misses once
    // more, and each refill reuses the storage its twin left behind.
    analyzer_.clearCache();
    LpMapping idle = start_;
    LpMapping again = start_;
    const std::uint64_t setup = allocationsOf([&] { walk(idle, 0, 21); });
    analyzer_.clearCache();
    const std::uint64_t total =
        allocationsOf([&] { walk(again, 3000, 21); });
    EXPECT_EQ(analyzer_.cacheAllocEvents(), events)
        << "refilling wiped fragment caches must reuse their storage";
    ASSERT_GE(total, setup);
    EXPECT_LE(total - setup, kWalkAllocBound)
        << "refilling wiped fragment caches allocated " << (total - setup)
        << " times";
}

} // namespace
} // namespace gemini::mapping
