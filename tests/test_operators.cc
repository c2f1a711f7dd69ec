/**
 * @file
 * Unit tests for the five SA operators: validity preservation, the exact
 * transformations the paper describes, and reachability (OP4 sequences can
 * take a CG to any size, per the Sec. V-B1 argument).
 */

#include <gtest/gtest.h>

#include <set>

#include "src/arch/presets.hh"
#include "src/common/math_util.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/operators.hh"
#include "src/mapping/stripe.hh"

namespace gemini::mapping {
namespace {

class OperatorTest : public ::testing::Test
{
  protected:
    OperatorTest()
        : graph_(dnn::zoo::tinyConvChain(3)), arch_(makeArch()), rng_(123)
    {
        std::vector<LayerId> layers;
        for (std::size_t i = 0; i < graph_.size(); ++i)
            layers.push_back(static_cast<LayerId>(i));
        group_ = stripeMapping(graph_, arch_, layers, 2);
    }

    static arch::ArchConfig
    makeArch()
    {
        arch::ArchConfig a = arch::tinyArch();
        a.xCores = 4;
        a.yCores = 3; // 12 cores
        return a;
    }

    /** Multiset of all cores used by the group. */
    std::multiset<CoreId>
    coresUsed() const
    {
        std::multiset<CoreId> s;
        for (const auto &ms : group_.schemes)
            for (CoreId c : ms.coreGroup)
                s.insert(c);
        return s;
    }

    dnn::Graph graph_;
    arch::ArchConfig arch_;
    Rng rng_;
    LayerGroupMapping group_;
};

TEST_F(OperatorTest, Op1ChangesOnlyPartition)
{
    const auto before_cores = coresUsed();
    bool changed = false;
    for (int i = 0; i < 50 && !changed; ++i) {
        LayerGroupMapping snapshot = group_;
        const OperatorEffect eff = applyOperator(
            SaOperator::ChangePartition, group_, graph_, arch_, rng_);
        if (!eff.applied)
            continue;
        changed = true;
        EXPECT_EQ(coresUsed(), before_cores);
        // Exactly one layer's Part differs; CGs and FDs are untouched.
        int diffs = 0;
        for (std::size_t l = 0; l < group_.schemes.size(); ++l) {
            EXPECT_EQ(group_.schemes[l].coreGroup,
                      snapshot.schemes[l].coreGroup);
            EXPECT_EQ(group_.schemes[l].fd, snapshot.schemes[l].fd);
            if (!(group_.schemes[l].part == snapshot.schemes[l].part))
                ++diffs;
        }
        EXPECT_EQ(diffs, 1);
    }
    EXPECT_TRUE(changed);
    EXPECT_EQ(checkGroupValid(graph_, arch_, group_, 4), "");
}

TEST_F(OperatorTest, Op2PermutesOneCoreGroup)
{
    bool changed = false;
    for (int i = 0; i < 50 && !changed; ++i) {
        LayerGroupMapping snapshot = group_;
        const OperatorEffect eff = applyOperator(
            SaOperator::SwapWithinLayer, group_, graph_, arch_, rng_);
        if (!eff.applied)
            continue;
        changed = true;
        for (std::size_t l = 0; l < group_.schemes.size(); ++l) {
            auto a = group_.schemes[l].coreGroup;
            auto b = snapshot.schemes[l].coreGroup;
            std::sort(a.begin(), a.end());
            std::sort(b.begin(), b.end());
            EXPECT_EQ(a, b); // same core set, possibly different order
        }
    }
    EXPECT_TRUE(changed);
    EXPECT_EQ(checkGroupValid(graph_, arch_, group_, 4), "");
}

TEST_F(OperatorTest, Op3ExchangesCoresAcrossLayers)
{
    const auto before = coresUsed();
    bool changed = false;
    for (int i = 0; i < 50 && !changed; ++i) {
        LayerGroupMapping snapshot = group_;
        const OperatorEffect eff = applyOperator(
            SaOperator::SwapAcrossLayers, group_, graph_, arch_, rng_);
        if (!eff.applied)
            continue;
        // CG sizes unchanged, global core multiset unchanged.
        for (std::size_t l = 0; l < group_.schemes.size(); ++l)
            EXPECT_EQ(group_.schemes[l].coreGroup.size(),
                      snapshot.schemes[l].coreGroup.size());
        EXPECT_EQ(coresUsed(), before);
        changed = true;
    }
    EXPECT_TRUE(changed);
    EXPECT_EQ(checkGroupValid(graph_, arch_, group_, 4), "");
}

TEST_F(OperatorTest, Op4MovesOneCore)
{
    bool moved = false;
    for (int i = 0; i < 200 && !moved; ++i) {
        LayerGroupMapping snapshot = group_;
        const OperatorEffect eff = applyOperator(
            SaOperator::MoveCore, group_, graph_, arch_, rng_);
        if (!eff.applied)
            continue;
        std::size_t grew = 0, shrank = 0;
        for (std::size_t l = 0; l < group_.schemes.size(); ++l) {
            const auto now = group_.schemes[l].coreGroup.size();
            const auto was = snapshot.schemes[l].coreGroup.size();
            grew += now == was + 1;
            shrank += now + 1 == was;
            // Partition still matches the CG size.
            EXPECT_EQ(group_.schemes[l].part.count(),
                      static_cast<std::int64_t>(now));
        }
        EXPECT_EQ(grew, 1u);
        EXPECT_EQ(shrank, 1u);
        moved = true;
    }
    EXPECT_TRUE(moved);
    EXPECT_EQ(checkGroupValid(graph_, arch_, group_, 4), "");
}

TEST_F(OperatorTest, Op5RedrawsManagedFlow)
{
    bool changed = false;
    for (int i = 0; i < 50 && !changed; ++i) {
        LayerGroupMapping snapshot = group_;
        const OperatorEffect eff = applyOperator(
            SaOperator::ChangeFlow, group_, graph_, arch_, rng_);
        if (!eff.applied)
            continue;
        changed = true;
        int diffs = 0;
        for (std::size_t l = 0; l < group_.schemes.size(); ++l) {
            const auto &now = group_.schemes[l].fd;
            const auto &was = snapshot.schemes[l].fd;
            diffs += (now.ifmap != was.ifmap) + (now.weight != was.weight) +
                     (now.ofmap != was.ofmap);
        }
        EXPECT_EQ(diffs, 1);
    }
    EXPECT_TRUE(changed);
    EXPECT_EQ(checkGroupValid(graph_, arch_, group_, 4), "");
}

TEST_F(OperatorTest, Op5ReportsOfmapCoupling)
{
    bool saw_ofmap = false, saw_other = false;
    for (int i = 0; i < 300; ++i) {
        const OperatorEffect eff = applyOperator(
            SaOperator::ChangeFlow, group_, graph_, arch_, rng_);
        if (!eff.applied)
            continue;
        if (eff.ofmapFlowChanged) {
            saw_ofmap = true;
            EXPECT_GE(eff.ofmapLayer, 0);
        } else {
            saw_other = true;
        }
    }
    EXPECT_TRUE(saw_ofmap);
    EXPECT_TRUE(saw_other);
}

TEST_F(OperatorTest, Op4ReachesMinimalAndMaximalSizes)
{
    // The paper's closure argument: repeated OP4 can take CG sizes from 1
    // to M-N+1. Drive the RNG and track extremes.
    std::size_t min_seen = 99, max_seen = 0;
    for (int i = 0; i < 3000; ++i) {
        applyOperator(SaOperator::MoveCore, group_, graph_, arch_, rng_);
        for (const auto &ms : group_.schemes) {
            min_seen = std::min(min_seen, ms.coreGroup.size());
            max_seen = std::max(max_seen, ms.coreGroup.size());
        }
    }
    EXPECT_EQ(min_seen, 1u);
    // 12 cores, 4 layers: some layer can grow well past its initial share.
    EXPECT_GE(max_seen, 6u);
    EXPECT_EQ(checkGroupValid(graph_, arch_, group_, 4), "");
}

TEST_F(OperatorTest, RandomPartitionRespectsCapsAndExcludesCurrent)
{
    Rng rng(7);
    const Partition current{.h = 2, .w = 1, .b = 1, .k = 2};
    for (int i = 0; i < 100; ++i) {
        const Partition p = randomPartition(4, 4, 4, 2, 4, current, rng);
        EXPECT_EQ(p.count(), 4);
        EXPECT_LE(p.h, 4);
        EXPECT_LE(p.b, 2);
        EXPECT_FALSE(p == current);
    }
}

TEST_F(OperatorTest, RandomPartitionImpossibleReturnsZero)
{
    Rng rng(7);
    const Partition p = randomPartition(7, 2, 2, 2, 2, {}, rng);
    EXPECT_EQ(p.count(), 0);
}

TEST_F(OperatorTest, SingleLayerGroupLimitsOperators)
{
    LayerGroupMapping solo = stripeMapping(graph_, arch_, {0}, 1);
    Rng rng(5);
    // OP3/OP4 need two layers.
    EXPECT_FALSE(applyOperator(SaOperator::SwapAcrossLayers, solo, graph_,
                               arch_, rng)
                     .applied);
    EXPECT_FALSE(
        applyOperator(SaOperator::MoveCore, solo, graph_, arch_, rng)
            .applied);
    // OP2 works (the layer holds many cores).
    EXPECT_TRUE(applyOperator(SaOperator::SwapWithinLayer, solo, graph_,
                              arch_, rng)
                    .applied);
}

/**
 * The vector-building divisor and factorization enumeration the
 * allocation-free visitors replaced, kept as their oracle.
 */
std::vector<std::int64_t>
oracleDivisors(std::int64_t n)
{
    std::vector<std::int64_t> small, large;
    for (std::int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            small.push_back(d);
            if (d != n / d)
                large.push_back(n / d);
        }
    }
    small.insert(small.end(), large.rbegin(), large.rend());
    return small;
}

std::vector<Factor4>
oracleFactorizations4(std::int64_t n, const Factor4 &caps)
{
    std::vector<Factor4> out;
    for (std::int64_t h : oracleDivisors(n)) {
        if (h > caps[0])
            continue;
        const std::int64_t n1 = n / h;
        for (std::int64_t w : oracleDivisors(n1)) {
            if (w > caps[1])
                continue;
            const std::int64_t n2 = n1 / w;
            for (std::int64_t b : oracleDivisors(n2)) {
                if (b > caps[2])
                    continue;
                const std::int64_t k = n2 / b;
                if (k > caps[3])
                    continue;
                out.push_back({h, w, b, k});
            }
        }
    }
    return out;
}

/** The erase-based randomPartition the count-and-select draw replaced. */
Partition
oracleRandomPartition(std::int64_t count, const Factor4 &caps,
                      const Partition &current, Rng &rng)
{
    auto cands = oracleFactorizations4(count, caps);
    if (cands.empty())
        return {.h = 0, .w = 0, .b = 0, .k = 0};
    if (cands.size() > 1) {
        const Factor4 cur = {current.h, current.w, current.b, current.k};
        std::erase(cands, cur);
    }
    const auto &pick =
        cands[static_cast<std::size_t>(rng.nextInt(
            static_cast<std::int64_t>(cands.size())))];
    return {pick[0], pick[1], pick[2], pick[3]};
}

/** Layer-shaped caps (h, w, batch unit, k) the sweeps draw partitions under. */
const std::vector<Factor4> kSweepCaps = {
    {256, 256, 256, 256}, {7, 7, 2, 512}, {1, 1, 1, 1024},
    {14, 14, 4, 64},      {3, 5, 2, 7},   {56, 56, 1, 3},
};

TEST(PartitionEnumeration, VisitorMatchesVectorOracleOrder)
{
    for (std::int64_t n = 1; n <= 256; ++n) {
        std::vector<std::int64_t> divs;
        forEachDivisor(n, [&](std::int64_t d) {
            divs.push_back(d);
            return true;
        });
        ASSERT_EQ(divs, oracleDivisors(n)) << "n=" << n;
        for (const Factor4 &caps : kSweepCaps) {
            const std::vector<Factor4> want = oracleFactorizations4(n, caps);
            std::vector<Factor4> got;
            forEachFactorization4(n, caps, [&](const Factor4 &f) {
                got.push_back(f);
                return true;
            });
            ASSERT_EQ(got, want) << "n=" << n;
        }
    }
}

TEST(PartitionEnumeration, VisitorStopsWhenAsked)
{
    int seen = 0;
    EXPECT_FALSE(forEachFactorization4(12, {12, 12, 12, 12},
                                       [&](const Factor4 &) {
                                           return ++seen < 3;
                                       }));
    EXPECT_EQ(seen, 3);
    EXPECT_TRUE(forEachFactorization4(7, {4, 4, 4, 4},
                                      [](const Factor4 &) { return false; }));
}

TEST(PartitionEnumeration, RandomPartitionMatchesEraseOracle)
{
    // Same partition and same RNG state after every draw, for currents
    // that are absent, the only candidate, or at either end or the
    // middle of the enumeration.
    for (std::int64_t n = 1; n <= 256; ++n) {
        for (const Factor4 &caps : kSweepCaps) {
            const std::vector<Factor4> cands = oracleFactorizations4(n, caps);
            std::vector<Partition> currents = {{}, {.h = n, .w = 1,
                                                    .b = 1, .k = 1}};
            for (std::size_t i : {std::size_t{0}, cands.size() / 2,
                                  cands.size() - 1}) {
                if (i < cands.size())
                    currents.push_back({cands[i][0], cands[i][1],
                                        cands[i][2], cands[i][3]});
            }
            for (const Partition &cur : currents) {
                for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
                    Rng got_rng(seed * 1000003 + static_cast<std::uint64_t>(n));
                    Rng want_rng(seed * 1000003 +
                                 static_cast<std::uint64_t>(n));
                    const Partition got = randomPartition(
                        n, caps[0], caps[1], caps[2], caps[3], cur, got_rng);
                    const Partition want =
                        oracleRandomPartition(n, caps, cur, want_rng);
                    ASSERT_EQ(got, want)
                        << "n=" << n << " seed=" << seed;
                    ASSERT_EQ(got_rng.next(), want_rng.next())
                        << "RNG diverged: n=" << n << " seed=" << seed;
                }
            }
        }
    }
}

TEST(OperatorNames, AllDistinct)
{
    std::set<std::string> names;
    for (int i = 0; i < kNumSaOperators; ++i)
        names.insert(saOperatorName(static_cast<SaOperator>(i)));
    EXPECT_EQ(names.size(), 5u);
}

} // namespace
} // namespace gemini::mapping
