/**
 * @file
 * Unit tests for the LP SPM encoding: the correspondence rule, work-region
 * computation, FD management rules and whole-mapping validation — the
 * Fig. 3 worked example of the paper is reproduced verbatim.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/arch/presets.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/space.hh"
#include "src/mapping/stripe.hh"

namespace gemini::mapping {
namespace {

TEST(Correspondence, NidFormulaMatchesPaper)
{
    // nid = h*W*B*K + w*B*K + b*K + k.
    const Partition p{.h = 2, .w = 3, .b = 2, .k = 2};
    EXPECT_EQ(nidOf(p, {0, 0, 0, 0}), 0);
    EXPECT_EQ(nidOf(p, {0, 0, 0, 1}), 1);
    EXPECT_EQ(nidOf(p, {0, 0, 1, 0}), 2);
    EXPECT_EQ(nidOf(p, {0, 1, 0, 0}), 4);
    EXPECT_EQ(nidOf(p, {1, 0, 0, 0}), 12);
    EXPECT_EQ(nidOf(p, {1, 2, 1, 1}), 12 + 8 + 2 + 1);
}

TEST(Correspondence, RoundTripBijection)
{
    const Partition p{.h = 3, .w = 2, .b = 4, .k = 5};
    for (std::int64_t nid = 0; nid < p.count(); ++nid) {
        const WorkIndex idx = workIndexOf(p, nid);
        EXPECT_EQ(nidOf(p, idx), nid);
    }
}

TEST(Correspondence, Fig3Layer1Example)
{
    // Fig. 3: Part1 = (1,1,2,2), CG1 = (2,1,5,4). Workload 1-0 has 4-D id
    // (0,0,0,0), numerical id 0, and maps to the first core of CG1 (=2).
    const Partition p{.h = 1, .w = 1, .b = 2, .k = 2};
    const std::vector<CoreId> cg{2, 1, 5, 4};
    EXPECT_EQ(cg[nidOf(p, {0, 0, 0, 0})], 2); // workload 1-0
    EXPECT_EQ(cg[nidOf(p, {0, 0, 0, 1})], 1); // workload 1-1
    EXPECT_EQ(cg[nidOf(p, {0, 0, 1, 0})], 5); // workload 1-2
    EXPECT_EQ(cg[nidOf(p, {0, 0, 1, 1})], 4); // workload 1-3
}

TEST(WorkRegion, SplitsEvenDims)
{
    dnn::Layer l;
    l.k = 8;
    l.h = 4;
    l.w = 4;
    const Partition p{.h = 2, .w = 1, .b = 1, .k = 2};
    const WorkRegion wr = workRegionOf(l, p, 2, workIndexOf(p, 3));
    // nid 3 -> (h=1, w=0, b=0, k=1): second h half, second k half.
    EXPECT_EQ(wr.region.h0, 2);
    EXPECT_EQ(wr.region.h1, 4);
    EXPECT_EQ(wr.region.c0, 4);
    EXPECT_EQ(wr.region.c1, 8);
    EXPECT_EQ(wr.b0, 0);
    EXPECT_EQ(wr.b1, 2);
}

TEST(WorkRegion, PartitionTilesOfmapExactly)
{
    dnn::Layer l;
    l.k = 7;
    l.h = 5;
    l.w = 3;
    const Partition p{.h = 2, .w = 3, .b = 2, .k = 3};
    const std::int64_t bu = 4;
    std::int64_t total = 0;
    for (std::int64_t nid = 0; nid < p.count(); ++nid) {
        const WorkRegion wr = workRegionOf(l, p, bu, workIndexOf(p, nid));
        EXPECT_FALSE(wr.region.empty());
        total += wr.volume();
    }
    EXPECT_EQ(total, l.k * l.h * l.w * bu);
}

// ------------------------------------------------------------ validity --

class ValidityTest : public ::testing::Test
{
  protected:
    ValidityTest() : graph_(dnn::zoo::tinyConvChain(3)),
                     arch_(arch::tinyArch())
    {
    }

    LayerGroupMapping
    makeGroup()
    {
        // 4 layers (3 convs + gap) on 4 cores, one each.
        LayerGroupMapping g;
        g.batchUnit = 1;
        for (LayerId l = 0; l < 4; ++l) {
            g.layers.push_back(l);
            MappingScheme ms;
            ms.part = Partition{};
            ms.coreGroup = {l};
            const auto &layer = graph_.layer(l);
            ms.fd.ifmap = graph_.readsExternalInput(l) ? 0 : kDramUnmanaged;
            ms.fd.weight = layer.hasWeights() ? 0 : kDramUnmanaged;
            ms.fd.ofmap = needsOfmapDram(graph_, g, l) ? 0 : kDramUnmanaged;
            g.schemes.push_back(ms);
        }
        // needsOfmapDram depends on group membership, recompute after all
        // layers are in.
        for (std::size_t i = 0; i < g.layers.size(); ++i) {
            g.schemes[i].fd.ofmap =
                needsOfmapDram(graph_, g, g.layers[i]) ? 0 : kDramUnmanaged;
        }
        return g;
    }

    dnn::Graph graph_;
    arch::ArchConfig arch_;
};

TEST_F(ValidityTest, WellFormedGroupPasses)
{
    const LayerGroupMapping g = makeGroup();
    EXPECT_EQ(checkGroupValid(graph_, arch_, g, 4), "");
}

TEST_F(ValidityTest, PartitionMustMatchCoreCount)
{
    LayerGroupMapping g = makeGroup();
    g.schemes[0].part.k = 2; // count 2, CG size 1
    EXPECT_NE(checkGroupValid(graph_, arch_, g, 4), "");
}

TEST_F(ValidityTest, DuplicateCoreRejected)
{
    LayerGroupMapping g = makeGroup();
    g.schemes[1].coreGroup = {0}; // already used by layer 0
    EXPECT_NE(checkGroupValid(graph_, arch_, g, 4), "");
}

TEST_F(ValidityTest, CoreOutOfMeshRejected)
{
    LayerGroupMapping g = makeGroup();
    g.schemes[2].coreGroup = {99};
    EXPECT_NE(checkGroupValid(graph_, arch_, g, 4), "");
}

TEST_F(ValidityTest, CoreErrorMessagesArePinned)
{
    LayerGroupMapping g = makeGroup();
    const std::string name2 = graph_.layer(g.layers[2]).name;
    g.schemes[2].coreGroup = {99};
    EXPECT_EQ(checkGroupValid(graph_, arch_, g, 4),
              name2 + ": core 99 out of mesh");
    g.schemes[2].coreGroup = {-1};
    EXPECT_EQ(checkGroupValid(graph_, arch_, g, 4),
              name2 + ": core -1 out of mesh");

    g = makeGroup();
    const std::string name1 = graph_.layer(g.layers[1]).name;
    g.schemes[1].coreGroup = {0};
    EXPECT_EQ(checkGroupValid(graph_, arch_, g, 4),
              name1 + ": core 0 assigned to two layers of the group");

    g = makeGroup();
    const std::string name0 = graph_.layer(g.layers[0]).name;
    g.schemes[0].part.k = 2;
    EXPECT_EQ(checkGroupValid(graph_, arch_, g, 4),
              name0 + ": partition count 2 != core group size 1");

    g = makeGroup();
    g.schemes[0].fd.weight = static_cast<DramSel>(arch_.dramCount + 1);
    EXPECT_EQ(checkGroupValid(graph_, arch_, g, 4),
              name0 + ": FD.weight must be in [0, " +
                  std::to_string(arch_.dramCount) + "], got " +
                  std::to_string(arch_.dramCount + 1));
}

TEST_F(ValidityTest, PartitionBeyondDimsRejected)
{
    LayerGroupMapping g = makeGroup();
    g.schemes[0].part = Partition{.h = 1, .w = 1, .b = 2, .k = 1};
    g.schemes[0].coreGroup = {0, 3}; // wait: 3 is used by layer 3
    g.schemes[0].coreGroup = {0};
    // b=2 > batchUnit=1 must fail even with matching count... count is 2
    // though; use a legal count but illegal cap:
    g.schemes[0].part = Partition{.h = 1, .w = 1, .b = 1, .k = 1};
    g.batchUnit = 1;
    g.schemes[0].part.b = 1;
    EXPECT_EQ(checkGroupValid(graph_, arch_, g, 4), "");
    g.batchUnit = 8; // batchUnit may not exceed batch (4)
    EXPECT_NE(checkGroupValid(graph_, arch_, g, 4), "");
}

TEST_F(ValidityTest, FdManagementRules)
{
    LayerGroupMapping g = makeGroup();
    // Layer 1 does not read the external input: managing IF is an error.
    g.schemes[1].fd.ifmap = 1;
    EXPECT_NE(checkGroupValid(graph_, arch_, g, 4), "");
    g = makeGroup();
    // Weight flow of a conv must be managed.
    g.schemes[0].fd.weight = kDramUnmanaged;
    EXPECT_NE(checkGroupValid(graph_, arch_, g, 4), "");
    g = makeGroup();
    // DRAM selector beyond D rejected.
    g.schemes[0].fd.weight = static_cast<DramSel>(arch_.dramCount + 1);
    EXPECT_NE(checkGroupValid(graph_, arch_, g, 4), "");
}

TEST_F(ValidityTest, NeedsOfmapDramRules)
{
    LayerGroupMapping g = makeGroup();
    // Interior layers have their consumer in-group: no OF management.
    EXPECT_FALSE(needsOfmapDram(graph_, g, 0));
    // The sink layer is a network output: OF required.
    EXPECT_TRUE(needsOfmapDram(graph_, g, 3));

    // Split the group: layer 1's consumer (2) leaves the group.
    LayerGroupMapping front;
    front.layers = {0, 1};
    EXPECT_TRUE(needsOfmapDram(graph_, front, 1));
    EXPECT_FALSE(needsOfmapDram(graph_, front, 0));
}

TEST_F(ValidityTest, MappingLevelChecks)
{
    LpMapping m;
    m.batch = 4;
    m.groups.push_back(makeGroup());
    EXPECT_EQ(checkMappingValid(graph_, arch_, m), "");

    // Unmapped layer detected.
    LpMapping partial = m;
    partial.groups[0].layers.pop_back();
    partial.groups[0].schemes.pop_back();
    EXPECT_NE(checkMappingValid(graph_, arch_, partial), "");

    // Batch unit must divide batch.
    LpMapping bad_bu = m;
    bad_bu.batch = 3;
    bad_bu.groups[0].batchUnit = 2;
    EXPECT_NE(checkMappingValid(graph_, arch_, bad_bu), "");
}

TEST_F(ValidityTest, OfmapDramLookup)
{
    LpMapping m;
    m.batch = 4;
    m.groups.push_back(makeGroup());
    m.groups[0].schemes[3].fd.ofmap = 2;
    EXPECT_EQ(m.ofmapDramOf(3), 2);
    EXPECT_EQ(m.groupOf(2), 0);
    EXPECT_EQ(m.groupOf(99), -1);
}

TEST(EncodingToString, ContainsAttributes)
{
    const dnn::Graph g = dnn::zoo::tinyConvChain(2);
    const arch::ArchConfig a = arch::tinyArch();
    const LayerGroupMapping group =
        stripeMapping(g, a, {0, 1, 2}, 1);
    const std::string s = toString(g, group);
    EXPECT_NE(s.find("Part("), std::string::npos);
    EXPECT_NE(s.find("CG("), std::string::npos);
    EXPECT_NE(s.find("FD("), std::string::npos);
}

// --------------------------------------------------------------- space --

TEST(SpaceSize, GrowsWithCoresAndLayers)
{
    const double s1 = log10SpaceSize(16, 4);
    const double s2 = log10SpaceSize(36, 4);
    const double s3 = log10SpaceSize(36, 8);
    EXPECT_LT(s1, s2);
    EXPECT_LT(s2, s3);
}

TEST(SpaceSize, VastlyExceedsTangram)
{
    // The headline claim of Sec. IV-B.
    for (std::int64_t m : {16, 36, 64}) {
        for (std::int64_t n : {2, 4, 8}) {
            EXPECT_GT(log10SpaceSize(m, n), log10TangramSpace(m, n) + 5.0)
                << "M=" << m << " N=" << n;
        }
    }
}

TEST(SpaceSize, TangramFormula)
{
    // N * p(M): 4 * p(36) = 4 * 17977.
    EXPECT_NEAR(log10TangramSpace(36, 4), std::log10(4.0 * 17977.0), 1e-9);
}

TEST(SpaceSize, SingleLayerSingleCore)
{
    // M=1, N=1: the sum degenerates; the space must be tiny but defined.
    const double s = log10SpaceSize(1, 1);
    EXPECT_TRUE(std::isfinite(s) || std::isinf(s));
}

} // namespace
} // namespace gemini::mapping
