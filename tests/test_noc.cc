/**
 * @file
 * Unit tests for the NoC model: XY routing, folded-torus shortest-wrap
 * routing, DRAM attach behaviour, D2D link classification, multicast-tree
 * deduplication and traffic summaries.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/arch/arch_config.hh"
#include "src/arch/presets.hh"
#include "src/noc/interconnect.hh"
#include "tests/link_traffic.hh"
#include "src/noc/traffic_map.hh"

namespace gemini::noc {
namespace {

arch::ArchConfig
mesh4x4(int xcut = 1, int ycut = 1)
{
    arch::ArchConfig a;
    a.xCores = 4;
    a.yCores = 4;
    a.xCut = xcut;
    a.yCut = ycut;
    a.nocBwGBps = 32.0;
    a.d2dBwGBps = 16.0;
    a.dramBwGBps = 64.0;
    a.dramCount = 2;
    return a;
}

TEST(TrafficMap, AddAndQuery)
{
    TrafficMap m;
    m.add(1, 2, 100.0);
    m.add(1, 2, 50.0);
    m.add(2, 1, 7.0);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 150.0);
    EXPECT_DOUBLE_EQ(m.at(2, 1), 7.0);
    EXPECT_DOUBLE_EQ(m.at(3, 4), 0.0);
    EXPECT_DOUBLE_EQ(m.totalBytes(), 157.0);
}

TEST(TrafficMap, ScaleAndMerge)
{
    TrafficMap a, b;
    a.add(0, 1, 10.0);
    b.add(0, 1, 5.0);
    b.add(1, 2, 3.0);
    a.scale(2.0);
    a.addFrom(b, 10.0);
    EXPECT_DOUBLE_EQ(a.at(0, 1), 70.0);
    EXPECT_DOUBLE_EQ(a.at(1, 2), 30.0);
}

TEST(TrafficMap, LinkKeyRoundTrip)
{
    const LinkKey k = makeLink(12345, 678);
    EXPECT_EQ(linkFrom(k), 12345);
    EXPECT_EQ(linkTo(k), 678);
}

TEST(NocModel, XyRoutingHopCount)
{
    InterconnectModel noc(mesh4x4());
    // (0,0) -> (3,2): 3 X hops + 2 Y hops.
    const auto &cfg = noc.config();
    EXPECT_EQ(noc.hopCount(cfg.coreAt(0, 0), cfg.coreAt(3, 2)), 5);
    EXPECT_EQ(noc.hopCount(cfg.coreAt(2, 2), cfg.coreAt(2, 2)), 0);
}

TEST(NocModel, XyRoutingGoesXFirst)
{
    InterconnectModel noc(mesh4x4());
    const auto &cfg = noc.config();
    std::vector<std::pair<NodeId, NodeId>> hops;
    noc.forEachHop(cfg.coreAt(0, 0), cfg.coreAt(2, 1),
                   [&](NodeId a, NodeId b) { hops.emplace_back(a, b); });
    ASSERT_EQ(hops.size(), 3u);
    // First two hops move along X at row 0.
    EXPECT_EQ(hops[0].second, cfg.coreAt(1, 0));
    EXPECT_EQ(hops[1].second, cfg.coreAt(2, 0));
    EXPECT_EQ(hops[2].second, cfg.coreAt(2, 1));
}

TEST(NocModel, TorusWrapsShortestDirection)
{
    arch::ArchConfig a = mesh4x4();
    a.topology = arch::Topology::FoldedTorus;
    InterconnectModel noc(a);
    // (0,0) -> (3,0): mesh needs 3 hops, torus wraps in 1.
    EXPECT_EQ(noc.hopCount(a.coreAt(0, 0), a.coreAt(3, 0)), 1);
    // (0,0) -> (2,0): forward 2 == backward 2, tie -> 2 hops either way.
    EXPECT_EQ(noc.hopCount(a.coreAt(0, 0), a.coreAt(2, 0)), 2);
    // Y wrap too.
    EXPECT_EQ(noc.hopCount(a.coreAt(0, 0), a.coreAt(0, 3)), 1);
}

TEST(NocModel, MeshNeverExceedsManhattan)
{
    InterconnectModel noc(mesh4x4());
    const auto &cfg = noc.config();
    for (CoreId s = 0; s < cfg.coreCount(); ++s) {
        for (CoreId d = 0; d < cfg.coreCount(); ++d) {
            const int manhattan = std::abs(cfg.coreX(s) - cfg.coreX(d)) +
                                  std::abs(cfg.coreY(s) - cfg.coreY(d));
            EXPECT_EQ(noc.hopCount(s, d), manhattan);
        }
    }
}

TEST(NocModel, DramEntersAtDestinationRow)
{
    InterconnectModel noc(mesh4x4());
    const auto &cfg = noc.config();
    // DRAM 0 (west) -> core (2,3): injection at (0,3), then 2 X hops.
    std::vector<std::pair<NodeId, NodeId>> hops;
    noc.forEachHop(noc.dramNode(0), cfg.coreAt(2, 3),
                   [&](NodeId a, NodeId b) { hops.emplace_back(a, b); });
    ASSERT_EQ(hops.size(), 3u);
    EXPECT_EQ(hops[0].first, noc.dramNode(0));
    EXPECT_EQ(hops[0].second, cfg.coreAt(0, 3));
    // DRAM 1 (east) enters at column 3.
    hops.clear();
    noc.forEachHop(noc.dramNode(1), cfg.coreAt(2, 0),
                   [&](NodeId a, NodeId b) { hops.emplace_back(a, b); });
    EXPECT_EQ(hops[0].second, cfg.coreAt(3, 0));
}

TEST(NocModel, CoreToDramExitsAtOwnRow)
{
    InterconnectModel noc(mesh4x4());
    const auto &cfg = noc.config();
    std::vector<std::pair<NodeId, NodeId>> hops;
    noc.forEachHop(cfg.coreAt(2, 1), noc.dramNode(0),
                   [&](NodeId a, NodeId b) { hops.emplace_back(a, b); });
    ASSERT_EQ(hops.size(), 3u);
    EXPECT_EQ(hops.back().second, noc.dramNode(0));
    EXPECT_EQ(hops.back().first, cfg.coreAt(0, 1));
}

TEST(NocModel, LinkKindDetectsD2d)
{
    InterconnectModel noc(mesh4x4(2, 1)); // two 2x4 chiplets
    const auto &cfg = noc.config();
    EXPECT_EQ(noc.linkKind(cfg.coreAt(0, 0), cfg.coreAt(1, 0)),
              LinkKind::OnChip);
    EXPECT_EQ(noc.linkKind(cfg.coreAt(1, 0), cfg.coreAt(2, 0)),
              LinkKind::D2D);
    // IO-chiplet attach is D2D on a multi-chiplet design...
    EXPECT_EQ(noc.linkKind(noc.dramNode(0), cfg.coreAt(0, 0)),
              LinkKind::D2D);
    // ...but on-chip for a monolithic one.
    InterconnectModel mono(mesh4x4(1, 1));
    EXPECT_EQ(mono.linkKind(mono.dramNode(0), cfg.coreAt(0, 0)),
              LinkKind::OnChip);
}

TEST(NocModel, LinkBandwidthFollowsKind)
{
    InterconnectModel noc(mesh4x4(2, 1));
    const auto &cfg = noc.config();
    EXPECT_DOUBLE_EQ(noc.linkBandwidthBps(cfg.coreAt(0, 0),
                                          cfg.coreAt(1, 0)),
                     32.0e9);
    EXPECT_DOUBLE_EQ(noc.linkBandwidthBps(cfg.coreAt(1, 0),
                                          cfg.coreAt(2, 0)),
                     16.0e9);
}

TEST(NocModel, UnicastAccumulatesAlongPath)
{
    InterconnectModel noc(mesh4x4());
    const auto &cfg = noc.config();
    TrafficMap map;
    noc.unicastLinks(cfg.coreAt(0, 0), cfg.coreAt(2, 0), 100.0,
                     addTo(map, noc, 100.0));
    EXPECT_DOUBLE_EQ(map.at(cfg.coreAt(0, 0), cfg.coreAt(1, 0)), 100.0);
    EXPECT_DOUBLE_EQ(map.at(cfg.coreAt(1, 0), cfg.coreAt(2, 0)), 100.0);
    EXPECT_EQ(map.linkCount(), 2u);
}

TEST(NocModel, MulticastChargesSharedTrunkOnce)
{
    InterconnectModel noc(mesh4x4());
    const auto &cfg = noc.config();
    TrafficMap map;
    // Destinations share the horizontal trunk (0,0)->(2,0).
    noc.multicastLinks(cfg.coreAt(0, 0), {cfg.coreAt(2, 1), cfg.coreAt(2, 2)},
                       10.0, addTo(map, noc, 10.0));
    EXPECT_DOUBLE_EQ(map.at(cfg.coreAt(0, 0), cfg.coreAt(1, 0)), 10.0);
    EXPECT_DOUBLE_EQ(map.at(cfg.coreAt(1, 0), cfg.coreAt(2, 0)), 10.0);
    EXPECT_DOUBLE_EQ(map.at(cfg.coreAt(2, 0), cfg.coreAt(2, 1)), 10.0);
    EXPECT_DOUBLE_EQ(map.at(cfg.coreAt(2, 1), cfg.coreAt(2, 2)), 10.0);
    // Total = 4 links x 10 bytes, not 7 (3+4 unicast).
    EXPECT_DOUBLE_EQ(map.totalBytes(), 40.0);
}

TEST(NocModel, MulticastEqualsUnionOfUnicastLinks)
{
    InterconnectModel noc(mesh4x4());
    const auto &cfg = noc.config();
    const std::vector<NodeId> dsts{cfg.coreAt(3, 3), cfg.coreAt(3, 0),
                                   cfg.coreAt(1, 2)};
    TrafficMap mc;
    noc.multicastLinks(cfg.coreAt(0, 1), dsts, 1.0, addTo(mc, noc, 1.0));
    TrafficMap uni;
    for (NodeId d : dsts)
        noc.unicastLinks(cfg.coreAt(0, 1), d, 1.0, addTo(uni, noc, 1.0));
    // Every multicast link appears in the unicast union with load 1.
    for (const auto &[key, bytes] : mc.links()) {
        EXPECT_DOUBLE_EQ(bytes, 1.0);
        EXPECT_GE(uni.at(linkFrom(key), linkTo(key)), 1.0);
    }
    EXPECT_LE(mc.totalBytes(), uni.totalBytes());
}

TEST(NocModel, SummarizeSplitsD2dBytes)
{
    InterconnectModel noc(mesh4x4(2, 1));
    const auto &cfg = noc.config();
    TrafficMap map;
    noc.unicastLinks(cfg.coreAt(0, 0), cfg.coreAt(3, 0), 8.0,
                     addTo(map, noc, 8.0)); // 1 D2D hop
    const TrafficStats stats = noc.summarize(map);
    EXPECT_DOUBLE_EQ(stats.d2dBytes, 8.0);
    EXPECT_DOUBLE_EQ(stats.onChipBytes, 16.0);
    // Bottleneck is the D2D link: 8 bytes / 16 GB/s.
    EXPECT_DOUBLE_EQ(stats.maxLinkSeconds, 8.0 / 16.0e9);
}

TEST(NocModel, NodeLabels)
{
    InterconnectModel noc(mesh4x4());
    EXPECT_EQ(noc.nodeLabel(noc.config().coreAt(2, 3)), "(2,3)");
    EXPECT_EQ(noc.nodeLabel(noc.dramNode(1)), "DRAM#2");
}

TEST(NocModel, SimbaScaleGeometry)
{
    InterconnectModel noc(arch::simbaArch());
    // 36 cores + 2 DRAM nodes.
    EXPECT_EQ(noc.nodeCount(), 38);
    // Every hop between distinct cores crosses a chiplet boundary (each
    // chiplet has exactly one core).
    const auto &cfg = noc.config();
    EXPECT_EQ(noc.linkKind(cfg.coreAt(0, 0), cfg.coreAt(1, 0)),
              LinkKind::D2D);
}

} // namespace
} // namespace gemini::noc
