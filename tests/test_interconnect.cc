/**
 * @file
 * Tests for the pluggable interconnect seam: differential routing checks
 * across mesh / folded torus / concentrated ring / NoP+NoC hierarchy
 * (hop counts, route-path contiguity, prefix-closed routes,
 * multicast-union byte conservation and emission order against a naive
 * route walk, the interleaved DRAM spans, DRAM attach symmetry, the
 * link-id table), bit-exactness of mesh results against goldens
 * captured from the pre-refactor monolithic analyzer, CostStack layering
 * invariants, and the topology axis end-to-end through runDse.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "src/arch/presets.hh"
#include "src/common/rng.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/zoo.hh"
#include "src/dse/dse.hh"
#include "src/mapping/engine.hh"
#include "src/noc/interconnect.hh"
#include "tests/link_traffic.hh"
#include "src/noc/topologies.hh"

namespace gemini {
namespace {

using noc::InterconnectModel;
using noc::LinkKind;
using noc::NodeId;
using noc::TrafficMap;

arch::ArchConfig
grid4x4(arch::Topology topo, int xcut = 1, int ycut = 1)
{
    arch::ArchConfig a;
    a.xCores = 4;
    a.yCores = 4;
    a.xCut = xcut;
    a.yCut = ycut;
    a.topology = topo;
    a.nocBwGBps = 32.0;
    a.d2dBwGBps = 16.0;
    a.dramBwGBps = 64.0;
    a.dramCount = 2;
    return a;
}

/** Every route is a contiguous src -> dst walk over existing nodes. */
void
expectRoutesContiguous(const InterconnectModel &icn)
{
    for (NodeId s = 0; s < icn.nodeCount(); ++s) {
        for (NodeId d = 0; d < icn.nodeCount(); ++d) {
            if (icn.isDramNode(s) && icn.isDramNode(d))
                continue; // undefined pair
            const auto span = icn.route(s, d);
            if (s == d) {
                EXPECT_TRUE(span.empty());
                continue;
            }
            ASSERT_FALSE(span.empty())
                << "no route " << icn.nodeLabel(s) << " -> "
                << icn.nodeLabel(d);
            EXPECT_EQ(noc::linkFrom(icn.linkAt(span.front())), s);
            EXPECT_EQ(noc::linkTo(icn.linkAt(span.back())), d);
            for (std::size_t i = 1; i < span.size(); ++i)
                EXPECT_EQ(noc::linkTo(icn.linkAt(span[i - 1])),
                          noc::linkFrom(icn.linkAt(span[i])));
        }
    }
}

TEST(InterconnectSeam, AllBackendsRouteContiguously)
{
    for (arch::Topology t : arch::kAllTopologies) {
        SCOPED_TRACE(arch::topologyName(t));
        expectRoutesContiguous(InterconnectModel(grid4x4(t, 2, 2)));
        expectRoutesContiguous(InterconnectModel(grid4x4(t)));
    }
}

TEST(InterconnectSeam, DifferentialHopCounts)
{
    const arch::ArchConfig mesh_cfg = grid4x4(arch::Topology::Mesh);
    InterconnectModel mesh(mesh_cfg);
    InterconnectModel torus(grid4x4(arch::Topology::FoldedTorus));
    InterconnectModel ring(grid4x4(arch::Topology::ConcentratedRing));

    const auto at = [&](int x, int y) { return mesh_cfg.coreAt(x, y); };

    // Same-row traffic: the ring moves along the row exactly like the mesh.
    EXPECT_EQ(ring.hopCount(at(0, 1), at(3, 1)),
              mesh.hopCount(at(0, 1), at(3, 1)));

    // Cross-row traffic concentrates through the column-0 ring stops:
    // (3,1) -> (3,2) is 1 mesh hop but 3 + 1 + 3 ring hops.
    EXPECT_EQ(mesh.hopCount(at(3, 1), at(3, 2)), 1);
    EXPECT_EQ(ring.hopCount(at(3, 1), at(3, 2)), 7);

    // The ring wraps where the mesh cannot: (0,0) -> (0,3) in one hop.
    EXPECT_EQ(mesh.hopCount(at(0, 0), at(0, 3)), 3);
    EXPECT_EQ(ring.hopCount(at(0, 0), at(0, 3)), 1);
    EXPECT_EQ(torus.hopCount(at(0, 0), at(0, 3)), 1);

    // Torus wraps both dimensions; the ring only concentrates rows.
    EXPECT_EQ(torus.hopCount(at(0, 0), at(3, 0)), 1);
    EXPECT_EQ(ring.hopCount(at(0, 0), at(3, 0)), 3);
}

TEST(InterconnectSeam, HierarchyFunnelsThroughGateways)
{
    const arch::ArchConfig cfg =
        grid4x4(arch::Topology::HierarchicalNop, 2, 2);
    InterconnectModel nop(cfg);
    InterconnectModel mesh(grid4x4(arch::Topology::Mesh, 2, 2));
    const auto at = [&](int x, int y) { return cfg.coreAt(x, y); };

    // Intra-chiplet traffic is plain XY.
    EXPECT_EQ(nop.hopCount(at(0, 0), at(1, 1)), 2);

    // Cross-chiplet: local to gateway (0,0 is already chiplet 0's
    // gateway), one NoP hop per chiplet-grid step (2 here), then local
    // XY from chiplet 3's gateway (2,2) to (3,3).
    EXPECT_EQ(nop.hopCount(at(0, 0), at(3, 3)), 4);
    EXPECT_EQ(mesh.hopCount(at(0, 0), at(3, 3)), 6);

    // Every cross-chiplet route uses gateway-to-gateway NoP links, which
    // classify as D2D even though they connect non-adjacent cores.
    bool saw_nop_link = false;
    nop.forEachHop(at(1, 1), at(3, 3), [&](NodeId a, NodeId b) {
        if (nop.linkKind(a, b) == LinkKind::D2D) {
            saw_nop_link = true;
            // NoP links connect the chiplet gateways: (0,0) and (2,2)
            // column/row corners in this 2x2-cut geometry.
            EXPECT_EQ(cfg.coreX(static_cast<CoreId>(a)) % 2, 0);
            EXPECT_EQ(cfg.coreY(static_cast<CoreId>(a)) % 2, 0);
        }
    });
    EXPECT_TRUE(saw_nop_link);

    // Monolithic hierarchy degenerates to the mesh.
    InterconnectModel mono_nop(grid4x4(arch::Topology::HierarchicalNop));
    InterconnectModel mono_mesh(grid4x4(arch::Topology::Mesh));
    for (NodeId s = 0; s < mono_nop.nodeCount(); ++s)
        for (NodeId d = 0; d < mono_nop.nodeCount(); ++d) {
            if (mono_nop.isDramNode(s) && mono_nop.isDramNode(d))
                continue;
            EXPECT_EQ(mono_nop.hopCount(s, d), mono_mesh.hopCount(s, d));
        }
}

TEST(InterconnectSeam, MulticastUnionByteConservation)
{
    // On every backend, a multicast charges each union link exactly the
    // payload once: per-link load equals the payload, the union total
    // never exceeds the unicast sum, and single-destination multicast
    // equals unicast.
    for (arch::Topology t : arch::kAllTopologies) {
        SCOPED_TRACE(arch::topologyName(t));
        const arch::ArchConfig cfg = grid4x4(t, 2, 2);
        InterconnectModel icn(cfg);
        const std::vector<NodeId> dsts{cfg.coreAt(3, 3), cfg.coreAt(3, 0),
                                       cfg.coreAt(1, 2)};
        TrafficMap mc;
        icn.multicastLinks(cfg.coreAt(0, 1), dsts, 1.0,
                           noc::addTo(mc, icn, 1.0));
        TrafficMap uni;
        for (NodeId d : dsts)
            icn.unicastLinks(cfg.coreAt(0, 1), d, 1.0,
                             noc::addTo(uni, icn, 1.0));
        ASSERT_FALSE(mc.empty());
        for (const auto &[key, bytes] : mc.links()) {
            EXPECT_DOUBLE_EQ(bytes, 1.0);
            EXPECT_GE(uni.at(noc::linkFrom(key), noc::linkTo(key)), 1.0);
        }
        EXPECT_LE(mc.totalBytes(), uni.totalBytes());

        TrafficMap one_mc, one_uni;
        icn.multicastLinks(cfg.coreAt(0, 1), {cfg.coreAt(3, 3)}, 2.0,
                           noc::addTo(one_mc, icn, 2.0));
        icn.unicastLinks(cfg.coreAt(0, 1), cfg.coreAt(3, 3), 2.0,
                         noc::addTo(one_uni, icn, 2.0));
        EXPECT_DOUBLE_EQ(one_mc.totalBytes(), one_uni.totalBytes());
    }
}

TEST(InterconnectSeam, DramAttachSymmetry)
{
    // DRAM->core and core->DRAM routes mirror each other in length on
    // every backend, and terminate on the DRAM pseudo-node.
    for (arch::Topology t : arch::kAllTopologies) {
        SCOPED_TRACE(arch::topologyName(t));
        const arch::ArchConfig cfg = grid4x4(t, 2, 2);
        InterconnectModel icn(cfg);
        for (int d = 0; d < cfg.dramCount; ++d) {
            const NodeId dram = icn.dramNode(d);
            for (CoreId c = 0; c < cfg.coreCount(); ++c) {
                EXPECT_EQ(icn.hopCount(dram, c), icn.hopCount(c, dram));
                const auto in = icn.route(dram, c);
                const auto out = icn.route(c, dram);
                ASSERT_FALSE(in.empty());
                EXPECT_EQ(noc::linkFrom(icn.linkAt(in.front())), dram);
                EXPECT_EQ(noc::linkTo(icn.linkAt(out.back())), dram);
            }
        }
    }
}

TEST(InterconnectSeam, TemplateForEachHopMatchesRouteSpan)
{
    InterconnectModel icn(grid4x4(arch::Topology::ConcentratedRing, 2, 1));
    const NodeId src = 1, dst = 14;
    std::vector<noc::LinkKey> walked;
    icn.forEachHop(src, dst, [&](NodeId a, NodeId b) {
        walked.push_back(noc::makeLink(a, b));
    });
    const auto span = icn.route(src, dst);
    ASSERT_EQ(walked.size(), span.size());
    for (std::size_t i = 0; i < walked.size(); ++i)
        EXPECT_EQ(walked[i], icn.linkAt(span[i]));
    EXPECT_EQ(icn.hopCount(src, dst), static_cast<int>(span.size()));
}

/**
 * The link-id table: ids rise strictly with from * nodeCount() + to,
 * every route's id span decodes to the hops the backend walks, kinds
 * match the geometric classification, and exactly the links some route
 * uses get an id.
 */
void
expectLinkIdTable(const InterconnectModel &icn)
{
    const auto n = static_cast<std::size_t>(icn.nodeCount());
    const auto slotOf = [n](noc::LinkKey key) {
        return static_cast<std::size_t>(noc::linkFrom(key)) * n +
               static_cast<std::size_t>(noc::linkTo(key));
    };
    for (noc::LinkId id = 0; id < icn.linkCount(); ++id) {
        const noc::LinkKey key = icn.linkAt(id);
        if (id > 0)
            ASSERT_LT(slotOf(icn.linkAt(id - 1)), slotOf(key))
                << icn.config().name << " id " << id;
        ASSERT_EQ(icn.linkKindAt(id),
                  icn.linkKind(noc::linkFrom(key), noc::linkTo(key)))
            << icn.config().name << " id " << id;
    }
    const auto backend = noc::topo::makeBackend(icn.config());
    std::vector<bool> used(n * n, false);
    std::size_t distinct = 0;
    std::vector<noc::LinkKey> walked;
    for (NodeId s = 0; s < icn.nodeCount(); ++s) {
        for (NodeId d = 0; d < icn.nodeCount(); ++d) {
            if (icn.isDramNode(s) && icn.isDramNode(d))
                continue;
            walked.clear();
            std::visit(
                [&](const auto &b) {
                    b.walkHops(icn.config(), s, d, [&](NodeId a, NodeId z) {
                        walked.push_back(noc::makeLink(a, z));
                    });
                },
                backend);
            const auto ids = icn.route(s, d);
            ASSERT_EQ(ids.size(), walked.size());
            for (std::size_t h = 0; h < walked.size(); ++h) {
                ASSERT_LT(ids[h], icn.linkCount());
                ASSERT_EQ(icn.linkAt(ids[h]), walked[h])
                    << icn.config().name << " " << s << "->" << d
                    << " hop " << h;
                if (!used[slotOf(walked[h])]) {
                    used[slotOf(walked[h])] = true;
                    ++distinct;
                }
            }
        }
    }
    EXPECT_EQ(icn.linkCount(), distinct) << icn.config().name;
}

TEST(InterconnectSeam, LinkIdsNumberRouteLinksInKeyOrder)
{
    const arch::Topology topologies[] = {
        arch::Topology::Mesh, arch::Topology::FoldedTorus,
        arch::Topology::ConcentratedRing, arch::Topology::HierarchicalNop};
    for (arch::Topology topo : topologies) {
        arch::ArchConfig g72 = arch::gArch72();
        g72.topology = topo;
        arch::ArchConfig mono = g72;
        mono.name = "monolithic";
        mono.xCut = 1;
        mono.yCut = 1;
        arch::ArchConfig dram3 = g72;
        dram3.name = "dram3";
        dram3.dramCount = 3;
        for (const arch::ArchConfig &cfg :
             {g72, mono, dram3, arch::largeGridArch(topo)}) {
            SCOPED_TRACE(cfg.name + " " + arch::topologyName(topo));
            expectLinkIdTable(InterconnectModel(cfg));
        }
    }
}

/**
 * Every route is prefix-closed: for every node v a route s -> d passes
 * through, route(s, v) is exactly that route's prefix up to v. This is
 * what lets multicastLinks stamp and emit only a destination's new route
 * suffix; a backend that breaks it must fail here. (It also makes every
 * route a simple path that never returns to its source.)
 */
void
expectRoutesPrefixClosed(const InterconnectModel &icn)
{
    for (NodeId s = 0; s < icn.nodeCount(); ++s) {
        for (NodeId d = 0; d < icn.nodeCount(); ++d) {
            if (icn.isDramNode(s) && icn.isDramNode(d))
                continue;
            const auto span = icn.route(s, d);
            for (std::size_t h = 0; h < span.size(); ++h) {
                const NodeId v = noc::linkTo(icn.linkAt(span[h]));
                ASSERT_FALSE(icn.isDramNode(s) && icn.isDramNode(v))
                    << icn.config().name << " " << s << "->" << d
                    << " passes DRAM node " << v;
                const auto prefix = icn.route(s, v);
                ASSERT_TRUE(prefix.size() == h + 1 &&
                            std::equal(prefix.begin(), prefix.end(),
                                       span.begin()))
                    << icn.config().name << " " << s << "->" << d
                    << " is not prefix-closed at hop " << h << " (node "
                    << v << ")";
            }
        }
    }
}

TEST(InterconnectSeam, RoutesArePrefixClosed)
{
    struct Grid
    {
        int x, y;
    };
    const Grid grids[] = {{1, 6}, {6, 1}, {4, 4}, {6, 6}, {8, 4}};
    const int dram_counts[] = {1, 2, 3, 8};
    for (arch::Topology t : arch::kAllTopologies) {
        SCOPED_TRACE(arch::topologyName(t));
        expectRoutesPrefixClosed(InterconnectModel(arch::largeGridArch(t)));
        for (const Grid &g : grids) {
            // Monolithic, a two-way cut where it divides, and one core
            // per chiplet.
            const Grid cuts[] = {{1, 1},
                                 {g.x % 2 == 0 ? 2 : 1, g.y % 2 == 0 ? 2 : 1},
                                 {g.x, g.y}};
            for (const Grid &cut : cuts) {
                for (int drams : dram_counts) {
                    arch::ArchConfig cfg = grid4x4(t, cut.x, cut.y);
                    cfg.xCores = g.x;
                    cfg.yCores = g.y;
                    cfg.dramCount = drams;
                    cfg.name = std::to_string(g.x) + "x" +
                               std::to_string(g.y) + "/" +
                               std::to_string(cut.x) + "x" +
                               std::to_string(cut.y) + "/dram" +
                               std::to_string(drams);
                    ASSERT_EQ(cfg.validate(), "") << cfg.name;
                    expectRoutesPrefixClosed(InterconnectModel(cfg));
                }
            }
        }
    }
}

/**
 * multicastLinks emits exactly the naive union walk: every destination's
 * whole route in hop order, each link the first time it is met. The
 * destination lists are random, with duplicates and the source itself.
 */
void
expectMulticastMatchesNaiveUnion(const InterconnectModel &icn,
                                 std::uint64_t seed)
{
    Rng rng(seed);
    const int cores = icn.config().coreCount();
    for (int trial = 0; trial < 200; ++trial) {
        const bool from_dram = rng.nextBool(0.5);
        const NodeId src =
            from_dram ? icn.dramNode(static_cast<int>(
                            rng.nextRange(0, icn.config().dramCount - 1)))
                      : static_cast<NodeId>(rng.nextRange(0, cores - 1));
        std::vector<NodeId> dsts(
            static_cast<std::size_t>(rng.nextRange(1, 2 * cores)));
        for (NodeId &dst : dsts)
            dst = static_cast<NodeId>(rng.nextRange(0, cores - 1));
        if (!from_dram)
            dsts[static_cast<std::size_t>(rng.nextRange(
                0, static_cast<std::int64_t>(dsts.size()) - 1))] = src;
        if (rng.nextBool(0.5))
            std::sort(dsts.begin(), dsts.end());

        std::vector<noc::LinkId> want;
        std::vector<bool> seen(icn.linkCount(), false);
        for (NodeId dst : dsts) {
            for (noc::LinkId id : icn.route(src, dst)) {
                if (!seen[id]) {
                    seen[id] = true;
                    want.push_back(id);
                }
            }
        }
        std::vector<noc::LinkId> got;
        icn.multicastLinks(src, dsts, 1.0,
                           [&](noc::LinkId id) { got.push_back(id); });
        ASSERT_EQ(got, want) << icn.config().name << " trial " << trial;
    }
}

/** The interleaved spans are the per-DRAM routes concatenated in order. */
void
expectInterleavedSpansConcatenateRoutes(const InterconnectModel &icn)
{
    for (CoreId c = 0; c < icn.config().coreCount(); ++c) {
        std::vector<noc::LinkId> reads, writes;
        for (int d = 0; d < icn.config().dramCount; ++d) {
            for (noc::LinkId id : icn.route(icn.dramNode(d), c))
                reads.push_back(id);
            for (noc::LinkId id : icn.route(c, icn.dramNode(d)))
                writes.push_back(id);
        }
        const auto from = icn.routesFromAllDrams(c);
        const auto to = icn.routesToAllDrams(c);
        ASSERT_EQ(std::vector<noc::LinkId>(from.begin(), from.end()), reads)
            << icn.config().name << " core " << c;
        ASSERT_EQ(std::vector<noc::LinkId>(to.begin(), to.end()), writes)
            << icn.config().name << " core " << c;
    }
}

TEST(InterconnectSeam, EmissionMatchesNaiveRouteWalk)
{
    std::uint64_t seed = 0x5AF1Fu;
    for (arch::Topology t : arch::kAllTopologies) {
        SCOPED_TRACE(arch::topologyName(t));
        arch::ArchConfig g72 = arch::gArch72();
        g72.topology = t;
        arch::ArchConfig dram3 = g72;
        dram3.name = "dram3";
        dram3.dramCount = 3;
        arch::ArchConfig single = grid4x4(t, 4, 4);
        single.name = "one_core_per_chiplet";
        single.dramCount = 1;
        for (const arch::ArchConfig &cfg :
             {g72, dram3, single, arch::largeGridArch(t)}) {
            const InterconnectModel icn(cfg);
            expectMulticastMatchesNaiveUnion(icn, ++seed);
            expectInterleavedSpansConcatenateRoutes(icn);
        }
    }
}

// ---------------------------------------------------------------------------
// Mesh bit-exactness goldens. The hexfloat values below were captured from
// the pre-refactor monolithic Analyzer + NocModel (commit efc3794) and must
// keep reproducing exactly: the seam and the staged pipeline are pure
// refactors of the mesh/torus evaluation path.
// ---------------------------------------------------------------------------

TEST(MeshGoldens, TMapResidualOnGArch72BitExact)
{
    dnn::Graph g = dnn::zoo::tinyResidual();
    mapping::MappingOptions mo;
    mo.batch = 8;
    mo.runSa = false;
    mapping::MappingEngine eng(g, arch::gArch72(), mo);
    const eval::EvalBreakdown t = eng.run().total;
    EXPECT_EQ(t.delay, 0x1.01b2b29a4692cp-16);
    EXPECT_EQ(t.intraTileEnergy, 0x1.5f971f1189fp-14);
    EXPECT_EQ(t.nocEnergy, 0x1.e75e99221ccc8p-19);
    EXPECT_EQ(t.d2dEnergy, 0x1.5f5cd8e50e07fp-17);
    EXPECT_EQ(t.dramEnergy, 0x1.21dbd73a6e82ap-16);
    EXPECT_EQ(t.dramBytes, 0x1.5f8p+18);
    EXPECT_EQ(t.hopBytes, 0x1.aa3p+22);
    EXPECT_EQ(t.d2dHopBytes, 0x1.3f9p+20);
}

TEST(MeshGoldens, TMapInceptionOnSimbaBitExact)
{
    dnn::Graph g = dnn::zoo::tinyInception();
    mapping::MappingOptions mo;
    mo.batch = 4;
    mo.runSa = false;
    mapping::MappingEngine eng(g, arch::simbaArch(), mo);
    const eval::EvalBreakdown t = eng.run().total;
    EXPECT_EQ(t.delay, 0x1.e64f5a8bed644p-17);
    EXPECT_EQ(t.intraTileEnergy, 0x1.10acdc115335bp-15);
    EXPECT_EQ(t.nocEnergy, 0x0p+0);
    EXPECT_EQ(t.d2dEnergy, 0x1.b5a9e256db1d3p-15);
    EXPECT_EQ(t.dramEnergy, 0x1.2935a7a6a0aap-14);
    EXPECT_EQ(t.dramBytes, 0x1.686ap+20);
}

TEST(MeshGoldens, SaRunOnTinyArchBitExact)
{
    // Covers the whole SA walk (seeded Metropolis chain, incremental cost,
    // fragment caches): any deviation in analysis numerics would change
    // accept/reject decisions and the final cost.
    dnn::Graph g = dnn::zoo::tinyConvChain(4);
    mapping::MappingOptions mo;
    mo.batch = 2;
    mo.runSa = true;
    mo.sa.iterations = 300;
    mapping::MappingEngine eng(g, arch::tinyArch(), mo);
    const mapping::MappingResult res = eng.run();
    EXPECT_EQ(res.total.delay, 0x1.3dd602084b86ap-14);
    EXPECT_EQ(res.saStats.finalCost, 0x1.294c5751dc508p-28);
}

// ---------------------------------------------------------------------------
// CostStack layering
// ---------------------------------------------------------------------------

TEST(CostStack, NopSerializationTermOnlyOnHierarchy)
{
    arch::ArchConfig mesh_cfg = arch::gArch72();
    arch::ArchConfig nop_cfg = mesh_cfg;
    nop_cfg.topology = arch::Topology::HierarchicalNop;
    const arch::TechParams tech;
    const cost::CostStack mesh_stack(mesh_cfg, tech);
    const cost::CostStack nop_stack(nop_cfg, tech);

    EXPECT_DOUBLE_EQ(mesh_stack.d2dJ(1.0), tech.d2dJPerByte);
    EXPECT_DOUBLE_EQ(nop_stack.d2dJ(1.0),
                     tech.d2dJPerByte + tech.nopSerializationJPerByte);
    // The other terms are topology-independent.
    EXPECT_DOUBLE_EQ(mesh_stack.onChipJ(2.0), nop_stack.onChipJ(2.0));
    EXPECT_DOUBLE_EQ(mesh_stack.dramJ(2.0), nop_stack.dramJ(2.0));
}

TEST(CostStack, SaCostMatchesSaEngineWrapper)
{
    eval::EvalBreakdown a;
    a.intraTileEnergy = 3.0;
    a.delay = 2.0;
    eval::EvalBreakdown b;
    b.intraTileEnergy = 1.0;
    b.delay = 1.0;
    b.glbOverflow = 1.0; // penalty 4x
    const std::vector<eval::EvalBreakdown> groups{a, b};
    EXPECT_DOUBLE_EQ(cost::CostStack::saCost(groups, 1.0, 1.0),
                     mapping::SaEngine::cost(groups, 1.0, 1.0));
    EXPECT_DOUBLE_EQ(cost::CostStack::saCost(groups, 1.0, 1.0),
                     (3.0 + 4.0) * (2.0 + 4.0));
}

TEST(CostStack, LowerBoundIsBelowAchievedObjectiveOnEveryTopology)
{
    dnn::Graph g = dnn::zoo::tinyConvChain(3);
    for (arch::Topology t : arch::kAllTopologies) {
        SCOPED_TRACE(arch::topologyName(t));
        arch::ArchConfig cfg = arch::gArch72();
        cfg.topology = t;
        const cost::CostStack stack(cfg);
        const double mc_total = stack.mcBreakdown().total();

        mapping::MappingOptions mo;
        mo.batch = 4;
        mo.runSa = false;
        mapping::MappingEngine eng(g, cfg, mo);
        const eval::EvalBreakdown total = eng.run().total;
        const double achieved = cost::CostStack::dseObjective(
            mc_total, total.totalEnergy(), total.delay, 1.0, 1.0, 1.0);
        const double bound = stack.dseObjectiveLowerBound(
            {&g}, mo.batch, mc_total, 1.0, 1.0, 1.0);
        EXPECT_GT(bound, 0.0);
        EXPECT_LE(bound, achieved);
    }
}

// ---------------------------------------------------------------------------
// Topology as a DSE candidate axis, end to end
// ---------------------------------------------------------------------------

TEST(TopologyAxis, EnumerationCoversEveryBackend)
{
    dse::DseAxes axes = dse::DseAxes::paper72();
    axes.withAllTopologies();
    axes.dramGBpsPerTops = {1.0};
    axes.nocGBps = {32};
    axes.d2dRatio = {0.5};
    axes.glbKiB = {2048};
    axes.macsPerCore = {1024};
    const auto candidates = dse::enumerateCandidates(axes);
    std::set<arch::Topology> seen;
    std::set<arch::Topology> mono;
    for (const auto &cfg : candidates) {
        seen.insert(cfg.topology);
        if (cfg.chipletCount() == 1)
            mono.insert(cfg.topology);
    }
    EXPECT_EQ(seen.size(), 4u);
    // Monolithic NoP+NoC duplicates the mesh and is skipped.
    EXPECT_EQ(mono.count(arch::Topology::HierarchicalNop), 0u);
}

TEST(TopologyAxis, RunDseRacesAllTopologiesEndToEnd)
{
    dse::DseAxes axes = dse::DseAxes::paper72();
    axes.withAllTopologies();
    axes.xCuts = {2};
    axes.yCuts = {1, 2};
    axes.dramGBpsPerTops = {1.0};
    axes.nocGBps = {32};
    axes.d2dRatio = {0.5};
    axes.glbKiB = {2048};
    axes.macsPerCore = {2048};

    dnn::Graph g = dnn::zoo::tinyConvChain(3);
    dse::DseOptions o;
    o.axes = axes;
    o.models = {&g};
    o.mapping.batch = 4;
    o.mapping.sa.iterations = 40;
    o.threads = 2;
    o.schedule.enabled = true;
    o.schedule.rungs = 1;
    o.schedule.baseIters = 16;

    const dse::DseResult res = dse::runDse(o);
    ASSERT_GE(res.records.size(), 8u);
    std::set<arch::Topology> evaluated;
    for (const auto &rec : res.records) {
        EXPECT_TRUE(std::isfinite(rec.objectiveLowerBound));
        if (rec.rungReached >= 0)
            evaluated.insert(rec.arch.topology);
    }
    EXPECT_EQ(evaluated.size(), 4u); // every backend screened end-to-end
    EXPECT_TRUE(res.best().feasible);
    EXPECT_TRUE(std::isfinite(res.best().objective));
}

} // namespace
} // namespace gemini
