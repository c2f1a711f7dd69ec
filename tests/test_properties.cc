/**
 * @file
 * Property-based tests (parameterized gtest): invariants that must hold
 * over randomized inputs — operator closure (any operator sequence keeps a
 * mapping valid), partition coverage, correspondence bijectivity, routing
 * conservation, multicast never exceeding unicast, and evaluator
 * monotonicities.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>

#include "src/arch/presets.hh"
#include "src/common/math_util.hh"
#include "src/common/rng.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/operators.hh"
#include "src/mapping/stripe.hh"
#include "src/noc/interconnect.hh"
#include "tests/link_traffic.hh"

namespace gemini {
namespace {

// ---------------------------------------------------- operator closure --

/** Seeds drive the whole random trajectory of each property instance. */
class OperatorClosureP : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OperatorClosureP, LongRandomWalkKeepsGroupValid)
{
    const dnn::Graph graph = dnn::zoo::tinyInception();
    arch::ArchConfig arch = arch::tinyArch();
    arch.xCores = 4;
    arch.yCores = 2;
    std::vector<LayerId> layers;
    for (std::size_t i = 0; i < graph.size(); ++i)
        layers.push_back(static_cast<LayerId>(i));
    mapping::LayerGroupMapping group =
        mapping::stripeMapping(graph, arch, layers, 2);

    Rng rng(GetParam());
    for (int step = 0; step < 400; ++step) {
        const auto op = static_cast<mapping::SaOperator>(
            rng.nextInt(mapping::kNumSaOperators));
        mapping::applyOperator(op, group, graph, arch, rng);
        // Validity after EVERY step, not just at the end.
        ASSERT_EQ(mapping::checkGroupValid(graph, arch, group, 4), "")
            << "step " << step << " op " << mapping::saOperatorName(op);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorClosureP,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// ----------------------------------------------- partition coverage ----

struct PartitionCase
{
    std::int64_t k, h, w, bu;
    std::int64_t cores;
};

class PartitionCoverageP : public ::testing::TestWithParam<PartitionCase>
{
};

TEST_P(PartitionCoverageP, EveryFactorizationTilesExactly)
{
    const PartitionCase c = GetParam();
    dnn::Layer l;
    l.k = c.k;
    l.h = c.h;
    l.w = c.w;
    std::vector<Factor4> cands;
    forEachFactorization4(c.cores, {c.h, c.w, c.bu, c.k},
                          [&](const Factor4 &f) {
                              cands.push_back(f);
                              return true;
                          });
    for (const auto &f : cands) {
        const mapping::Partition p{f[0], f[1], f[2], f[3]};
        std::int64_t vol = 0;
        std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t,
                            std::int64_t, std::int64_t, std::int64_t>>
            boxes;
        for (std::int64_t nid = 0; nid < p.count(); ++nid) {
            const auto wr =
                mapping::workRegionOf(l, p, c.bu, workIndexOf(p, nid));
            ASSERT_GT(wr.volume(), 0);
            vol += wr.volume();
            boxes.insert({wr.region.c0, wr.region.c1, wr.region.h0,
                          wr.region.h1, wr.region.w0, wr.b0});
        }
        // Exact cover: volumes sum to the cube, and no two workloads get
        // the same box.
        EXPECT_EQ(vol, c.k * c.h * c.w * c.bu);
        EXPECT_EQ(boxes.size(), static_cast<std::size_t>(p.count()));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionCoverageP,
    ::testing::Values(PartitionCase{8, 4, 4, 2, 4},
                      PartitionCase{7, 5, 3, 2, 6},
                      PartitionCase{16, 7, 7, 1, 8},
                      PartitionCase{64, 14, 14, 4, 36},
                      PartitionCase{1000, 1, 1, 8, 16},
                      PartitionCase{96, 83, 83, 2, 12}));

// ------------------------------------------- correspondence bijection --

class CorrespondenceP
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(CorrespondenceP, NidBijective)
{
    const auto [h, w, b, k] = GetParam();
    const mapping::Partition p{h, w, b, k};
    std::vector<bool> seen(static_cast<std::size_t>(p.count()), false);
    for (std::int64_t hh = 0; hh < h; ++hh)
        for (std::int64_t ww = 0; ww < w; ++ww)
            for (std::int64_t bb = 0; bb < b; ++bb)
                for (std::int64_t kk = 0; kk < k; ++kk) {
                    const auto nid =
                        nidOf(p, mapping::WorkIndex{hh, ww, bb, kk});
                    ASSERT_GE(nid, 0);
                    ASSERT_LT(nid, p.count());
                    ASSERT_FALSE(seen[static_cast<std::size_t>(nid)]);
                    seen[static_cast<std::size_t>(nid)] = true;
                    const auto idx = workIndexOf(p, nid);
                    ASSERT_EQ(idx.h, hh);
                    ASSERT_EQ(idx.k, kk);
                }
}

INSTANTIATE_TEST_SUITE_P(Grids, CorrespondenceP,
                         ::testing::Values(std::tuple{1, 1, 1, 1},
                                           std::tuple{2, 3, 4, 5},
                                           std::tuple{4, 1, 2, 8},
                                           std::tuple{3, 3, 3, 3}));

// ----------------------------------------------- routing conservation --

class RoutingP : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RoutingP, FlowConservationAtIntermediateNodes)
{
    // For random unicasts: at every node that is neither source nor sink,
    // inflow == outflow.
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 5;
    a.yCores = 4;
    noc::InterconnectModel noc(a);
    Rng rng(GetParam());
    noc::TrafficMap map;
    std::vector<double> injected(noc.nodeCount(), 0.0);
    std::vector<double> absorbed(noc.nodeCount(), 0.0);
    for (int i = 0; i < 60; ++i) {
        const auto s = static_cast<noc::NodeId>(
            rng.nextInt(a.coreCount()));
        const auto d = static_cast<noc::NodeId>(
            rng.nextInt(a.coreCount()));
        if (s == d)
            continue;
        const double bytes = 1.0 + static_cast<double>(rng.nextInt(1000));
        noc.unicastLinks(s, d, bytes, noc::addTo(map, noc, bytes));
        injected[static_cast<std::size_t>(s)] += bytes;
        absorbed[static_cast<std::size_t>(d)] += bytes;
    }
    std::vector<double> in(noc.nodeCount(), 0.0), out(noc.nodeCount(), 0.0);
    for (const auto &[key, bytes] : map.links()) {
        out[static_cast<std::size_t>(noc::linkFrom(key))] += bytes;
        in[static_cast<std::size_t>(noc::linkTo(key))] += bytes;
    }
    for (int n = 0; n < noc.nodeCount(); ++n) {
        EXPECT_NEAR(in[static_cast<std::size_t>(n)] +
                        injected[static_cast<std::size_t>(n)],
                    out[static_cast<std::size_t>(n)] +
                        absorbed[static_cast<std::size_t>(n)],
                    1e-6)
            << "node " << n;
    }
}

TEST_P(RoutingP, MulticastNeverExceedsUnicastUnion)
{
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 4;
    a.yCores = 4;
    a.topology = (GetParam() % 2) ? arch::Topology::FoldedTorus
                                  : arch::Topology::Mesh;
    noc::InterconnectModel noc(a);
    Rng rng(GetParam());
    for (int trial = 0; trial < 20; ++trial) {
        const auto src = static_cast<noc::NodeId>(
            rng.nextInt(a.coreCount()));
        std::vector<noc::NodeId> dsts;
        for (int i = 0; i < 5; ++i) {
            const auto d = static_cast<noc::NodeId>(
                rng.nextInt(a.coreCount()));
            if (d != src)
                dsts.push_back(d);
        }
        if (dsts.empty())
            continue;
        noc::TrafficMap mc, uni;
        noc.multicastLinks(src, dsts, 7.0, noc::addTo(mc, noc, 7.0));
        for (auto d : dsts)
            noc.unicastLinks(src, d, 7.0, noc::addTo(uni, noc, 7.0));
        EXPECT_LE(mc.totalBytes(), uni.totalBytes() + 1e-9);
        // And multicast still reaches every destination: each dst has
        // some inbound link.
        for (auto d : dsts) {
            double inbound = 0.0;
            for (const auto &[key, bytes] : mc.links())
                if (noc::linkTo(key) == d)
                    inbound += bytes;
            EXPECT_GT(inbound, 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingP,
                         ::testing::Values(11u, 22u, 33u, 44u));

// -------------------------------------------- evaluator monotonicity ---

class MonotonicityP : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static mapping::LpMapping
    randomValidMapping(const dnn::Graph &g, const arch::ArchConfig &a,
                       std::int64_t batch, Rng &rng)
    {
        // Start from the stripe mapping of the whole graph and scramble it
        // with a few hundred random operators.
        std::vector<LayerId> layers;
        for (std::size_t i = 0; i < g.size(); ++i)
            layers.push_back(static_cast<LayerId>(i));
        mapping::LpMapping m;
        m.batch = batch;
        m.groups.push_back(mapping::stripeMapping(g, a, layers, 1));
        for (int i = 0; i < 200; ++i) {
            const auto op = static_cast<mapping::SaOperator>(
                rng.nextInt(mapping::kNumSaOperators));
            mapping::applyOperator(op, m.groups[0], g, a, rng);
        }
        return m;
    }
};

TEST_P(MonotonicityP, MoreD2dBandwidthNeverSlower)
{
    const dnn::Graph g = dnn::zoo::tinyInception();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 4;
    a.yCores = 2;
    a.xCut = 2;
    a.d2dBwGBps = 2.0;
    Rng rng(GetParam());
    const mapping::LpMapping m = randomValidMapping(g, a, 4, rng);

    mapping::MappingOptions o;
    o.batch = 4;
    o.runSa = false;
    mapping::MappingEngine slow(g, a, o);
    arch::ArchConfig fast_arch = a;
    fast_arch.d2dBwGBps = 32.0;
    mapping::MappingEngine fast(g, fast_arch, o);
    EXPECT_GE(slow.evaluateMapping(m).total.delay,
              fast.evaluateMapping(m).total.delay * 0.999);
}

TEST_P(MonotonicityP, LargerGlbNeverMoreDramTraffic)
{
    const dnn::Graph g = dnn::zoo::tinyConvChain(4);
    arch::ArchConfig small = arch::tinyArch();
    small.xCores = 3;
    small.yCores = 2;
    small.glbKiB = 64;
    arch::ArchConfig large = small;
    large.glbKiB = 4096;
    Rng rng(GetParam());
    const mapping::LpMapping m = randomValidMapping(g, small, 8, rng);

    mapping::MappingOptions o;
    o.batch = 8;
    o.runSa = false;
    mapping::MappingEngine e_small(g, small, o);
    mapping::MappingEngine e_large(g, large, o);
    EXPECT_GE(e_small.evaluateMapping(m).total.dramBytes,
              e_large.evaluateMapping(m).total.dramBytes * 0.999);
}

TEST_P(MonotonicityP, EnergyInvariantToNocBandwidth)
{
    // Link bandwidth changes timing, not energy-per-byte: total energy of
    // a fixed mapping must be invariant.
    const dnn::Graph g = dnn::zoo::tinyConvChain(3);
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;
    Rng rng(GetParam());
    const mapping::LpMapping m = randomValidMapping(g, a, 2, rng);

    mapping::MappingOptions o;
    o.batch = 2;
    o.runSa = false;
    mapping::MappingEngine e1(g, a, o);
    arch::ArchConfig a2 = a;
    a2.nocBwGBps *= 8.0;
    mapping::MappingEngine e2(g, a2, o);
    const double j1 = e1.evaluateMapping(m).total.totalEnergy();
    const double j2 = e2.evaluateMapping(m).total.totalEnergy();
    EXPECT_NEAR(j1, j2, j1 * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityP,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// ------------------------------------- randomized whole-pipeline runs --

class PipelineFuzzP
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(PipelineFuzzP, RandomArchesProduceValidResults)
{
    const auto [seed, batch] = GetParam();
    Rng rng(seed);
    const dnn::Graph g = dnn::zoo::tinyResidual();

    arch::ArchConfig a = arch::tinyArch();
    const int grids[][2] = {{2, 2}, {3, 2}, {4, 2}, {4, 4}};
    const auto &grid = grids[rng.nextInt(4)];
    a.xCores = grid[0];
    a.yCores = grid[1];
    a.xCut = (a.xCores % 2 == 0 && rng.nextBool(0.5)) ? 2 : 1;
    a.nocBwGBps = 8.0 * (1 << rng.nextInt(3));
    a.d2dBwGBps = a.nocBwGBps / 2.0;
    a.glbKiB = 256 << rng.nextInt(4);
    a.macsPerCore = 256 << rng.nextInt(3);
    ASSERT_EQ(a.validate(), "");

    mapping::MappingOptions o;
    o.batch = batch;
    o.sa.iterations = 150;
    o.sa.seed = seed;
    mapping::MappingEngine engine(g, a, o);
    const mapping::MappingResult r = engine.run();
    EXPECT_EQ(mapping::checkMappingValid(g, a, r.mapping), "");
    EXPECT_GT(r.total.delay, 0.0);
    EXPECT_GT(r.total.totalEnergy(), 0.0);
    EXPECT_GE(r.total.glbOverflow, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PipelineFuzzP,
    ::testing::Combine(::testing::Values(7u, 17u, 27u, 37u),
                       ::testing::Values(1, 4, 8)));

} // namespace
} // namespace gemini
