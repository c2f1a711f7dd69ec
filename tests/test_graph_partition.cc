/**
 * @file
 * Unit tests for the DP graph partitioner: full coverage of the graph,
 * contiguity, batch-unit selection, segment caps, that latency-driven
 * runs (batch 1) prefer shallower pipelines than throughput runs, and
 * that the segment table, filled once per segment signature, holds the
 * bits a direct evaluation of every slot gives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>

#include "src/api/results.hh"
#include "src/api/service.hh"
#include "src/arch/presets.hh"
#include "src/dnn/zoo.hh"
#include "src/cost/cost_stack.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/graph_partition.hh"
#include "src/mapping/stripe.hh"
#include "src/noc/interconnect.hh"

namespace gemini::mapping {
namespace {

class PartitionTest : public ::testing::Test
{
  protected:
    PartitionTest()
        : graph_(dnn::zoo::tinyConvChain(6)), arch_(makeArch()),
          noc_(arch_),
          explorer_(arch_.macsPerCore, arch_.glbBytes(), arch_.freqGHz),
          energy_(arch_), analyzer_(graph_, arch_, noc_, explorer_)
    {
    }

    static arch::ArchConfig
    makeArch()
    {
        arch::ArchConfig a = arch::tinyArch();
        a.xCores = 3;
        a.yCores = 2;
        return a;
    }

    LpMapping
    partition(std::int64_t batch, int max_layers)
    {
        PartitionOptions o;
        o.batch = batch;
        o.maxGroupLayers = max_layers;
        return partitionGraph(graph_, arch_, analyzer_, energy_, o);
    }

    dnn::Graph graph_;
    arch::ArchConfig arch_;
    noc::InterconnectModel noc_;
    intracore::Explorer explorer_;
    cost::CostStack energy_;
    Analyzer analyzer_;
};

TEST_F(PartitionTest, CoversEveryLayerExactlyOnce)
{
    const LpMapping m = partition(8, 4);
    EXPECT_EQ(checkMappingValid(graph_, arch_, m), "");
    std::size_t covered = 0;
    for (const auto &g : m.groups)
        covered += g.layers.size();
    EXPECT_EQ(covered, graph_.size());
}

TEST_F(PartitionTest, GroupsAreContiguousSegments)
{
    const LpMapping m = partition(8, 4);
    LayerId expect = 0;
    for (const auto &g : m.groups) {
        for (LayerId l : g.layers)
            EXPECT_EQ(l, expect++);
    }
}

TEST_F(PartitionTest, RespectsSegmentCap)
{
    const LpMapping m = partition(8, 2);
    for (const auto &g : m.groups)
        EXPECT_LE(g.layers.size(), 2u);
}

TEST_F(PartitionTest, BatchUnitsDivideBatch)
{
    const LpMapping m = partition(12, 4);
    for (const auto &g : m.groups)
        EXPECT_EQ(12 % g.batchUnit, 0) << g.batchUnit;
}

TEST_F(PartitionTest, BatchOnePipelinesLessDeep)
{
    // With batch 1, fill/drain dominates: average group depth should not
    // exceed the throughput case.
    const LpMapping lat = partition(1, 6);
    const LpMapping thr = partition(16, 6);
    const double avg_lat =
        static_cast<double>(graph_.size()) / lat.groups.size();
    const double avg_thr =
        static_cast<double>(graph_.size()) / thr.groups.size();
    EXPECT_LE(avg_lat, avg_thr + 1e-9);
}

TEST_F(PartitionTest, DefaultBatchUnitsAreDivisors)
{
    const auto units = defaultBatchUnits(64);
    for (auto u : units) {
        EXPECT_EQ(64 % u, 0);
        EXPECT_LE(u, 16);
    }
    EXPECT_EQ(defaultBatchUnits(1), (std::vector<std::int64_t>{1}));
    // A prime batch still yields unit 1.
    const auto prime = defaultBatchUnits(13);
    EXPECT_EQ(prime.front(), 1);
}

TEST_F(PartitionTest, BranchyGraphPartitionsValidly)
{
    const dnn::Graph res = dnn::zoo::tinyResidual();
    Analyzer an(res, arch_, noc_, explorer_);
    PartitionOptions o;
    o.batch = 4;
    o.maxGroupLayers = 3;
    const LpMapping m = partitionGraph(res, arch_, an, energy_, o);
    EXPECT_EQ(checkMappingValid(res, arch_, m), "");
}

TEST_F(PartitionTest, StarvedDramForcesLayerPipelining)
{
    // The core LP-mapping motivation: when intermediate fmaps cannot
    // afford the DRAM round trip (here: DRAM bandwidth cut 100x), the DP
    // must fuse layers into pipelined groups to keep traffic on-chip.
    const dnn::Graph g = dnn::zoo::tinyConvChain(10);
    arch::ArchConfig big = arch::simbaArch();
    big.dramBwGBps = 1.0;
    noc::InterconnectModel noc(big);
    intracore::Explorer ex(big.macsPerCore, big.glbBytes(), big.freqGHz);
    cost::CostStack em(big);
    Analyzer an(g, big, noc, ex);
    PartitionOptions o;
    o.batch = 8;
    o.maxGroupLayers = 11;
    const LpMapping m = partitionGraph(g, big, an, em, o);
    EXPECT_EQ(checkMappingValid(g, big, m), "");
    std::size_t max_group = 0;
    for (const auto &grp : m.groups)
        max_group = std::max(max_group, grp.layers.size());
    EXPECT_GE(max_group, 2u);
}

// ---------------------------------------------------------------------
// The segment table: a segment's score is a pure function of its
// signature, so every copied slot must equal a direct evaluation.
// ---------------------------------------------------------------------

arch::ArchConfig
grid4x4(arch::Topology topo)
{
    arch::ArchConfig a;
    a.xCores = 4;
    a.yCores = 4;
    a.xCut = 2;
    a.yCut = 1;
    a.topology = topo;
    a.nocBwGBps = 32.0;
    a.d2dBwGBps = 16.0;
    a.dramBwGBps = 64.0;
    a.dramCount = 2;
    return a;
}

constexpr arch::Topology kTopologies[] = {
    arch::Topology::Mesh, arch::Topology::FoldedTorus,
    arch::Topology::ConcentratedRing, arch::Topology::HierarchicalNop};

bool
sameBits(const SegmentCost &a, const SegmentCost &b)
{
    auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return bits(a.energy) == bits(b.energy) &&
           bits(a.delay) == bits(b.delay) &&
           bits(a.glbOverflow) == bits(b.glbOverflow);
}

/** One segment scored from scratch, the way the table would score it. */
SegmentCost
directCost(const dnn::Graph &g, const arch::ArchConfig &a,
           const Analyzer &an, const cost::CostStack &costs,
           std::size_t first, std::size_t len, std::int64_t batch,
           std::int64_t unit)
{
    std::vector<LayerId> layers(len);
    for (std::size_t i = 0; i < len; ++i)
        layers[i] = static_cast<LayerId>(first + i);
    const eval::EvalBreakdown bd = an.evaluateGroup(
        stripeMapping(g, a, layers, unit), batch,
        [](LayerId) { return kDramInterleaved; }, costs);
    return {bd.totalEnergy(), bd.delay, bd.glbOverflow};
}

/**
 * `a` and fragment-identical variants of it: other NoC, D2D and DRAM
 * bandwidths and, off the NoP hierarchy (whose routes follow the cut),
 * other chiplet cuts.
 */
std::vector<arch::ArchConfig>
cohortOf(const arch::ArchConfig &a)
{
    std::vector<arch::ArchConfig> cohort{a};
    arch::ArchConfig fast = a;
    fast.nocBwGBps *= 4.0;
    fast.d2dBwGBps *= 0.5;
    fast.dramBwGBps *= 2.0;
    cohort.push_back(fast);
    if (a.topology != arch::Topology::HierarchicalNop) {
        arch::ArchConfig recut = a;
        recut.xCut = 2;
        recut.yCut = 2;
        recut.nocBwGBps = 8.0;
        cohort.push_back(recut);
    }
    return cohort;
}

/**
 * Build the tables of a cohort (see buildSegmentTables) through a caching
 * analyzer of its first architecture, then score every slot and reference
 * of every member again with an uncached analyzer of that member over its
 * own explorer and require the same bits. Returns the first table.
 */
SegmentTable
expectTableExact(const dnn::Graph &g,
                 const std::vector<arch::ArchConfig> &cohort,
                 std::int64_t batch, std::size_t max_len)
{
    const arch::ArchConfig &a = cohort.front();
    const noc::InterconnectModel noc(a);
    intracore::Explorer ex(a.macsPerCore, a.glbBytes(), a.freqGHz);
    Analyzer an(g, a, noc, ex);
    an.setCacheCapacity(4096);
    std::vector<GroupPricer> pricers;
    for (const arch::ArchConfig &m : cohort)
        pricers.emplace_back(noc::InterconnectModel(m), cost::CostStack(m));
    PartitionOptions options;
    options.batch = batch;
    options.maxGroupLayers = static_cast<int>(max_len);
    const std::vector<SegmentTable> tables =
        buildSegmentTables(g, a, an, pricers, options);
    const std::vector<std::int64_t> &units = tables.front().units;
    EXPECT_EQ(units, defaultBatchUnits(batch));
    EXPECT_EQ(tables.front().maxLen, max_len);

    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < cohort.size(); ++k) {
        const arch::ArchConfig &m = cohort[k];
        const SegmentTable &table = tables[k];
        const noc::InterconnectModel direct_noc(m);
        const cost::CostStack costs(m);
        intracore::Explorer direct_ex(m.macsPerCore, m.glbBytes(),
                                      m.freqGHz);
        const Analyzer direct(g, m, direct_noc, direct_ex);
        for (std::size_t end = 1; end <= g.size(); ++end) {
            if (!sameBits(table.refs[end - 1],
                          directCost(g, m, direct, costs, end - 1, 1, batch,
                                     units.front())) &&
                mismatches++ == 0)
                ADD_FAILURE() << "member " << k << " reference of layer "
                              << end - 1;
            for (std::size_t len = 1; len <= std::min(max_len, end);
                 ++len) {
                for (std::size_t u = 0; u < units.size(); ++u) {
                    const SegmentCost want =
                        directCost(g, m, direct, costs, end - len, len,
                                   batch, units[u]);
                    if (!sameBits(table.at(end, len, u), want) &&
                        mismatches++ == 0)
                        ADD_FAILURE()
                            << "member " << k << " segment end " << end
                            << " len " << len << " unit " << units[u];
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
    return tables.front();
}

TEST(PartitionTable, EverySlotMatchesDirectEvaluation)
{
    // Every backend, alone and as a cohort whose members differ in
    // bandwidths and cuts; the batch-12 cohort has three DRAMs and a GLB
    // small enough to overflow.
    for (const char *model :
         {"tiny_conv", "tiny_residual", "tiny_inception", "tiny_transformer",
          "mobilenet_v2", "resnet50", "transformer"}) {
        const dnn::Graph g = dnn::zoo::byName(model);
        for (arch::Topology topo : kTopologies) {
            for (std::int64_t batch : {8, 12}) {
                SCOPED_TRACE(testing::Message()
                             << model << ", topology "
                             << static_cast<int>(topo) << ", batch "
                             << batch);
                expectTableExact(g, {grid4x4(topo)}, batch, 6);
                arch::ArchConfig lead = grid4x4(topo);
                if (batch == 12) {
                    lead.dramCount = 3;
                    lead.glbKiB = 16;
                }
                const SegmentTable t =
                    expectTableExact(g, cohortOf(lead), batch, 6);
                if (batch == 12)
                    EXPECT_TRUE(std::any_of(t.segs.begin(), t.segs.end(),
                                            [](const SegmentCost &c) {
                                                return c.glbOverflow > 0;
                                            }))
                        << "the small GLB must overflow somewhere";
            }
        }
    }
}

bool
sameBreakdown(const eval::EvalBreakdown &a, const eval::EvalBreakdown &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(CohortRun, EveryMemberMatchesItsSoloRunBitForBit)
{
    // Mapping, per-group breakdowns and total of every member of a
    // cohort run equal a solo engine's run(), on every backend, with two
    // and three DRAMs, an overflowing GLB and several batch units, with
    // and without SA.
    const dnn::Graph g = dnn::zoo::byName("tiny_inception");
    for (arch::Topology topo : kTopologies) {
        for (int drams : {2, 3}) {
            arch::ArchConfig a = grid4x4(topo);
            a.dramCount = drams;
            a.glbKiB = drams == 3 ? 16 : a.glbKiB;
            for (bool sa : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << arch::topologyName(topo) << ", " << drams
                             << " DRAMs, sa " << sa);
                MappingOptions mo;
                mo.batch = 12;
                mo.maxGroupLayers = 5;
                mo.analyticSeed = true;
                mo.runSa = sa;
                mo.sa.iterations = 60;
                const std::vector<arch::ArchConfig> cohort = cohortOf(a);
                std::vector<noc::InterconnectModel> nocs;
                nocs.reserve(cohort.size());
                std::vector<const noc::InterconnectModel *> members;
                for (const arch::ArchConfig &c : cohort)
                    members.push_back(&nocs.emplace_back(c));
                intracore::Explorer ex(a.macsPerCore, a.glbBytes(),
                                       a.freqGHz, mo.tech);
                const std::vector<MappingResult> together =
                    MappingEngine::runCohort(g, members, mo, ex);
                ASSERT_EQ(together.size(), cohort.size());
                for (std::size_t k = 0; k < cohort.size(); ++k) {
                    const MappingResult solo =
                        MappingEngine(g, cohort[k], mo).run();
                    const MappingResult &got = together[k];
                    EXPECT_EQ(api::writeJson(got.mapping).dump(),
                              api::writeJson(solo.mapping).dump())
                        << "member " << k;
                    ASSERT_EQ(got.groups.size(), solo.groups.size());
                    for (std::size_t i = 0; i < got.groups.size(); ++i)
                        EXPECT_TRUE(
                            sameBreakdown(got.groups[i], solo.groups[i]))
                            << "member " << k << " group " << i;
                    EXPECT_TRUE(sameBreakdown(got.total, solo.total))
                        << "member " << k;
                    EXPECT_EQ(got.seededAnalytic, solo.seededAnalytic);
                }
                if (drams == 3 && !sa)
                    EXPECT_GT(together.front().total.glbOverflow, 0.0);
            }
        }
    }
}

TEST(CohortIdentity, SplitsWhatFragmentsReadAndJoinsTheRest)
{
    const auto same = [](const arch::ArchConfig &a,
                         const arch::ArchConfig &b) {
        return fragmentIdentical(noc::InterconnectModel(a),
                                 noc::InterconnectModel(b));
    };
    for (arch::Topology topo : kTopologies) {
        SCOPED_TRACE(arch::topologyName(topo));
        const arch::ArchConfig a = grid4x4(topo);
        // Bandwidths never reach a fragment.
        for (const arch::ArchConfig &m : cohortOf(a))
            EXPECT_TRUE(same(a, m));
        arch::ArchConfig b = a;
        b.glbKiB /= 2;
        EXPECT_FALSE(same(a, b)) << "GLB";
        b = a;
        b.macsPerCore *= 2;
        EXPECT_FALSE(same(a, b)) << "MACs";
        b = a;
        b.freqGHz = 1.5;
        EXPECT_FALSE(same(a, b)) << "frequency";
        b = a;
        b.dramCount = 3;
        EXPECT_FALSE(same(a, b)) << "DRAM count";
        b = a;
        b.xCores = 8;
        b.yCores = 2;
        EXPECT_FALSE(same(a, b)) << "grid";
    }
    // Mesh, torus and ring cuts move only link kinds; a NoP cut moves
    // routes, as does the backend itself.
    for (arch::Topology topo :
         {arch::Topology::Mesh, arch::Topology::FoldedTorus,
          arch::Topology::ConcentratedRing}) {
        arch::ArchConfig b = grid4x4(topo);
        b.xCut = 4;
        b.yCut = 2;
        EXPECT_TRUE(same(grid4x4(topo), b)) << arch::topologyName(topo);
    }
    arch::ArchConfig nop = grid4x4(arch::Topology::HierarchicalNop);
    nop.xCut = 2;
    nop.yCut = 2;
    EXPECT_FALSE(same(grid4x4(arch::Topology::HierarchicalNop), nop))
        << "NoP cut";
    nop.xCut = 1;
    nop.yCut = 2;
    EXPECT_FALSE(same(grid4x4(arch::Topology::HierarchicalNop), nop))
        << "NoP cut";
    EXPECT_FALSE(same(grid4x4(arch::Topology::Mesh),
                      grid4x4(arch::Topology::FoldedTorus)));
}

TEST(PartitionTable, RepeatedBlocksAreEvaluatedOnce)
{
    // Six identical encoder blocks: far fewer classes than segments.
    const dnn::Graph g = dnn::zoo::tinyTransformer(64, 64, 4, 6);
    const arch::ArchConfig a = grid4x4(arch::Topology::Mesh);
    const std::size_t max_len = 4;
    const SegmentTable t = expectTableExact(g, {a}, 8, max_len);
    std::size_t segments = 0;
    std::set<std::size_t> classes;
    for (std::size_t end = 1; end <= g.size(); ++end) {
        for (std::size_t len = 1; len <= std::min(max_len, end); ++len) {
            ++segments;
            classes.insert(t.firstOf[t.index(end, len)]);
        }
    }
    EXPECT_LT(2 * classes.size(), segments);
}

/**
 * Pairs of segments that differ in one thing the signature must see, plus
 * identical blocks as controls. Layer ids are given in the comments.
 */
dnn::Graph
signatureProbeGraph()
{
    dnn::GraphBuilder b("signature_probe", 16, 16, 16);
    auto conv = [&](const char *name, LayerId in) {
        return b.conv(name, in, 32, 3, 1, 1);
    };
    const LayerId stem = conv("stem", dnn::GraphBuilder::kInput); // 0
    const LayerId small = b.pool("small", stem, 3, 2, 1); // 1, 8x8
    // Blocks [2, 4), [4, 6) and [6, 8) of two convs each.
    LayerId x = stem;
    for (const char *name : {"a1", "b1", "a2", "b2", "a3", "b3"})
        x = conv(name, x);
    // a3 (6) gains a consumer outside its block: e4 (8).
    x = conv("c4", b.eltwise("e4", {x, 6})); // [8, 10)
    // e5 (10) reads an outside producer of another shape than e4 does.
    x = conv("c5", b.eltwise("e5", {x, small})); // [10, 12)
    // Blocks [12, 14) and [14, 16); a6 (12) is flagged below.
    for (const char *name : {"a6", "b6", "a7", "b7"})
        x = conv(name, x);
    // Blocks [16, 19) and [19, 22) whose eltwise reads the same two
    // in-segment producers in swapped order.
    LayerId p = conv("p8", x);
    x = b.eltwise("r8", {conv("q8", p), p});
    p = conv("p9", x);
    x = b.eltwise("r9", {p, conv("q9", p)});
    conv("tail", x); // 22
    const dnn::Graph built = b.finish();

    // Rebuild with a6 flagged as a network output although its only
    // consumer b6 stays inside its block.
    dnn::Graph g(built.name(), built.inputC(), built.inputH(),
                 built.inputW());
    for (dnn::Layer l : built.layers()) {
        l.isOutput = l.isOutput || l.name == "a6";
        g.add(std::move(l));
    }
    g.finalize();
    return g;
}

TEST(PartitionTable, SignatureSeparatesLookalikeSegments)
{
    const dnn::Graph g = signatureProbeGraph();
    ASSERT_EQ(g.size(), 23u);
    ASSERT_TRUE(g.layer(12).isOutput);
    ASSERT_FALSE(g.layer(14).isOutput);
    const SegmentTable t =
        expectTableExact(g, {grid4x4(arch::Topology::Mesh)}, 8, 4);
    auto cls = [&t](std::size_t first, std::size_t len = 2) {
        return t.firstOf[t.index(first + len, len)];
    };
    // Controls: identical blocks share one class.
    EXPECT_EQ(cls(2), t.index(4, 2));
    EXPECT_EQ(cls(4), cls(2));
    EXPECT_EQ(cls(14), cls(2));
    // An outside consumer of a3.
    EXPECT_NE(cls(6), cls(4));
    // An outside producer's shape (8x8 instead of 16x16).
    EXPECT_NE(cls(10), cls(8));
    // isOutput alone.
    EXPECT_NE(cls(12), cls(14));
    // Which in-segment producer each input is.
    EXPECT_NE(cls(19, 3), cls(16, 3));
}

TEST(PartitionTable, ServiceMapModeIsIndependentOfThreads)
{
    auto run = [](int threads) {
        api::ExperimentSpec spec;
        spec.mode = api::ExperimentSpec::Mode::Map;
        spec.models = {{.zoo = "mobilenet_v2", .file = ""}};
        spec.arch.preset = "tiny";
        spec.mapping.batch = 4;
        spec.mapping.sa.iterations = 100;
        spec.mapping.maxGroupLayers = 4;
        spec.threads = threads;
        api::ExplorationService service(threads);
        api::JobHandle job = service.submit(spec);
        const api::ExperimentResult &result = job.wait();
        EXPECT_FALSE(result.failed()) << result.error;
        return result.toJson();
    };
    const common::json::Value one = run(1);
    const common::json::Value four = run(4);
    // Only the spec (its `threads`) and with it the spec hash may differ.
    for (const char *key : {"arch", "mc", "mappings"}) {
        const common::json::Value *a = one.find(key);
        const common::json::Value *b = four.find(key);
        ASSERT_NE(a, nullptr) << key;
        ASSERT_NE(b, nullptr) << key;
        EXPECT_EQ(a->dump(), b->dump()) << key;
    }
}

} // namespace
} // namespace gemini::mapping
