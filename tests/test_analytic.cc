/**
 * @file
 * Tests for the analytical screening & seeding layer: soundness of
 * cost::analyticLowerBound against achieved mappings on every topology
 * backend, exactness of the touchedInputVolume floor on strided
 * geometries, validity and no-regression of the closed-form analytical
 * seed, and the plateau-window SA termination semantics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/arch/presets.hh"
#include "src/cost/analytic_bound.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/analytic_seed.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/engine.hh"

namespace gemini {
namespace {

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

mapping::MappingOptions
fastOptions(int iters)
{
    mapping::MappingOptions o;
    o.batch = 2;
    o.runSa = iters > 0;
    o.sa.iterations = iters;
    o.sa.seed = 7;
    o.maxGroupLayers = 6;
    return o;
}

// ---------------------------------------------------------------------
// Bound soundness: the closed-form floor must sit at or below every
// mapping the engine actually emits, on every topology backend, for both
// the stripe baseline and SA-optimized mappings (the optimized one is the
// sharper check: SA pushes the achieved point toward the bound).
// ---------------------------------------------------------------------

TEST(AnalyticBound, SoundOnEveryTopologyAndModel)
{
    std::vector<std::pair<const char *, dnn::Graph>> models;
    models.emplace_back("convChain", dnn::zoo::tinyConvChain(4));
    models.emplace_back("residual", dnn::zoo::tinyResidual());
    models.emplace_back("inception", dnn::zoo::tinyInception());
    models.emplace_back("transformer", dnn::zoo::tinyTransformer(16, 32, 2));

    for (arch::Topology t : arch::kAllTopologies) {
        const arch::ArchConfig a = grid4x4(t);
        for (const auto &[name, g] : models) {
            SCOPED_TRACE(std::string(arch::topologyName(t)) + "/" + name);
            const mapping::MappingOptions o = fastOptions(200);
            mapping::MappingEngine engine(g, a, o);
            const mapping::MappingResult res = engine.run();

            const cost::AnalyticBoundResult lb = cost::analyticLowerBound(
                engine.noc(), o.tech, {&g}, o.batch, o.maxGroupLayers);
            EXPECT_GT(lb.delayGeoSeconds, 0.0);
            EXPECT_GT(lb.energyGeoJoules, 0.0);
            EXPECT_LE(lb.delayGeoSeconds,
                      res.total.delay * (1.0 + 1e-9));
            EXPECT_LE(lb.energyGeoJoules,
                      res.total.totalEnergy() * (1.0 + 1e-9));
        }
    }
}

TEST(AnalyticBound, DseObjectiveLowerBoundBelowAchievedObjective)
{
    // Multi-model geomean path, exactly as the DSE driver prices it.
    const dnn::Graph m0 = dnn::zoo::tinyConvChain(3);
    const dnn::Graph m1 = dnn::zoo::tinyResidual();
    const std::vector<const dnn::Graph *> models = {&m0, &m1};

    const arch::ArchConfig a = grid4x4(arch::Topology::Mesh);
    const mapping::MappingOptions o = fastOptions(150);
    const cost::CostStack stack(a, o.tech);
    const double mc_total = stack.mcBreakdown().total();

    double log_e = 0.0, log_d = 0.0;
    for (const dnn::Graph *g : models) {
        mapping::MappingEngine engine(*g, a, o);
        const mapping::MappingResult res = engine.run();
        log_e += std::log(res.total.totalEnergy());
        log_d += std::log(res.total.delay);
    }
    const double e_geo = std::exp(log_e / models.size());
    const double d_geo = std::exp(log_d / models.size());

    const double achieved = cost::CostStack::dseObjective(
        mc_total, e_geo, d_geo, 1.0, 1.0, 1.0);
    const double bound = stack.dseObjectiveLowerBound(
        models, o.batch, mc_total, 1.0, 1.0, 1.0, o.maxGroupLayers);
    EXPECT_GT(bound, 0.0);
    EXPECT_LE(bound, achieved * (1.0 + 1e-9));
    // The stored bound carries the kBoundSlack headroom, so the achieved
    // objective must clear even the unslacked floor (empty slack band).
    EXPECT_GE(achieved * cost::kBoundSlack, bound * (1.0 - 1e-12));
}

// ---------------------------------------------------------------------
// touchedInputVolume: exact union of per-output request boxes, not the
// bounding box.
// ---------------------------------------------------------------------

TEST(AnalyticBound, TouchedVolumeDenseConvCoversWholeIfmap)
{
    dnn::GraphBuilder b("dense", 3, 8, 8);
    b.conv("c1", dnn::GraphBuilder::kInput, 16, 3, 1, 1);
    const dnn::Graph g = b.finish();
    // 3x3 stride-1 pad-1: every ifmap element feeds some output.
    EXPECT_DOUBLE_EQ(cost::touchedInputVolume(g, 0, 0), 3.0 * 8.0 * 8.0);
}

TEST(AnalyticBound, TouchedVolumeStridedConvSkipsHoles)
{
    // 1x1 kernel, stride 2, ifmap 7x7 -> ofmap 4x4 reads only rows/cols
    // {0,2,4,6}: 4x4 of the 7x7 box. The bounding box (7*7) would
    // overcount by 3x.
    dnn::GraphBuilder b("strided", 3, 7, 7);
    b.conv("c1", dnn::GraphBuilder::kInput, 8, 1, 2, 0);
    const dnn::Graph g = b.finish();
    EXPECT_DOUBLE_EQ(cost::touchedInputVolume(g, 0, 0), 3.0 * 4.0 * 4.0);
}

TEST(AnalyticBound, TouchedVolumeStridedKernelUnionsOverlap)
{
    // 3x3 kernel, stride 2, pad 0, ifmap 9x9 -> ofmap 4x4; adjacent
    // windows overlap by one row/col, union covers rows [0,9) entirely.
    dnn::GraphBuilder b("overlap", 2, 9, 9);
    b.conv("c1", dnn::GraphBuilder::kInput, 4, 3, 2, 0);
    const dnn::Graph g = b.finish();
    EXPECT_DOUBLE_EQ(cost::touchedInputVolume(g, 0, 0), 2.0 * 9.0 * 9.0);
}

// ---------------------------------------------------------------------
// Analytical seed: structurally valid groups, finite evaluation, and the
// engine-level guard that the adopted start is never worse than stripe.
// ---------------------------------------------------------------------

TEST(AnalyticSeed, GroupsAreValidOnEveryTopology)
{
    const dnn::Graph g = dnn::zoo::tinyInception();
    for (arch::Topology t : arch::kAllTopologies) {
        SCOPED_TRACE(arch::topologyName(t));
        const arch::ArchConfig a = grid4x4(t);
        const mapping::MappingOptions o = fastOptions(0);
        mapping::MappingEngine engine(g, a, o);
        const mapping::MappingResult stripe = engine.run();

        mapping::LpMapping analytic = stripe.mapping;
        for (auto &group : analytic.groups) {
            group = mapping::analyticSeedGroup(g, a, o.tech, group.layers,
                                               group.batchUnit, o.batch);
            EXPECT_EQ(mapping::checkGroupValid(g, a, group, o.batch), "");
        }
        EXPECT_EQ(mapping::checkMappingValid(g, a, analytic), "");

        const mapping::MappingResult eval = engine.evaluateMapping(analytic);
        EXPECT_TRUE(std::isfinite(eval.total.delay));
        EXPECT_TRUE(std::isfinite(eval.total.totalEnergy()));
        EXPECT_GT(eval.total.delay, 0.0);
    }
}

TEST(AnalyticSeed, SeededStartNeverWorseThanStripe)
{
    const dnn::Graph g = dnn::zoo::tinyConvChain(5);
    const arch::ArchConfig a = grid4x4(arch::Topology::Mesh);

    mapping::MappingOptions o = fastOptions(0);
    mapping::MappingEngine stripe_engine(g, a, o);
    const mapping::MappingResult stripe = stripe_engine.run();

    o.analyticSeed = true;
    mapping::MappingEngine seeded_engine(g, a, o);
    const mapping::MappingResult seeded = seeded_engine.run();

    // The adoption guard compares full SA costs; with SA off the run
    // result IS the start state, so the seeded cost may never regress.
    const double stripe_cost =
        cost::CostStack::saCost(stripe.groups, o.beta, o.gamma);
    const double seeded_cost =
        cost::CostStack::saCost(seeded.groups, o.beta, o.gamma);
    EXPECT_LE(seeded_cost, stripe_cost * (1.0 + 1e-12));
}

TEST(AnalyticSeed, WarmStartFromSeedImprovesOrMatches)
{
    const dnn::Graph g = dnn::zoo::tinyResidual();
    const arch::ArchConfig a = grid4x4(arch::Topology::FoldedTorus);

    mapping::MappingOptions o = fastOptions(300);
    o.analyticSeed = true;
    mapping::MappingEngine engine(g, a, o);
    const mapping::MappingResult res = engine.run();
    // Best-of-walk includes the start state.
    EXPECT_LE(res.saStats.finalCost,
              res.saStats.initialCost * (1.0 + 1e-12));
    EXPECT_GT(res.saStats.itersRun, 0);
}

// ---------------------------------------------------------------------
// Plateau-window termination.
// ---------------------------------------------------------------------

TEST(PlateauWindow, ZeroDisablesEarlyStop)
{
    const dnn::Graph g = dnn::zoo::tinyConvChain(4);
    const arch::ArchConfig a = grid4x4(arch::Topology::Mesh);
    mapping::MappingOptions o = fastOptions(400);
    o.sa.plateauWindow = 0;
    mapping::MappingEngine engine(g, a, o);
    const mapping::MappingResult res = engine.run();
    EXPECT_EQ(res.saStats.itersRun,
              static_cast<std::int64_t>(o.sa.iterations) * o.sa.chains);
}

TEST(PlateauWindow, TruncatesTheSameWalkPrefix)
{
    // A plateau-stopped chain walks the identical seeded trajectory and
    // merely stops early, so it can never beat the full-budget run and
    // must execute no more iterations than it.
    const dnn::Graph g = dnn::zoo::tinyInception();
    const arch::ArchConfig a = grid4x4(arch::Topology::Mesh);

    mapping::MappingOptions full = fastOptions(2000);
    mapping::MappingEngine full_engine(g, a, full);
    const mapping::MappingResult full_res = full_engine.run();

    mapping::MappingOptions plateau = fastOptions(2000);
    plateau.sa.plateauWindow = 100;
    mapping::MappingEngine plateau_engine(g, a, plateau);
    const mapping::MappingResult pres = plateau_engine.run();

    EXPECT_LE(pres.saStats.itersRun, full_res.saStats.itersRun);
    EXPECT_GE(pres.saStats.finalCost,
              full_res.saStats.finalCost * (1.0 - 1e-12));
    // When the stop fired before the budget ran out, it did so exactly
    // plateauWindow stagnant iterations after the last improvement.
    if (pres.saStats.itersRun < plateau.sa.iterations)
        EXPECT_LE(pres.saStats.bestIteration + plateau.sa.plateauWindow,
                  static_cast<int>(pres.saStats.itersRun));
}

TEST(PlateauWindow, DeterministicAcrossRuns)
{
    const dnn::Graph g = dnn::zoo::tinyResidual();
    const arch::ArchConfig a = grid4x4(arch::Topology::ConcentratedRing);
    mapping::MappingOptions o = fastOptions(800);
    o.sa.plateauWindow = 64;
    o.sa.chains = 2;

    mapping::MappingEngine e1(g, a, o);
    mapping::MappingEngine e2(g, a, o);
    const mapping::MappingResult r1 = e1.run();
    const mapping::MappingResult r2 = e2.run();
    EXPECT_DOUBLE_EQ(r1.saStats.finalCost, r2.saStats.finalCost);
    EXPECT_EQ(r1.saStats.itersRun, r2.saStats.itersRun);
    EXPECT_EQ(r1.saStats.bestIteration, r2.saStats.bestIteration);
    EXPECT_LE(r1.saStats.itersRun,
              static_cast<std::int64_t>(o.sa.iterations) * o.sa.chains);
}

} // namespace
} // namespace gemini
