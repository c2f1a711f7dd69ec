/**
 * @file
 * Unit tests for the SA engine: cost function behaviour, determinism under
 * seeds, monotone improvement over the stripe baseline, and incremental
 * re-evaluation consistency.
 */

#include <gtest/gtest.h>

#include "src/arch/presets.hh"
#include "src/dnn/zoo.hh"
#include "src/mapping/engine.hh"

namespace gemini::mapping {
namespace {

MappingOptions
fastOptions(int iters, bool run_sa = true)
{
    MappingOptions o;
    o.batch = 4;
    o.runSa = run_sa;
    o.sa.iterations = iters;
    o.sa.seed = 99;
    o.maxGroupLayers = 8;
    return o;
}

TEST(SaCost, PenalizesOverflow)
{
    eval::EvalBreakdown ok;
    ok.delay = 1.0;
    ok.intraTileEnergy = 1.0;
    eval::EvalBreakdown bad = ok;
    bad.glbOverflow = 1.0; // 2x penalty on E and D
    EXPECT_DOUBLE_EQ(SaEngine::cost({ok}, 1.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(SaEngine::cost({bad}, 1.0, 1.0), 16.0);
}

TEST(SaCost, ExponentsWeightObjective)
{
    eval::EvalBreakdown b;
    b.delay = 2.0;
    b.intraTileEnergy = 3.0;
    EXPECT_DOUBLE_EQ(SaEngine::cost({b}, 1.0, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(SaEngine::cost({b}, 0.0, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(SaEngine::cost({b}, 1.0, 2.0), 12.0);
}

TEST(SaCost, SumsAcrossGroups)
{
    eval::EvalBreakdown a, b;
    a.delay = 1.0;
    a.intraTileEnergy = 2.0;
    b.delay = 3.0;
    b.dramEnergy = 4.0;
    EXPECT_DOUBLE_EQ(SaEngine::cost({a, b}, 1.0, 1.0), 6.0 * 4.0);
}

TEST(SaEngineRun, ImprovesOverStripeBaseline)
{
    const dnn::Graph g = dnn::zoo::tinyResidual();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingEngine baseline(g, a, fastOptions(0, /*run_sa=*/false));
    const MappingResult base = baseline.run();

    MappingEngine tuned(g, a, fastOptions(1500));
    const MappingResult opt = tuned.run();

    const double base_cost = base.total.totalEnergy() * base.total.delay;
    const double opt_cost = opt.total.totalEnergy() * opt.total.delay;
    EXPECT_LE(opt_cost, base_cost * 1.0001);
    EXPECT_GT(opt.saStats.proposed, 0);
    EXPECT_GE(opt.saStats.accepted, opt.saStats.improved);
}

TEST(SaEngineRun, DeterministicUnderSeed)
{
    const dnn::Graph g = dnn::zoo::tinyInception();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingEngine e1(g, a, fastOptions(400));
    MappingEngine e2(g, a, fastOptions(400));
    const MappingResult r1 = e1.run();
    const MappingResult r2 = e2.run();
    EXPECT_DOUBLE_EQ(r1.total.delay, r2.total.delay);
    EXPECT_DOUBLE_EQ(r1.total.totalEnergy(), r2.total.totalEnergy());
    EXPECT_EQ(r1.saStats.accepted, r2.saStats.accepted);
}

TEST(SaEngineRun, DifferentSeedsExploreDifferently)
{
    const dnn::Graph g = dnn::zoo::tinyInception();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingOptions o1 = fastOptions(400);
    MappingOptions o2 = fastOptions(400);
    o2.sa.seed = 12345;
    MappingEngine e1(g, a, o1);
    MappingEngine e2(g, a, o2);
    const SaStats s1 = e1.run().saStats;
    const SaStats s2 = e2.run().saStats;
    EXPECT_NE(s1.accepted, s2.accepted);
}

TEST(SaEngineRun, FinalCostMatchesReEvaluation)
{
    // The incrementally-maintained cost must equal a from-scratch
    // re-evaluation of the final mapping (guards the OP5 coupling logic).
    const dnn::Graph g = dnn::zoo::tinyConvChain(5);
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingOptions opts = fastOptions(800);
    opts.maxGroupLayers = 3; // force multiple groups (cross-group flows)
    MappingEngine engine(g, a, opts);
    const MappingResult r = engine.run();

    const MappingResult check = engine.evaluateMapping(r.mapping);
    EXPECT_NEAR(check.total.delay, r.total.delay,
                1e-12 * std::abs(r.total.delay));
    EXPECT_NEAR(check.total.totalEnergy(), r.total.totalEnergy(),
                1e-9 * r.total.totalEnergy());
}

TEST(SaEngineRun, OperatorMaskRestrictsMoves)
{
    const dnn::Graph g = dnn::zoo::tinyInception();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;
    // OP1-only: core groups of the final mapping must be exactly the
    // initial ones (no placement operator ever ran).
    MappingOptions base = fastOptions(0, false);
    MappingEngine init_engine(g, a, base);
    const MappingResult init = init_engine.run();

    MappingOptions only_part = fastOptions(500);
    only_part.sa.operatorMask = 0x01; // OP1
    MappingEngine engine(g, a, only_part);
    const MappingResult r = engine.run();
    ASSERT_EQ(r.mapping.groups.size(), init.mapping.groups.size());
    for (std::size_t gi = 0; gi < r.mapping.groups.size(); ++gi) {
        for (std::size_t l = 0; l < r.mapping.groups[gi].schemes.size();
             ++l) {
            EXPECT_EQ(r.mapping.groups[gi].schemes[l].coreGroup,
                      init.mapping.groups[gi].schemes[l].coreGroup);
            EXPECT_EQ(r.mapping.groups[gi].schemes[l].fd,
                      init.mapping.groups[gi].schemes[l].fd);
        }
    }
}

TEST(SaEngineRun, EmptyOperatorMaskPanics)
{
    const dnn::Graph g = dnn::zoo::tinyConvChain(2);
    arch::ArchConfig a = arch::tinyArch();
    MappingOptions o = fastOptions(10);
    o.sa.operatorMask = 0;
    MappingEngine engine(g, a, o);
    EXPECT_DEATH_IF_SUPPORTED({ engine.run(); }, "");
}

TEST(SaEngineRun, StatsAreConsistent)
{
    const dnn::Graph g = dnn::zoo::tinyResidual();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;
    MappingEngine engine(g, a, fastOptions(300));
    const MappingResult r = engine.run();
    EXPECT_LE(r.saStats.improved, r.saStats.accepted);
    EXPECT_LE(r.saStats.accepted + r.saStats.inapplicable,
              r.saStats.proposed);
    EXPECT_LE(r.saStats.finalCost, r.saStats.initialCost * 1.0001);
}

TEST(SaEngineRun, IncrementalCostMatchesLegacyResum)
{
    // The incremental accumulator only changes how the objective is
    // summed; the legacy full re-sum path must still satisfy the
    // from-scratch consistency guarantee.
    const dnn::Graph g = dnn::zoo::tinyConvChain(5);
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;
    MappingOptions opts = fastOptions(500);
    opts.maxGroupLayers = 3;
    opts.sa.incrementalCost = false;
    MappingEngine engine(g, a, opts);
    const MappingResult r = engine.run();
    const MappingResult check = engine.evaluateMapping(r.mapping);
    EXPECT_NEAR(check.total.delay, r.total.delay,
                1e-12 * std::abs(r.total.delay));
    EXPECT_NEAR(check.total.totalEnergy(), r.total.totalEnergy(),
                1e-9 * r.total.totalEnergy());
}

TEST(SaEngineRun, ChainSeedsAreDistinctAndAnchored)
{
    // Chain 0 must reuse the base seed verbatim (single-chain
    // equivalence); later chains must all differ.
    EXPECT_EQ(SaEngine::chainSeed(42, 0), 42u);
    EXPECT_NE(SaEngine::chainSeed(42, 1), 42u);
    EXPECT_NE(SaEngine::chainSeed(42, 1), SaEngine::chainSeed(42, 2));
    EXPECT_NE(SaEngine::chainSeed(42, 1), SaEngine::chainSeed(43, 1));
}

TEST(SaEngineRun, MultiChainDeterministicUnderSeed)
{
    const dnn::Graph g = dnn::zoo::tinyInception();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingOptions o = fastOptions(300);
    o.sa.chains = 3;
    MappingEngine e1(g, a, o);
    MappingEngine e2(g, a, o);
    const MappingResult r1 = e1.run();
    const MappingResult r2 = e2.run();
    EXPECT_DOUBLE_EQ(r1.total.delay, r2.total.delay);
    EXPECT_DOUBLE_EQ(r1.total.totalEnergy(), r2.total.totalEnergy());
    EXPECT_DOUBLE_EQ(r1.saStats.finalCost, r2.saStats.finalCost);
    EXPECT_EQ(r1.saStats.bestChain, r2.saStats.bestChain);
    EXPECT_EQ(r1.saStats.chains, 3);
}

TEST(SaEngineRun, MultiChainNoWorseThanSingleChain)
{
    // Chain 0 reuses the single-chain seed, so best-of-K can never be
    // worse than the single-chain result at equal per-chain budget.
    const dnn::Graph g = dnn::zoo::tinyInception();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingOptions single = fastOptions(400);
    MappingEngine e1(g, a, single);
    const MappingResult r1 = e1.run();

    MappingOptions multi = fastOptions(400);
    multi.sa.chains = 4;
    MappingEngine e4(g, a, multi);
    const MappingResult r4 = e4.run();

    EXPECT_LE(r4.saStats.finalCost,
              r1.saStats.finalCost * (1.0 + 1e-12));
}

TEST(SaEngineRun, MultiChainParallelMatchesSerial)
{
    // Chains derive their seeds deterministically, and the caches are
    // exact, so thread scheduling cannot change the outcome.
    const dnn::Graph g = dnn::zoo::tinyInception();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingOptions serial = fastOptions(300);
    serial.sa.chains = 3;
    serial.saThreads = 1;
    MappingEngine e1(g, a, serial);
    const MappingResult r1 = e1.run();

    MappingOptions parallel = serial;
    parallel.saThreads = 3;
    MappingEngine e2(g, a, parallel);
    const MappingResult r2 = e2.run();

    EXPECT_DOUBLE_EQ(r1.total.delay, r2.total.delay);
    EXPECT_DOUBLE_EQ(r1.total.totalEnergy(), r2.total.totalEnergy());
    EXPECT_EQ(r1.saStats.bestChain, r2.saStats.bestChain);
    EXPECT_DOUBLE_EQ(r1.saStats.finalCost, r2.saStats.finalCost);
}

TEST(SaEngineRun, MultiChainFinalCostMatchesReEvaluation)
{
    const dnn::Graph g = dnn::zoo::tinyConvChain(5);
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingOptions opts = fastOptions(400);
    opts.maxGroupLayers = 3; // multiple groups (cross-group flows)
    opts.sa.chains = 3;
    MappingEngine engine(g, a, opts);
    const MappingResult r = engine.run();

    const MappingResult check = engine.evaluateMapping(r.mapping);
    EXPECT_NEAR(check.total.delay, r.total.delay,
                1e-12 * std::abs(r.total.delay));
    EXPECT_NEAR(check.total.totalEnergy(), r.total.totalEnergy(),
                1e-9 * r.total.totalEnergy());
}

// ---------------------------------------------------------- warm start ---

TEST(RunFrom, ResumesStrictlyNoWorseThanInput)
{
    const dnn::Graph g = dnn::zoo::tinyConvChain(5);
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    // Stripe-only start, then resume SA from it on a fresh engine.
    MappingEngine stripe(g, a, fastOptions(0, /*run_sa=*/false));
    const MappingResult start = stripe.run();

    MappingOptions opts = fastOptions(400);
    opts.maxGroupLayers = 3;
    MappingEngine engine(g, a, opts);
    const MappingResult resumed = engine.runFrom(start.mapping);

    // The SA walk's best always includes the initial state, so resuming
    // can never end worse than the warm-start mapping.
    EXPECT_LE(resumed.saStats.finalCost, resumed.saStats.initialCost);
    const double start_cost = SaEngine::cost(
        engine.evaluateMapping(start.mapping).groups, opts.beta, opts.gamma);
    EXPECT_NEAR(resumed.saStats.initialCost, start_cost,
                1e-9 * start_cost);
    const double final_cost = SaEngine::cost(
        engine.evaluateMapping(resumed.mapping).groups, opts.beta,
        opts.gamma);
    EXPECT_LE(final_cost, start_cost * (1.0 + 1e-9));
}

TEST(RunFrom, ZeroIterationsReturnsInputEvaluation)
{
    const dnn::Graph g = dnn::zoo::tinyResidual();
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingEngine engine(g, a, fastOptions(300));
    const MappingResult opt = engine.run();

    engine.mutableOptions().sa.iterations = 0;
    const MappingResult again = engine.runFrom(opt.mapping);
    const MappingResult plain = engine.evaluateMapping(opt.mapping);
    EXPECT_DOUBLE_EQ(again.total.delay, plain.total.delay);
    EXPECT_DOUBLE_EQ(again.total.totalEnergy(), plain.total.totalEnergy());
}

TEST(RunFrom, RetunedBudgetKeepsImproving)
{
    const dnn::Graph g = dnn::zoo::tinyConvChain(5);
    arch::ArchConfig a = arch::tinyArch();
    a.xCores = 3;
    a.yCores = 2;

    MappingOptions opts = fastOptions(0, /*run_sa=*/false);
    opts.maxGroupLayers = 3;
    MappingEngine engine(g, a, opts);
    MappingResult state = engine.run();

    // Doubling rung budgets on one persistent engine: each rung must end
    // no worse than it started.
    double prev_cost = SaEngine::cost(state.groups, opts.beta, opts.gamma);
    for (int iters : {50, 100, 200}) {
        MappingOptions &mo = engine.mutableOptions();
        mo.runSa = true;
        mo.sa.iterations = iters;
        mo.sa.seed = SaEngine::chainSeed(99, iters);
        state = engine.runFrom(state.mapping);
        EXPECT_LE(state.saStats.finalCost, prev_cost * (1.0 + 1e-9))
            << "rung with " << iters << " iterations regressed";
        prev_cost = state.saStats.finalCost;
    }
}

} // namespace
} // namespace gemini::mapping
