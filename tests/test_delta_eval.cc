/**
 * @file
 * Differential soundness tests of the delta-evaluated SA hot path: random
 * SA walks (all five operators, accept/reject churn, cross-group FD.OF
 * coupling) on all four topology backends, asserting at every step that
 * the delta-evaluated group costs are bit-identical to a full-merge
 * reference Analyzer that re-merges every fragment from scratch. Also
 * covers the rebuild fallback (diffs spanning most of a group), resident-
 * state LRU eviction, and the DenseLinkAccumulator's drain orders and
 * overflow guard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/arch/presets.hh"
#include "src/common/rng.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/zoo.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/operators.hh"
#include "src/mapping/sa.hh"
#include "src/noc/interconnect.hh"

using namespace gemini;
using mapping::Analyzer;
using mapping::LpMapping;

namespace {

arch::ArchConfig
fuzzArch(arch::Topology topology)
{
    arch::ArchConfig cfg = arch::gArch72(); // 6x6, 2 chiplets, 2 DRAMs
    cfg.name = "fuzz";
    cfg.topology = topology;
    return cfg;
}

/** Initial multi-group mapping (small groups force cross-group flows). */
LpMapping
initialMapping(const dnn::Graph &graph, const arch::ArchConfig &cfg)
{
    mapping::MappingOptions mo;
    mo.batch = 8;
    mo.runSa = false;
    mo.maxGroupLayers = 5;
    mapping::MappingEngine engine(graph, cfg, mo);
    return engine.run().mapping;
}

void
expectBitIdentical(const eval::EvalBreakdown &a, const eval::EvalBreakdown &b,
                   const char *what, int step, std::size_t group)
{
    EXPECT_EQ(a.delay, b.delay) << what << " step " << step << " g" << group;
    EXPECT_EQ(a.intraTileEnergy, b.intraTileEnergy) << what << " " << step;
    EXPECT_EQ(a.nocEnergy, b.nocEnergy) << what << " step " << step;
    EXPECT_EQ(a.d2dEnergy, b.d2dEnergy) << what << " step " << step;
    EXPECT_EQ(a.dramEnergy, b.dramEnergy) << what << " step " << step;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << what << " step " << step;
    EXPECT_EQ(a.hopBytes, b.hopBytes) << what << " step " << step;
    EXPECT_EQ(a.d2dHopBytes, b.d2dHopBytes) << what << " step " << step;
    EXPECT_EQ(a.glbOverflow, b.glbOverflow) << what << " step " << step;
}

/**
 * Drive a random operator walk and compare delta vs full-merge for every
 * group at every step. `ops_per_step > 1` batches several perturbations
 * between evaluations, pushing the diff toward (and past) the rebuild
 * threshold; `state_capacity` below the group count forces LRU churn.
 */
void
runDifferentialWalk(arch::Topology topology, int steps, int ops_per_step,
                    std::size_t state_capacity, std::uint64_t seed)
{
    const arch::ArchConfig cfg = fuzzArch(topology);
    const dnn::Graph graph = dnn::zoo::tinyTransformer(32, 64, 4, 1);
    const noc::InterconnectModel noc(cfg);
    const cost::CostStack costs(cfg);
    intracore::Explorer explorer(cfg.macsPerCore, cfg.glbBytes(),
                                 cfg.freqGHz);

    Analyzer delta(graph, cfg, noc, explorer);
    delta.setCacheCapacity(2048);
    delta.setDeltaEval(true);
    delta.setDeltaMinLayers(1); // force the delta path on tiny groups too
    delta.setResidentStateCapacity(state_capacity);

    // The golden reference: caching (and with it the eval memo and the
    // delta machinery) fully disabled — every call is a fresh full merge.
    Analyzer reference(graph, cfg, noc, explorer);
    reference.setCacheCapacity(0);

    LpMapping mapping = initialMapping(graph, cfg);
    ASSERT_GE(mapping.groups.size(), 2u)
        << "fuzz needs cross-group coupling";
    auto lookup = [&mapping](LayerId layer) {
        return mapping.ofmapDramOf(layer);
    };

    Rng rng(seed);
    mapping::LayerGroupMapping saved;
    for (int step = 0; step < steps; ++step) {
        const auto g = static_cast<std::size_t>(rng.nextInt(
            static_cast<std::int64_t>(mapping.groups.size())));
        saved = mapping.groups[g];
        bool any_applied = false;
        for (int k = 0; k < ops_per_step; ++k) {
            const auto op = static_cast<mapping::SaOperator>(
                (step * ops_per_step + k) % mapping::kNumSaOperators);
            any_applied |= applyOperator(op, mapping.groups[g], graph, cfg,
                                         rng)
                               .applied;
        }
        (void)any_applied; // no-op proposals still exercise the diff

        for (std::size_t i = 0; i < mapping.groups.size(); ++i) {
            const eval::EvalBreakdown d = delta.evaluateGroup(
                mapping.groups[i], mapping.batch, lookup, costs);
            const eval::EvalBreakdown f = reference.evaluateGroup(
                mapping.groups[i], mapping.batch, lookup, costs);
            expectBitIdentical(d, f, arch::topologyName(topology), step, i);
        }
        if (testing::Test::HasFailure())
            return; // one divergence floods the log otherwise

        // Metropolis-style churn: reject half the proposals so the walk
        // keeps diffing back and forth over the same states.
        if (rng.nextDouble() < 0.5)
            mapping.groups[g] = saved;
    }

    // The walk must actually have exercised the delta machinery.
    EXPECT_GT(delta.deltaApplies() + delta.deltaRebuilds(), 0u);
}

/** Every random-walk case runs on each of the four topology backends. */
class DeltaEvalTopology : public testing::TestWithParam<arch::Topology>
{
  protected:
    arch::Topology topology() const { return GetParam(); }
};

TEST_P(DeltaEvalTopology, RandomWalkMatchesFullMergeBitExact)
{
    runDifferentialWalk(topology(), /*steps=*/120, /*ops_per_step=*/1,
                        /*state_capacity=*/12, 0xF00DF00Dull);
}

TEST_P(DeltaEvalTopology, BatchedOpsCrossRebuildThreshold)
{
    // Several operators between evaluations: diffs regularly span more
    // than half a (5-layer) group, exercising the full-merge fallback.
    runDifferentialWalk(topology(), /*steps=*/40, /*ops_per_step=*/6,
                        /*state_capacity=*/12, 0xBADC0FFEull);
}

TEST_P(DeltaEvalTopology, StateLruEvictionStaysSound)
{
    // One resident state for several groups: every evaluation of a
    // different group evicts and rebuilds; results must not change.
    runDifferentialWalk(topology(), /*steps=*/40, /*ops_per_step=*/1,
                        /*state_capacity=*/1, 0x5EEDBA5Eull);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, DeltaEvalTopology,
    testing::Values(arch::Topology::Mesh, arch::Topology::FoldedTorus,
                    arch::Topology::ConcentratedRing,
                    arch::Topology::HierarchicalNop),
    [](const testing::TestParamInfo<arch::Topology> &info) {
        std::string name = arch::topologyName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * The zero-steady-state-allocation contract: once a delta-evaluation
 * walk has warmed the caches, arenas, and retained scratch, further
 * steps perform no heap allocations anywhere in the evaluation path —
 * cache tables, resident group states, or compiler scratch.
 */
TEST(DeltaEvalSteadyState, WarmWalkPerformsZeroAllocations)
{
    const arch::ArchConfig cfg = fuzzArch(arch::Topology::Mesh);
    const dnn::Graph graph = dnn::zoo::tinyTransformer(32, 64, 4, 1);
    const noc::InterconnectModel noc(cfg);
    const cost::CostStack costs(cfg);
    intracore::Explorer explorer(cfg.macsPerCore, cfg.glbBytes(),
                                 cfg.freqGHz);
    Analyzer an(graph, cfg, noc, explorer);
    an.setCacheCapacity(1 << 14);
    an.setDeltaEval(true);
    an.setDeltaMinLayers(1);

    mapping::MappingOptions mo;
    mo.batch = 8;
    mo.runSa = false;
    mo.maxGroupLayers = 12;
    mapping::MappingEngine engine(graph, cfg, mo);
    LpMapping mapping = engine.run().mapping;
    auto lookup = [&mapping](LayerId layer) {
        return mapping.ofmapDramOf(layer);
    };

    // A Metropolis-style warm-up walk: mutate, evaluate, sometimes
    // revert — the same churn the SA hot loop produces.
    Rng rng(0xA110Cull);
    mapping::LayerGroupMapping saved;
    auto walk = [&](int steps) {
        for (int step = 0; step < steps; ++step) {
            const auto g = static_cast<std::size_t>(rng.nextInt(
                static_cast<std::int64_t>(mapping.groups.size())));
            saved = mapping.groups[g];
            applyOperator(static_cast<mapping::SaOperator>(
                              step % mapping::kNumSaOperators),
                          mapping.groups[g], graph, cfg, rng);
            (void)an.evaluateGroup(mapping.groups[g], mapping.batch,
                                   lookup, costs);
            if (rng.nextDouble() < 0.5)
                mapping.groups[g] = saved;
        }
    };

    walk(300);
    const std::uint64_t warmed = an.totalAllocEvents();
    walk(300);
    EXPECT_EQ(an.totalAllocEvents(), warmed)
        << "steady-state delta evaluation must not touch the heap";
    EXPECT_GT(an.deltaApplies(), 0u);
}

TEST(DeltaEvalStats, DeltaPathDominatesSteadyWalk)
{
    // On a plain SA-like walk the steady state should be delta applies
    // with small diffs, not rebuilds.
    const arch::ArchConfig cfg = fuzzArch(arch::Topology::Mesh);
    const dnn::Graph graph = dnn::zoo::tinyTransformer(32, 64, 4, 1);
    const noc::InterconnectModel noc(cfg);
    const cost::CostStack costs(cfg);
    intracore::Explorer explorer(cfg.macsPerCore, cfg.glbBytes(),
                                 cfg.freqGHz);
    Analyzer delta(graph, cfg, noc, explorer);
    delta.setCacheCapacity(4096);
    delta.setDeltaMinLayers(1); // the default floor bypasses small groups

    // Realistic SA-sized groups (a dozen layers): one operator dirties a
    // small fraction of a group, so the walk stays on the delta path.
    // (The 5-layer groups of the differential walks above cross the
    // rebuild threshold constantly — by design, that is the fallback.)
    mapping::MappingOptions mo;
    mo.batch = 8;
    mo.runSa = false;
    mo.maxGroupLayers = 12;
    mapping::MappingEngine engine(graph, cfg, mo);
    LpMapping mapping = engine.run().mapping;
    auto lookup = [&mapping](LayerId layer) {
        return mapping.ofmapDramOf(layer);
    };
    Rng rng(7);
    for (int step = 0; step < 200; ++step) {
        const auto g = static_cast<std::size_t>(rng.nextInt(
            static_cast<std::int64_t>(mapping.groups.size())));
        applyOperator(static_cast<mapping::SaOperator>(
                          step % mapping::kNumSaOperators),
                      mapping.groups[g], graph, cfg, rng);
        (void)delta.evaluateGroup(mapping.groups[g], mapping.batch, lookup,
                                  costs);
    }
    EXPECT_GT(delta.deltaApplies(), delta.deltaRebuilds());
    // Diffs stay group-size independent: on 5-layer groups a single
    // operator dirties the layer and its in-group consumers only.
    EXPECT_LT(static_cast<double>(delta.deltaChangedLayers()),
              3.0 * static_cast<double>(delta.deltaApplies()));
}

TEST(DenseLinkAccumulatorDrain, MatchesOrderedMapReference)
{
    // Random add sequences with repeated ids; each round ends in a
    // first-touch drain, an ascending drain or a reset that discards a
    // partial merge, all on one accumulator. Sums accumulate in add
    // order on both sides, so emission order and bytes are bit-equal.
    Rng rng(0xD7A1Dull);
    mapping::DenseLinkAccumulator acc;
    for (const std::size_t links :
         {1u, 2u, 63u, 64u, 65u, 127u, 129u, 700u, 1024u, 2011u}) {
        acc.reset(links);
        for (int round = 0; round < 24; ++round) {
            std::map<noc::LinkId, double> sums;
            std::vector<noc::LinkId> first_touch;
            const std::int64_t adds = rng.nextRange(
                0, 3 * static_cast<std::int64_t>(links));
            for (std::int64_t a = 0; a < adds; ++a) {
                // Few distinct ids per round in some rounds, so repeats
                // and sparse bitmap words both occur.
                const std::int64_t span =
                    round % 2 ? static_cast<std::int64_t>(links)
                              : std::min<std::int64_t>(
                                    static_cast<std::int64_t>(links), 5);
                const auto id = static_cast<noc::LinkId>(
                    (rng.nextInt(span) * 37) %
                    static_cast<std::int64_t>(links));
                const double bytes = 0.5 + rng.nextDouble() * 1.0e6;
                if (sums.find(id) == sums.end())
                    first_touch.push_back(id);
                sums[id] += bytes;
                acc.add(id, bytes);
            }
            ASSERT_EQ(acc.touchedCount(), sums.size());
            std::vector<std::pair<noc::LinkId, double>> got;
            const auto collect = [&](noc::LinkId id, double bytes) {
                got.emplace_back(id, bytes);
            };
            switch (round % 3) {
            case 0: {
                acc.drainSlots(collect);
                ASSERT_EQ(got.size(), sums.size()) << links;
                std::size_t e = 0;
                for (const auto &[id, bytes] : sums) {
                    ASSERT_EQ(got[e].first, id) << links << " #" << e;
                    ASSERT_EQ(got[e].second, bytes) << links << " #" << e;
                    ++e;
                }
                break;
            }
            case 1:
                acc.drain(collect);
                ASSERT_EQ(got.size(), first_touch.size()) << links;
                for (std::size_t e = 0; e < got.size(); ++e) {
                    ASSERT_EQ(got[e].first, first_touch[e])
                        << links << " #" << e;
                    ASSERT_EQ(got[e].second, sums.at(first_touch[e]))
                        << links << " #" << e;
                }
                break;
            default:
                acc.reset(links); // discard the partial merge
                break;
            }
            // Whatever ended the round, the scratch is empty again.
            got.clear();
            ASSERT_EQ(acc.touchedCount(), 0u);
            acc.drainSlots(collect);
            acc.drain(collect);
            ASSERT_TRUE(got.empty()) << links;
        }
    }
}

TEST(DenseLinkAccumulatorGuard, RejectsLinkCountsBeyondTheIdSpace)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    mapping::DenseLinkAccumulator acc;
    EXPECT_DEATH(
        acc.reset(mapping::DenseLinkAccumulator::kMaxLinks + 1),
        "dense-table limit");
}

TEST(DenseLinkAccumulatorGuard, TableIsSizedByLinkCount)
{
    // Every 32-bit link id must be addressable, and the table of the
    // largest preset grid is its link count, not nodeCount^2.
    static_assert(mapping::DenseLinkAccumulator::kMaxLinks ==
                      std::size_t{1} << 32,
                  "link ids are 32-bit");
    const noc::InterconnectModel noc(arch::largeGridArch());
    const std::size_t n = static_cast<std::size_t>(noc.nodeCount());
    ASSERT_LT(noc.linkCount(), n * n / 16);
    mapping::DenseLinkAccumulator acc;
    acc.reset(noc.linkCount());
    const auto last = static_cast<noc::LinkId>(noc.linkCount() - 1);
    acc.add(last, 123.0);
    bool seen = false;
    acc.drain([&](noc::LinkId id, double bytes) {
        seen = true;
        EXPECT_EQ(id, last);
        EXPECT_EQ(bytes, 123.0);
    });
    EXPECT_TRUE(seen);
}

} // namespace
