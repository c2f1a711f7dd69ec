/**
 * @file
 * Differential walks of the fragment-cached group evaluation: random SA
 * walks (all five operators, accept/reject churn, cross-group FD.OF
 * coupling) over two groups of 40+ layers on all four topology backends,
 * asserting at every step that a cached Analyzer, whose bounded fragment
 * caches evict as the walk goes, prices every group bit-identically to
 * an uncached Analyzer that derives every fragment from scratch. Also
 * pins the zero-steady-state-allocation contract of the full merge on a
 * 157-layer group. The suites keep the DeltaEval names they had when
 * these walks checked the since-deleted delta evaluator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
#include "src/mapping/stripe.hh"
#include "src/noc/interconnect.hh"

using namespace gemini;
using mapping::Analyzer;
using mapping::LpMapping;

namespace {

/** gArch72's two chiplets and two DRAMs on an 8x6 grid: 48 cores. */
arch::ArchConfig
walkArch(arch::Topology topology)
{
    arch::ArchConfig cfg = arch::gArch72();
    cfg.name = "walk";
    cfg.topology = topology;
    cfg.xCores = 8;
    cfg.yCores = 6;
    return cfg;
}

/**
 * Stripe-map contiguous chunks of `layers_per_group` layers. The
 * partitioner DP would cap groups at a dozen layers; the walks want
 * big groups, whose evaluation cost is dominated by group size.
 */
LpMapping
chunkedMapping(const dnn::Graph &graph, const arch::ArchConfig &cfg,
               std::size_t layers_per_group)
{
    LpMapping m;
    m.batch = 8;
    const auto n = static_cast<std::size_t>(graph.size());
    for (std::size_t first = 0; first < n; first += layers_per_group) {
        std::vector<LayerId> layers;
        for (std::size_t i = first; i < std::min(n, first + layers_per_group);
             ++i)
            layers.push_back(static_cast<LayerId>(i));
        m.groups.push_back(
            mapping::stripeMapping(graph, cfg, layers, /*batch_unit=*/1));
    }
    EXPECT_EQ(mapping::checkMappingValid(graph, cfg, m), "");
    return m;
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
 * Drive a random operator walk over a 93-layer transformer mapped as two
 * groups (46 and 47 layers) and compare the cached analyzer against the
 * uncached one for every group at every step. `ops_per_step > 1` batches
 * several perturbations between evaluations; `cache_entries` bounds the
 * cached analyzer's fragment caches, and the walk must insert more
 * fragments than that, so entries are evicted and recomputed on the way.
 */
void
runDifferentialWalk(arch::Topology topology, int steps, int ops_per_step,
                    std::size_t cache_entries, std::uint64_t seed)
{
    const arch::ArchConfig cfg = walkArch(topology);
    const dnn::Graph graph = dnn::zoo::tinyTransformer(32, 64, 4, 7);
    const noc::InterconnectModel noc(cfg);
    const cost::CostStack costs(cfg);
    intracore::Explorer explorer(cfg.macsPerCore, cfg.glbBytes(),
                                 cfg.freqGHz);

    Analyzer cached(graph, cfg, noc, explorer);
    cached.setCacheCapacity(cache_entries);

    // The reference: caching disabled, so every call derives every
    // fragment afresh.
    Analyzer reference(graph, cfg, noc, explorer);
    reference.setCacheCapacity(0);

    LpMapping mapping = chunkedMapping(graph, cfg, (graph.size() + 1) / 2);
    ASSERT_EQ(mapping.groups.size(), 2u) << "the walk needs cross-group "
                                            "coupling";
    for (const mapping::LayerGroupMapping &group : mapping.groups)
        ASSERT_GE(group.layers.size(), 40u);
    auto lookup = [&mapping](LayerId layer) {
        return mapping.ofmapDramOf(layer);
    };

    Rng rng(seed);
    mapping::LayerGroupMapping saved;
    for (int step = 0; step < steps; ++step) {
        const auto g = static_cast<std::size_t>(rng.nextInt(
            static_cast<std::int64_t>(mapping.groups.size())));
        saved = mapping.groups[g];
        for (int k = 0; k < ops_per_step; ++k) {
            const auto op = static_cast<mapping::SaOperator>(
                (step * ops_per_step + k) % mapping::kNumSaOperators);
            // No-op proposals still re-evaluate both groups.
            (void)applyOperator(op, mapping.groups[g], graph, cfg, rng);
        }

        for (std::size_t i = 0; i < mapping.groups.size(); ++i) {
            const eval::EvalBreakdown c = cached.evaluateGroup(
                mapping.groups[i], mapping.batch, lookup, costs);
            const eval::EvalBreakdown f = reference.evaluateGroup(
                mapping.groups[i], mapping.batch, lookup, costs);
            expectBitIdentical(c, f, arch::topologyName(topology), step, i);
        }
        if (testing::Test::HasFailure())
            return; // one divergence floods the log otherwise

        // Metropolis-style churn: reject half the proposals so the walk
        // keeps returning to fragments it has cached, or has evicted.
        if (rng.nextDouble() < 0.5)
            mapping.groups[g] = saved;
    }

    // The walk must have served fragments from the caches and inserted
    // more than they hold.
    EXPECT_GT(cached.tileCacheHits(), 0u);
    EXPECT_GT(cached.flowCacheHits(), 0u);
    EXPECT_GT(cached.flowCacheMisses(), cache_entries);
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
                        /*cache_entries=*/256, 0xF00DF00Dull);
}

TEST_P(DeltaEvalTopology, BatchedOpsCrossRebuildThreshold)
{
    // Several operators between evaluations: many fragments of a group
    // change at once.
    runDifferentialWalk(topology(), /*steps=*/40, /*ops_per_step=*/6,
                        /*cache_entries=*/256, 0xBADC0FFEull);
}

TEST_P(DeltaEvalTopology, StateLruEvictionStaysSound)
{
    // A generation (96 entries) holds one step's two groups (93 layers)
    // but not the next step's inserts, so every step swaps generations:
    // each fragment is moved into the young one or recomputed, and the
    // old one is wiped.
    runDifferentialWalk(topology(), /*steps=*/40, /*ops_per_step=*/1,
                        /*cache_entries=*/192, 0x5EEDBA5Eull);
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
 * The zero-steady-state-allocation contract on the paper-scale group
 * size: gpt2_medium on the 256-core grid as two 157-layer groups, the
 * workload of the large SA benchmarks. Once a walk at the default cache
 * bound has warmed the caches, their arenas and the retained scratch,
 * further steps perform no heap allocations anywhere the analyzer
 * counts them: cache tables, key probe or compiler scratch.
 */
TEST(DeltaEvalSteadyState, WarmWalkPerformsZeroAllocations)
{
    const arch::ArchConfig cfg = arch::largeGridArch();
    const dnn::Graph graph = dnn::zoo::gpt2Medium(256);
    const noc::InterconnectModel noc(cfg);
    const cost::CostStack costs(cfg);
    intracore::Explorer explorer(cfg.macsPerCore, cfg.glbBytes(),
                                 cfg.freqGHz);
    Analyzer an(graph, cfg, noc, explorer);
    an.setCacheCapacity(mapping::MappingOptions{}.analyzerCacheEntries);

    LpMapping mapping = chunkedMapping(graph, cfg, 157);
    ASSERT_EQ(mapping.groups.size(), 2u);
    ASSERT_EQ(mapping.groups[0].layers.size(), 157u);
    auto lookup = [&mapping](LayerId layer) {
        return mapping.ofmapDramOf(layer);
    };

    // A Metropolis-style walk: mutate, evaluate, sometimes revert — the
    // same churn the SA hot loop produces.
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

    walk(1500);
    const std::uint64_t warmed = an.totalAllocEvents();
    walk(1500);
    EXPECT_EQ(an.totalAllocEvents(), warmed)
        << "steady-state group evaluation must not touch the heap";
    EXPECT_GT(an.flowCacheHits(), an.flowCacheMisses());
}

} // namespace
