/**
 * @file
 * Google-benchmark micro benchmarks of the framework's hot paths: the
 * intra-core exhaustive search (cold and memoized), the group analyzer,
 * one SA iteration, NoC routing, and the MC evaluator. These are the
 * loops whose throughput determines DSE wall-clock (the paper's DSEs run
 * 38 min - 6.6 h on an 80-100 thread server).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/arch/presets.hh"
#include "src/common/simd.hh"
#include "src/cost/mc_evaluator.hh"
#include "src/dnn/zoo.hh"
#include "src/cost/cost_stack.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/sa.hh"
#include "src/mapping/stripe.hh"
#include "src/noc/interconnect.hh"

using namespace gemini;

namespace {

void
BM_IntracoreSearchCold(benchmark::State &state)
{
    // One explorer for the whole run, so its memo reservation stays out of
    // the timed loop. Every iteration asks for a tile shape the memo has
    // not seen by stepping vecOpFactor (part of the memo key) one ulp at a
    // time: that leaves the searched scheme set as it is, and the low key
    // bits it changes are the ones the memo's slot index depends on.
    intracore::Explorer ex(1024, 2 << 20, 1.0);
    intracore::Tile t;
    t.b = 1;
    t.k = 64;
    t.h = t.w = 14;
    t.cPerGroup = 256;
    t.r = t.s = 3;
    std::int64_t salt = 0;
    for (auto _ : state) {
        t.vecOpFactor = 1.0 + static_cast<double>(salt++) * 0x1p-52;
        benchmark::DoNotOptimize(ex.evaluate(t).cycles);
    }
    state.counters["misses"] = static_cast<double>(ex.cacheMisses());
}
BENCHMARK(BM_IntracoreSearchCold);

void
BM_IntracoreSearchMemoized(benchmark::State &state)
{
    intracore::Explorer ex(1024, 2 << 20, 1.0);
    intracore::Tile t;
    t.b = 1;
    t.k = 64;
    t.h = t.w = 14;
    t.cPerGroup = 256;
    t.r = t.s = 3;
    ex.evaluate(t);
    for (auto _ : state)
        benchmark::DoNotOptimize(ex.evaluate(t).cycles);
}
BENCHMARK(BM_IntracoreSearchMemoized);

void
BM_AnalyzeGroup(benchmark::State &state)
{
    const dnn::Graph g = dnn::zoo::tinyTransformer(64, 128, 4, 1);
    const arch::ArchConfig a = arch::gArch72();
    noc::InterconnectModel noc(a);
    intracore::Explorer ex(a.macsPerCore, a.glbBytes(), a.freqGHz);
    mapping::Analyzer an(g, a, noc, ex);
    std::vector<LayerId> layers;
    for (std::size_t i = 0; i < std::min<std::size_t>(g.size(), 10); ++i)
        layers.push_back(static_cast<LayerId>(i));
    const auto group = mapping::stripeMapping(g, a, layers, 4);
    auto lookup = [](LayerId) { return kDramInterleaved; };
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            an.analyzeGroup(group, 64, lookup).coreEnergyPerUnit);
    }
}
BENCHMARK(BM_AnalyzeGroup);

void
BM_SaIteration(benchmark::State &state)
{
    const dnn::Graph g = dnn::zoo::tinyTransformer(64, 128, 4, 1);
    const arch::ArchConfig a = arch::gArch72();
    mapping::MappingOptions o;
    o.batch = 64;
    o.runSa = false;
    mapping::MappingEngine engine(g, a, o);
    mapping::MappingResult init = engine.run();
    // Amortized per-iteration SA cost, measured over 64-iteration runs.
    for (auto _ : state) {
        state.PauseTiming();
        mapping::LpMapping m = init.mapping;
        mapping::SaOptions so;
        so.iterations = 64;
        state.ResumeTiming();
        noc::InterconnectModel noc(a);
        intracore::Explorer ex(a.macsPerCore, a.glbBytes(), a.freqGHz);
        cost::CostStack em(a);
        mapping::Analyzer an(g, a, noc, ex);
        mapping::SaEngine sa(g, a, an, em);
        benchmark::DoNotOptimize(sa.optimize(m, so).size());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SaIteration);

/**
 * Multi-group SA throughput on one small multi-group workload, measured
 * two ways:
 *
 *  - Baseline: the restructured engine with every mechanism switched off
 *    (no caches, no incremental accumulator, no basin hopping).
 *  - Optimized: incremental cost accumulator + fragment caches + 4
 *    deterministic chains at the same total iteration budget.
 *
 * items_per_second == SA iterations/sec in both. The SA gate holds
 * Optimized / Baseline, a ratio of two rows from the same run.
 */
struct SaWorkload
{
    dnn::Graph graph;
    arch::ArchConfig arch;
    mapping::LpMapping init;
};

const SaWorkload &
saWorkload()
{
    static const SaWorkload w = [] {
        SaWorkload out{dnn::zoo::tinyTransformer(64, 128, 4, 1),
                       arch::gArch72(), {}};
        mapping::MappingOptions o;
        o.batch = 64;
        o.runSa = false;
        o.maxGroupLayers = 3; // force several groups (cross-group flows)
        mapping::MappingEngine engine(out.graph, out.arch, o);
        out.init = engine.run().mapping;
        return out;
    }();
    return w;
}

constexpr int kSaBudget = 2048;        ///< total iterations per run
constexpr int kSaChains = 4;
constexpr std::uint64_t kSaSeed = 0x5EEDBA5Eu;

/** Best-of-K chains at `iters_per_chain` each; returns the best cost. */
struct SaCacheStats
{
    std::uint64_t tileHits = 0, tileMisses = 0;
    std::uint64_t flowHits = 0, flowMisses = 0;
};

double
runSaChains(const SaWorkload &w, int chains, int iters_per_chain,
            bool incremental, std::size_t cache_entries,
            SaCacheStats *cache_stats = nullptr)
{
    // Serial chains share one warm explorer + analyzer cache, exactly as
    // MappingEngine::runSaChains does when saThreads <= 1.
    noc::InterconnectModel noc(w.arch);
    intracore::Explorer ex(w.arch.macsPerCore, w.arch.glbBytes(),
                           w.arch.freqGHz);
    cost::CostStack em(w.arch);
    mapping::Analyzer an(w.graph, w.arch, noc, ex);
    an.setCacheCapacity(cache_entries);
    mapping::SaEngine sa(w.graph, w.arch, an, em);
    double best = 0.0;
    for (int c = 0; c < chains; ++c) {
        mapping::LpMapping m = w.init;
        mapping::SaOptions so;
        so.iterations = iters_per_chain;
        so.incrementalCost = incremental;
        // The baseline keeps the plain Metropolis schedule; the
        // optimized config adds basin hopping.
        if (!incremental && cache_entries == 0)
            so.reheatInterval = 0;
        so.seed = mapping::SaEngine::chainSeed(kSaSeed, c);
        mapping::SaStats st;
        sa.optimize(m, so, &st);
        if (c == 0 || st.finalCost < best)
            best = st.finalCost;
    }
    if (cache_stats) {
        cache_stats->tileHits = an.tileCacheHits();
        cache_stats->tileMisses = an.tileCacheMisses();
        cache_stats->flowHits = an.flowCacheHits();
        cache_stats->flowMisses = an.flowCacheMisses();
    }
    return best;
}

double
rateOf(std::uint64_t hits, std::uint64_t misses)
{
    return hits + misses > 0
               ? static_cast<double>(hits) /
                     static_cast<double>(hits + misses)
               : 0.0;
}

void
BM_SaThroughputBaseline(benchmark::State &state)
{
    const SaWorkload &w = saWorkload();
    double best = 0.0;
    for (auto _ : state)
        best = runSaChains(w, 1, kSaBudget, /*incremental=*/false,
                           /*cache_entries=*/0);
    state.SetItemsProcessed(state.iterations() * kSaBudget);
    state.counters["best_cost"] = best;
    state.counters["groups"] =
        static_cast<double>(w.init.groups.size());
}
BENCHMARK(BM_SaThroughputBaseline);

void
BM_SaThroughputOptimized(benchmark::State &state)
{
    const SaWorkload &w = saWorkload();
    double best = 0.0;
    SaCacheStats cs;
    for (auto _ : state)
        best = runSaChains(w, kSaChains, kSaBudget / kSaChains,
                           /*incremental=*/true,
                           /*cache_entries=*/1 << 15, &cs);
    state.SetItemsProcessed(state.iterations() * kSaBudget);
    state.counters["best_cost"] = best;
    state.counters["tile_hit_rate"] = rateOf(cs.tileHits, cs.tileMisses);
    state.counters["flow_hit_rate"] = rateOf(cs.flowHits, cs.flowMisses);
}
BENCHMARK(BM_SaThroughputOptimized);

/**
 * Paper-scale SA throughput: a GPT-2-medium-class transformer (314
 * layers) on the 256-core 16-chiplet grid, mapped as two 157-layer
 * groups — the regime where per-proposal cost is dominated by group
 * size. Measured with delta evaluation (resident GroupStates,
 * tournament-tree bottleneck) and with the full-merge engine, on every
 * topology backend; a scaling variant sweeps the group size to show the
 * delta win *growing* with it (the full merge is O(group) per proposal,
 * the delta path O(changed fragments)). Acceptance target: >= 2x
 * iters/s over the pre-PR engine on the 157-layer-group scenario.
 *
 * The initial LMS stripe-maps contiguous chunks directly: the
 * partitioner DP would evaluate tens of thousands of candidate segments
 * to conclude the same shape, and group *contents* — not the cut — are
 * what this benchmark stresses.
 */
struct LargeSaWorkload
{
    dnn::Graph graph;
    arch::ArchConfig arch;
    mapping::LpMapping init;
};

const LargeSaWorkload &
largeSaWorkload(arch::Topology topology, std::size_t layers_per_group)
{
    static std::map<std::pair<arch::Topology, std::size_t>,
                    LargeSaWorkload>
        cache;
    const auto key = std::make_pair(topology, layers_per_group);
    auto it = cache.find(key);
    if (it == cache.end()) {
        LargeSaWorkload w{dnn::zoo::gpt2Medium(256),
                          arch::largeGridArch(topology),
                          {}};
        w.init.batch = 8;
        const auto n = static_cast<std::size_t>(w.graph.size());
        for (std::size_t first = 0; first < n;
             first += layers_per_group) {
            const std::size_t len =
                std::min(layers_per_group, n - first);
            std::vector<LayerId> layers(len);
            for (std::size_t i = 0; i < len; ++i)
                layers[i] = static_cast<LayerId>(first + i);
            w.init.groups.push_back(
                mapping::stripeMapping(w.graph, w.arch, layers,
                                       /*batch_unit=*/1));
        }
        const std::string err =
            mapping::checkMappingValid(w.graph, w.arch, w.init);
        if (!err.empty()) {
            std::fprintf(stderr, "large workload invalid: %s\n",
                         err.c_str());
            std::abort();
        }
        it = cache.emplace(key, std::move(w)).first;
    }
    return it->second;
}

constexpr int kLargeSaBudget = 256;
constexpr std::size_t kLargeLayersPerGroup = 157; ///< 314 = 2 groups

/** Shared warm tile memo: the core config is topology-independent. */
intracore::Explorer &
largeExplorer()
{
    static intracore::Explorer ex(1024, 2048 * 1024, 1.0);
    return ex;
}

void
runLargeSa(benchmark::State &state, arch::Topology topology, bool delta,
           std::size_t layers_per_group = kLargeLayersPerGroup)
{
    const LargeSaWorkload &w =
        largeSaWorkload(topology, layers_per_group);
    noc::InterconnectModel noc(w.arch);
    cost::CostStack em(w.arch);
    double best = 0.0;
    std::uint64_t applies = 0, rebuilds = 0, alloc_events = 0;
    std::uint64_t state_allocs = 0, compiler_allocs = 0;
    for (auto _ : state) {
        // Fresh analyzer per run: the walk must pay its own fragment
        // derivations (an analyzer kept across runs would replay the
        // whole walk out of the eval memo). The tile memo is shared —
        // tile shapes are topology-independent and a DSE keeps engines
        // warm the same way.
        mapping::Analyzer an(w.graph, w.arch, noc, largeExplorer());
        an.setCacheCapacity(1 << 15);
        an.setDeltaEval(delta);
        mapping::SaEngine sa(w.graph, w.arch, an, em);
        mapping::LpMapping m = w.init;
        mapping::SaOptions so;
        so.iterations = kLargeSaBudget;
        so.seed = kSaSeed;
        mapping::SaStats st;
        sa.optimize(m, so, &st);
        best = st.finalCost;
        applies = an.deltaApplies();
        rebuilds = an.deltaRebuilds();
        alloc_events = an.cacheAllocEvents();
        state_allocs = an.stateAllocEvents();
        compiler_allocs = an.compilerAllocEvents();
    }
    state.SetItemsProcessed(state.iterations() * kLargeSaBudget);
    state.SetLabel(common::simdLevelName(common::activeSimdLevel()));
    state.counters["best_cost"] = best;
    state.counters["groups"] =
        static_cast<double>(w.init.groups.size());
    state.counters["layers"] = static_cast<double>(w.graph.size());
    state.counters["delta_applies"] = static_cast<double>(applies);
    state.counters["delta_rebuilds"] = static_cast<double>(rebuilds);
    state.counters["cache_alloc_events"] =
        static_cast<double>(alloc_events);
    state.counters["state_alloc_events"] =
        static_cast<double>(state_allocs);
    state.counters["compiler_alloc_events"] =
        static_cast<double>(compiler_allocs);
}

void
BM_SaThroughputLarge(benchmark::State &state)
{
    runLargeSa(state, arch::kAllTopologies[state.range(0)], /*delta=*/true);
}
BENCHMARK(BM_SaThroughputLarge)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void
BM_SaThroughputLargeFullMerge(benchmark::State &state)
{
    runLargeSa(state, arch::kAllTopologies[state.range(0)],
               /*delta=*/false);
}
BENCHMARK(BM_SaThroughputLargeFullMerge)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

/**
 * Group-size scaling on the mesh: the delta win must grow with group
 * size (and the size floor must protect small groups, where both
 * variants fall back to the same full merge).
 */
void
BM_SaThroughputLargeScaling(benchmark::State &state)
{
    runLargeSa(state, arch::Topology::Mesh, /*delta=*/true,
               static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_SaThroughputLargeScaling)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(157)
    ->Unit(benchmark::kMillisecond);

void
BM_SaThroughputLargeScalingFullMerge(benchmark::State &state)
{
    runLargeSa(state, arch::Topology::Mesh, /*delta=*/false,
               static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_SaThroughputLargeScalingFullMerge)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Arg(157)
    ->Unit(benchmark::kMillisecond);

void
BM_NocMulticast(benchmark::State &state)
{
    const arch::ArchConfig a = arch::gArch72();
    noc::InterconnectModel noc(a);
    std::vector<noc::NodeId> dsts;
    for (CoreId c = 0; c < a.coreCount(); c += 3)
        dsts.push_back(noc.coreNode(c));
    for (auto _ : state) {
        noc::TrafficMap map;
        noc.multicastLinks(noc.dramNode(0), dsts, 1024.0,
                           [&](noc::LinkId id) {
                               map.addLink(noc.linkAt(id), 1024.0);
                           });
        benchmark::DoNotOptimize(map.totalBytes());
    }
}
BENCHMARK(BM_NocMulticast);

/**
 * The weight broadcast that dominates map_sa_gpt2: each of large_grid's 8
 * DRAMs multicasts to all 256 cores, emitting link ids into a dense
 * per-link sum the way the traffic compiler does.
 */
void
BM_NocMulticastWide(benchmark::State &state)
{
    const arch::ArchConfig a = arch::largeGridArch();
    noc::InterconnectModel noc(a);
    std::vector<noc::NodeId> dsts;
    for (CoreId c = 0; c < a.coreCount(); ++c)
        dsts.push_back(noc.coreNode(c));
    std::vector<double> link_bytes(noc.linkCount(), 0.0);
    for (auto _ : state) {
        for (int d = 0; d < a.dramCount; ++d)
            noc.multicastLinks(noc.dramNode(d), dsts, 128.0,
                               [&](noc::LinkId id) { link_bytes[id] += 128.0; });
        benchmark::DoNotOptimize(link_bytes.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_NocMulticastWide);

void
BM_McEvaluate(benchmark::State &state)
{
    cost::McEvaluator mc;
    const arch::ArchConfig a = arch::simbaArch();
    for (auto _ : state)
        benchmark::DoNotOptimize(mc.evaluate(a).total());
}
BENCHMARK(BM_McEvaluate);

void
BM_FullMappingTinyNet(benchmark::State &state)
{
    const dnn::Graph g = dnn::zoo::tinyResidual();
    const arch::ArchConfig a = arch::tinyArch();
    for (auto _ : state) {
        mapping::MappingOptions o;
        o.batch = 4;
        o.sa.iterations = 200;
        mapping::MappingEngine engine(g, a, o);
        benchmark::DoNotOptimize(engine.run().total.delay);
    }
}
BENCHMARK(BM_FullMappingTinyNet);

} // namespace

int
main(int argc, char **argv)
{
    // The build type of this binary; google-benchmark's own
    // library_build_type describes the benchmark library instead.
    benchmark::AddCustomContext("gemini_build_type", GEMINI_BUILD_TYPE);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
