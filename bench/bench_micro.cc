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
#include <cmath>
#include <map>
#include <tuple>
#include <unordered_set>

#include "src/arch/presets.hh"
#include "src/common/rng.hh"
#include "src/common/simd.hh"
#include "src/cost/mc_evaluator.hh"
#include "src/dnn/zoo.hh"
#include "src/cost/cost_stack.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/analyzer.hh"
#include "src/mapping/engine.hh"
#include "src/mapping/operators.hh"
#include "src/mapping/sa.hh"
#include "src/mapping/space.hh"
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
 * Multi-group SA throughput: the headline metric of the incremental hot
 * path, measured three ways on the same multi-group workload:
 *
 *  - Seed: a verbatim port of the original (seed commit) hot path — the
 *    monolithic per-call group analyzer with std::map request grouping,
 *    hash-set multicast dedup over std::function hop walking, O(groups)
 *    cost re-sum per iteration and whole-mapping copies on improvement.
 *  - Baseline: the restructured engine with every new mechanism switched
 *    off (no caches, no incremental accumulator, no basin hopping).
 *  - Optimized: incremental cost accumulator + fragment/eval caches + 4
 *    deterministic chains at the same total iteration budget.
 *
 * items_per_second == SA iterations/sec in all three.
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
        // The seed-faithful baseline keeps the seed's plain Metropolis
        // schedule; the optimized config adds basin hopping.
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

/**
 * Verbatim port of the seed-commit hot path (mapping/analyzer.cc and
 * mapping/sa.cc at d672c74), kept here so bench_micro can report the
 * speedup of the incremental engine against the original implementation
 * in one binary. Only mechanical adaptations: free functions instead of
 * members, and the NoC multicast/unicast helpers inlined the way the
 * seed NocModel implemented them (hash-set dedup over std::function hop
 * callbacks).
 */
namespace seedpath {

using mapping::GroupAnalysis;
using mapping::LayerGroupMapping;
using mapping::LpMapping;
using mapping::MappingScheme;
using mapping::WorkRegion;

struct Piece
{
    CoreId core;
    WorkRegion wr;
    double inputBytes = 0.0;
    double outputBytes = 0.0;
};

using RegionKey =
    std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t,
               std::int64_t, std::int64_t, std::int64_t, std::int64_t>;

RegionKey
keyOf(const dnn::Region &r, std::int64_t b0, std::int64_t b1)
{
    return {r.c0, r.c1, r.h0, r.h1, r.w0, r.w1, b0, b1};
}

void
seedUnicast(const noc::InterconnectModel &noc, noc::TrafficMap &map, noc::NodeId src,
            noc::NodeId dst, double bytes)
{
    if (bytes <= 0.0)
        return;
    noc.forEachHop(src, dst, [&](noc::NodeId a, noc::NodeId b) {
        map.add(a, b, bytes);
    });
}

void
seedMulticast(const noc::InterconnectModel &noc, noc::TrafficMap &map,
              noc::NodeId src, const std::vector<noc::NodeId> &dsts,
              double bytes)
{
    if (bytes <= 0.0 || dsts.empty())
        return;
    std::unordered_set<noc::LinkKey> seen;
    for (noc::NodeId dst : dsts) {
        noc.forEachHop(src, dst, [&](noc::NodeId a, noc::NodeId b) {
            if (seen.insert(noc::makeLink(a, b)).second)
                map.add(a, b, bytes);
        });
    }
}

GroupAnalysis
seedAnalyzeGroup(const dnn::Graph &graph, const arch::ArchConfig &arch,
                 const noc::InterconnectModel &noc, intracore::Explorer &explorer,
                 const LayerGroupMapping &group, std::int64_t batch,
                 const mapping::OfmapDramLookup &ofmap_dram_of)
{
    GroupAnalysis out;
    out.dramBytesPerUnit.assign(arch.dramCount, 0.0);
    out.numUnits = batch / group.batchUnit;

    const std::size_t n_layers = group.layers.size();

    std::vector<std::vector<Piece>> pieces(n_layers);
    for (std::size_t li = 0; li < n_layers; ++li) {
        const dnn::Layer &layer = graph.layer(group.layers[li]);
        const MappingScheme &ms = group.schemes[li];
        double stage_seconds = 0.0;
        pieces[li].reserve(ms.coreGroup.size());
        for (std::size_t i = 0; i < ms.coreGroup.size(); ++i) {
            Piece p;
            p.core = ms.coreGroup[i];
            p.wr = workRegionOf(layer, ms.part, group.batchUnit,
                                workIndexOf(ms.part,
                                            static_cast<std::int64_t>(i)));
            p.outputBytes = static_cast<double>(p.wr.volume());

            intracore::Tile tile;
            tile.b = p.wr.b1 - p.wr.b0;
            tile.k = p.wr.region.channels();
            tile.h = p.wr.region.height();
            tile.w = p.wr.region.width();
            tile.vecOpFactor =
                static_cast<double>(layer.vectorOpsPerSample()) /
                static_cast<double>(layer.ofmapVolume());
            switch (layer.kind) {
              case dnn::LayerKind::Conv:
              case dnn::LayerKind::FC:
                tile.macWork = true;
                tile.cPerGroup = layer.c / layer.groups;
                tile.r = layer.r;
                tile.s = layer.s;
                tile.strideH = layer.strideH;
                tile.strideW = layer.strideW;
                break;
              case dnn::LayerKind::Matmul:
                tile.macWork = true;
                tile.cPerGroup = layer.transposedInner();
                break;
              default:
                tile.macWork = false;
                break;
            }
            const intracore::CoreCost &cost = explorer.evaluate(tile);
            out.coreEnergyPerUnit += cost.energyJ;
            stage_seconds =
                std::max(stage_seconds, explorer.seconds(cost.cycles));
            pieces[li].push_back(p);
        }
        out.maxStageSeconds = std::max(out.maxStageSeconds, stage_seconds);
    }

    auto dram_read = [&](DramSel sel, double bytes,
                         const std::vector<noc::NodeId> &dsts) {
        if (bytes <= 0.0 || dsts.empty())
            return;
        if (sel == kDramInterleaved) {
            const double share = bytes / arch.dramCount;
            for (int d = 0; d < arch.dramCount; ++d) {
                seedMulticast(noc, out.traffic, noc.dramNode(d), dsts,
                              share);
                out.dramBytesPerUnit[d] += share;
            }
        } else {
            seedMulticast(noc, out.traffic, noc.dramNode(sel - 1), dsts,
                          bytes);
            out.dramBytesPerUnit[sel - 1] += bytes;
        }
    };
    auto dram_write = [&](DramSel sel, double bytes, CoreId src) {
        if (bytes <= 0.0)
            return;
        if (sel == kDramInterleaved) {
            const double share = bytes / arch.dramCount;
            for (int d = 0; d < arch.dramCount; ++d) {
                seedUnicast(noc, out.traffic, noc.coreNode(src),
                            noc.dramNode(d), share);
                out.dramBytesPerUnit[d] += share;
            }
        } else {
            seedUnicast(noc, out.traffic, noc.coreNode(src),
                        noc.dramNode(sel - 1), bytes);
            out.dramBytesPerUnit[sel - 1] += bytes;
        }
    };

    for (std::size_t li = 0; li < n_layers; ++li) {
        const LayerId layer_id = group.layers[li];
        const dnn::Layer &layer = graph.layer(layer_id);
        const MappingScheme &ms = group.schemes[li];

        const std::size_t n_inputs =
            std::max<std::size_t>(layer.inputs.size(), 1);
        for (std::size_t j = 0; j < n_inputs; ++j) {
            const bool external = layer.inputs.empty();
            const LayerId producer = external ? -1 : layer.inputs[j];
            const int pi = external ? -1 : group.indexOf(producer);

            if (pi >= 0) {
                for (const Piece &pp : pieces[pi]) {
                    std::map<RegionKey, std::pair<double,
                                                  std::vector<noc::NodeId>>>
                        mcast;
                    for (const Piece &cp : pieces[li]) {
                        const dnn::Region rq =
                            layer.requiredInput(j, cp.wr.region);
                        const dnn::Region ov = rq.intersect(pp.wr.region);
                        const std::int64_t b0 =
                            std::max(cp.wr.b0, pp.wr.b0);
                        const std::int64_t b1 =
                            std::min(cp.wr.b1, pp.wr.b1);
                        if (ov.empty() || b1 <= b0)
                            continue;
                        const double bytes =
                            static_cast<double>(ov.volume() * (b1 - b0));
                        if (cp.core == pp.core)
                            continue;
                        auto &entry = mcast[keyOf(ov, b0, b1)];
                        entry.first = bytes;
                        entry.second.push_back(noc.coreNode(cp.core));
                    }
                    for (const auto &[key, flow] : mcast)
                        seedMulticast(noc, out.traffic,
                                      noc.coreNode(pp.core), flow.second,
                                      flow.first);
                }
                for (Piece &cp : pieces[li]) {
                    const dnn::Region rq =
                        layer.requiredInput(j, cp.wr.region);
                    const dnn::Region ov =
                        rq.intersect(dnn::Region::full(
                            graph.layer(producer).k,
                            graph.layer(producer).h,
                            graph.layer(producer).w));
                    cp.inputBytes += static_cast<double>(
                        ov.volume() * (cp.wr.b1 - cp.wr.b0));
                }
            } else {
                const DramSel src = external
                                        ? ms.fd.ifmap
                                        : ofmap_dram_of(producer);
                std::int64_t pc, ph, pw;
                graph.producerShape(producer, pc, ph, pw);
                std::map<RegionKey,
                         std::pair<double, std::vector<noc::NodeId>>>
                    mcast;
                for (Piece &cp : pieces[li]) {
                    dnn::Region rq = layer.requiredInput(j, cp.wr.region);
                    rq = rq.clampTo(pc, ph, pw);
                    if (rq.empty())
                        continue;
                    const double bytes = static_cast<double>(
                        rq.volume() * (cp.wr.b1 - cp.wr.b0));
                    cp.inputBytes += bytes;
                    auto &entry = mcast[keyOf(rq, cp.wr.b0, cp.wr.b1)];
                    entry.first = bytes;
                    entry.second.push_back(noc.coreNode(cp.core));
                }
                for (const auto &[key, flow] : mcast)
                    dram_read(src, flow.first, flow.second);
            }
        }
    }

    for (std::size_t li = 0; li < n_layers; ++li) {
        const dnn::Layer &layer = graph.layer(group.layers[li]);
        if (!layer.hasWeights())
            continue;
        const MappingScheme &ms = group.schemes[li];

        std::map<std::int64_t, std::pair<double, std::vector<noc::NodeId>>>
            by_k;
        std::vector<double> weight_bytes_of(pieces[li].size(), 0.0);
        for (std::size_t i = 0; i < pieces[li].size(); ++i) {
            const Piece &p = pieces[li][i];
            const std::int64_t klen = p.wr.region.channels();
            const double wbytes =
                static_cast<double>(klen * (layer.c / layer.groups) *
                                    layer.r * layer.s) +
                4.0 * klen;
            weight_bytes_of[i] = wbytes;
            auto &entry = by_k[p.wr.region.c0];
            entry.first = wbytes;
            entry.second.push_back(noc.coreNode(p.core));
        }

        bool resident = true;
        for (std::size_t i = 0; i < pieces[li].size(); ++i) {
            const Piece &p = pieces[li][i];
            const double need = weight_bytes_of[i] +
                                2.0 * (p.inputBytes + p.outputBytes);
            if (need > static_cast<double>(arch.glbBytes()))
                resident = false;
        }
        const double factor =
            resident ? 1.0 / static_cast<double>(out.numUnits) : 1.0;
        for (const auto &[k0, flow] : by_k)
            dram_read(ms.fd.weight, flow.first * factor, flow.second);
    }

    for (std::size_t li = 0; li < n_layers; ++li) {
        const MappingScheme &ms = group.schemes[li];
        if (ms.fd.ofmap == kDramUnmanaged)
            continue;
        for (const Piece &p : pieces[li])
            dram_write(ms.fd.ofmap, static_cast<double>(p.wr.volume()),
                       p.core);
    }

    for (std::size_t li = 0; li < n_layers; ++li) {
        const dnn::Layer &layer = graph.layer(group.layers[li]);
        for (const Piece &p : pieces[li]) {
            double need = 2.0 * (p.inputBytes + p.outputBytes);
            if (layer.hasWeights()) {
                const std::int64_t klen = p.wr.region.channels();
                const double wbytes = static_cast<double>(
                    klen * (layer.c / layer.groups) * layer.r * layer.s);
                need += std::min(wbytes,
                                 static_cast<double>(arch.glbBytes()) / 4);
            }
            const double ratio =
                need / static_cast<double>(arch.glbBytes()) - 1.0;
            out.glbOverflow = std::max(out.glbOverflow, ratio);
        }
    }
    out.glbOverflow = std::max(out.glbOverflow, 0.0);

    std::vector<int> depth(n_layers, 1);
    for (std::size_t li = 0; li < n_layers; ++li) {
        for (LayerId in : graph.layer(group.layers[li]).inputs) {
            const int pi = group.indexOf(in);
            if (pi >= 0)
                depth[li] = std::max(depth[li], depth[pi] + 1);
        }
        out.pipelineDepth = std::max(out.pipelineDepth, depth[li]);
    }
    return out;
}

double
seedOptimize(const dnn::Graph &graph, const arch::ArchConfig &arch,
             const noc::InterconnectModel &noc, intracore::Explorer &explorer,
             const cost::CostStack &energy, const mapping::Analyzer &an,
             LpMapping &mapping, int iterations, std::uint64_t seed)
{
    Rng rng(seed);
    auto analyze_one = [&](const LpMapping &m, std::size_t g) {
        auto lookup = [&m](LayerId layer) { return m.ofmapDramOf(layer); };
        const GroupAnalysis analysis = seedAnalyzeGroup(
            graph, arch, noc, explorer, m.groups[g], m.batch, lookup);
        return an.evaluate(analysis, energy);
    };

    std::vector<eval::EvalBreakdown> evals;
    for (std::size_t g = 0; g < mapping.groups.size(); ++g)
        evals.push_back(analyze_one(mapping, g));
    double current_cost = mapping::SaEngine::cost(evals, 1.0, 1.0);

    LpMapping best_mapping = mapping;
    std::vector<eval::EvalBreakdown> best_evals = evals;
    double best_cost = current_cost;

    std::vector<double> weights(mapping.groups.size());
    for (std::size_t g = 0; g < mapping.groups.size(); ++g) {
        const auto &grp = mapping.groups[g];
        const double lg = mapping::log10SpaceSize(
            static_cast<std::int64_t>(grp.totalCores()),
            static_cast<std::int64_t>(grp.layers.size()));
        weights[g] = std::isfinite(lg) ? std::max(1.0, lg) : 1.0;
    }

    auto consumer_groups_of = [&](LayerId layer) {
        std::vector<std::size_t> out;
        for (LayerId consumer : graph.consumers(layer)) {
            const int g = mapping.groupOf(consumer);
            if (g >= 0)
                out.push_back(static_cast<std::size_t>(g));
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
    };

    const double t_start = 0.2, t_end = 1e-3;
    const double t_ratio = t_end / t_start;
    for (int iter = 0; iter < iterations; ++iter) {
        const double progress =
            iterations > 1 ? static_cast<double>(iter) / (iterations - 1)
                           : 1.0;
        const double temp = t_start * std::pow(t_ratio, progress);

        const std::size_t g = rng.nextWeighted(weights);
        const auto op = static_cast<mapping::SaOperator>(rng.nextInt(5));

        LayerGroupMapping saved = mapping.groups[g];
        const mapping::OperatorEffect eff =
            applyOperator(op, mapping.groups[g], graph, arch, rng);
        if (!eff.applied)
            continue;

        std::vector<std::size_t> touched{g};
        if (eff.ofmapFlowChanged) {
            for (std::size_t cg : consumer_groups_of(eff.ofmapLayer))
                if (cg != g)
                    touched.push_back(cg);
        }
        std::vector<eval::EvalBreakdown> saved_evals;
        saved_evals.reserve(touched.size());
        for (std::size_t t : touched) {
            saved_evals.push_back(evals[t]);
            evals[t] = analyze_one(mapping, t);
        }

        const double new_cost = mapping::SaEngine::cost(evals, 1.0, 1.0);
        const double delta = (new_cost - current_cost) /
                             std::max(current_cost, 1e-300);
        bool accept = delta < 0.0;
        if (!accept && temp > 0.0)
            accept = rng.nextDouble() < std::exp(-delta / temp);

        if (accept) {
            current_cost = new_cost;
            if (new_cost < best_cost) {
                best_cost = new_cost;
                best_mapping = mapping;
                best_evals = evals;
            }
        } else {
            mapping.groups[g] = std::move(saved);
            for (std::size_t t = 0; t < touched.size(); ++t)
                evals[touched[t]] = saved_evals[t];
        }
    }

    mapping = std::move(best_mapping);
    return best_cost;
}

} // namespace seedpath

void
BM_SaThroughputSeed(benchmark::State &state)
{
    const SaWorkload &w = saWorkload();
    double best = 0.0;
    for (auto _ : state) {
        noc::InterconnectModel noc(w.arch);
        intracore::Explorer ex(w.arch.macsPerCore, w.arch.glbBytes(),
                               w.arch.freqGHz);
        cost::CostStack em(w.arch);
        mapping::Analyzer an(w.graph, w.arch, noc, ex);
        mapping::LpMapping m = w.init;
        best = seedpath::seedOptimize(w.graph, w.arch, noc, ex, em, an, m,
                                      kSaBudget, kSaSeed);
    }
    state.SetItemsProcessed(state.iterations() * kSaBudget);
    state.counters["best_cost"] = best;
}
BENCHMARK(BM_SaThroughputSeed);

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

BENCHMARK_MAIN();
