/**
 * @file
 * The LP SPM Analyzer facade (Sec. V-B): wires the staged evaluation
 * pipeline — encoding parse/validation (src/mapping/encoding), per-group
 * intra-core tiling (TilingStage), traffic compilation (TrafficCompiler)
 * and cost accumulation (cost::CostStack) — and memoizes the per-layer
 * fragments the stages exchange so the SA controller's incremental moves
 * re-derive only what they touched. Every group evaluation is one full
 * merge of the group's (mostly cached) fragments, priced in link-id
 * order.
 */

#ifndef GEMINI_MAPPING_ANALYZER_HH
#define GEMINI_MAPPING_ANALYZER_HH

#include <cstdint>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/common/flat_table.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/graph.hh"
#include "src/eval/breakdown.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/fragments.hh"
#include "src/mapping/tiling.hh"
#include "src/mapping/traffic_compiler.hh"
#include "src/noc/interconnect.hh"

namespace gemini::mapping {

/**
 * Steady-state (per batch unit) analysis of one layer group. One-time
 * weight loads are amortized over the unit count so every field scales
 * uniformly with pipeline progress.
 */
struct GroupAnalysis
{
    /** Per-link bytes moved per batch unit. */
    noc::TrafficMap traffic;

    /** Per-DRAM-stack bytes (read + write) per batch unit. */
    std::vector<double> dramBytesPerUnit;

    /** Slowest layer-stage compute time per unit (seconds). */
    double maxStageSeconds = 0.0;

    /** Sum of intra-core energies per unit (MAC + vec + GLB + buffers). */
    double coreEnergyPerUnit = 0.0;

    /** Longest dependency chain inside the group (pipeline depth). */
    int pipelineDepth = 1;

    /** batch / batchUnit. */
    std::int64_t numUnits = 1;

    /** Worst per-core GLB oversubscription ratio (0 = everything fits). */
    double glbOverflow = 0.0;
};

/**
 * One group's fragments, gathered and merged but not yet priced:
 * everything evaluateGroup reads that a fragment-identical analyzer (see
 * fragmentIdentical) would derive bit for bit. Pricing adds what differs
 * between such analyzers: link kinds, bandwidths and the cost stack.
 */
struct GatheredGroup
{
    std::int64_t numUnits = 1;
    int pipelineDepth = 1;
    double coreEnergy = 0.0; ///< per unit
    double maxStage = 0.0;   ///< slowest layer stage, seconds per unit
    double glbOverflow = 0.0;
    std::vector<double> dramPerUnit;

    /** Merged per-link bytes per unit, in ascending link-id order. */
    std::vector<noc::LinkId> linkIds;
    std::vector<double> linkBytes;
};

/**
 * Whether two interconnects' architectures derive bit-identical tile and
 * flow fragments for every group of one graph (under one TechParams):
 * the same MACs/core, GLB, frequency, DRAM count and core grid, and
 * byte-identical route and link-id tables. Chiplet cuts that move only
 * link kinds (mesh, torus, ring) and every bandwidth may differ; a
 * hierarchical-NoP cut changes routes and splits.
 */
bool fragmentIdentical(const noc::InterconnectModel &a,
                       const noc::InterconnectModel &b);

/**
 * The same test for architecture `x` routed by `a` and `y` routed by
 * `b`, where each model may be built from any config that shares its
 * architecture's routing fields (topology, core grid, cuts and DRAM
 * count): one model then serves every architecture with those fields.
 */
bool fragmentIdentical(const arch::ArchConfig &x,
                       const noc::InterconnectModel &a,
                       const arch::ArchConfig &y,
                       const noc::InterconnectModel &b);

/**
 * What pricing a gathered group reads of one architecture: its link kinds
 * and bandwidths, and its cost stack. Copied out of the interconnect, so
 * a cohort member is priced without keeping its route tables alive.
 * price(gathered) is bit-identical to the full-merge evaluateGroup of the
 * gathered group on that architecture.
 */
class GroupPricer
{
  public:
    GroupPricer(const noc::InterconnectModel &noc,
                const cost::CostStack &costs);

    eval::EvalBreakdown price(const GatheredGroup &gathered) const;

  private:
    std::vector<noc::LinkKind> kinds_; ///< by link id
    double nocBps_ = 0.0;
    double d2dBps_ = 0.0;
    cost::CostStack costs_;
};

/**
 * Stateless-per-call analyzer bound to one (graph, arch) pair. The
 * intra-core explorer it holds memoizes tile costs across calls, and the
 * analyzer itself memoizes per-layer fragments (see setCacheCapacity),
 * which together make the SA loop cheap. Not thread-safe: every SA chain
 * / DSE worker owns its own analyzer.
 */
class Analyzer
{
  public:
    Analyzer(const dnn::Graph &graph, const arch::ArchConfig &arch,
             const noc::InterconnectModel &noc,
             intracore::Explorer &explorer);

    /**
     * Analyze one group of an LMS. `ofmap_dram_of` must resolve FD.OF for
     * producers mapped in other groups (cross-group flows read the DRAM
     * the producer wrote, per Sec. IV-A).
     */
    GroupAnalysis analyzeGroup(const LayerGroupMapping &group,
                               std::int64_t batch,
                               const OfmapDramLookup &ofmap_dram_of) const;

    /** Pipeline fill/drain + steady-state evaluation (Sec. V-B2). */
    eval::EvalBreakdown evaluate(const GroupAnalysis &analysis,
                                 const cost::CostStack &costs) const;

    /**
     * Fused analyzeGroup + evaluate for the SA hot path: gatherGroup
     * through the fragment caches, then price the merged links in
     * ascending link-id order. Per-link totals sum in layer order, so the
     * result is the same bit for bit with or without caching.
     */
    eval::EvalBreakdown evaluateGroup(const LayerGroupMapping &group,
                                      std::int64_t batch,
                                      const OfmapDramLookup &ofmap_dram_of,
                                      const cost::CostStack &costs) const;

    /**
     * The first half of the full-merge evaluateGroup: resolve the group's
     * fragments (through this analyzer's caches) and merge them into
     * `out`. A GroupPricer of any fragment-identical architecture prices
     * the result as that architecture's own evaluateGroup would.
     */
    void gatherGroup(const LayerGroupMapping &group, std::int64_t batch,
                     const OfmapDramLookup &ofmap_dram_of,
                     GatheredGroup &out) const;

    const noc::InterconnectModel &noc() const { return noc_; }

    /**
     * Bound each fragment cache to `entries` results (0 disables all
     * caching). Two exact-keyed per-layer caches feed every evaluation:
     *
     *  - the tile cache memoizes a layer's intra-core cost (two
     *    doubles), keyed by (layer, Part, batch unit) — core placement
     *    does not change tile shapes;
     *  - the flow cache memoizes one layer's complete traffic fragment
     *    (inbound activations, weight loads, ofmap stores, DRAM bytes,
     *    GLB pressure), keyed by the layer's scheme plus the schemes of
     *    its in-group producers and the resolved DRAMs of its
     *    out-of-group producers.
     *
     * An SA move that perturbs one layer therefore re-derives only that
     * layer's fragment and the fragments of its in-group consumers; the
     * rest of the group assembles from cache. Keys are compared in full,
     * so a hit is exact by construction. Each cache is a young/old pair
     * of open-addressing flat tables (common::FlatWordCache): when the
     * young half fills, the old half is wiped, so the working set in use
     * survives — cheap bookkeeping over LRU precision. Probing is
     * allocation-free, every buffer is pre-sized here, and a wipe keeps
     * the storage of the fragments it drops for the next ones.
     */
    void setCacheCapacity(std::size_t entries);
    std::size_t cacheCapacity() const { return cacheCapacity_; }
    void clearCache();

    /**
     * Does nothing. Only benchmark/probe.cc calls it; it stays until the
     * probe no longer does.
     */
    void setDeltaEval(bool) {}

    /** Per-layer fragment cache statistics. */
    std::uint64_t tileCacheHits() const { return tileHits_; }
    std::uint64_t tileCacheMisses() const { return tileMisses_; }
    std::uint64_t flowCacheHits() const { return flowHits_; }
    std::uint64_t flowCacheMisses() const { return flowMisses_; }

    /**
     * Former whole-group eval memo statistics, still read by the
     * benchmark probe. There is no eval memo: hits is always 0 and misses
     * counts evaluateGroup calls.
     */
    std::uint64_t evalCacheHits() const { return 0; }
    std::uint64_t evalCacheMisses() const { return fullMerges_; }

    /**
     * Always 0: there is no delta evaluator. Only benchmark/probe.cc
     * reads it; it stays until the probe no longer does.
     */
    std::uint64_t deltaApplies() const { return 0; }

    /**
     * Buffer-growth events across the two cache tables (slots, keys,
     * value pools, payload arenas) and the hoisted key probe since
     * construction. Flat in steady state: probing, key construction and
     * bounded insertion never allocate once setCacheCapacity has
     * pre-sized everything and the payload arenas have grown to hold a
     * generation's fragments, and a wipe keeps all of it.
     */
    std::uint64_t cacheAllocEvents() const;

    /** Heap-allocation events inside the traffic compiler's scratch. */
    std::uint64_t compilerAllocEvents() const;

    /**
     * Every allocation-accounting counter at once: caches + probes +
     * compiler scratch. The steady-state test asserts this is flat
     * across a warmed evaluation walk.
     */
    std::uint64_t
    totalAllocEvents() const
    {
        return cacheAllocEvents() + compilerAllocEvents();
    }

  private:
    /**
     * Resolved per-layer fragments of one group: tile costs by value,
     * flows as pointers into the flow cache or into localFlows when
     * caching is off. Valid until the next gatherFragments call on this
     * analyzer.
     */
    struct FragmentSet
    {
        std::vector<LayerTiles> tiles;
        std::vector<const LayerFlows *> flows;
        std::vector<LayerFlows> localFlows; ///< refilled in place
        common::BumpArena localPayload;     ///< their link lists
        std::int64_t numUnits = 1;
    };

    void gatherFragments(const LayerGroupMapping &group, std::int64_t batch,
                         const OfmapDramLookup &ofmap_dram_of,
                         FragmentSet &out) const;

    /** Cache-backed tile fragment of one layer (caching must be on). */
    LayerTiles cachedTiles(const LayerGroupMapping &group,
                           std::size_t li) const;

    /** Cache-backed flow fragment of one layer (caching must be on). */
    const LayerFlows &cachedFlows(const LayerGroupMapping &group,
                                  std::size_t li, std::int64_t batch,
                                  std::int64_t num_units,
                                  const OfmapDramLookup &ofmap_dram_of)
        const;

    int pipelineDepthOf(const LayerGroupMapping &group) const;

    /** Note a probe-buffer growth (allocation accounting). */
    void noteProbeGrowth() const;

    const dnn::Graph &graph_;
    arch::ArchConfig arch_;
    const noc::InterconnectModel &noc_;

    // ---- pipeline stages ----
    TilingStage tiling_;
    TrafficCompiler trafficCompiler_;

    std::size_t cacheCapacity_ = 0;

    mutable common::FlatWordCache<LayerTiles> tileCache_;
    mutable common::FlatWordCache<LayerFlows> flowCache_;
    mutable FragmentSet fragScratch_;

    /**
     * Reusable probe key: lookups build the key in place (no allocation
     * in steady state); only a miss pays a copy into the cache.
     */
    mutable FragmentKey fragProbe_;
    mutable std::size_t fragProbeCap_ = 0;
    mutable std::uint64_t probeAllocs_ = 0;

    /** Dense merge scratch of the fused cost-accumulation path. */
    mutable DenseLinkAccumulator merge_;
    /** The full merge's gathered group. */
    mutable GatheredGroup gathered_;
    mutable std::uint64_t tileHits_ = 0;
    mutable std::uint64_t tileMisses_ = 0;
    mutable std::uint64_t flowHits_ = 0;
    mutable std::uint64_t flowMisses_ = 0;
    mutable std::uint64_t fullMerges_ = 0;
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_ANALYZER_HH
