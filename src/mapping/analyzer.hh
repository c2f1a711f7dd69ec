/**
 * @file
 * The LP SPM Analyzer facade (Sec. V-B): wires the staged evaluation
 * pipeline — encoding parse/validation (src/mapping/encoding), per-group
 * intra-core tiling (TilingStage), traffic compilation (TrafficCompiler)
 * and cost accumulation (cost::CostStack) — and memoizes the per-layer
 * fragments the stages exchange so the SA controller's incremental moves
 * re-derive only what they touched. On top of the fragment caches it
 * keeps *resident per-group states* (GroupState) so re-evaluating a group
 * after an SA move costs O(changed fragments), not O(group size).
 */

#ifndef GEMINI_MAPPING_ANALYZER_HH
#define GEMINI_MAPPING_ANALYZER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/common/flat_table.hh"
#include "src/cost/cost_stack.hh"
#include "src/dnn/graph.hh"
#include "src/eval/breakdown.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/fragments.hh"
#include "src/mapping/group_state.hh"
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
 * Stateless-per-call analyzer bound to one (graph, arch) pair. The
 * intra-core explorer it holds memoizes tile costs across calls, and the
 * analyzer itself optionally memoizes whole-group analyses (see
 * setCacheCapacity), which together make the SA loop cheap. Not
 * thread-safe: every SA chain / DSE worker owns its own analyzer.
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
     * Fused analyzeGroup + evaluate for the SA hot path. With delta
     * evaluation enabled (the default when caching is on) the call diffs
     * the group against its resident GroupState and applies fragment
     * deltas — O(changed layers), not O(group) — falling back to a full
     * re-merge when the membership key misses or the diff spans most of
     * the group. Results are bit-identical to the full-merge path: both
     * fold per-link totals in ascending layer order per slot and fold
     * slots in ascending flat-slot order (see group_state.hh).
     */
    eval::EvalBreakdown evaluateGroup(const LayerGroupMapping &group,
                                      std::int64_t batch,
                                      const OfmapDramLookup &ofmap_dram_of,
                                      const cost::CostStack &costs) const;

    const noc::InterconnectModel &noc() const { return noc_; }

    /**
     * Bound each memoization cache to `entries` results (0 disables all
     * caching). Three exact-keyed caches accelerate analyzeGroup:
     *
     *  - the group cache memoizes whole GroupAnalysis results, keyed by
     *    the complete analysis input (layers, batch unit, every scheme's
     *    Part/CG/FD, the batch, and the resolved DRAM of every
     *    out-of-group producer);
     *  - the per-layer tile cache memoizes partitioned workload regions
     *    and their intra-core cost, keyed by (layer, Part, batch unit) —
     *    core placement does not change tile shapes;
     *  - the per-layer flow cache memoizes one layer's complete traffic
     *    fragment (inbound activations, weight loads, ofmap stores, DRAM
     *    bytes, GLB pressure), keyed by the layer's scheme plus the
     *    schemes of its in-group producers and the resolved DRAMs of its
     *    out-of-group producers.
     *
     * An SA move that perturbs one layer therefore re-derives only that
     * layer's fragment and the fragments of its in-group consumers; the
     * rest of the group assembles from cache. Keys are compared in full,
     * so a hit is exact by construction. When a bound is reached the
     * cache in question is wiped wholesale (generational eviction,
     * mirroring intracore::Explorer's tile cache philosophy of cheap
     * bookkeeping over LRU precision). All four caches are open-addressing
     * flat tables (common/flat_table.hh): probing is allocation-free and
     * every buffer is pre-sized here.
     */
    void setCacheCapacity(std::size_t entries);
    std::size_t cacheCapacity() const { return cacheCapacity_; }
    void clearCache();

    /**
     * Enable/disable delta evaluation (resident GroupStates). On by
     * default; benchmarks and the differential fuzz test switch it off to
     * measure/verify against the full-merge reference. Requires caching
     * (capacity > 0) to take effect.
     */
    void setDeltaEval(bool enabled);
    bool deltaEval() const { return delta_; }

    /**
     * Smallest group size that takes the delta path. Below it O(group)
     * IS O(delta) and the resident state is pure overhead — measured on
     * the GPT-2-class stress workload the crossover sits near 35-40
     * layers (25-layer groups lose ~13%, 50-layer groups win 1.4x,
     * 157-layer groups win 4x) — so smaller groups evaluate via the
     * plain full merge. Tests lower it to 1 to fuzz the delta path on
     * tiny groups.
     */
    void setDeltaMinLayers(std::size_t layers) { deltaMinLayers_ = layers; }

    /** Bound on resident group states (LRU beyond it). */
    void setResidentStateCapacity(std::size_t states);

    /** Group-cache statistics (benchmarks and tests). */
    std::size_t cacheSize() const { return cache_.size(); }
    std::uint64_t cacheHits() const { return cacheHits_; }
    std::uint64_t cacheMisses() const { return cacheMisses_; }
    std::uint64_t cacheEvictions() const { return cacheEvictions_; }

    /** Per-layer fragment cache statistics. */
    std::uint64_t tileCacheHits() const { return tileHits_; }
    std::uint64_t tileCacheMisses() const { return tileMisses_; }
    std::uint64_t flowCacheHits() const { return flowHits_; }
    std::uint64_t flowCacheMisses() const { return flowMisses_; }

    /** evaluateGroup memo statistics. */
    std::uint64_t evalCacheHits() const { return evalHits_; }
    std::uint64_t evalCacheMisses() const { return evalMisses_; }

    /** Delta-evaluation statistics. */
    std::uint64_t deltaApplies() const { return deltaApplies_; }
    std::uint64_t deltaRebuilds() const { return deltaRebuilds_; }
    std::uint64_t deltaChangedLayers() const { return deltaChanged_; }

    /**
     * Buffer-growth events across the four cache tables and the hoisted
     * key probes since construction. Zero in steady state: probing,
     * key construction and bounded insertion never allocate once
     * setCacheCapacity has pre-sized everything.
     */
    std::uint64_t cacheAllocEvents() const;

    /**
     * Heap-allocation events inside the resident group states (arena
     * chunk acquisitions + retained-buffer growth). Constant across a
     * warmed steady-state delta walk.
     */
    std::uint64_t stateAllocEvents() const;

    /** Heap-allocation events inside the traffic compiler's scratch. */
    std::uint64_t compilerAllocEvents() const;

    /**
     * Every allocation-accounting counter at once: caches + probes +
     * resident states + compiler scratch. The steady-state test asserts
     * this is flat across a warmed delta-evaluation walk.
     */
    std::uint64_t
    totalAllocEvents() const
    {
        return cacheAllocEvents() + stateAllocEvents() +
               compilerAllocEvents();
    }

  private:
    using GroupKey = FragmentKey;

    /** Build the group cache key into groupProbe_ and return it. */
    const GroupKey &makeKey(const LayerGroupMapping &group,
                            std::int64_t batch,
                            const OfmapDramLookup &ofmap_dram_of) const;

    /**
     * Resolved per-layer fragments of one group (pointers into the caches
     * or into the local_* stores when caching is off). Valid until the
     * next gatherFragments call on this analyzer.
     */
    struct FragmentSet
    {
        std::vector<const LayerTiles *> tiles;
        std::vector<const LayerFlows *> flows;
        std::vector<LayerTiles> localTiles;
        std::vector<LayerFlows> localFlows;
        std::int64_t numUnits = 1;
    };

    void gatherFragments(const LayerGroupMapping &group, std::int64_t batch,
                         const OfmapDramLookup &ofmap_dram_of,
                         FragmentSet &out) const;

    /** Cache-backed tile fragment of one layer (caching must be on). */
    const LayerTiles &cachedTiles(const LayerGroupMapping &group,
                                  std::size_t li) const;

    /** Cache-backed flow fragment of one layer (caching must be on). */
    const LayerFlows &cachedFlows(const LayerGroupMapping &group,
                                  std::size_t li,
                                  const std::vector<const LayerTiles *> &ts,
                                  std::int64_t batch, std::int64_t num_units,
                                  const OfmapDramLookup &ofmap_dram_of)
        const;

    int pipelineDepthOf(const LayerGroupMapping &group) const;

    GroupAnalysis analyzeGroupImpl(const LayerGroupMapping &group,
                                   std::int64_t batch,
                                   const OfmapDramLookup &ofmap_dram_of)
        const;

    /** Shared tail of the fused paths: price a folded link/scalar state. */
    eval::EvalBreakdown assembleBreakdown(
        int pipeline_depth, double core_energy, double max_stage,
        double glb_overflow, const std::vector<double> &dram_per_unit,
        double on_chip, double d2d, double max_link_seconds,
        std::int64_t num_units, const cost::CostStack &costs) const;

    /** Full-merge fused evaluation (the golden reference path). */
    eval::EvalBreakdown evaluateGroupFullMerge(
        const LayerGroupMapping &group, std::int64_t batch,
        const OfmapDramLookup &ofmap_dram_of,
        const cost::CostStack &costs) const;

    /** Delta evaluation against the group's resident state. */
    eval::EvalBreakdown evaluateGroupDelta(
        const LayerGroupMapping &group, std::int64_t batch,
        const OfmapDramLookup &ofmap_dram_of,
        const cost::CostStack &costs) const;

    /** Resident state for the group's membership key (LRU; never null). */
    GroupState &stateFor(const LayerGroupMapping &group,
                         std::int64_t batch) const;

    /** Fold + price a (current) resident state. */
    eval::EvalBreakdown evaluateFromState(const GroupState &state,
                                          std::int64_t num_units,
                                          const cost::CostStack &costs)
        const;

    /** Note a probe-buffer growth (allocation accounting). */
    void noteProbeGrowth(const GroupKey &key, std::size_t &watermark) const;

    const dnn::Graph &graph_;
    arch::ArchConfig arch_;
    const noc::InterconnectModel &noc_;

    // ---- pipeline stages ----
    TilingStage tiling_;
    TrafficCompiler trafficCompiler_;

    std::size_t cacheCapacity_ = 0;
    bool delta_ = true;
    std::size_t deltaMinLayers_ = 40;
    std::size_t stateCapacity_ = 12;

    mutable common::FlatWordTable<GroupAnalysis> cache_;
    mutable common::FlatWordTable<LayerTiles> tileCache_;
    mutable common::FlatWordTable<LayerFlows> flowCache_;
    mutable common::FlatWordTable<eval::EvalBreakdown> evalCache_;
    mutable FragmentSet fragScratch_;

    /** Resident per-group delta states (LRU by lastUse). */
    mutable std::vector<std::unique_ptr<GroupState>> states_;
    mutable std::uint64_t stateClock_ = 0;

    // Delta scratch (hoisted).
    mutable std::vector<std::uint8_t> selfChanged_;
    mutable std::vector<std::uint8_t> partCgChanged_;
    mutable std::vector<std::uint8_t> needTiles_;
    mutable std::vector<std::size_t> changed_;
    mutable std::vector<std::int64_t> membershipProbe_;

    /**
     * Reusable probe keys: lookups build the key in place (no allocation
     * in steady state); only a miss pays a copy into the cache. Separate
     * probes because the group probe is alive across analyzeGroupImpl,
     * which reuses the fragment probe per layer.
     */
    mutable GroupKey groupProbe_;
    mutable GroupKey fragProbe_;
    mutable std::size_t groupProbeCap_ = 0;
    mutable std::size_t fragProbeCap_ = 0;
    mutable std::uint64_t probeAllocs_ = 0;

    /** Dense merge scratch of the fused cost-accumulation path. */
    mutable DenseLinkAccumulator merge_;
    /** Packed (bytes, kind) of the drained merge, for the SIMD max. */
    mutable std::vector<double> linkBytes_;
    mutable std::vector<std::uint8_t> linkKinds_;
    mutable std::uint64_t cacheHits_ = 0;
    mutable std::uint64_t cacheMisses_ = 0;
    mutable std::uint64_t cacheEvictions_ = 0;
    mutable std::uint64_t tileHits_ = 0;
    mutable std::uint64_t tileMisses_ = 0;
    mutable std::uint64_t flowHits_ = 0;
    mutable std::uint64_t flowMisses_ = 0;
    mutable std::uint64_t evalHits_ = 0;
    mutable std::uint64_t evalMisses_ = 0;
    mutable std::uint64_t deltaApplies_ = 0;
    mutable std::uint64_t deltaRebuilds_ = 0;
    mutable std::uint64_t deltaChanged_ = 0;
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_ANALYZER_HH
