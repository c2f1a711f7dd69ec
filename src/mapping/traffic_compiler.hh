/**
 * @file
 * Stage 3 of the mapping-evaluation pipeline: traffic compilation. Turns
 * one layer's tiled work regions plus its producers' into the layer's
 * complete traffic fragment — inbound activation flows (in-group NoC
 * multicast, cross-group/external DRAM reads), weight loads (multicast per
 * k-slice, amortized when resident), managed ofmap stores, per-DRAM byte
 * counts and GLB pressure — routed through the interconnect seam straight
 * into a dense per-link accumulator and drained as a flat link list in
 * ascending link-id order.
 */

#ifndef GEMINI_MAPPING_TRAFFIC_COMPILER_HH
#define GEMINI_MAPPING_TRAFFIC_COMPILER_HH

#include <cstdint>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/common/arena.hh"
#include "src/dnn/graph.hh"
#include "src/mapping/fragments.hh"
#include "src/noc/interconnect.hh"

namespace gemini::mapping {

/**
 * Compiles per-layer traffic fragments over one (graph, arch,
 * interconnect) triple. Holds only reusable dense scratch — results
 * do not depend on call history. Not thread-safe (the scratch); every
 * analyzer owns its own compiler.
 */
class TrafficCompiler
{
  public:
    TrafficCompiler(const dnn::Graph &graph, const arch::ArchConfig &arch,
                    const noc::InterconnectModel &noc);

    /**
     * Compile layer `li`'s fragment into `flows`, overwriting every
     * field; the link list is allocated from `payload`. `tiles` holds the
     * tiling-stage output of every layer of the group (producer regions
     * are read through it); `num_units` is batch / batchUnit
     * (weight-residency amortization).
     */
    void compile(const LayerGroupMapping &group, std::size_t li,
                 const std::vector<const LayerTiles *> &tiles,
                 std::int64_t num_units,
                 const OfmapDramLookup &ofmap_dram_of, LayerFlows &flows,
                 common::BumpArena &payload) const;

    /**
     * Append this stage's exact memoization key for layer `li`: its own
     * scheme, the batch/unit (weight-residency amortization), the Part+CG
     * of every in-group producer (their piece geometry shapes the flows)
     * and the resolved DRAM of every out-of-group producer. The key
     * layout lives with the stage that reads the inputs.
     */
    static void appendKey(FragmentKey &key, const dnn::Graph &graph,
                          const LayerGroupMapping &group, std::size_t li,
                          std::int64_t batch,
                          const OfmapDramLookup &ofmap_dram_of);

    /**
     * Heap-allocation events in the retained compile scratch (arena
     * chunk acquisitions). Constant once the compiler has warmed up.
     */
    std::uint64_t allocEvents() const;

  private:
    const dnn::Graph &graph_;
    const arch::ArchConfig &arch_;
    const noc::InterconnectModel &noc_;

    /**
     * Dense per-link scratch every route hop adds into, in place; empty
     * between compiles.
     */
    mutable DenseLinkAccumulator merge_;

    /**
     * Per-call scratch: n_pieces-sized arrays and the producer-piece
     * buckets bump-allocate from the retained arena (reset per compile),
     * so steady-state compiles allocate nothing (allocEvents() proves it).
     */
    mutable common::BumpArena arena_{64 * 1024};
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_TRAFFIC_COMPILER_HH
