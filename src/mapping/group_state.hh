/**
 * @file
 * Resident per-group evaluation state for the delta-evaluated SA hot path
 * (Sec. V-B): dense per-link byte totals with per-slot contribution
 * arrays, a tournament (max segment) tree over per-link serialization
 * seconds, and packed per-layer scalar aggregates, all maintained under
 * O(delta) fragment replacement.
 *
 * Soundness contract (verified bit-for-bit by the differential fuzz test):
 * every aggregate the state reports is a *pure function of the current
 * fragment set*, folded in a canonical order — per-slot totals sum the
 * contributing layers' bytes in ascending layer order (exactly the order
 * the full-merge reference accumulates them), the on-chip/D2D sums fold
 * active links in ascending link-id order (the reference drains its
 * dense scratch in the same order), and the bottleneck is a max,
 * which is order-free. Delta application therefore never drifts from a
 * from-scratch re-merge: a changed layer's contributions are unlinked and
 * relinked, and every affected slot is *re-summed from zero* over its
 * (ascending-layer) contribution array rather than adjusted in place —
 * floating-point subtract-then-add could not reproduce the reference.
 *
 * Layout: the interconnect's link-id space is only a 4-byte index map;
 * all hot per-link state is packed into a dense array with one entry per
 * link that ever carried traffic (about a thousand, tens of kilobytes),
 * so delta surgery and the canonical folds run against L1/L2-resident
 * lines. Contributions live in size-classed slabs bump-allocated from a
 * retained arena (common/arena.hh) — list surgery is memmove over
 * contiguous entries and re-summing streams one cache-resident array,
 * so steady-state delta application performs zero heap allocations
 * (allocEvents() proves it).
 * The canonical folds are cached per delta (pure functions of the
 * resident fragment set). Every fold is a plain scalar loop; the
 * order-free ones (tournament levels, maxima) compare exactly as the
 * full-merge reference does, so no lane grouping can change a bit.
 */

#ifndef GEMINI_MAPPING_GROUP_STATE_HH
#define GEMINI_MAPPING_GROUP_STATE_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/arena.hh"
#include "src/dnn/graph.hh"
#include "src/mapping/fragments.hh"
#include "src/noc/interconnect.hh"

namespace gemini::mapping {

/**
 * Iterative max segment tree over a fixed dense leaf space (rounded up
 * to a power of two so bulk rebuilds run level by level). Point
 * updates are O(log leaves) with an early exit once an ancestor is
 * unchanged; the root read is O(1). Max is order-independent, so the
 * tree is bit-exact against any linear scan of the same leaves.
 */
class MaxSegTree
{
  public:
    void
    reset(std::size_t leaves)
    {
        n_ = roundUpPow2(leaves);
        tree_.assign(2 * n_, 0.0);
    }

    /** Grow to `leaves`, preserving existing leaf values. */
    void resizePreserve(std::size_t leaves);

    std::size_t leaves() const { return n_; }

    void
    set(std::size_t leaf, double value)
    {
        std::size_t x = leaf + n_;
        if (tree_[x] == value)
            return;
        tree_[x] = value;
        for (x >>= 1; x >= 1; x >>= 1) {
            const double m = std::max(tree_[2 * x], tree_[2 * x + 1]);
            if (tree_[x] == m)
                break;
            tree_[x] = m;
            if (x == 1)
                break;
        }
    }

    /** Leaf slot for a bulk write; build() must follow before max(). */
    double &leaf(std::size_t i) { return tree_[n_ + i]; }

    /**
     * Bulk rebuild: every internal level recomputes bottom-up from the
     * leaves with std::max's (a < b) ? b : a — O(leaves) total, vs
     * O(count log leaves) point sets.
     */
    void build();

    /** Max over all leaves (0 when nothing was ever set). */
    double max() const { return tree_[1]; }

  private:
    static std::size_t
    roundUpPow2(std::size_t v)
    {
        std::size_t n = 1;
        while (n < v)
            n <<= 1;
        return n;
    }

    std::size_t n_ = 1;
    std::vector<double> tree_{0.0, 0.0};
};

/** Per-layer slice of a resident group state. */
struct GroupLayerState
{
    MappingScheme scheme; ///< the scheme the resident fragment reflects

    /** Group indices of in-group producers (input order, duplicates kept). */
    std::vector<std::int32_t> inGroupProducers;
    /** Out-of-group producers (input order) and their resolved DRAMs. */
    std::vector<LayerId> outProducers;
    std::vector<DramSel> producerDrams;

    /**
     * Link ids of the layer's resident link fragment, in the fragment's
     * (first-touch) emission order — everything unlinking needs; bytes
     * live in the per-link contribution slabs and the scalar aggregates
     * in the owning GroupState's packed arrays.
     */
    std::vector<noc::LinkId> linkIds;
};

/**
 * Resident evaluation state of one layer group. Owned by the Analyzer and
 * keyed by group membership (layers, batch unit, batch): SA operators
 * never move layers between groups, so the membership key is stable across
 * a whole SA walk and the state absorbs every move as a fragment delta.
 * A membership change simply misses the key and triggers a rebuild (the
 * full-merge fallback).
 */
class GroupState
{
  public:
    /** Membership identity: batch, batchUnit, then the layer ids. */
    std::vector<std::int64_t> membership;
    std::uint64_t lastUse = 0; ///< LRU stamp maintained by the Analyzer
    bool valid = false;

    std::vector<GroupLayerState> layers;

    /**
     * Longest dependency chain inside the group. A pure function of
     * graph structure and group membership — both fixed for the life of
     * this state — so it is computed once per rebuild and never again
     * (the per-evaluation recomputation was a measured hot spot).
     */
    int pipelineDepth = 1;

    /** Populate from a complete fragment set (the full-merge fallback). */
    void rebuild(const dnn::Graph &graph, const LayerGroupMapping &group,
                 std::int64_t batch,
                 std::span<const LayerTiles *const> tiles,
                 std::span<const LayerFlows *const> flows,
                 const OfmapDramLookup &ofmap_dram_of,
                 const noc::InterconnectModel &noc);

    /**
     * Replace the fragments of `changed` (ascending group indices) with
     * the non-null entries of `tiles`/`flows` and re-derive every affected
     * link. O(changed fragments + affected links * contributors +
     * affected links * log links) — independent of group size.
     */
    void applyDelta(const LayerGroupMapping &group,
                    std::span<const std::size_t> changed,
                    std::span<const LayerTiles *const> tiles,
                    std::span<const LayerFlows *const> flows,
                    const OfmapDramLookup &ofmap_dram_of,
                    const noc::InterconnectModel &noc);

    /** Canonical fold of the resident link state (ascending link ids). */
    struct LinkFold
    {
        double onChipBytes = 0.0;
        double d2dBytes = 0.0;
        double maxLinkSeconds = 0.0; ///< tournament-tree root, O(1)
    };
    LinkFold fold() const;

    /** Canonical fold of the per-layer scalar aggregates. */
    struct ScalarFold
    {
        double coreEnergy = 0.0;  ///< sum in ascending layer order
        double maxStage = 0.0;    ///< order-free max, seeded at +0.0
        double glbOverflow = 0.0; ///< order-free max, >= 0
    };
    ScalarFold foldScalars() const;

    /**
     * acc[d] += sum over layers of the layer's per-DRAM bytes, folding
     * layers in ascending order per stack (the reference order).
     *
     * All three folds are pure functions of the resident fragment set,
     * so their results are cached and recomputed only after a rebuild
     * or delta dirties the state — an SA proposal touches one group,
     * and every *other* group's evaluation then reads the cache instead
     * of re-walking hundreds of packed entries. Bit-safety: the cache
     * holds exactly the bits the walk would produce (for the DRAM fold,
     * x + 0.0 == x for the non-negative byte totals involved).
     */
    void accumulateDram(double *acc, std::size_t dram_count) const;

    std::size_t activeLinks() const { return active_.size(); }

    /**
     * Heap-allocation events since construction: contribution-arena
     * chunk acquisitions plus capacity growth of every retained buffer.
     * Constant across a warmed steady-state walk — the zero-allocation
     * test pins exactly that.
     */
    std::uint64_t allocEvents() const;

  private:
    /** One layer's bytes on one link (slab entry). */
    struct Contrib
    {
        double bytes = 0.0;
        std::uint32_t layer = 0;
        std::uint32_t pad_ = 0;
    };

    /** Size classes: class c holds 4 << c entries (4 .. 32M). */
    static constexpr std::size_t kNumClasses = 24;

    static std::uint16_t
    classFor(std::size_t count)
    {
        std::uint16_t c = 0;
        while ((std::size_t{4} << c) < count)
            ++c;
        return c;
    }
    static std::size_t classCap(std::uint16_t c) { return std::size_t{4} << c; }

    /** Pop a slab from the class free list or bump the arena. */
    Contrib *allocSlab(std::uint16_t cls);
    /** Return a slab to its class free list (next ptr in first entry). */
    void freeSlab(Contrib *slab, std::uint16_t cls);

    /**
     * All hot state of one ever-active link, packed into the dense
     * array: running total, contribution slab (contiguous, ascending
     * layer), owning link id, and the affected flag. The dense index
     * doubles as the tournament-tree leaf id (max is order-free, so
     * first-touch leaf numbering cannot affect the result). Entries are
     * never reclaimed between rebuilds: a link whose traffic vanishes
     * keeps its entry at bytes 0 / len 0 with a 0.0 leaf.
     */
    struct DenseSlot
    {
        double bytes = 0.0;         ///< canonical per-link total
        Contrib *contrib = nullptr; ///< slab of `len` entries
        noc::LinkId link = 0;       ///< owning link id
        std::uint16_t len = 0;      ///< live entries in the slab
        std::uint16_t capClass = 0; ///< slab size class (valid iff contrib)
        std::uint8_t flag = 0;      ///< affected marker (kWas*)
        /**
         * LinkKind + 1 (0 = not yet stamped). A link's kind is fixed for
         * the life of the interconnect, so it is looked up exactly once
         * per dense entry — not per delta (the kind-table load was a
         * measured scattered-miss cost in the re-sum loop).
         */
        std::uint8_t kindPlus1 = 0;
    };

    /**
     * Dense index of a link, creating (and tree-growing for) a fresh
     * entry on first touch.
     */
    std::uint32_t denseIdxOf(noc::LinkId link);

    /** Account capacity growth of the retained buffers (allocEvents). */
    void noteCapacities();

    /**
     * link id -> dense index + 1 (0 = never touched). The only per-link
     * structure spanning the whole link-id space — 4 bytes per link, a
     * few KiB even on the 264-node grid. Rebuilds clear it sparsely (one
     * write per dense entry), never by sweeping.
     */
    common::ZeroVec<std::uint32_t> linkMap_;

    /** Ever-active links, first-touch order; index == tree leaf id. */
    std::vector<DenseSlot> dense_;

    common::BumpArena contribArena_{256 * 1024};
    std::array<Contrib *, kNumClasses> freeHeads_{};

    /**
     * Sorted non-empty link ids — the canonical link-fold order. The
     * fold walk reads linkMap_ at an ascending stride
     * (prefetch-friendly) and lands in the L1-resident dense array.
     */
    std::vector<noc::LinkId> active_;

    MaxSegTree tree_; ///< per-dense-slot seconds, max at root

    /** Packed per-layer aggregates (SoA; ascending layer order). */
    std::vector<double> layerEnergy_;
    std::vector<double> layerStage_;
    std::vector<double> layerGlb_;
    std::vector<double> layerDram_; ///< layers x dramStride_, row-major
    std::size_t dramStride_ = 0;

    // Delta scratch (hoisted; zero allocations in steady state).
    static constexpr std::uint8_t kWasEmpty = 1;  ///< affected, was empty
    static constexpr std::uint8_t kWasActive = 2; ///< affected, was active

    std::vector<std::uint32_t> affected_; ///< dense indices this delta
    std::vector<std::uint32_t> idxScratch_; ///< new-list dense indices
    std::vector<std::uint32_t> idxOldScratch_; ///< old-list dense indices
    std::vector<std::uint64_t> denseStamp_; ///< carry-over stamps
    std::uint64_t stampEpoch_ = 0; ///< bumped once per relinked layer
    std::vector<std::uint32_t> activeAdds_;
    std::vector<std::uint32_t> activeDels_;
    std::vector<std::uint32_t> activeScratch_;
    std::vector<int> depthScratch_; ///< per-layer pipeline depth

    /** Allocation accounting: arena events + buffer-capacity growth. */
    std::uint64_t growthEvents_ = 0;
    std::size_t capWatermark_ = 0;

    /** Recompute the cached folds if dirty (see accumulateDram docs). */
    void refreshFolds() const;

    mutable LinkFold cachedLink_;
    mutable ScalarFold cachedScalar_;
    mutable std::vector<double> cachedDram_;
    mutable bool foldsValid_ = false;
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_GROUP_STATE_HH
