/**
 * @file
 * Shared vocabulary of the staged mapping-evaluation pipeline (Sec. V-B):
 * the per-layer fragment types the stages exchange, the exact flattened
 * cache keys the Analyzer memoizes them under, and the dense per-link
 * accumulator both the traffic compiler and the cost-accumulation stage
 * merge link loads through.
 *
 * Pipeline stages (each in its own translation unit, wired by Analyzer):
 *   1. encoding parse/validation    src/mapping/encoding.{hh,cc}
 *   2. per-group intra-core tiling  src/mapping/tiling.{hh,cc}
 *   3. traffic compilation          src/mapping/traffic_compiler.{hh,cc}
 *   4. cost accumulation            src/mapping/analyzer.cc + cost::CostStack
 */

#ifndef GEMINI_MAPPING_FRAGMENTS_HH
#define GEMINI_MAPPING_FRAGMENTS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/arena.hh"
#include "src/common/logging.hh"
#include "src/common/small_vec.hh"
#include "src/common/types.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/kernels.hh"
#include "src/noc/interconnect.hh"

namespace gemini::mapping {

/**
 * Resolves the DRAM (FD.OF) where an out-of-group producer stored its
 * ofmap. Receives the producer layer id; kDramInterleaved is a valid
 * answer.
 */
using OfmapDramLookup = std::function<DramSel(LayerId)>;

/**
 * Flattened, exact cache key: every scalar a pipeline stage reads,
 * serialized in deterministic order. Cheap to hash, exact to compare.
 */
struct FragmentKey
{
    std::vector<std::int64_t> words;

    bool operator==(const FragmentKey &o) const = default;
};

struct FragmentKeyHash
{
    std::size_t
    operator()(const FragmentKey &key) const
    {
        // FNV-1a over the word stream; exact equality is checked on the
        // full key, so the hash only has to spread well.
        std::uint64_t h = 0xCBF29CE484222325ull;
        for (std::int64_t w : key.words) {
            h ^= static_cast<std::uint64_t>(w);
            h *= 0x100000001B3ull;
        }
        return static_cast<std::size_t>(h);
    }
};

/** Tiling-stage product of one layer: piece regions and intra-core cost. */
struct LayerTiles
{
    std::vector<WorkRegion> regions; ///< per-piece ofmap slices
    double stageSeconds = 0.0;       ///< slowest piece compute time
    double energyPerUnit = 0.0;      ///< summed intra-core energy
};

/**
 * Traffic-compiler product of one layer: every flow charged to it (inbound
 * activations, weight loads, managed ofmap stores) plus its GLB pressure.
 * The group analysis is the sum of its layers' fragments. Link loads are
 * stored as a flat vector with one entry per link, in first-touch order
 * (deterministic): assembly walks it linearly, so a cached fragment
 * reproduces the uncached result bit for bit.
 */
struct LayerFlows
{
    // Small-buffer storage: a layer's merged link list is a couple dozen
    // entries and the DRAM tally is one slot per stack, so a compiled
    // fragment allocates nothing and cached reads stay on the fragment's
    // own cache lines (the SA hot loop compiles and re-reads these
    // millions of times per run).
    common::SmallVec<std::pair<noc::LinkKey, double>, 24> links;
    common::SmallVec<double, 8> dramBytes; ///< per-stack bytes per unit
    double glbOverflow = 0.0;              ///< worst piece pressure ratio
};

/**
 * Dense per-link accumulator scratch (nodeCount^2 doubles, a few KiB):
 * link loads merge by array index instead of sorting or hashing — the
 * node space of one architecture is tiny. Dirtied slots are recorded in
 * first-touch order for deterministic emission and cheap reset; per-link
 * contributions sum in emission order, exactly as a map accumulation
 * would. All contributions are strictly positive, so a zero slot always
 * means "untouched".
 */
class DenseLinkAccumulator
{
  public:
    /**
     * Size for an interconnect's node count (idempotent). Flat indices
     * span node_count^2, so they are kept in 64-bit; the guard rejects
     * node counts whose dense table could not be addressed (or
     * allocated) sanely rather than silently wrapping. The table is
     * demand-zero storage: the drain discipline restores every dirtied
     * slot to 0.0, so a matching-size reset with no pending touches is
     * free, and a fresh sizing maps zero pages without sweeping them.
     */
    void
    reset(std::size_t node_count)
    {
        GEMINI_ASSERT(node_count <= kMaxNodes,
                      "DenseLinkAccumulator: node count ", node_count,
                      " exceeds the dense-table limit ", kMaxNodes);
        if (node_count * node_count != bytes_.size()) {
            bytes_.resizeZero(node_count * node_count);
        } else if (!touched_.empty()) {
            for (std::uint64_t idx : touched_)
                bytes_[static_cast<std::size_t>(idx)] = 0.0;
        }
        nodes_ = node_count;
        touched_.clear();
    }

    void
    add(noc::LinkKey link, double bytes)
    {
        addSlot(static_cast<std::uint64_t>(noc::linkFrom(link)) * nodes_ +
                    static_cast<std::uint64_t>(noc::linkTo(link)),
                bytes);
    }

    /**
     * add() by flat slot (from * node_count + to) — the slot space of
     * InterconnectModel::linkSlot when sized with its nodeCount().
     */
    void
    addSlot(std::uint64_t idx, double bytes)
    {
        if (bytes_[idx] == 0.0)
            touched_.push_back(idx);
        bytes_[idx] += bytes;
    }

    /**
     * Merge a fragment's whole link list at once: flat slots batch
     * through the SIMD index kernel, then accumulate in list order —
     * bit-identical to add() per entry (same indices, same sum order).
     */
    void
    addMany(const std::pair<noc::LinkKey, double> *links, std::size_t n)
    {
        idxScratch_.resize(n);
        kernels::active().linkSlots(idxScratch_.data(), links, nodes_, n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto idx = static_cast<std::size_t>(idxScratch_[i]);
            if (bytes_[idx] == 0.0)
                touched_.push_back(idxScratch_[i]);
            bytes_[idx] += links[i].second;
        }
    }

    std::size_t touchedCount() const { return touched_.size(); }

    /**
     * Emit every dirtied (from, to, bytes) in first-touch order and zero
     * the scratch back out (ready for the next merge).
     */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        for (std::uint64_t idx : touched_) {
            const auto i = static_cast<std::size_t>(idx);
            const double bytes = bytes_[i];
            bytes_[i] = 0.0;
            fn(static_cast<noc::NodeId>(i / nodes_),
               static_cast<noc::NodeId>(i % nodes_), bytes);
        }
        touched_.clear();
    }

    /**
     * Like drain, but in ascending flat-slot order — the canonical fold
     * order of the delta-evaluated group state, which must not depend on
     * merge history (see DESIGN.md "Delta group evaluation").
     */
    template <typename Fn>
    void
    drainSorted(Fn &&fn)
    {
        std::sort(touched_.begin(), touched_.end());
        drain(std::forward<Fn>(fn));
    }

    /**
     * drainSorted without the flat-index round trip: emits (slot, bytes)
     * in ascending flat-slot order for callers that classify links by
     * dense slot (linkKindAt) rather than by endpoints.
     */
    template <typename Fn>
    void
    drainSlots(Fn &&fn)
    {
        std::sort(touched_.begin(), touched_.end());
        for (std::uint64_t idx : touched_) {
            const auto i = static_cast<std::size_t>(idx);
            const double bytes = bytes_[i];
            bytes_[i] = 0.0;
            fn(idx, bytes);
        }
        touched_.clear();
    }

    /** Largest supported node count (dense table of 2^48 slots). */
    static constexpr std::size_t kMaxNodes = std::size_t{1} << 24;

  private:
    std::size_t nodes_ = 0;
    common::ZeroVec<double> bytes_; ///< demand-zero dense table
    std::vector<std::uint64_t> touched_;
    std::vector<std::uint64_t> idxScratch_; ///< addMany slot batch
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_FRAGMENTS_HH
