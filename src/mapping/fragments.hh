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

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/arena.hh"
#include "src/common/logging.hh"
#include "src/common/small_vec.hh"
#include "src/common/types.hh"
#include "src/mapping/encoding.hh"
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

/**
 * Tiling-stage product of one layer: piece regions and intra-core cost.
 * The regions live in the bump arena the stage was handed (a fragment
 * cache generation's payload arena, or the analyzer's uncached scratch),
 * and stay valid until that arena is reset.
 */
struct LayerTiles
{
    std::span<const WorkRegion> regions; ///< per-piece ofmap slices
    double stageSeconds = 0.0;           ///< slowest piece compute time
    double energyPerUnit = 0.0;          ///< summed intra-core energy

    /** Copy the regions into `payload` (see common::FlatWordCache). */
    void
    relocate(common::BumpArena &payload)
    {
        regions = payload.copySpan(regions);
    }
};

/**
 * Traffic-compiler product of one layer: every flow charged to it (inbound
 * activations, weight loads, managed ofmap stores) plus its GLB pressure.
 * The group analysis is the sum of its layers' fragments. Link loads are
 * stored as a flat list with one (link id, bytes) entry per link, in
 * first-touch order (deterministic): assembly walks it linearly, so a
 * cached fragment reproduces the uncached result bit for bit. The list
 * lives in the bump arena the compiler was handed, like LayerTiles's
 * regions: link lists average 58 entries on the dse_screen workload and
 * about 517 on map_sa_gpt2 (256 cores), so an arena a cache wipe rewinds
 * holds them without a heap buffer each.
 */
struct LayerFlows
{
    std::span<const std::pair<noc::LinkId, double>> links;
    common::SmallVec<double, 8> dramBytes; ///< per-stack bytes per unit
    double glbOverflow = 0.0;              ///< worst piece pressure ratio

    /** Copy the link list into `payload` (see common::FlatWordCache). */
    void
    relocate(common::BumpArena &payload)
    {
        links = payload.copySpan(links);
    }
};

/**
 * Dense per-link accumulator scratch, one double per link id (the
 * interconnect's linkCount(): about a thousand links, a few KiB, even on
 * the 264-node grid). Link loads merge by array index instead of sorting
 * or hashing. Dirtied ids are recorded twice: in first-touch order for
 * drain(), and in a bitmap that drainSlots() walks in ascending id order
 * — the canonical fold order — without a sort. Per-link contributions
 * sum in add order, exactly as a map accumulation would. All
 * contributions are strictly positive, so a zero entry always means
 * "untouched".
 */
class DenseLinkAccumulator
{
  public:
    /**
     * Size for an interconnect's link count (idempotent). The guard
     * rejects counts beyond the 32-bit link-id space rather than
     * silently wrapping. The table is demand-zero storage: the drain
     * discipline restores every dirtied entry to 0.0, so a matching-size
     * reset with no pending touches is free.
     */
    void
    reset(std::size_t link_count)
    {
        GEMINI_ASSERT(link_count <= kMaxLinks,
                      "DenseLinkAccumulator: link count ", link_count,
                      " exceeds the dense-table limit ", kMaxLinks);
        if (link_count != bytes_.size()) {
            bytes_.resizeZero(link_count);
            touchedBits_.assign((link_count + 63) / 64, 0);
        } else {
            for (noc::LinkId id : touched_) {
                bytes_[id] = 0.0;
                touchedBits_[id >> 6] = 0;
            }
        }
        touched_.clear();
    }

    void
    add(noc::LinkId id, double bytes)
    {
        if (bytes_[id] == 0.0) {
            touched_.push_back(id);
            touchedBits_[id >> 6] |= std::uint64_t{1} << (id & 63);
        }
        bytes_[id] += bytes;
    }

    /** add() every entry of a fragment's link list, in list order. */
    void
    addMany(const std::pair<noc::LinkId, double> *links, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            add(links[i].first, links[i].second);
    }

    std::size_t touchedCount() const { return touched_.size(); }

    /**
     * Emit every dirtied (id, bytes) in first-touch order and zero the
     * scratch back out (ready for the next merge).
     */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        for (noc::LinkId id : touched_) {
            const double bytes = bytes_[id];
            bytes_[id] = 0.0;
            touchedBits_[id >> 6] = 0; // every bit of the word is drained
            fn(id, bytes);
        }
        touched_.clear();
    }

    /**
     * Like drain, but in ascending link-id order: the order a gathered
     * group is priced in, which must not depend on merge history (see
     * DESIGN.md "Flat fragment caches"). Walks the touched bitmap word
     * by word.
     */
    template <typename Fn>
    void
    drainSlots(Fn &&fn)
    {
        if (touched_.empty())
            return;
        for (std::size_t w = 0; w < touchedBits_.size(); ++w) {
            for (std::uint64_t bits = touchedBits_[w]; bits != 0;
                 bits &= bits - 1) {
                const auto id = static_cast<noc::LinkId>(
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
                const double bytes = bytes_[id];
                bytes_[id] = 0.0;
                fn(id, bytes);
            }
            touchedBits_[w] = 0;
        }
        touched_.clear();
    }

    /** Largest supported link count (the 32-bit link-id space). */
    static constexpr std::size_t kMaxLinks = std::size_t{1} << 32;

  private:
    common::ZeroVec<double> bytes_;          ///< one entry per link id
    std::vector<noc::LinkId> touched_;       ///< first-touch order
    std::vector<std::uint64_t> touchedBits_; ///< one bit per link id
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_FRAGMENTS_HH
