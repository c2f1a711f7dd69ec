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
 * Stages 2 and 3 read only the encoding, not each other's output.
 */

#ifndef GEMINI_MAPPING_FRAGMENTS_HH
#define GEMINI_MAPPING_FRAGMENTS_HH

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
 * Tiling-stage product of one layer: its intra-core cost, and nothing
 * else. Piece regions are a pure function of (layer, Partition, batch
 * unit), so the traffic compiler derives the ones it reads per compile
 * (workRegionsOf) instead of caching 64 bytes a piece here.
 */
struct LayerTiles
{
    double stageSeconds = 0.0;  ///< slowest piece compute time
    double energyPerUnit = 0.0; ///< summed intra-core energy
};

/**
 * Traffic-compiler product of one layer: every flow charged to it (inbound
 * activations, weight loads, managed ofmap stores) plus its GLB pressure.
 * The group analysis is the sum of its layers' fragments. Link loads are
 * stored as two parallel lists, link ids and bytes, one entry per link in
 * ascending link-id order (12 bytes a link plus at most 4 bytes of
 * padding a fragment, where an (id, bytes) pair would pad to 16):
 * assembly walks them linearly, and each link's total sums across
 * fragments in layer order whatever the order within a list, so a cached
 * fragment reproduces the uncached result bit for bit. The
 * lists live in the bump arena the compiler was handed (a fragment cache
 * generation's payload arena, or the analyzer's uncached scratch): link
 * lists average 58 entries on the dse_screen workload and about 517 on
 * map_sa_gpt2 (256 cores), so an arena a cache wipe rewinds holds them
 * without a heap buffer each.
 */
struct LayerFlows
{
    std::span<const noc::LinkId> linkIds;
    std::span<const double> linkBytes;     ///< bytes per unit, per linkIds
    common::SmallVec<double, 8> dramBytes; ///< per-stack bytes per unit
    double glbOverflow = 0.0;              ///< worst piece pressure ratio

    /** Copy the link lists into `payload` (see common::FlatWordCache). */
    void
    relocate(common::BumpArena &payload)
    {
        // Bytes first, so no padding falls between this fragment's two
        // lists; an odd-length id list still costs 4 bytes of padding
        // before the next fragment's 8-byte-aligned bytes list.
        linkBytes = payload.copySpan(linkBytes);
        linkIds = payload.copySpan(linkIds);
    }
};

/**
 * Dense per-link accumulator scratch, one double per link id (the
 * interconnect's linkCount(): about a thousand links, a few KiB, even on
 * the 264-node grid). Link loads merge by array index instead of sorting
 * or hashing: add() is one `+=`, so per-link contributions sum in add
 * order, exactly as a map accumulation would. All contributions are
 * strictly positive, so a zero entry always means "untouched", and
 * drain() finds the dirtied ids by one ascending scan of the table: the
 * canonical order, which does not depend on add order. The table is empty
 * between merges: every merge ends in a drain, also one that unwinds.
 */
class DenseLinkAccumulator
{
  public:
    /**
     * Size for an interconnect's link count (idempotent). The guard
     * rejects counts beyond the 32-bit link-id space rather than
     * silently wrapping. The table is demand-zero storage, and every
     * merge drains it back to 0.0, so a matching-size reset is free.
     */
    void
    reset(std::size_t link_count)
    {
        GEMINI_ASSERT(link_count <= kMaxLinks,
                      "DenseLinkAccumulator: link count ", link_count,
                      " exceeds the dense-table limit ", kMaxLinks);
        if (link_count != bytes_.size())
            bytes_.resizeZero(link_count);
    }

    void add(noc::LinkId id, double bytes) { bytes_[id] += bytes; }

    /**
     * Emit every dirtied (id, bytes) in ascending link-id order — the
     * order a fragment is stored and a gathered group is priced in (see
     * DESIGN.md "Flat fragment caches") — and zero the table back out.
     * Returns the number emitted.
     */
    template <typename Fn>
    std::size_t
    drain(Fn &&fn)
    {
        std::size_t n = 0;
        for (std::size_t id = 0; id < bytes_.size(); ++id) {
            const double bytes = bytes_[id];
            if (bytes == 0.0)
                continue;
            bytes_[id] = 0.0;
            fn(static_cast<noc::LinkId>(id), bytes);
            ++n;
        }
        return n;
    }

    /** Largest supported link count (the 32-bit link-id space). */
    static constexpr std::size_t kMaxLinks = std::size_t{1} << 32;

  private:
    common::ZeroVec<double> bytes_; ///< one entry per link id
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_FRAGMENTS_HH
