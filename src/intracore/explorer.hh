/**
 * @file
 * Intra-core exploration engine (Sec. V-B1): for each partitioned workload
 * tile it searches the buffer tiling (Tk, Tc, Th, Tw) and the loop order
 * (output- / weight- / input-stationary) on an NVDLA-style MAC array, and
 * returns the cheapest scheme's cycle count and memory-traffic counters.
 * The search is exhaustive over the feasible schemes: it stops each tiling
 * ladder at its first buffer overflow, since every larger step overflows
 * too, and scores every scheme that fits. Results are memoized — the SA
 * loop re-evaluates the same tile shapes constantly.
 */

#ifndef GEMINI_INTRACORE_EXPLORER_HH
#define GEMINI_INTRACORE_EXPLORER_HH

#include <array>
#include <cstdint>

#include "src/arch/tech_params.hh"
#include "src/common/flat_table.hh"
#include "src/intracore/tile.hh"

namespace gemini::intracore {

/** Loop orders explored for the GLB <-> PE-array streaming. */
enum class LoopOrder
{
    OutputStationary, ///< hw outer, k, c inner: psums never spill
    WeightStationary, ///< k, c outer, hw inner: each weight read once
    InputStationary,  ///< hw, c outer, k inner: each ifmap read ~once
};

const char *loopOrderName(LoopOrder o);

/** Cost of executing one tile on one core with the chosen scheme. */
struct CoreCost
{
    double cycles = 0.0;    ///< core-busy cycles for the tile
    OpCount macs = 0;       ///< MAC operations
    double vecOps = 0.0;    ///< vector-unit operations
    double glbBytes = 0.0;  ///< GLB <-> PE-array traffic
    double bufBytes = 0.0;  ///< local operand-buffer traffic
    double energyJ = 0.0;   ///< intra-core energy (MAC+vec+GLB+buf)

    // The winning scheme (for reports/ablation).
    std::int64_t tileK = 0, tileC = 0, tileH = 0, tileW = 0;
    LoopOrder order = LoopOrder::OutputStationary;
};

/**
 * Memoizing exhaustive tiling/loop-order searcher for one core
 * configuration. Not thread-safe: the DSE gives each worker its own
 * mapping engine (and therefore its own Explorer).
 */
class Explorer
{
  public:
    /**
     * @param macs_per_core  PE-array MAC count
     * @param glb_bytes      GLB capacity (bounds tile working sets)
     * @param freq_ghz       core frequency (converts cycles to seconds)
     * @param tech           unit energies and microarch ratios
     */
    Explorer(int macs_per_core, std::int64_t glb_bytes, double freq_ghz,
             const arch::TechParams &tech = {});

    /** Evaluate (and memoize) the best scheme for a tile. */
    const CoreCost &evaluate(const Tile &tile);

    /**
     * Merge another explorer's memo into this one (entries already present
     * are kept; the memo is exact, so both copies hold identical values).
     * Both explorers must describe the same core configuration — the DSE
     * scheduler uses this to share one warm memo across all candidates
     * that agree on (macsPerCore, glbKiB, freq, tech).
     */
    void absorb(const Explorer &other);

    /** Seconds for `cycles` at this core's frequency. */
    double
    seconds(double cycles) const
    {
        return cycles / (freqGhz_ * 1.0e9);
    }

    int macsPerCore() const { return macsPerCore_; }
    std::int64_t glbBytes() const { return glbBytes_; }
    const arch::TechParams &tech() const { return tech_; }

    /** Memoization statistics (for the micro benchmarks). */
    std::size_t cacheSize() const { return cache_.size(); }
    std::uint64_t cacheHits() const { return hits_; }
    std::uint64_t cacheMisses() const { return misses_; }

    /**
     * Buffer-growth events of the memo (flat table; doubles in place as
     * the memo outgrows its bound). Steady-state probing allocates
     * nothing.
     */
    std::uint64_t cacheAllocEvents() const { return cache_.allocEvents(); }

  private:
    /** Tile serialized as flat-table key words. */
    using TileKey = std::array<std::int64_t, 12>;
    static TileKey keyOf(const Tile &tile);

    CoreCost search(const Tile &tile) const;
    CoreCost evalVectorTile(const Tile &tile) const;
    bool evalScheme(const Tile &tile, std::int64_t tk, std::int64_t tc,
                    std::int64_t th, std::int64_t tw, LoopOrder order,
                    CoreCost &out) const;

    int macsPerCore_;
    std::int64_t glbBytes_;
    double freqGhz_;
    arch::TechParams tech_;

    int lanesC_;
    int lanesK_;
    double wbufBytes_;
    double ibufBytes_;
    double abufBytes_;
    double glbBytesPerCycle_;
    double vecLanes_;

    /**
     * Memoized tile costs on the shared open-addressing flat table
     * (growable: the memo is unbounded by design — the SA loop re-asks
     * the same tile shapes constantly and absorb() merges warm memos).
     */
    common::FlatWordTable<CoreCost> cache_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace gemini::intracore

#endif // GEMINI_INTRACORE_EXPLORER_HH
