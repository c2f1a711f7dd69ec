/**
 * @file
 * The per-core workload tile handed to the intra-core exploration engine:
 * the slice of one layer's ofmap a core computes during one pipeline batch
 * unit, together with the reduction geometry needed to search tilings.
 */

#ifndef GEMINI_INTRACORE_TILE_HH
#define GEMINI_INTRACORE_TILE_HH

#include <cstdint>

#include "src/common/types.hh"

namespace gemini::intracore {

/**
 * A partitioned workload (one core, one batch unit). For MAC-layer kinds
 * the reduction loop runs over cPerGroup x r x s; vector-only kinds set
 * macWork == false and only vecOpFactor matters.
 */
struct Tile
{
    // Output tile dims.
    std::int64_t b = 1;
    std::int64_t k = 1;
    std::int64_t h = 1;
    std::int64_t w = 1;

    // Reduction geometry.
    std::int64_t cPerGroup = 1; ///< input channels reduced per output
    std::int64_t r = 1, s = 1;
    std::int64_t strideH = 1, strideW = 1;

    /** False for pool/eltwise/softmax/norm/concat tiles. */
    bool macWork = true;

    /** Vector ops per output element (activation passes, pool window...). */
    double vecOpFactor = 1.0;

    std::int64_t outVolume() const { return b * k * h * w; }

    OpCount
    macs() const
    {
        return macWork ? outVolume() * cPerGroup * r * s : 0;
    }

    double vecOps() const { return vecOpFactor * outVolume(); }

    bool operator==(const Tile &o) const = default;
};

} // namespace gemini::intracore

#endif // GEMINI_INTRACORE_TILE_HH
