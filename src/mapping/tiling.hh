/**
 * @file
 * Stage 2 of the mapping-evaluation pipeline: per-group intra-core tiling.
 * Splits one layer's ofmap cube along its Partition into per-core work
 * regions and prices each piece through the intra-core exploration engine
 * (compute seconds + intra-tile energy). Only the costs leave the stage.
 */

#ifndef GEMINI_MAPPING_TILING_HH
#define GEMINI_MAPPING_TILING_HH

#include <cstdint>

#include "src/dnn/layer.hh"
#include "src/intracore/explorer.hh"
#include "src/mapping/fragments.hh"

namespace gemini::mapping {

/**
 * Stateless-per-call tiling stage bound to one intra-core explorer. The
 * explorer memoizes tile costs across calls; the stage itself holds no
 * mutable state, so one instance serves every group of an analyzer.
 */
class TilingStage
{
  public:
    explicit TilingStage(intracore::Explorer &explorer)
        : explorer_(explorer)
    {
    }

    /**
     * Price `layer` under scheme `ms` for one pipeline batch unit. Core
     * placement does not change tile shapes, so results are cacheable
     * under (layer, Part, batch unit) alone.
     */
    LayerTiles compute(const dnn::Layer &layer, const MappingScheme &ms,
                       std::int64_t batch_unit) const;

    /**
     * Append this stage's exact memoization key for one layer — every
     * scalar compute() reads. The key layout lives with the stage so a
     * new input cannot silently miss the cache key.
     */
    static void appendKey(FragmentKey &key, LayerId layer,
                          const MappingScheme &ms, std::int64_t batch_unit);

  private:
    intracore::Explorer &explorer_;
};

} // namespace gemini::mapping

#endif // GEMINI_MAPPING_TILING_HH
