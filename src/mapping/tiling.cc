#include "src/mapping/tiling.hh"

#include <algorithm>

namespace gemini::mapping {

void
TilingStage::appendKey(FragmentKey &key, LayerId layer,
                       const MappingScheme &ms, std::int64_t batch_unit)
{
    key.words.insert(key.words.end(), {layer, ms.part.h, ms.part.w,
                                       ms.part.b, ms.part.k, batch_unit});
}

void
TilingStage::compute(const dnn::Layer &layer, const MappingScheme &ms,
                     std::int64_t batch_unit, LayerTiles &out,
                     common::BumpArena &payload) const
{
    const std::span<WorkRegion> regions =
        payload.allocSpan<WorkRegion>(ms.coreGroup.size());
    out.regions = regions;
    out.stageSeconds = 0.0;
    out.energyPerUnit = 0.0;
    for (std::size_t i = 0; i < ms.coreGroup.size(); ++i) {
        const WorkRegion wr =
            workRegionOf(layer, ms.part, batch_unit,
                         workIndexOf(ms.part, static_cast<std::int64_t>(i)));

        intracore::Tile tile;
        tile.b = wr.b1 - wr.b0;
        tile.k = wr.region.channels();
        tile.h = wr.region.height();
        tile.w = wr.region.width();
        tile.vecOpFactor = static_cast<double>(layer.vectorOpsPerSample()) /
                           static_cast<double>(layer.ofmapVolume());
        switch (layer.kind) {
          case dnn::LayerKind::Conv:
          case dnn::LayerKind::FC:
            tile.macWork = true;
            tile.cPerGroup = layer.c / layer.groups;
            tile.r = layer.r;
            tile.s = layer.s;
            tile.strideH = layer.strideH;
            tile.strideW = layer.strideW;
            break;
          case dnn::LayerKind::Matmul:
            tile.macWork = true;
            tile.cPerGroup = layer.transposedInner();
            break;
          default:
            tile.macWork = false;
            break;
        }
        const intracore::CoreCost &cost = explorer_.evaluate(tile);
        out.energyPerUnit += cost.energyJ;
        out.stageSeconds =
            std::max(out.stageSeconds, explorer_.seconds(cost.cycles));
        regions[i] = wr;
    }
}

} // namespace gemini::mapping
