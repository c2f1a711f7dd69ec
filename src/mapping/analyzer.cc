#include "src/mapping/analyzer.hh"

#include <algorithm>

#include "src/common/logging.hh"

namespace gemini::mapping {

namespace {

/**
 * Pre-size hints per entry for the two cache tables: key words, and
 * payload bytes (four tile regions; 24 links, about the median flow
 * fragment on the paper72 DSE workloads).
 */
constexpr std::size_t kTileKeyWords = 8;
constexpr std::size_t kFlowKeyWords = 24;
constexpr std::size_t kTilePayloadBytes = 4 * sizeof(WorkRegion);
constexpr std::size_t kFlowPayloadBytes =
    24 * sizeof(std::pair<noc::LinkId, double>);

/**
 * Price a gathered group with one architecture's link kinds (`kind_of`
 * maps a link id to its LinkKind), bandwidths and cost stack. The
 * on-chip/D2D sums are order-dependent and fold in link-id order; the
 * bottleneck is an order-free max of per-link seconds seeded at +0.0,
 * folded in the same pass.
 */
template <typename KindOf>
eval::EvalBreakdown
priceGathered(const GatheredGroup &g, KindOf &&kind_of, double noc_bps,
              double d2d_bps, const cost::CostStack &costs)
{
    double on_chip = 0.0;
    double d2d = 0.0;
    double max_link_seconds = 0.0;
    for (std::size_t k = 0; k < g.linkIds.size(); ++k) {
        const noc::LinkKind kind = kind_of(g.linkIds[k]);
        if (kind == noc::LinkKind::D2D)
            d2d += g.linkBytes[k];
        else
            on_chip += g.linkBytes[k];
        const double secs =
            g.linkBytes[k] / (kind == noc::LinkKind::D2D ? d2d_bps : noc_bps);
        if (secs > max_link_seconds)
            max_link_seconds = secs;
    }

    double dram_seconds = 0.0;
    double dram_bytes = 0.0;
    for (double bytes : g.dramPerUnit) {
        dram_seconds =
            std::max(dram_seconds, bytes / costs.dramStackBps());
        dram_bytes += bytes;
    }

    eval::EvalBreakdown r;
    const double bottleneck =
        std::max({g.maxStage, max_link_seconds, dram_seconds});
    const double units = static_cast<double>(g.numUnits);
    r.delay = (units + g.pipelineDepth - 1) * bottleneck;
    r.intraTileEnergy = g.coreEnergy * units;
    r.nocEnergy = costs.onChipJ(on_chip) * units;
    r.d2dEnergy = costs.d2dJ(d2d) * units;
    r.dramEnergy = costs.dramJ(dram_bytes) * units;
    r.dramBytes = dram_bytes * units;
    r.hopBytes = (on_chip + d2d) * units;
    r.d2dHopBytes = d2d * units;
    r.glbOverflow = g.glbOverflow;
    return r;
}

} // namespace

bool
fragmentIdentical(const noc::InterconnectModel &a,
                  const noc::InterconnectModel &b)
{
    const arch::ArchConfig &x = a.config();
    const arch::ArchConfig &y = b.config();
    return x.macsPerCore == y.macsPerCore && x.glbKiB == y.glbKiB &&
           x.freqGHz == y.freqGHz && x.dramCount == y.dramCount &&
           x.xCores == y.xCores && x.yCores == y.yCores &&
           a.sameRoutes(b);
}

GroupPricer::GroupPricer(const noc::InterconnectModel &noc,
                         const cost::CostStack &costs)
    : nocBps_(noc.nocBandwidthBps()), d2dBps_(noc.d2dBandwidthBps()),
      costs_(costs)
{
    kinds_.reserve(noc.linkCount());
    for (noc::LinkId id = 0; id < noc.linkCount(); ++id)
        kinds_.push_back(noc.linkKindAt(id));
}

eval::EvalBreakdown
GroupPricer::price(const GatheredGroup &gathered) const
{
    return priceGathered(
        gathered, [this](noc::LinkId id) { return kinds_[id]; }, nocBps_,
        d2dBps_, costs_);
}

Analyzer::Analyzer(const dnn::Graph &graph, const arch::ArchConfig &arch,
                   const noc::InterconnectModel &noc,
                   intracore::Explorer &explorer)
    : graph_(graph), arch_(arch), noc_(noc), tiling_(explorer),
      trafficCompiler_(graph, arch_, noc)
{
    GEMINI_ASSERT(graph.finalized(), "graph must be finalized");
    merge_.reset(noc_.linkCount());
}

void
Analyzer::setCacheCapacity(std::size_t entries)
{
    cacheCapacity_ = entries;
    tileCache_.reserve(entries, kTileKeyWords, kTilePayloadBytes);
    flowCache_.reserve(entries, kFlowKeyWords, kFlowPayloadBytes);

    // Hoisted probe buffer: sized once so key construction never
    // reallocates mid-walk (growth past this is counted, see
    // cacheAllocEvents).
    const std::size_t probe_words = std::max<std::size_t>(
        1024, 16 * static_cast<std::size_t>(arch_.coreCount()));
    if (fragProbe_.words.capacity() < probe_words)
        fragProbe_.words.reserve(probe_words);
    fragProbeCap_ = fragProbe_.words.capacity();
}

void
Analyzer::clearCache()
{
    tileCache_.clear();
    flowCache_.clear();
}

std::uint64_t
Analyzer::cacheAllocEvents() const
{
    return tileCache_.allocEvents() + flowCache_.allocEvents() +
           probeAllocs_;
}

std::uint64_t
Analyzer::compilerAllocEvents() const
{
    return trafficCompiler_.allocEvents();
}

void
Analyzer::noteProbeGrowth() const
{
    if (fragProbe_.words.capacity() > fragProbeCap_) {
        if (fragProbeCap_ != 0)
            ++probeAllocs_;
        fragProbeCap_ = fragProbe_.words.capacity();
    }
}

GroupAnalysis
Analyzer::analyzeGroup(const LayerGroupMapping &group, std::int64_t batch,
                       const OfmapDramLookup &ofmap_dram_of) const
{
    GroupAnalysis out;
    out.dramBytesPerUnit.assign(arch_.dramCount, 0.0);

    gatherFragments(group, batch, ofmap_dram_of, fragScratch_);
    out.numUnits = fragScratch_.numUnits;

    for (const LayerTiles *tiles : fragScratch_.tiles) {
        out.coreEnergyPerUnit += tiles->energyPerUnit;
        out.maxStageSeconds =
            std::max(out.maxStageSeconds, tiles->stageSeconds);
    }

    std::size_t total_links = 0;
    for (const LayerFlows *flows : fragScratch_.flows)
        total_links += flows->links.size();
    out.traffic.reserve(total_links);
    for (const LayerFlows *flows : fragScratch_.flows) {
        for (const auto &[id, bytes] : flows->links)
            out.traffic.addLink(noc_.linkAt(id), bytes);
        for (int d = 0; d < arch_.dramCount; ++d)
            out.dramBytesPerUnit[d] += flows->dramBytes[d];
        out.glbOverflow = std::max(out.glbOverflow, flows->glbOverflow);
    }
    out.glbOverflow = std::max(out.glbOverflow, 0.0);

    out.pipelineDepth = pipelineDepthOf(group);
    return out;
}

const LayerTiles &
Analyzer::cachedTiles(const LayerGroupMapping &group, std::size_t li) const
{
    FragmentKey &key = fragProbe_;
    key.words.clear();
    TilingStage::appendKey(key, group.layers[li], group.schemes[li],
                           group.batchUnit);
    noteProbeGrowth();
    std::size_t slot = 0;
    if (LayerTiles *hit = tileCache_.find(key.words, slot)) {
        ++tileHits_;
        return *hit;
    }
    ++tileMisses_;
    tiling_.compute(graph_.layer(group.layers[li]), group.schemes[li],
                    group.batchUnit, tileCache_.spare(),
                    tileCache_.payload());
    return tileCache_.commitAt(slot, key.words);
}

const LayerFlows &
Analyzer::cachedFlows(const LayerGroupMapping &group, std::size_t li,
                      const std::vector<const LayerTiles *> &tiles,
                      std::int64_t batch, std::int64_t num_units,
                      const OfmapDramLookup &ofmap_dram_of) const
{
    FragmentKey &key = fragProbe_;
    key.words.clear();
    TrafficCompiler::appendKey(key, graph_, group, li, batch,
                               ofmap_dram_of);
    noteProbeGrowth();
    std::size_t slot = 0;
    if (LayerFlows *hit = flowCache_.find(key.words, slot)) {
        ++flowHits_;
        return *hit;
    }
    ++flowMisses_;
    trafficCompiler_.compile(group, li, tiles, num_units, ofmap_dram_of,
                             flowCache_.spare(), flowCache_.payload());
    return flowCache_.commitAt(slot, key.words);
}

void
Analyzer::gatherFragments(const LayerGroupMapping &group,
                          std::int64_t batch,
                          const OfmapDramLookup &ofmap_dram_of,
                          FragmentSet &out) const
{
    GEMINI_ASSERT(batch % group.batchUnit == 0,
                  "batch unit must divide batch");
    out.numUnits = batch / group.batchUnit;

    const std::size_t n_layers = group.layers.size();
    const bool cached = cacheCapacity_ > 0;
    out.tiles.assign(n_layers, nullptr);
    out.flows.assign(n_layers, nullptr);

    // References into the fragment caches stay valid while this call
    // inserts (pooled value storage never moves), but an eviction
    // mid-call would orphan them — make room up front for every insert.
    // Uncached fragments fill the local stores in place, sized up front
    // so the pointers taken below stay valid.
    if (cached) {
        tileCache_.makeRoom(n_layers);
        flowCache_.makeRoom(n_layers);
    } else {
        out.localPayload.reset();
        if (out.localTiles.size() < n_layers) {
            out.localTiles.resize(n_layers);
            out.localFlows.resize(n_layers);
        }
    }

    // ---- Tiling stage (per-layer tile cache) ----------------------------
    for (std::size_t li = 0; li < n_layers; ++li) {
        if (cached) {
            out.tiles[li] = &cachedTiles(group, li);
        } else {
            tiling_.compute(graph_.layer(group.layers[li]),
                            group.schemes[li], group.batchUnit,
                            out.localTiles[li], out.localPayload);
            out.tiles[li] = &out.localTiles[li];
        }
    }

    // ---- Traffic compilation (per-layer flow cache) ---------------------
    for (std::size_t li = 0; li < n_layers; ++li) {
        if (cached) {
            out.flows[li] = &cachedFlows(group, li, out.tiles, batch,
                                         out.numUnits, ofmap_dram_of);
        } else {
            trafficCompiler_.compile(group, li, out.tiles, out.numUnits,
                                     ofmap_dram_of, out.localFlows[li],
                                     out.localPayload);
            out.flows[li] = &out.localFlows[li];
        }
    }
}

int
Analyzer::pipelineDepthOf(const LayerGroupMapping &group) const
{
    const std::size_t n_layers = group.layers.size();
    static thread_local std::vector<int> depth;
    depth.assign(n_layers, 1);
    int out = 1;
    for (std::size_t li = 0; li < n_layers; ++li) {
        for (LayerId in : graph_.layer(group.layers[li]).inputs) {
            const int pi = group.indexOf(in);
            if (pi >= 0)
                depth[li] = std::max(depth[li], depth[pi] + 1);
        }
        out = std::max(out, depth[li]);
    }
    return out;
}

void
Analyzer::gatherGroup(const LayerGroupMapping &group, std::int64_t batch,
                      const OfmapDramLookup &ofmap_dram_of,
                      GatheredGroup &out) const
{
    gatherFragments(group, batch, ofmap_dram_of, fragScratch_);
    const FragmentSet &fs = fragScratch_;
    out.numUnits = fs.numUnits;
    out.pipelineDepth = pipelineDepthOf(group);

    out.coreEnergy = 0.0;
    out.maxStage = 0.0;
    for (const LayerTiles *tiles : fs.tiles) {
        out.coreEnergy += tiles->energyPerUnit;
        out.maxStage = std::max(out.maxStage, tiles->stageSeconds);
    }

    out.dramPerUnit.assign(static_cast<std::size_t>(arch_.dramCount), 0.0);
    out.glbOverflow = 0.0;
    for (const LayerFlows *flows : fs.flows) {
        for (int d = 0; d < arch_.dramCount; ++d)
            out.dramPerUnit[static_cast<std::size_t>(d)] +=
                flows->dramBytes[d];
        out.glbOverflow = std::max(out.glbOverflow, flows->glbOverflow);
    }
    out.glbOverflow = std::max(out.glbOverflow, 0.0);

    // Merge the fragments' link loads through the dense scratch: per-link
    // totals sum in layer order (identical to the map assembly) and drain
    // in ascending link-id order, the order pricing folds them in. No
    // TrafficMap is materialized.
    for (const LayerFlows *flows : fs.flows)
        for (const auto &[id, bytes] : flows->links)
            merge_.add(id, bytes);
    out.linkIds.clear();
    out.linkBytes.clear();
    merge_.drain([&](noc::LinkId id, double bytes) {
        out.linkIds.push_back(id);
        out.linkBytes.push_back(bytes);
    });
}

eval::EvalBreakdown
Analyzer::evaluateGroup(const LayerGroupMapping &group, std::int64_t batch,
                        const OfmapDramLookup &ofmap_dram_of,
                        const cost::CostStack &costs) const
{
    ++fullMerges_;
    gatherGroup(group, batch, ofmap_dram_of, gathered_);
    return priceGathered(
        gathered_, [this](noc::LinkId id) { return noc_.linkKindAt(id); },
        noc_.nocBandwidthBps(), noc_.d2dBandwidthBps(), costs);
}

eval::EvalBreakdown
Analyzer::evaluate(const GroupAnalysis &a, const cost::CostStack &costs)
    const
{
    eval::EvalBreakdown r;
    const noc::TrafficStats stats = noc_.summarize(a.traffic);

    double dram_seconds = 0.0;
    double dram_bytes = 0.0;
    for (double bytes : a.dramBytesPerUnit) {
        dram_seconds =
            std::max(dram_seconds, bytes / costs.dramStackBps());
        dram_bytes += bytes;
    }

    const double bottleneck = std::max(
        {a.maxStageSeconds, stats.maxLinkSeconds, dram_seconds});
    const double units = static_cast<double>(a.numUnits);
    r.delay = (units + a.pipelineDepth - 1) * bottleneck;

    r.intraTileEnergy = a.coreEnergyPerUnit * units;
    r.nocEnergy = costs.onChipJ(stats.onChipBytes) * units;
    r.d2dEnergy = costs.d2dJ(stats.d2dBytes) * units;
    r.dramEnergy = costs.dramJ(dram_bytes) * units;
    r.dramBytes = dram_bytes * units;
    r.hopBytes = (stats.onChipBytes + stats.d2dBytes) * units;
    r.d2dHopBytes = stats.d2dBytes * units;
    r.glbOverflow = a.glbOverflow;
    return r;
}

} // namespace gemini::mapping
