#include "src/mapping/analyzer.hh"

#include <algorithm>

#include "src/common/logging.hh"
#include "src/mapping/kernels.hh"

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

/** Price a folded link/scalar state: the shared tail of every fused path. */
eval::EvalBreakdown
assembleBreakdown(int pipeline_depth, double core_energy, double max_stage,
                  double glb_overflow,
                  const std::vector<double> &dram_per_unit, double on_chip,
                  double d2d, double max_link_seconds,
                  std::int64_t num_units, const cost::CostStack &costs)
{
    double dram_seconds = 0.0;
    double dram_bytes = 0.0;
    for (double bytes : dram_per_unit) {
        dram_seconds =
            std::max(dram_seconds, bytes / costs.dramStackBps());
        dram_bytes += bytes;
    }

    eval::EvalBreakdown r;
    const double bottleneck =
        std::max({max_stage, max_link_seconds, dram_seconds});
    const double units = static_cast<double>(num_units);
    r.delay = (units + pipeline_depth - 1) * bottleneck;
    r.intraTileEnergy = core_energy * units;
    r.nocEnergy = costs.onChipJ(on_chip) * units;
    r.d2dEnergy = costs.d2dJ(d2d) * units;
    r.dramEnergy = costs.dramJ(dram_bytes) * units;
    r.dramBytes = dram_bytes * units;
    r.hopBytes = (on_chip + d2d) * units;
    r.d2dHopBytes = d2d * units;
    r.glbOverflow = glb_overflow;
    return r;
}

/**
 * Price a gathered group with one architecture's link kinds (`kind_of`
 * maps a link id to its LinkKind), bandwidths and cost stack. The
 * on-chip/D2D sums are order-dependent and fold in link-id order; the
 * bottleneck max batches through the fused SIMD kernel over the packed
 * (bytes, kind) arrays, with `kinds` as scratch.
 */
template <typename KindOf>
eval::EvalBreakdown
priceGathered(const GatheredGroup &g, KindOf &&kind_of, double noc_bps,
              double d2d_bps, const cost::CostStack &costs,
              std::vector<std::uint8_t> &kinds)
{
    double on_chip = 0.0;
    double d2d = 0.0;
    kinds.resize(g.linkIds.size());
    for (std::size_t k = 0; k < g.linkIds.size(); ++k) {
        const noc::LinkKind kind = kind_of(g.linkIds[k]);
        if (kind == noc::LinkKind::D2D)
            d2d += g.linkBytes[k];
        else
            on_chip += g.linkBytes[k];
        kinds[k] = static_cast<std::uint8_t>(kind);
    }
    const double max_link_seconds = kernels::active().maxSeconds(
        g.linkBytes.data(), kinds.data(), noc_bps, d2d_bps,
        g.linkBytes.size());

    return assembleBreakdown(g.pipelineDepth, g.coreEnergy, g.maxStage,
                             g.glbOverflow, g.dramPerUnit, on_chip, d2d,
                             max_link_seconds, g.numUnits, costs);
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
        d2dBps_, costs_, scratch_);
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
    states_.clear();
}

void
Analyzer::setDeltaEval(bool enabled)
{
    delta_ = enabled;
}

void
Analyzer::setResidentStateCapacity(std::size_t states)
{
    stateCapacity_ = std::max<std::size_t>(states, 1);
    while (states_.size() > stateCapacity_) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < states_.size(); ++i)
            if (states_[i]->lastUse < states_[victim]->lastUse)
                victim = i;
        states_.erase(states_.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    }
}

std::uint64_t
Analyzer::cacheAllocEvents() const
{
    return tileCache_.allocEvents() + flowCache_.allocEvents() +
           probeAllocs_;
}

std::uint64_t
Analyzer::stateAllocEvents() const
{
    std::uint64_t total = 0;
    for (const auto &state : states_)
        total += state->allocEvents();
    return total;
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
    // in ascending link-id order, the canonical order the delta-evaluated
    // state reproduces. No TrafficMap is materialized.
    for (const LayerFlows *flows : fs.flows)
        merge_.addMany(flows->links.data(), flows->links.size());
    out.linkIds.clear();
    out.linkBytes.clear();
    merge_.drainSlots([&](noc::LinkId id, double bytes) {
        out.linkIds.push_back(id);
        out.linkBytes.push_back(bytes);
    });
}

eval::EvalBreakdown
Analyzer::evaluateGroupFullMerge(const LayerGroupMapping &group,
                                 std::int64_t batch,
                                 const OfmapDramLookup &ofmap_dram_of,
                                 const cost::CostStack &costs) const
{
    gatherGroup(group, batch, ofmap_dram_of, gathered_);
    return priceGathered(
        gathered_, [this](noc::LinkId id) { return noc_.linkKindAt(id); },
        noc_.nocBandwidthBps(), noc_.d2dBandwidthBps(), costs, linkKinds_);
}

GroupState &
Analyzer::stateFor(const LayerGroupMapping &group, std::int64_t batch) const
{
    membershipProbe_.clear();
    membershipProbe_.push_back(batch);
    membershipProbe_.push_back(group.batchUnit);
    for (LayerId id : group.layers)
        membershipProbe_.push_back(id);

    for (auto &state : states_) {
        if (state->membership == membershipProbe_) {
            state->lastUse = ++stateClock_;
            return *state;
        }
    }

    std::unique_ptr<GroupState> fresh = std::make_unique<GroupState>();
    fresh->membership = membershipProbe_;
    fresh->lastUse = ++stateClock_;
    if (states_.size() >= stateCapacity_) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < states_.size(); ++i)
            if (states_[i]->lastUse < states_[victim]->lastUse)
                victim = i;
        states_[victim] = std::move(fresh);
        return *states_[victim];
    }
    states_.push_back(std::move(fresh));
    return *states_.back();
}

eval::EvalBreakdown
Analyzer::evaluateFromState(const GroupState &state, std::int64_t num_units,
                            const cost::CostStack &costs) const
{
    // Everything here folds packed SoA state: scalar aggregates through
    // the (bit-identical) SIMD folds, DRAM rows through the elementwise
    // accumulate kernel, links through the packed fold + tournament root.
    const GroupState::ScalarFold scalars = state.foldScalars();
    const double glb_overflow = std::max(scalars.glbOverflow, 0.0);

    static thread_local std::vector<double> dram_per_unit;
    dram_per_unit.assign(static_cast<std::size_t>(arch_.dramCount), 0.0);
    state.accumulateDram(dram_per_unit.data(), dram_per_unit.size());

    const GroupState::LinkFold fold = state.fold();
    auto out = assembleBreakdown(state.pipelineDepth, scalars.coreEnergy,
                                 scalars.maxStage, glb_overflow,
                                 dram_per_unit, fold.onChipBytes,
                                 fold.d2dBytes, fold.maxLinkSeconds,
                                 num_units, costs);
    return out;
}

eval::EvalBreakdown
Analyzer::evaluateGroupDelta(const LayerGroupMapping &group,
                             std::int64_t batch,
                             const OfmapDramLookup &ofmap_dram_of,
                             const cost::CostStack &costs) const
{
    GEMINI_ASSERT(batch % group.batchUnit == 0,
                  "batch unit must divide batch");
    const std::int64_t num_units = batch / group.batchUnit;
    const std::size_t n_layers = group.layers.size();
    GroupState &state = stateFor(group, batch);

    bool rebuild = !state.valid;
    if (!rebuild) {
        // Scheme diff: which layers' fragments changed? A fragment
        // depends on its own scheme, the Part+CG of its in-group
        // producers and the resolved DRAM of its out-of-group producers.
        selfChanged_.assign(n_layers, 0);
        partCgChanged_.assign(n_layers, 0);
        changed_.clear();
        for (std::size_t li = 0; li < n_layers; ++li) {
            const MappingScheme &now = group.schemes[li];
            const MappingScheme &old = state.layers[li].scheme;
            const bool part_cg = !(now.part == old.part) ||
                                 now.coreGroup != old.coreGroup;
            partCgChanged_[li] = part_cg;
            selfChanged_[li] = part_cg || !(now.fd == old.fd);
        }
        for (std::size_t li = 0; li < n_layers; ++li) {
            const GroupLayerState &entry = state.layers[li];
            bool frag = selfChanged_[li];
            if (!frag) {
                for (std::int32_t pi : entry.inGroupProducers) {
                    if (partCgChanged_[static_cast<std::size_t>(pi)]) {
                        frag = true;
                        break;
                    }
                }
            }
            if (!frag) {
                for (std::size_t k = 0; k < entry.outProducers.size();
                     ++k) {
                    if (ofmap_dram_of(entry.outProducers[k]) !=
                        entry.producerDrams[k]) {
                        frag = true;
                        break;
                    }
                }
            }
            if (frag)
                changed_.push_back(li);
        }
        // A diff spanning most of the group is cheaper as a re-merge.
        rebuild = 2 * changed_.size() > n_layers;
    }

    if (rebuild) {
        gatherFragments(group, batch, ofmap_dram_of, fragScratch_);
        state.rebuild(graph_, group, batch, fragScratch_.tiles,
                      fragScratch_.flows, ofmap_dram_of, noc_);
        ++deltaRebuilds_;
    } else if (!changed_.empty()) {
        // Fragments needed: tiles for the changed layers and their
        // in-group producers (the traffic compiler reads producer piece
        // geometry), flows for the changed layers only.
        fragScratch_.tiles.assign(n_layers, nullptr);
        fragScratch_.flows.assign(n_layers, nullptr);
        needTiles_.assign(n_layers, 0);
        std::size_t tile_count = 0;
        for (std::size_t li : changed_) {
            if (!needTiles_[li]) {
                needTiles_[li] = 1;
                ++tile_count;
            }
            for (std::int32_t pi : state.layers[li].inGroupProducers) {
                if (!needTiles_[static_cast<std::size_t>(pi)]) {
                    needTiles_[static_cast<std::size_t>(pi)] = 1;
                    ++tile_count;
                }
            }
        }
        tileCache_.makeRoom(tile_count);
        flowCache_.makeRoom(changed_.size());
        for (std::size_t li = 0; li < n_layers; ++li)
            if (needTiles_[li])
                fragScratch_.tiles[li] = &cachedTiles(group, li);
        for (std::size_t li : changed_)
            fragScratch_.flows[li] =
                &cachedFlows(group, li, fragScratch_.tiles, batch,
                             num_units, ofmap_dram_of);
        state.applyDelta(group, changed_, fragScratch_.tiles,
                         fragScratch_.flows, ofmap_dram_of, noc_);
        ++deltaApplies_;
        deltaChanged_ += changed_.size();
    }

    return evaluateFromState(state, num_units, costs);
}

eval::EvalBreakdown
Analyzer::evaluateGroup(const LayerGroupMapping &group, std::int64_t batch,
                        const OfmapDramLookup &ofmap_dram_of,
                        const cost::CostStack &costs) const
{
    // Delta path: the resident state is the memo — diffing schemes
    // against it costs O(layers) word compares. Everything else re-merges
    // the cached fragments.
    if (cacheCapacity_ > 0 && delta_ &&
        group.layers.size() >= deltaMinLayers_)
        return evaluateGroupDelta(group, batch, ofmap_dram_of, costs);
    ++fullMerges_;
    return evaluateGroupFullMerge(group, batch, ofmap_dram_of, costs);
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
